//! Pipeline-level view of one block transposition: installs a recorder
//! on the engine, runs the STM write/read phases by hand (the Fig. 7
//! instruction sequence), and prints every retired instruction's span
//! with its issue and last-completion cycles — showing the chaining, the
//! fill-before-read barrier, and the 3-stage pipelines at work.
//!
//! ```sh
//! cargo run --release --example trace_view
//! ```

use hism_stm::hism::{build, HismImage};
use hism_stm::obs::{EventKind, Recorder};
use hism_stm::sparse::Coo;
use hism_stm::stm::coproc::StmCoprocessor;
use hism_stm::stm::StmConfig;
use hism_stm::vpsim::{Engine, Fu, Memory, VpConfig};

fn main() {
    // One 8x8 block with a handful of entries (like the paper's Fig. 2).
    let coo = Coo::from_triplets(
        8,
        8,
        vec![
            (0, 1, 1.0),
            (0, 5, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 7, 5.0),
            (5, 5, 6.0),
            (7, 0, 7.0),
        ],
    )
    .unwrap();
    let h = build::from_coo(&coo, 8).unwrap();
    let image = HismImage::encode(&h);

    let mut vp = VpConfig::paper();
    vp.section_size = 8;
    let mut mem = Memory::new();
    mem.write_block(0, &image.words);
    let mut e = Engine::new(vp, mem);
    let rec = Recorder::enabled_default();
    e.set_recorder(rec.clone());
    let mut stm = StmCoprocessor::new(StmConfig { s: 8, b: 4, l: 4 });

    // The Fig. 7 sequence for one block (single section: len <= s).
    let len = image.root.len as usize;
    stm.icm(&mut e); //                      icm
    let (vals, pos) = e.v_ld_pair(0, len); //  v_ldb  vr1, vr2
    stm.v_stcr(&mut e, &vals, &pos).unwrap(); // v_stcr vr1, vr2
    let (vals_t, pos_t) = stm.v_ldcc(&mut e, len); // v_ldcc vr1, vr2
    e.v_st_pair(0, &vals_t, &pos_t); //        v_stb  vr1, vr2

    println!("transposing one 8x8 block ({len} entries) with B=4, L=4:\n");
    println!("      op       lane     issue      last  elems");
    for ev in rec.snapshot().events {
        if let EventKind::Complete { dur, elements } = ev.kind {
            let last = ev.ts + dur.max(1) - 1;
            let lane = ev.lane.label();
            println!(
                "{:>8}  {lane:>9}  {:>8}  {last:>8}  {elements:>5}",
                ev.name, ev.ts
            );
        }
    }
    println!("total: {} cycles", e.cycles());
    println!(
        "memory port busy {} cycles, STM busy {} cycles",
        e.fu_busy().mem,
        e.fu_busy().stm
    );
    println!(
        "memory-port utilization: {:.0}%",
        100.0 * e.fu_busy().utilization(Fu::Mem, e.cycles())
    );

    // Show the result is really the transpose.
    let words = e.mem().read_block(0, image.words.len());
    let out = HismImage {
        words,
        root: image.root,
        pointer_sites: vec![],
        integrity: None,
    };
    let decoded = out.decode().expect("valid output image");
    println!("\ntransposed entries (row, col, value):");
    for &(r, c, v) in hism_stm::hism::build::to_coo(&decoded).entries() {
        println!("  ({r}, {c})  {v}");
    }
}
