//! Property test of the STM's `s x s` memory against an oracle that
//! shares no code with it: the inserted `(row, col, payload)` triples in
//! a `BTreeMap` keyed by `(col, row)`, last write wins. Its iteration
//! order *is* the column-major drain order the bit-plane memory must
//! reproduce.
//!
//! Each case replays from its `(property seed, case)` pair (see `common`).

mod common;

use common::{case_rng, StdRng};
use hism_stm::stm::sxs::SxsMemory;
use std::collections::BTreeMap;

/// `(col, row) -> payload`, last write wins.
type Oracle = BTreeMap<(u8, u8), u32>;

/// Section sizes around every word boundary of the indicator lines.
const SIZES: [usize; 7] = [2, 7, 63, 64, 65, 255, 256];

/// Inserts `n` random writes (positions may repeat: overwrites) into
/// both the memory and the oracle. `n >= s * s` additionally writes every
/// position once, so the block ends up full.
fn fill(r: &mut StdRng, m: &mut SxsMemory, oracle: &mut Oracle, n: usize) {
    let s = m.s();
    let mut writes: Vec<(u8, u8)> = (0..n)
        .map(|_| (r.gen_range(0..s) as u8, r.gen_range(0..s) as u8))
        .collect();
    if n >= s * s {
        writes.extend((0..s * s).map(|k| ((k / s) as u8, (k % s) as u8)));
    }
    for (row, col) in writes {
        let payload = r.next_u64() as u32;
        m.insert(row, col, payload);
        oracle.insert((col, row), payload);
    }
}

/// Every read path of `m` agrees with `oracle`.
fn check(r: &mut StdRng, m: &SxsMemory, oracle: &Oracle, what: &str) {
    let s = m.s();
    assert_eq!(m.count(), oracle.len(), "{what}: count");
    let drain: Vec<(u8, u8, u32)> = oracle.iter().map(|(&(c, row), &p)| (c, row, p)).collect();
    assert_eq!(
        m.column_major_from(0).collect::<Vec<_>>(),
        drain,
        "{what}: drain order"
    );
    for _ in 0..16 {
        let (row, col) = (r.gen_range(0..s) as u8, r.gen_range(0..s) as u8);
        assert_eq!(
            m.occupied(row, col),
            oracle.contains_key(&(col, row)),
            "{what}: occupied({row},{col})"
        );
        let from = col as usize * s + row as usize;
        let rest: Vec<(u8, u8, u32)> = drain
            .iter()
            .copied()
            .filter(|&(c, rr, _)| c as usize * s + rr as usize >= from)
            .collect();
        assert_eq!(
            m.column_major_from(from).collect::<Vec<_>>(),
            rest,
            "{what}: drain from ({row},{col})"
        );
    }
}

#[test]
fn sxs_memory_matches_the_sorted_triples_oracle() {
    for (i, &s) in SIZES.iter().enumerate() {
        // Empty, sparse (with overwrites), and full blocks.
        for (j, n) in [0, s + 3, s * s].into_iter().enumerate() {
            let case = (3 * i + j) as u64;
            let mut r = case_rng(0x5E, case);
            let what = format!("s={s} writes={n} case={case}");
            let mut m = SxsMemory::new(s);
            let mut oracle = Oracle::new();
            fill(&mut r, &mut m, &mut oracle, n);
            check(&mut r, &m, &oracle, &what);

            // `icm` leaves no residue: a cleared memory reads empty, and
            // the next block sees only its own writes.
            m.clear();
            check(&mut r, &m, &Oracle::new(), &format!("{what} cleared"));
            let mut next = Oracle::new();
            let n2 = r.gen_range(1..=2 * s);
            fill(&mut r, &mut m, &mut next, n2);
            check(&mut r, &m, &next, &format!("{what} refilled"));
        }
    }
}
