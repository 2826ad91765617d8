//! Phase 1 of the CRS transposition: the column histogram, as *scalar*
//! code for the 4-way scalar core.
//!
//! The paper explains why this phase is not vectorized: the mask-vector
//! formulation would compare every column index against every column —
//! "because the matrix is sparse, the dominant part of the mask's elements
//! will be zero and vector operations will be, therefore, inefficient. For
//! this reason we have not vectorized this code … but translated it to
//! the scalar instructions … executed by the baseline 4-way issue
//! superscalar processor."
//!
//! The scalar translation is the standard counting loop
//! `for jp in 0..nnz { IAT[JA[jp] + 1] += 1 }`.

use stm_vpsim::scalar::{Asm, Program};

/// Builds the histogram program over `JA[0..nnz]` at `ja_addr`,
/// accumulating counts into `IAT[1..]` at `iat_addr` (entry `j + 1`
/// counts column `j`, so the subsequent scan-add yields row pointers with
/// `IAT[0] = 0`).
pub fn histogram_program(ja_addr: u32, nnz: usize, iat_addr: u32) -> Program {
    let mut a = Asm::new();
    if nnz == 0 {
        a.halt();
        return a.finish();
    }
    // r1 = jp, r2 = nnz, r3 = &JA[jp], r4 = &IAT[1].
    a.li(1, 0);
    a.li(2, nnz as i64);
    a.li(3, ja_addr as i64);
    a.li(4, iat_addr as i64 + 1);
    let top = a.label();
    a.bind(top);
    a.ld(5, 3, 0); //  j   = JA[jp]
    a.add(6, 4, 5); //  &IAT[j+1]
    a.ld(7, 6, 0); //  cnt = IAT[j+1]
    a.addi(7, 7, 1);
    a.st(6, 0, 7); //  IAT[j+1] = cnt + 1
    a.addi(3, 3, 1);
    a.addi(1, 1, 1);
    a.blt(1, 2, top);
    a.halt();
    a.finish()
}

/// The *rejected* vectorized histogram the paper describes before
/// dismissing it: for every column `i`, build the mask `M_i[j] = (JA[j]
/// == i)` with vector compares and sum it with a vectorized reduction.
/// "Because the matrix is sparse, the dominant part of M_i's elements
/// will be zero and vector operations will be, therefore, inefficient."
///
/// Implemented here so that inefficiency is *measurable* (see the tests
/// and the `rejected_designs` study): its work is `O(cols · nnz)` vector
/// element-operations versus the scalar loop's `O(nnz)`.
pub fn histogram_vectorized(
    e: &mut stm_vpsim::Engine,
    ja_addr: u32,
    nnz: usize,
    iat_addr: u32,
    cols: usize,
) {
    let s = e.cfg().section_size;
    for i in 0..cols {
        // Accumulate the count of column i over strip-mined sections.
        let mut count: u32 = 0;
        let mut off = 0usize;
        while off < nnz {
            let vl = s.min(nnz - off);
            let ja = e.v_ld(ja_addr + off as u32, vl);
            let mask = e.v_cmp_eq_imm(&ja, i as u32);
            let sum = e.v_reduce_add(&mask);
            count = count.wrapping_add(sum.data[0]);
            e.scalar_cycles(2); // move the partial sum to a scalar reg
            e.loop_overhead();
            off += vl;
        }
        // Store IAT[i+1] = count (scalar store).
        e.mem_mut().write(iat_addr + 1 + i as u32, count);
        e.scalar_cycles(2);
    }
}

/// A safe dynamic-instruction cap for [`histogram_program`].
pub fn histogram_max_instructions(nnz: usize) -> u64 {
    16 + 9 * nnz as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_vpsim::scalar::run_program;
    use stm_vpsim::{Memory, VpConfig};

    #[test]
    fn counts_columns_correctly() {
        let mut mem = Memory::new();
        let ja = [0u32, 2, 2, 1, 0, 0];
        mem.write_block(100, &ja);
        let p = histogram_program(100, ja.len(), 200);
        let st = run_program(
            &VpConfig::paper(),
            &mut mem,
            &p,
            histogram_max_instructions(ja.len()),
            true,
        );
        // IAT[0] untouched; IAT[j+1] = count of column j.
        assert_eq!(mem.read_block(200, 4), vec![0, 3, 1, 2]);
        assert_eq!(st.stores, 6);
    }

    #[test]
    fn vectorized_variant_is_functionally_correct() {
        use stm_vpsim::Engine;
        let ja = [0u32, 2, 2, 1, 0, 0];
        let mut mem = Memory::new();
        mem.write_block(100, &ja);
        let mut e = Engine::new(VpConfig::paper(), mem);
        histogram_vectorized(&mut e, 100, ja.len(), 200, 3);
        assert_eq!(e.mem().read_block(200, 4), vec![0, 3, 1, 2]);
    }

    #[test]
    fn paper_is_right_to_reject_the_vectorized_histogram() {
        // §IV-A: the mask-vector formulation does O(cols * nnz) work; on a
        // sparse matrix it must lose badly to the scalar loop.
        use stm_vpsim::Engine;
        let nnz = 2000usize;
        let cols = 512usize;
        let ja: Vec<u32> = (0..nnz as u32)
            .map(|k| k.wrapping_mul(2654435761) % cols as u32)
            .collect();

        let mut mem = Memory::new();
        mem.write_block(0, &ja);
        let mut e = Engine::new(VpConfig::paper(), mem);
        histogram_vectorized(&mut e, 0, nnz, 100_000, cols);
        let vectorized_cycles = e.cycles();

        let mut mem = Memory::new();
        mem.write_block(0, &ja);
        let p = histogram_program(0, nnz, 100_000);
        let scalar_cycles = run_program(
            &VpConfig::paper(),
            &mut mem,
            &p,
            histogram_max_instructions(nnz),
            true,
        )
        .cycles;
        assert!(
            vectorized_cycles > 5 * scalar_cycles,
            "vectorized {vectorized_cycles} vs scalar {scalar_cycles}"
        );
    }

    #[test]
    fn empty_input_halts_immediately() {
        let mut mem = Memory::new();
        let p = histogram_program(0, 0, 10);
        let st = run_program(&VpConfig::paper(), &mut mem, &p, 16, true);
        assert_eq!(st.instructions, 1);
    }

    #[test]
    fn cycle_cost_scales_linearly() {
        let cost = |nnz: usize| {
            let mut mem = Memory::new();
            let ja: Vec<u32> = (0..nnz as u32).map(|k| k % 37).collect();
            mem.write_block(0, &ja);
            let p = histogram_program(0, nnz, 100_000);
            run_program(
                &VpConfig::paper(),
                &mut mem,
                &p,
                histogram_max_instructions(nnz),
                true,
            )
            .cycles
        };
        let (c1, c2) = (cost(1000), cost(2000));
        let ratio = c2 as f64 / c1 as f64;
        assert!(ratio > 1.8 && ratio < 2.2, "ratio = {ratio}");
    }

    #[test]
    fn random_iat_accesses_cost_more_than_sequential() {
        // Widely scattered column indices thrash the L1; a narrow range
        // stays resident. The timing model must reflect that.
        let run_width = |width: u32| {
            let nnz = 4000;
            let mut mem = Memory::new();
            let ja: Vec<u32> = (0..nnz as u32)
                .map(|k| k.wrapping_mul(2654435761) % width)
                .collect();
            mem.write_block(0, &ja);
            let p = histogram_program(0, nnz, 10_000);
            run_program(
                &VpConfig::paper(),
                &mut mem,
                &p,
                histogram_max_instructions(nnz),
                true,
            )
            .cycles
        };
        assert!(run_width(1_000_000) > run_width(64));
    }
}
