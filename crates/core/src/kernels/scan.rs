//! Phase 2 of the CRS transposition: the vectorized scan-add.
//!
//! "Although the scan-add operation … seems to be sequential at a first
//! glance, it can be vectorized using, for example, the algorithm proposed
//! by Wang et al." — we implement the classic log-step vector scan: per
//! strip-mined section, `log2(vl)` slide-and-add steps produce the
//! section-local inclusive prefix sum, then the previous sections' total
//! (the carry, read back to a scalar register) is broadcast-added.

use stm_vpsim::Engine;

/// In-place inclusive prefix sum over `n` words at `addr`, vectorized.
/// Returns the grand total (also the final element's value).
pub fn scan_add_inplace(e: &mut Engine, addr: u32, n: usize) -> u32 {
    let s = e.cfg().section_size;
    let mut carry: u32 = 0;
    let mut off = 0usize;
    while off < n {
        let vl = s.min(n - off);
        let v = e.v_ld(addr + off as u32, vl);
        let mut cur = v;
        let mut k = 1usize;
        while k < vl {
            let shifted = e.v_slide_up(&cur, k, 0);
            cur = e.v_add(&cur, &shifted);
            k *= 2;
        }
        // Broadcast-add the running carry (scalar-vector add).
        cur = e.v_add_imm(&cur, carry);
        e.v_st(addr + off as u32, &cur);
        carry = *cur.data.last().expect("vl >= 1");
        // Reading the carry back into a scalar register costs a couple of
        // scalar cycles and serializes the sections on it.
        e.scalar_cycles(2);
        e.loop_overhead();
        off += vl;
    }
    carry
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_vpsim::{Memory, VpConfig};

    fn engine() -> Engine {
        Engine::new(VpConfig::paper(), Memory::new())
    }

    #[test]
    fn scan_matches_host_prefix_sum() {
        let data: Vec<u32> = (0..200).map(|k| (k * 7 + 3) % 11).collect();
        let mut e = engine();
        e.mem_mut().write_block(50, &data);
        let total = scan_add_inplace(&mut e, 50, data.len());
        let got = e.mem().read_block(50, data.len());
        let mut expect = data.clone();
        for i in 1..expect.len() {
            expect[i] = expect[i].wrapping_add(expect[i - 1]);
        }
        assert_eq!(got, expect);
        assert_eq!(total, *expect.last().unwrap());
    }

    #[test]
    fn scan_crosses_section_boundaries() {
        // n > section size forces carry propagation.
        let data = vec![1u32; 130];
        let mut e = engine();
        e.mem_mut().write_block(0, &data);
        scan_add_inplace(&mut e, 0, 130);
        assert_eq!(e.mem().read(129), 130);
        assert_eq!(e.mem().read(63), 64);
        assert_eq!(e.mem().read(64), 65);
    }

    #[test]
    fn scan_empty_and_single() {
        let mut e = engine();
        assert_eq!(scan_add_inplace(&mut e, 0, 0), 0);
        e.mem_mut().write(10, 9);
        assert_eq!(scan_add_inplace(&mut e, 10, 1), 9);
    }

    #[test]
    fn scan_cost_is_logarithmic_per_section() {
        // A 64-element section needs 6 slide+add pairs, not 63 adds.
        let mut e = engine();
        e.mem_mut().write_block(0, &[1; 64]);
        scan_add_inplace(&mut e, 0, 64);
        // ld + 6*(slide+add) + add_imm + st = 15 vector instructions.
        assert_eq!(e.stats().instructions, 15);
    }
}
