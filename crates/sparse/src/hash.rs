//! The workspace's one FNV-1a hasher (64-bit), behind every digest,
//! record seal and section checksum.
//!
//! FNV-1a steps each byte as `h = (h ^ b) · P`. For a zero byte the XOR
//! is the identity, so a run of `k` zero bytes is one multiplication by
//! `Pᵏ`. Integer writes use that: they step only the low 2, 4 or 8 bytes,
//! whichever is the fewest that hold the value, and fold the zero bytes
//! above into the last step's multiply, by a precomputed power of `P` —
//! a typical `u64` index costs 2 multiplies instead of 8. The choice is
//! one branch that stays predicted while indices keep their magnitude,
//! and the value is bit-identical to stepping every byte.

/// FNV-1a offset basis (the hash of zero bytes).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POW[k] = Pᵏ`: the step over `k` zero bytes.
const PRIME_POW: [u64; 9] = {
    let mut t = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        t[k] = t[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    t
};

/// `FIRST_STEP[b]`: the state after byte `b` from the offset basis.
const FIRST_STEP: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = (FNV_OFFSET ^ b as u64).wrapping_mul(FNV_PRIME);
        b += 1;
    }
    t
};

/// A streaming 64-bit FNV-1a hasher. Integers are written as their
/// little-endian bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the offset basis.
    pub const fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// A hasher resuming from state `h` (a previous [`Fnv1a::finish`],
    /// or any seed).
    pub const fn with_state(h: u64) -> Self {
        Fnv1a(h)
    }

    /// Hashes one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Hashes `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Hashes the 4 little-endian bytes of `w`.
    #[inline]
    pub fn u32(&mut self, w: u32) {
        let w = u64::from(w);
        self.0 = if w >> 16 == 0 {
            steps(self.0, w, 2, 4)
        } else {
            steps(self.0, w, 4, 4)
        };
    }

    /// Hashes the 8 little-endian bytes of `w`.
    #[inline]
    pub fn u64(&mut self, w: u64) {
        self.0 = if w >> 16 == 0 {
            steps(self.0, w, 2, 8)
        } else if w >> 32 == 0 {
            steps(self.0, w, 4, 8)
        } else {
            steps(self.0, w, 8, 8)
        };
    }

    /// The hash of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// Steps state `h` over the low `n` bytes of `w`, whose bytes from `n`
/// up to `width` are zero: the last step multiplies by `P` once for its
/// own byte and once for each zero byte above it.
#[inline(always)]
fn steps(mut h: u64, mut w: u64, n: usize, width: usize) -> u64 {
    for _ in 1..n {
        h = (h ^ (w & 0xff)).wrapping_mul(FNV_PRIME);
        w >>= 8;
    }
    (h ^ w).wrapping_mul(PRIME_POW[width + 1 - n])
}

/// FNV-1a of one `u32`'s 4 little-endian bytes from the offset basis,
/// the first byte's step read from a table — the per-word hash that
/// order-independent checksums XOR together.
#[inline]
pub fn fnv1a_u32(w: u32) -> u64 {
    let h = FIRST_STEP[(w & 0xff) as usize];
    let rest = u64::from(w >> 8);
    if w >> 16 == 0 {
        steps(h, rest, 1, 3)
    } else {
        steps(h, rest, 3, 3)
    }
}

/// FNV-1a of `bytes` from the offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    /// The definition: one xor-multiply per byte, nothing folded.
    fn naive(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn matches_reference_vectors() {
        // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn zero_run_writes_match_the_byte_loop() {
        let edges: [u64; 11] = [
            0,
            0xff,
            0x100,
            0xffff,
            0x1_0000,
            0xff_ffff,
            0x100_0000,
            u32::MAX as u64,
            1 << 32,
            1 << 56,
            u64::MAX,
        ];
        let mut rng = StdRng::seed_from_u64(0xF0F1);
        // Random words with 0..=8 significant bytes, so every zero-run
        // length is hit.
        let random = (0..2000).map(|i| {
            let w = rng.next_u64();
            if i % 9 == 8 {
                0
            } else {
                w >> (8 * (i % 9))
            }
        });
        let mut words: Vec<u64> = edges.to_vec();
        for e in edges {
            words.extend([e.wrapping_sub(1), e.wrapping_add(1)]);
        }
        words.extend(random);
        for (i, &w) in words.iter().enumerate() {
            // Each write both from the basis and mid-stream.
            for start in [FNV_OFFSET, naive(FNV_OFFSET, &(i as u64).to_le_bytes())] {
                let mut h = Fnv1a::with_state(start);
                h.u64(w);
                assert_eq!(h.finish(), naive(start, &w.to_le_bytes()), "u64 {w:#x}");
                if let Ok(w) = u32::try_from(w) {
                    let mut h = Fnv1a::with_state(start);
                    h.u32(w);
                    assert_eq!(h.finish(), naive(start, &w.to_le_bytes()), "u32 {w:#x}");
                    assert_eq!(fnv1a_u32(w), naive(FNV_OFFSET, &w.to_le_bytes()));
                }
            }
        }
    }

    #[test]
    fn mixed_stream_matches_the_byte_loop() {
        let mut h = Fnv1a::new();
        let mut bytes = Vec::new();
        for k in 0..300u64 {
            let w = k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (k % 64);
            h.u64(w);
            bytes.extend(w.to_le_bytes());
            h.u32(w as u32);
            bytes.extend((w as u32).to_le_bytes());
            h.byte(k as u8);
            bytes.push(k as u8);
        }
        assert_eq!(h.finish(), naive(FNV_OFFSET, &bytes));
    }
}
