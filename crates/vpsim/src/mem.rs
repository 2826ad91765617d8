//! Simulated main memory: a flat, word-addressed 32-bit store, plus a bump
//! allocator for laying out kernel data structures.
//!
//! Memory is optionally *guarded*: a kernel that knows its footprint calls
//! [`Memory::guard`] with the highest valid address, and every later access
//! past that limit becomes a recorded [`MemFault`] instead of silent
//! growth. The fault is sticky (first one wins) so a kernel can run to
//! completion and report the fault afterwards — mirroring how a hardware
//! walker would trap on the first bad address.

use std::cell::Cell;

/// How guarded memory reacts to an out-of-bounds access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OobPolicy {
    /// Legacy behavior: grow the store on demand, never fault. This is the
    /// default for a bare [`Memory`]; guards are opt-in per kernel.
    #[default]
    Grow,
    /// Record a sticky [`MemFault`]; OOB reads return [`POISON_WORD`] and
    /// OOB writes are dropped. The engine surfaces the fault as a typed
    /// error after the run.
    Trap,
}

/// The sentinel returned by out-of-bounds reads under a guard. Chosen to be
/// loud: as a pointer it is far out of range, as an f32 it is a huge
/// negative number, so poisoned data cannot masquerade as a clean result.
pub const POISON_WORD: u32 = 0xDEAD_BEEF;

/// One recorded out-of-bounds access against a guarded [`Memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The offending word address.
    pub addr: u32,
    /// The guard limit in force (first invalid address).
    pub limit: u32,
    /// True for a store, false for a load.
    pub write: bool,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out-of-bounds {} at word {:#x} (guard limit {:#x})",
            if self.write { "store" } else { "load" },
            self.addr,
            self.limit
        )
    }
}

/// Word-addressed 32-bit main memory. Grows on demand so tests never need
//  to size it up front.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    words: Vec<u32>,
    limit: Option<u32>,
    // Cell: reads take `&self` but must still be able to record the fault.
    fault: Cell<Option<MemFault>>,
    oob_events: Cell<u64>,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// A memory pre-sized to `capacity_words` zeroed words.
    pub fn with_capacity(capacity_words: usize) -> Self {
        Memory {
            words: vec![0; capacity_words],
            ..Memory::default()
        }
    }

    /// The stored words, from address 0 to the highest one written.
    pub fn into_words(self) -> Vec<u32> {
        self.words
    }

    /// Current size in words (highest initialized address + 1).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no word has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Arms the guard: addresses `>= limit` become out-of-bounds under
    /// `policy` ([`OobPolicy::Grow`] disarms). Also clears any sticky fault.
    pub fn guard(&mut self, limit: u32, policy: OobPolicy) {
        self.limit = if policy == OobPolicy::Grow {
            None
        } else {
            Some(limit)
        };
        self.clear_fault();
    }

    /// The first out-of-bounds access recorded since the last
    /// [`Memory::clear_fault`], if any.
    pub fn fault(&self) -> Option<MemFault> {
        self.fault.get()
    }

    /// Total out-of-bounds accesses recorded (not just the first).
    pub fn oob_events(&self) -> u64 {
        self.oob_events.get()
    }

    /// Forgets the sticky fault and the event count.
    pub fn clear_fault(&mut self) {
        self.fault.set(None);
        self.oob_events.set(0);
    }

    /// Records an OOB access; returns true when the access must be diverted
    /// (poison read / dropped write).
    #[inline]
    fn trip(&self, addr: u32, write: bool) -> bool {
        match self.limit {
            Some(limit) if addr >= limit => {
                self.oob_events.set(self.oob_events.get() + 1);
                if self.fault.get().is_none() {
                    self.fault.set(Some(MemFault { addr, limit, write }));
                }
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn ensure(&mut self, addr: u32) {
        if addr as usize >= self.words.len() {
            self.words.resize(addr as usize + 1, 0);
        }
    }

    /// Reads one word (unwritten addresses read as 0; guarded OOB reads
    /// record a fault and return [`POISON_WORD`]).
    #[inline]
    pub fn read(&self, addr: u32) -> u32 {
        if self.trip(addr, false) {
            return POISON_WORD;
        }
        self.words.get(addr as usize).copied().unwrap_or(0)
    }

    /// Writes one word, growing the store if necessary. Guarded OOB writes
    /// record a fault and are dropped.
    #[inline]
    pub fn write(&mut self, addr: u32, value: u32) {
        if self.trip(addr, true) {
            return;
        }
        self.ensure(addr);
        self.words[addr as usize] = value;
    }

    /// The word range `[addr, addr + n)` when every address in it is
    /// inside the guard (or no guard is armed) and addressable: the
    /// blocks that need no per-word fault check.
    fn unguarded(&self, addr: u32, n: usize) -> Option<std::ops::Range<usize>> {
        let end = addr as u64 + n as u64;
        let bound = self.limit.map_or(u32::MAX as u64, u64::from);
        (end <= bound).then_some(addr as usize..end as usize)
    }

    /// Reads `n` consecutive words starting at `addr`. A block inside
    /// the guard and the store is one slice copy; any other block is
    /// read word by word, so each out-of-bounds word records its fault.
    pub fn read_block(&self, addr: u32, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        self.read_block_into(addr, n, &mut out);
        out
    }

    /// [`Memory::read_block`] into `out` (cleared first), for callers
    /// that reuse one buffer.
    pub fn read_block_into(&self, addr: u32, n: usize, out: &mut Vec<u32>) {
        out.clear();
        match self.unguarded(addr, n) {
            Some(r) if r.end <= self.words.len() => out.extend_from_slice(&self.words[r]),
            _ => out.extend((0..n).map(|k| self.read(addr + k as u32))),
        }
    }

    /// [`Memory::read_block`], each word converted by `f` on the way
    /// out.
    pub fn read_block_map<T>(&self, addr: u32, n: usize, mut f: impl FnMut(u32) -> T) -> Vec<T> {
        match self.unguarded(addr, n) {
            Some(r) if r.end <= self.words.len() => self.words[r].iter().map(|&w| f(w)).collect(),
            _ => (0..n).map(|k| f(self.read(addr + k as u32))).collect(),
        }
    }

    /// True when every word of `[addr, addr + n)` is inside the guard
    /// (or no guard is armed): accesses to it record no fault.
    pub fn in_bounds(&self, addr: u32, n: usize) -> bool {
        self.unguarded(addr, n).is_some()
    }

    /// Writes a block of consecutive words starting at `addr`. A block
    /// inside the guard grows the store at most once and is one slice
    /// copy; a block crossing the guard is written word by word, so the
    /// in-bounds prefix lands and each dropped word records its fault.
    pub fn write_block(&mut self, addr: u32, data: &[u32]) {
        self.write_iter(addr, data.iter().copied());
    }

    /// [`Memory::write_block`] of the words `data` yields, for callers
    /// that convert their words on the way in.
    pub fn write_iter(&mut self, addr: u32, data: impl ExactSizeIterator<Item = u32>) {
        match self.unguarded(addr, data.len()) {
            Some(r) if !r.is_empty() => {
                if r.end > self.words.len() {
                    self.words.resize(r.end, 0);
                }
                for (w, v) in self.words[r].iter_mut().zip(data) {
                    *w = v;
                }
            }
            _ => {
                for (k, w) in data.enumerate() {
                    self.write(addr + k as u32, w);
                }
            }
        }
    }

    /// Silently XORs `mask` into the word at `addr`, bypassing the guard
    /// and all fault accounting — the soft-error back door of the fault
    /// injector ([`crate::MidRunFlip`]). Returns false (and does nothing)
    /// when the address was never materialized: there is no stored charge
    /// to corrupt.
    pub fn corrupt(&mut self, addr: u32, mask: u32) -> bool {
        match self.words.get_mut(addr as usize) {
            Some(w) => {
                *w ^= mask;
                true
            }
            None => false,
        }
    }

    /// Reads a word as `f32` (bit cast).
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read(addr))
    }

    /// Writes an `f32` word (bit cast).
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.write(addr, value.to_bits());
    }
}

/// Bump allocator over [`Memory`] addresses — the kernels use it to place
/// their arrays like a program's loader/heap would.
#[derive(Debug, Clone)]
pub struct Allocator {
    next: u32,
}

impl Allocator {
    /// Starts allocating at `base` (word address).
    pub fn new(base: u32) -> Self {
        Allocator { next: base }
    }

    /// Reserves `words` consecutive words, returns their base address.
    pub fn alloc(&mut self, words: usize) -> u32 {
        let addr = self.next;
        self.next = self
            .next
            .checked_add(words as u32)
            .expect("simulated address space exhausted");
        addr
    }

    /// Next free address (watermark).
    pub fn watermark(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new();
        m.write(100, 42);
        assert_eq!(m.read(100), 42);
        assert_eq!(m.read(99), 0);
        assert_eq!(m.len(), 101);
    }

    #[test]
    fn unwritten_reads_are_zero() {
        let m = Memory::new();
        assert_eq!(m.read(123456), 0);
    }

    #[test]
    fn block_round_trip() {
        let mut m = Memory::new();
        m.write_block(10, &[1, 2, 3]);
        assert_eq!(m.read_block(9, 5), vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn f32_round_trip() {
        let mut m = Memory::new();
        m.write_f32(5, -3.25);
        assert_eq!(m.read_f32(5), -3.25);
    }

    #[test]
    fn allocator_bumps() {
        let mut a = Allocator::new(10);
        assert_eq!(a.alloc(3), 10);
        assert_eq!(a.alloc(4), 13);
        assert_eq!(a.watermark(), 17);
    }

    #[test]
    fn empty_block_write_is_noop() {
        let mut m = Memory::new();
        m.write_block(50, &[]);
        assert!(m.is_empty());
    }

    #[test]
    fn unguarded_memory_never_faults() {
        let mut m = Memory::new();
        m.write(1_000_000, 7);
        assert_eq!(m.read(1_000_000), 7);
        assert_eq!(m.fault(), None);
        assert_eq!(m.oob_events(), 0);
    }

    #[test]
    fn guarded_read_poisons_and_records_first_fault() {
        let mut m = Memory::with_capacity(8);
        m.guard(8, OobPolicy::Trap);
        assert_eq!(m.read(3), 0);
        assert_eq!(m.read(8), POISON_WORD);
        assert_eq!(m.read(100), POISON_WORD);
        assert_eq!(
            m.fault(),
            Some(MemFault {
                addr: 8,
                limit: 8,
                write: false
            })
        );
        assert_eq!(m.oob_events(), 2);
    }

    #[test]
    fn guarded_write_is_dropped() {
        let mut m = Memory::with_capacity(4);
        m.guard(4, OobPolicy::Trap);
        m.write(2, 11);
        m.write(9, 99);
        assert_eq!(m.len(), 4, "OOB write must not grow the store");
        assert_eq!(m.fault().map(|f| (f.addr, f.write)), Some((9, true)));
    }

    #[test]
    fn guarded_block_write_keeps_in_bounds_prefix() {
        let mut m = Memory::with_capacity(4);
        m.guard(4, OobPolicy::Trap);
        m.write_block(2, &[1, 2, 3, 4]);
        assert_eq!(m.read_block(0, 4), vec![0, 0, 1, 2]);
        assert_eq!(m.oob_events(), 2);
    }

    #[test]
    fn rearming_the_guard_clears_the_fault() {
        let mut m = Memory::with_capacity(2);
        m.guard(2, OobPolicy::Trap);
        m.read(5);
        assert!(m.fault().is_some());
        m.guard(16, OobPolicy::Trap);
        assert!(m.fault().is_none());
        assert_eq!(m.read(5), 0);
        m.guard(0, OobPolicy::Grow);
        m.write(1_000, 1);
        assert!(m.fault().is_none());
    }

    #[test]
    fn fault_display_names_the_access() {
        let f = MemFault {
            addr: 0x40,
            limit: 0x10,
            write: true,
        };
        assert!(f.to_string().contains("store"));
        assert!(f.to_string().contains("0x40"));
    }
}
