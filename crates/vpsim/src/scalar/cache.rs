//! A set-associative, write-allocate L1 data cache model with LRU
//! replacement — the scalar core's view of the 20-cycle main memory.

/// Geometry and latencies of the L1 data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (default 32 KiB, SimpleScalar's default L1).
    pub size_bytes: usize,
    /// Line size in bytes (default 32).
    pub line_bytes: usize,
    /// Associativity (default 4).
    pub assoc: usize,
    /// Hit latency in cycles (default 2: address generation + access).
    pub hit_latency: u64,
    /// Miss penalty in cycles on top of the hit latency (default 20 —
    /// the same main-memory startup the vector unit pays).
    pub miss_penalty: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 32,
            assoc: 4,
            hit_latency: 2,
            miss_penalty: 20,
        }
    }
}

impl CacheConfig {
    fn num_sets(&self) -> usize {
        (self.size_bytes / self.line_bytes / self.assoc).max(1)
    }
}

/// The cache state: per-set tag arrays with LRU stamps.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `ways[set * assoc + way] = (tag, last_use_stamp)`, one flat array
    /// of every set's ways; `u64::MAX` tag = invalid.
    ways: Vec<(u64, u64)>,
    /// Number of sets.
    sets: u64,
    /// `log2(line_bytes)`: the line size is a power of two.
    line_shift: u32,
    /// `log2(sets)` when the set count is a power of two (the default
    /// geometry), so the set index and tag are a mask and a shift.
    set_shift: Option<u32>,
    stamp: u64,
    /// The line of the last access and its index in `ways`: the next
    /// access to the same line hits there without a search.
    last: (u64, usize),
    hits: u64,
    misses: u64,
}

impl Cache {
    /// A cold cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes >= 4 && cfg.line_bytes.is_power_of_two());
        assert!(cfg.assoc >= 1);
        let n = cfg.num_sets();
        Cache {
            cfg,
            ways: vec![(u64::MAX, 0); n * cfg.assoc],
            sets: n as u64,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: n.is_power_of_two().then(|| n.trailing_zeros()),
            stamp: 0,
            last: (u64::MAX, 0),
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the word at `word_addr` (read or write — write-allocate
    /// makes them equivalent for this model) and returns the latency.
    #[inline]
    pub fn access(&mut self, word_addr: u32) -> u64 {
        self.stamp += 1;
        let line = (word_addr as u64 * 4) >> self.line_shift;
        if line == self.last.0 {
            self.ways[self.last.1].1 = self.stamp;
            self.hits += 1;
            return self.cfg.hit_latency;
        }
        let (set, tag) = match self.set_shift {
            Some(sh) => ((line & ((1 << sh) - 1)) as usize, line >> sh),
            None => ((line % self.sets) as usize, line / self.sets),
        };
        let assoc = self.cfg.assoc;
        let base = set * assoc;
        let ways = &mut self.ways[base..base + assoc];
        // Branch-free scans: which way hits is data-dependent, so an
        // early-exit search would mispredict on most accesses. Valid tags
        // in a set are distinct, so at most one way matches.
        let mut hit = assoc;
        for (way, &(t, _)) in ways.iter().enumerate() {
            hit = if t == tag { way } else { hit };
        }
        if hit < assoc {
            ways[hit].1 = self.stamp;
            self.hits += 1;
            self.last = (line, base + hit);
            return self.cfg.hit_latency;
        }
        // Miss: evict the least recently used way (the first on a tie,
        // which only invalid ways can share).
        self.misses += 1;
        let mut victim = 0;
        for (way, &(_, stamp)) in ways.iter().enumerate().skip(1) {
            victim = if stamp < ways[victim].1 { way } else { victim };
        }
        ways[victim] = (tag, self.stamp);
        self.last = (line, base + victim);
        self.miss_latency()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit latency of the configuration.
    #[inline]
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Miss latency of the configuration (hit latency plus penalty).
    #[inline]
    pub fn miss_latency(&self) -> u64 {
        self.cfg.hit_latency + self.cfg.miss_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = Cache::new(CacheConfig::default());
        let miss = c.access(100);
        let hit = c.access(100);
        assert_eq!(miss, 22);
        assert_eq!(hit, 2);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn spatial_locality_within_a_line() {
        let mut c = Cache::new(CacheConfig::default());
        c.access(0); // miss, brings in words 0..8 (32-byte line)
        assert_eq!(c.access(7), 2);
        assert_ne!(c.access(8), 2); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct-mapped tiny cache: 2 lines total, assoc 1.
        let cfg = CacheConfig {
            size_bytes: 64,
            line_bytes: 32,
            assoc: 1,
            hit_latency: 1,
            miss_penalty: 10,
        };
        let mut c = Cache::new(cfg);
        c.access(0); // line 0 → set 0
        c.access(8); // byte 32 → line 1 → set 1
        assert_eq!(c.access(0), 1); // still resident
        c.access(16); // byte 64 → line 2 → set 0 → evicts line 0
        assert_eq!(c.access(0), 11); // miss again
    }

    #[test]
    fn associativity_retains_conflicting_lines() {
        let cfg = CacheConfig {
            size_bytes: 128,
            line_bytes: 32,
            assoc: 2,
            hit_latency: 1,
            miss_penalty: 10,
        };
        let mut c = Cache::new(cfg); // 2 sets x 2 ways
        c.access(0); // set 0
        c.access(16); // set 0 (line 2 of 2 sets → 2 % 2 = 0)
        assert_eq!(c.access(0), 1);
        assert_eq!(c.access(16), 1);
    }

    #[test]
    fn repeating_the_last_line_keeps_lru_order() {
        // 2 sets x 2 ways: lines 0, 2 and 4 share set 0.
        let cfg = CacheConfig {
            size_bytes: 128,
            line_bytes: 32,
            assoc: 2,
            hit_latency: 1,
            miss_penalty: 10,
        };
        let mut c = Cache::new(cfg);
        c.access(16); // line 2
        c.access(0); // line 0
        assert_eq!(c.access(1), 1); // line 0 again, without a search
        c.access(32); // line 4 evicts line 2, the least recently used
        assert_eq!(c.access(0), 1);
        assert_eq!(c.access(16), 11);
        assert_eq!((c.hits(), c.misses()), (2, 4));
    }

    #[test]
    fn odd_set_counts_index_by_division() {
        // 3 sets x 1 way: lines 0, 3 and 6 share set 0.
        let cfg = CacheConfig {
            size_bytes: 96,
            line_bytes: 32,
            assoc: 1,
            hit_latency: 1,
            miss_penalty: 10,
        };
        let mut c = Cache::new(cfg);
        c.access(0); // line 0 → set 0
        c.access(8); // line 1 → set 1
        c.access(16); // line 2 → set 2
        assert_eq!(c.access(0), 1);
        c.access(24); // line 3 → set 0 → evicts line 0
        assert_eq!(c.access(8), 1);
        assert_eq!(c.access(0), 11);
    }

    #[test]
    fn streaming_misses_once_per_line() {
        let mut c = Cache::new(CacheConfig::default());
        for w in 0..64u32 {
            c.access(w);
        }
        // 64 words / 8 words-per-line = 8 misses.
        assert_eq!(c.misses(), 8);
        assert_eq!(c.hits(), 56);
    }
}
