//! Set-associative LRU cache model.

/// Geometry and timing of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Extra cycles on a miss (fill from memory).
    pub miss_penalty: u64,
}

impl CacheConfig {
    /// An 8 KiB, 2-way, 32-byte-line cache with a 20-cycle miss penalty —
    /// the low-end default for both I- and D-cache.
    pub fn embedded_8k() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 32,
            assoc: 2,
            miss_penalty: 20,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.assoc)
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags and recency orders live in two flat arrays of `sets × assoc`
/// entries. The cache also remembers the line of the previous access: that
/// line is always the most recent way of its set, so accessing it again is
/// a hit that leaves every recency order as it is, and it skips the set
/// lookup. The hit/miss sequence is exactly that of true LRU.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2 of the line size.
    line_shift: u32,
    /// Number of sets.
    sets: u64,
    assoc: usize,
    /// `tags[s * assoc + w]` = tag held by way `w` of set `s`; `u64::MAX`
    /// = invalid.
    tags: Vec<u64>,
    /// `order[s * assoc..][..assoc]` = the ways of set `s`, most recent
    /// first.
    order: Vec<u32>,
    /// Line of the previous access, if any.
    last_line: Option<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// An empty (cold) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size not a power of two");
        assert!(cfg.assoc >= 1);
        let sets = cfg.num_sets().max(1);
        let assoc = cfg.assoc as usize;
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            sets: sets as u64,
            assoc,
            tags: vec![u64::MAX; sets as usize * assoc],
            order: (0..sets).flat_map(|_| 0..cfg.assoc).collect(),
            last_line: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Access `addr`; returns true on hit. Misses allocate (both reads and
    /// writes: write-allocate).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        if self.last_line == Some(line) {
            self.hits += 1;
            return true;
        }
        self.last_line = Some(line);
        let (set, tag) = (line % self.sets, line / self.sets);
        let base = set as usize * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        let order = &mut self.order[base..base + self.assoc];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            self.hits += 1;
            promote(order, w as u32);
            true
        } else {
            self.misses += 1;
            let victim = order[self.assoc - 1];
            ways[victim as usize] = tag;
            promote(order, victim);
            false
        }
    }

    /// Cycles an access costs beyond the pipeline's base latency.
    pub fn access_cost(&mut self, addr: u64) -> u64 {
        if self.access(addr) {
            0
        } else {
            self.cfg.miss_penalty
        }
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }
}

fn promote(order: &mut [u32], way: u32) {
    let pos = order.iter().position(|&w| w == way).expect("way in order");
    order[..=pos].rotate_right(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            assoc: 2,
            miss_penalty: 10,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(15), "same line");
        assert!(!c.access(16), "next line is a different set");
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: line numbers ≡ 0 (mod 2). Lines 0, 2, 4 → addresses
        // 0, 32, 64.
        c.access(0); // miss, set0 = {0}
        c.access(32); // miss, set0 = {0, 2}
        c.access(0); // hit, 0 most recent
        c.access(64); // miss, evicts line 2
        assert!(c.access(0), "line 0 survived");
        assert!(!c.access(32), "line 2 was evicted");
    }

    #[test]
    fn access_cost_reflects_misses() {
        let mut c = tiny();
        assert_eq!(c.access_cost(0), 10);
        assert_eq!(c.access_cost(0), 0);
    }

    #[test]
    fn embedded_default_geometry() {
        let cfg = CacheConfig::embedded_8k();
        assert_eq!(cfg.num_sets(), 128);
        let c = Cache::new(cfg);
        assert_eq!(c.config().miss_penalty, 20);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(16); // set 1
        assert!(c.access(0));
        assert!(c.access(16));
    }
}
