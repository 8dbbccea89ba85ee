//! The set-associative LRU cache the simulator used before it was
//! predecoded, kept as written: one `Vec` of tags and one `Vec` recency
//! order per set, with no fast path. The oracle interpreter runs on it.

use dra_sim::CacheConfig;

/// A set-associative cache with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets[s][w]` = tag; `u64::MAX` = invalid.
    sets: Vec<Vec<u64>>,
    /// LRU order per set: front = most recent.
    lru: Vec<Vec<u32>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// An empty (cold) cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size not a power of two"
        );
        assert!(cfg.assoc >= 1);
        let sets = cfg.num_sets().max(1);
        Cache {
            cfg,
            sets: vec![vec![u64::MAX; cfg.assoc as usize]; sets as usize],
            lru: (0..sets).map(|_| (0..cfg.assoc).collect()).collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Access `addr`; returns true on hit. Misses allocate (both reads and
    /// writes: write-allocate).
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes as u64;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter().position(|&t| t == tag) {
            self.hits += 1;
            promote(&mut self.lru[set], w as u32);
            true
        } else {
            self.misses += 1;
            let victim = *self.lru[set].last().expect("nonempty LRU") as usize;
            ways[victim] = tag;
            promote(&mut self.lru[set], victim as u32);
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
