//! The flat `Cache`, with its repeat-line fast path, against a plain
//! true-LRU reference: over random address streams, every access must give
//! the same hit/miss outcome, and the counters must agree.

use dra_sim::{Cache, CacheConfig};
use proptest::prelude::*;

/// True LRU kept the obvious way: per set, the resident lines, most
/// recent first.
struct ReferenceLru {
    line_bytes: u64,
    assoc: usize,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl ReferenceLru {
    fn new(cfg: CacheConfig) -> Self {
        ReferenceLru {
            line_bytes: cfg.line_bytes as u64,
            assoc: cfg.assoc as usize,
            sets: vec![Vec::new(); cfg.num_sets().max(1) as usize],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(line % n) as usize];
        let hit = match set.iter().position(|&l| l == line) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => {
                set.truncate(self.assoc - 1);
                false
            }
        };
        set.insert(0, line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }
}

fn geometry(size_bytes: u32, line_bytes: u32, assoc: u32) -> CacheConfig {
    CacheConfig {
        size_bytes,
        line_bytes,
        assoc,
        miss_penalty: 20,
    }
}

/// The geometries under test: the low-end default, the 64-byte unit-test
/// cache, the I-caches of the `cache_sweep` run on fft (1–8 KiB), and
/// shapes whose set count or associativity is not a power of two, a
/// direct-mapped one, and one too small for a single full set.
fn geometries() -> Vec<CacheConfig> {
    let mut g = vec![CacheConfig::embedded_8k(), geometry(64, 16, 2)];
    g.extend([1, 2, 4, 8].map(|kib| geometry(kib * 1024, 32, 2)));
    g.extend([
        geometry(3 * 1024, 32, 2), // 48 sets
        geometry(96, 16, 2),       // 3 sets
        geometry(3 * 1024, 32, 3), // 32 sets of 3 ways
        geometry(1024, 16, 1),     // direct-mapped
        geometry(32, 16, 4),       // 0 sets, clamped to 1
    ]);
    g
}

/// One address stream: a mix of sequential word runs (the I-cache's
/// pattern, which the repeat-line fast path serves), strided sweeps that
/// conflict in a few sets, repeats of recent addresses, and scattered
/// addresses anywhere in the 64-bit space.
fn stream() -> impl Strategy<Value = Vec<(u8, u64, u16)>> {
    prop::collection::vec((0u8..4, any::<u64>(), 1u16..40), 1..60)
}

fn expand(chunks: &[(u8, u64, u16)]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    for &(kind, seed, len) in chunks {
        match kind {
            0 => {
                let start = (seed % 4096) & !1;
                out.extend((0..len as u64).map(|i| start + 2 * i));
            }
            1 => {
                let stride = [512, 1024, 2048, 4096][(seed % 4) as usize];
                let start = (seed >> 2) & 0xfff8;
                out.extend((0..len as u64).map(|i| start + stride * (i % 5)));
            }
            2 => {
                let back = out.len().min(len as usize * 4);
                let recent: Vec<u64> = out[out.len() - back..].to_vec();
                out.extend(recent.iter().rev().step_by(3).copied());
            }
            _ => {
                out.push(seed & !7);
                out.push(seed);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_cache_matches_reference_lru(chunks in stream()) {
        let addrs = expand(&chunks);
        for cfg in geometries() {
            let mut flat = Cache::new(cfg);
            let mut reference = ReferenceLru::new(cfg);
            for (i, &a) in addrs.iter().enumerate() {
                let want = reference.access(a);
                prop_assert_eq!(flat.access(a), want, "{:?}: access {} to {:#x}", cfg, i, a);
            }
            prop_assert_eq!(flat.hits(), reference.hits, "{:?}", cfg);
            prop_assert_eq!(flat.misses(), reference.misses, "{:?}", cfg);
            prop_assert_eq!(flat.hits() + flat.misses(), addrs.len() as u64);
        }
    }
}

#[test]
fn repeat_access_after_eviction_is_a_miss() {
    // Direct-mapped, 2 sets of 16-byte lines: lines 0 and 2 share set 0.
    let cfg = geometry(32, 16, 1);
    let mut c = Cache::new(cfg);
    assert!(!c.access(0));
    assert!(c.access(4), "repeat of the previous line");
    assert!(!c.access(32), "evicts line 0");
    assert!(
        !c.access(0),
        "line 0 was evicted, though it was accessed two lines ago"
    );
    assert!(c.access(8));
    assert_eq!((c.hits(), c.misses()), (2, 3));
}
