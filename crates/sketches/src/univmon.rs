//! UnivMon (Liu et al., SIGCOMM 2016): universal sketching.
//!
//! `L` substream levels, each holding a Count Sketch and a top-k heavy
//! tracker; level `i` sees the keys that survive `i` independent coin
//! flips (hash bits). Any G-sum statistic `Σ g(f_i)` is estimated by the
//! recursive universal estimator, which gives heavy hitters, entropy and
//! cardinality from one data structure — the multi-attribute baseline of
//! the paper's related work and Figures 14a/14e.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

use flymon_rmt::hash::murmur3_32;

use crate::count_sketch::CountSketch;

/// Top-k tracker: keeps the k keys with the largest running estimates.
/// The map hashes with fixed keys, so its iteration order — which of
/// several equal minima is evicted, the order the estimators sum in,
/// hence every estimate — repeats from run to run.
#[derive(Debug, Clone)]
struct TopK {
    k: usize,
    entries: HashMap<Vec<u8>, i64, BuildHasherDefault<DefaultHasher>>,
    cached_min: i64,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            entries: HashMap::default(),
            cached_min: i64::MIN,
        }
    }

    fn offer(&mut self, key: &[u8], estimate: i64) {
        if let Some(v) = self.entries.get_mut(key) {
            *v = estimate;
            return;
        }
        if self.entries.len() < self.k {
            self.entries.insert(key.to_vec(), estimate);
            if self.entries.len() == self.k {
                self.cached_min = self.entries.values().min().copied().unwrap_or(i64::MIN);
            }
            return;
        }
        if estimate <= self.cached_min {
            return;
        }
        // Evict the current minimum (full scan, amortized by the guard).
        if let Some(min_key) = self
            .entries
            .iter()
            .min_by_key(|&(_, &v)| v)
            .map(|(k, _)| k.clone())
        {
            self.entries.remove(&min_key);
        }
        self.entries.insert(key.to_vec(), estimate);
        self.cached_min = self.entries.values().min().copied().unwrap_or(i64::MIN);
    }

    fn keys(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.entries.keys()
    }
}

/// One substream level.
#[derive(Debug, Clone)]
struct Level {
    sketch: CountSketch,
    heavy: TopK,
}

/// The UnivMon universal sketch.
#[derive(Debug, Clone)]
pub struct UnivMon {
    levels: Vec<Level>,
    total_packets: u64,
}

impl UnivMon {
    /// Creates a UnivMon with `levels` levels, each a `rows × width`
    /// Count Sketch and a top-`k` tracker.
    ///
    /// # Panics
    /// Panics on zero dimensions.
    pub fn new(levels: usize, rows: usize, width: usize, k: usize) -> Self {
        assert!(levels > 0 && k > 0, "UnivMon needs levels and a top-k");
        UnivMon {
            levels: (0..levels)
                .map(|_| Level {
                    sketch: CountSketch::new(rows, width),
                    heavy: TopK::new(k),
                })
                .collect(),
            total_packets: 0,
        }
    }

    /// Creates a UnivMon within `bytes`: 14 levels × 4 rows, top-64 per
    /// level (~85% of memory to sketches, the rest to trackers).
    pub fn with_memory(bytes: usize) -> Self {
        let levels = 14;
        let rows = 4;
        let k = 64;
        let sketch_bytes = bytes * 85 / 100;
        let width = (sketch_bytes / levels / rows / 4).max(8);
        Self::new(levels, rows, width, k)
    }

    /// Memory footprint in bytes (sketches + tracker entries at ~24 bytes
    /// per tracked key).
    pub fn memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.sketch.memory_bytes() + l.heavy.k * 24)
            .sum()
    }

    /// True when `key` survives the sampling into `level` (level 0 takes
    /// everything; level i requires i consecutive hash-bit successes).
    fn survives(key: &[u8], level: usize) -> bool {
        (1..=level).all(|j| murmur3_32(0x0111_0000 ^ j as u32, key) & 1 == 1)
    }

    /// Feeds one packet of `key`.
    pub fn update(&mut self, key: &[u8]) {
        self.total_packets += 1;
        for (i, level) in self.levels.iter_mut().enumerate() {
            if i > 0 && !Self::survives(key, i) {
                break; // sampling is nested: failing level i fails i+1
            }
            level.sketch.update(key, 1);
            let est = level.sketch.query(key);
            level.heavy.offer(key, est);
        }
    }

    /// Total packets observed.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Heavy hitters: level-0 tracked keys whose estimate meets
    /// `threshold`.
    pub fn heavy_hitters(&self, threshold: u64) -> Vec<(Vec<u8>, u64)> {
        self.levels[0]
            .heavy
            .keys()
            .filter_map(|k| {
                let est = self.levels[0].sketch.query(k);
                (est >= threshold as i64).then(|| (k.clone(), est as u64))
            })
            .collect()
    }

    /// The universal G-sum estimator: `Σ_flows g(f)` for any function `g`
    /// with `g(0) = 0`.
    pub fn g_sum(&self, g: impl Fn(f64) -> f64) -> f64 {
        let last = self.levels.len() - 1;
        let level_est = |i: usize, key: &[u8]| -> f64 {
            let e = self.levels[i].sketch.query(key);
            (e.max(1)) as f64
        };
        let mut y: f64 = self.levels[last]
            .heavy
            .keys()
            .map(|k| g(level_est(last, k)))
            .sum();
        for i in (0..last).rev() {
            let correction: f64 = self.levels[i]
                .heavy
                .keys()
                .map(|k| {
                    let sampled_next = if Self::survives(k, i + 1) { 1.0 } else { 0.0 };
                    (1.0 - 2.0 * sampled_next) * g(level_est(i, k))
                })
                .sum();
            y = 2.0 * y + correction;
        }
        y.max(0.0)
    }

    /// Flow entropy estimate: `H = ln T − (Σ f ln f)/T`.
    pub fn entropy(&self) -> f64 {
        if self.total_packets == 0 {
            return 0.0;
        }
        let t = self.total_packets as f64;
        let y = self.g_sum(|x| x * x.ln());
        (t.ln() - y / t).max(0.0)
    }

    /// Cardinality estimate: G-sum with `g ≡ 1`.
    pub fn cardinality(&self) -> f64 {
        self.g_sum(|_| 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(um: &mut UnivMon, flows: &[(u32, u32)]) {
        for &(id, size) in flows {
            for _ in 0..size {
                um.update(&id.to_be_bytes());
            }
        }
    }

    #[test]
    fn heavy_hitters_found() {
        let mut um = UnivMon::new(10, 4, 1024, 64);
        let mut flows: Vec<(u32, u32)> = (0..2_000).map(|i| (i, 2)).collect();
        flows.push((100_000, 5_000));
        flows.push((100_001, 3_000));
        feed(&mut um, &flows);
        let hh = um.heavy_hitters(1_024);
        let ids: Vec<u32> = hh
            .iter()
            .map(|(k, _)| u32::from_be_bytes([k[0], k[1], k[2], k[3]]))
            .collect();
        assert!(ids.contains(&100_000), "missing top flow: {ids:?}");
        assert!(ids.contains(&100_001), "missing second flow: {ids:?}");
        assert!(hh.len() <= 5, "too many false heavies: {}", hh.len());
    }

    #[test]
    fn entropy_tracks_truth_roughly() {
        use flymon_traffic::ground_truth::entropy_of_counts;
        let mut um = UnivMon::with_memory(256 * 1024);
        let flows: Vec<(u32, u32)> = (0..3_000).map(|i| (i, i % 30 + 1)).collect();
        feed(&mut um, &flows);
        let truth = entropy_of_counts(flows.iter().map(|&(_, s)| u64::from(s)));
        let est = um.entropy();
        let re = (truth - est).abs() / truth;
        assert!(
            re < 0.35,
            "entropy RE {re:.3} (est {est:.3}, truth {truth:.3})"
        );
    }

    #[test]
    fn estimates_repeat_across_instances() {
        // Many equal-sized flows: the trackers evict among tied minima
        // and the estimators sum floats in map order, so two instances
        // agree only if that order is fixed.
        let flows: Vec<(u32, u32)> = (0..3_000).map(|i| (i, i % 7 + 1)).collect();
        let run = || {
            let mut um = UnivMon::with_memory(64 * 1024);
            feed(&mut um, &flows);
            let mut heavy = um.heavy_hitters(5);
            heavy.sort();
            (um.entropy().to_bits(), um.cardinality().to_bits(), heavy)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cardinality_order_of_magnitude() {
        let mut um = UnivMon::with_memory(256 * 1024);
        let flows: Vec<(u32, u32)> = (0..4_000).map(|i| (i, 1)).collect();
        feed(&mut um, &flows);
        let est = um.cardinality();
        assert!(
            est > 1_000.0 && est < 16_000.0,
            "cardinality estimate {est} for 4000 flows"
        );
    }

    #[test]
    fn sampling_is_nested() {
        // A key surviving to level i must survive all j < i.
        for key in 0..200u32 {
            let k = key.to_be_bytes();
            let mut reached_end = false;
            for level in (0..12).rev() {
                if UnivMon::survives(&k, level) {
                    reached_end = true;
                } else {
                    assert!(
                        !reached_end,
                        "key {key} survives a deeper level but not level {level}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_keeps_the_largest() {
        let mut t = TopK::new(3);
        t.offer(b"a", 10);
        t.offer(b"b", 20);
        t.offer(b"c", 5);
        t.offer(b"d", 30); // evicts c
        let keys: Vec<&[u8]> = t.keys().map(|k| k.as_slice()).collect();
        assert_eq!(keys.len(), 3);
        assert!(!keys.contains(&b"c".as_slice()));
        assert!(keys.contains(&b"d".as_slice()));
        // Updating an existing key does not evict anyone.
        t.offer(b"a", 100);
        assert_eq!(t.entries.len(), 3);
    }

    #[test]
    fn memory_accounting_scales_with_budget() {
        let small = UnivMon::with_memory(64 * 1024);
        let large = UnivMon::with_memory(1024 * 1024);
        assert!(large.memory_bytes() > small.memory_bytes() * 4);
    }
}
