//! SpreadSketch (Tang, Huang, Lee, INFOCOM 2020): invertible,
//! network-wide superspreader detection.
//!
//! Each bucket pairs a Flajolet–Martin multiresolution bitmap (the
//! spread estimator) with a *candidate key* replaced whenever an update
//! arrives at a higher FM level — so the heaviest spreaders' keys can be
//! recovered from the sketch alone, without enumerating a key universe
//! (the invertibility BeauCoup lacks; cited as \[54\] in the paper).

use std::collections::HashMap;

use flymon_rmt::hash::murmur3_32;

const FM_BITS: u32 = 32;
/// Flajolet–Martin bias correction constant.
const FM_PHI: f64 = 0.77351;

#[derive(Debug, Clone, Default)]
struct Bucket {
    bitmap: u32,
    candidate: Option<Vec<u8>>,
    level: u32,
}

impl Bucket {
    /// FM estimate: `2^R / φ` with `R` the lowest unset bit.
    fn estimate(&self) -> f64 {
        let r = (!self.bitmap).trailing_zeros().min(FM_BITS);
        2f64.powi(r as i32) / FM_PHI
    }
}

/// A `d × w` SpreadSketch.
#[derive(Debug, Clone)]
pub struct SpreadSketch {
    rows: usize,
    width: usize,
    buckets: Vec<Bucket>,
}

impl SpreadSketch {
    /// Creates a sketch with `rows` rows of `width` buckets.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, width: usize) -> Self {
        assert!(
            rows > 0 && width > 0,
            "SpreadSketch dimensions must be positive"
        );
        SpreadSketch {
            rows,
            width,
            buckets: vec![Bucket::default(); rows * width],
        }
    }

    /// Creates a sketch of `rows` rows within `bytes`: each bucket costs
    /// ~12 bytes (32-bit bitmap + key digest + level) in the paper's
    /// layout.
    pub fn with_memory(rows: usize, bytes: usize) -> Self {
        Self::new(rows, (bytes / 12 / rows).max(1))
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rows * self.width * 12
    }

    /// Feeds one `(key, attribute)` observation — e.g. key = SrcIP,
    /// attribute = DstIP for superspreader (worm) detection.
    pub fn update(&mut self, key: &[u8], attr: &[u8]) {
        // FM level of this attribute value: geometric with p = 1/2.
        let mut mixed = Vec::with_capacity(key.len() + attr.len());
        mixed.extend_from_slice(key);
        mixed.extend_from_slice(attr);
        let level = murmur3_32(0x5bed_0001, &mixed)
            .trailing_zeros()
            .min(FM_BITS - 1);
        for row in 0..self.rows {
            let idx =
                row * self.width + murmur3_32(0x5bed_1000 ^ row as u32, key) as usize % self.width;
            let bucket = &mut self.buckets[idx];
            bucket.bitmap |= 1 << level;
            if level >= bucket.level || bucket.candidate.is_none() {
                bucket.level = level;
                bucket.candidate = Some(key.to_vec());
            }
        }
    }

    /// Spread (distinct-attribute) estimate for a key: the minimum FM
    /// estimate over its `d` buckets.
    pub fn estimate(&self, key: &[u8]) -> f64 {
        (0..self.rows)
            .map(|row| {
                let idx = row * self.width
                    + murmur3_32(0x5bed_1000 ^ row as u32, key) as usize % self.width;
                self.buckets[idx].estimate()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Recovers the superspreaders above `threshold` *from the sketch
    /// alone*: every bucket candidate whose (min-estimated) spread
    /// crosses the threshold. This inversion step is the point of the
    /// design.
    pub fn superspreaders(&self, threshold: f64) -> Vec<(Vec<u8>, f64)> {
        let mut out: HashMap<Vec<u8>, f64> = HashMap::new();
        for bucket in &self.buckets {
            if let Some(candidate) = &bucket.candidate {
                let est = self.estimate(candidate);
                if est >= threshold {
                    out.entry(candidate.clone()).or_insert(est);
                }
            }
        }
        let mut v: Vec<_> = out.into_iter().collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Resets the sketch.
    pub fn clear(&mut self) {
        self.buckets.fill(Bucket::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn feed_spreader(s: &mut SpreadSketch, key: u32, fanout: u32) {
        for d in 0..fanout {
            s.update(&key.to_be_bytes(), &d.to_be_bytes());
        }
    }

    #[test]
    fn spread_estimate_is_order_of_magnitude_correct() {
        let mut s = SpreadSketch::new(3, 4096);
        feed_spreader(&mut s, 1, 4_000);
        feed_spreader(&mut s, 2, 10);
        let big = s.estimate(&1u32.to_be_bytes());
        let small = s.estimate(&2u32.to_be_bytes());
        // FM estimates are coarse (powers of two) but must separate a
        // 4000-fanout spreader from a 10-fanout one.
        assert!(big > 1_000.0, "big spreader estimated {big}");
        assert!(small < 200.0, "small key estimated {small}");
    }

    #[test]
    fn superspreaders_are_recovered_without_a_key_universe() {
        let mut s = SpreadSketch::new(3, 8192);
        // 5 true spreaders among 2000 small keys.
        for k in 0..5u32 {
            feed_spreader(&mut s, 0xAAAA_0000 | k, 3_000);
        }
        for k in 0..2_000u32 {
            feed_spreader(&mut s, k, 5);
        }
        let reported = s.superspreaders(500.0);
        let keys: HashSet<Vec<u8>> = reported.into_iter().map(|(k, _)| k).collect();
        for k in 0..5u32 {
            assert!(
                keys.contains((0xAAAA_0000u32 | k).to_be_bytes().as_slice()),
                "missed spreader {k}"
            );
        }
        // Precision: not drowning in small keys.
        assert!(keys.len() <= 25, "too many false spreaders: {}", keys.len());
    }

    #[test]
    fn duplicates_do_not_inflate_spread() {
        let mut s = SpreadSketch::new(3, 1024);
        for _ in 0..10_000 {
            s.update(b"key", b"same-destination");
        }
        assert!(s.estimate(b"key") < 16.0);
    }

    #[test]
    fn memory_accounting() {
        let s = SpreadSketch::with_memory(3, 120_000);
        assert!(s.memory_bytes() <= 120_000);
        assert_eq!(s.width, 3_333);
    }

    #[test]
    fn clear_resets_candidates() {
        let mut s = SpreadSketch::new(2, 64);
        feed_spreader(&mut s, 9, 1_000);
        s.clear();
        assert!(s.superspreaders(1.0).is_empty());
        assert!(s.estimate(&9u32.to_be_bytes()) < 2.0);
    }
}
