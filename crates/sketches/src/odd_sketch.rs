//! Odd Sketch (Mitzenmacher, Pagh, Pham, WWW 2014) — set-similarity
//! estimation from bit parities.
//!
//! Each *distinct* element toggles one bit; the XOR of two sketches is
//! the sketch of the symmetric difference, whose size is estimated from
//! the number of odd (set) bits: `d̂ = -(n/2)·ln(1 - 2k/n)`. This is the
//! §6 expansion example for FlyMon's reserved XOR operation.

use flymon_rmt::hash::murmur3_32;

/// An `n`-bit odd sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OddSketch {
    bits: Vec<u64>,
    n: usize,
}

impl OddSketch {
    /// Creates an `n`-bit sketch.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "odd sketch needs bits");
        OddSketch {
            bits: vec![0; n.div_ceil(64)],
            n,
        }
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.n.div_ceil(8)
    }

    /// Toggles the element's bit. Call once per *distinct* element —
    /// an even number of insertions cancels out (that is the point of
    /// the parity encoding, and why the CMU recipe gates the XOR behind
    /// a first-occurrence Bloom filter).
    pub fn toggle(&mut self, element: &[u8]) {
        let i = murmur3_32(0x0dd5_0000, element) as usize % self.n;
        self.bits[i / 64] ^= 1 << (i % 64);
    }

    /// Estimated size of the symmetric difference between the two sets
    /// underlying `self` and `other`: XOR the sketches and invert the
    /// expected odd-bit count. Saturates at `n·ln(n)/2`-ish when the
    /// sketch is too small for the difference.
    ///
    /// # Panics
    /// Panics if the sketches have different sizes.
    pub fn symmetric_difference(&self, other: &OddSketch) -> f64 {
        assert_eq!(self.n, other.n, "sketch sizes must match");
        let k: usize = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        let n = self.n as f64;
        let frac = 2.0 * k as f64 / n;
        if frac >= 1.0 {
            // Saturated: more than half the bits are odd.
            n / 2.0 * n.ln()
        } else {
            -(n / 2.0) * (1.0 - frac).ln()
        }
    }

    /// Jaccard similarity of two sets given their (estimated) sizes:
    /// `J = (|A| + |B| - d) / (|A| + |B| + d)` with `d` the estimated
    /// symmetric difference, clamped to `[0, 1]`.
    pub fn jaccard(&self, other: &OddSketch, size_a: f64, size_b: f64) -> f64 {
        let d = self.symmetric_difference(other);
        let num = size_a + size_b - d;
        let den = size_a + size_b + d;
        if den <= 0.0 {
            return 1.0; // two empty sets
        }
        (num / den).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(ids: impl Iterator<Item = u32>, n: usize) -> OddSketch {
        let mut s = OddSketch::new(n);
        for i in ids {
            s.toggle(&i.to_be_bytes());
        }
        s
    }

    #[test]
    fn double_toggle_cancels() {
        // Against an empty sketch the difference reads the odd bits: one
        // odd bit of 256 is -(256/2)·ln(1 - 2/256), none is 0.
        let (mut s, empty) = (OddSketch::new(256), OddSketch::new(256));
        s.toggle(b"x");
        assert_eq!(
            s.symmetric_difference(&empty),
            -128.0 * (1.0 - 2.0 / 256.0f64).ln()
        );
        s.toggle(b"x");
        assert_eq!(s.symmetric_difference(&empty), 0.0);
    }

    #[test]
    fn identical_sets_have_zero_difference() {
        let a = sketch_of(0..1_000, 1 << 12);
        let b = sketch_of(0..1_000, 1 << 12);
        assert_eq!(a.symmetric_difference(&b), 0.0);
        assert_eq!(a.jaccard(&b, 1_000.0, 1_000.0), 1.0);
    }

    #[test]
    fn difference_estimate_tracks_truth() {
        // |A Δ B| = 400 (200 exclusive to each side).
        let a = sketch_of(0..1_200, 1 << 12);
        let b = sketch_of(200..1_400, 1 << 12);
        let d = a.symmetric_difference(&b);
        assert!(
            (d - 400.0).abs() < 60.0,
            "symmetric difference estimate {d} for truth 400"
        );
        // Jaccard truth: 1000 / 1400 ≈ 0.714.
        let j = a.jaccard(&b, 1_200.0, 1_200.0);
        assert!((j - 1_000.0 / 1_400.0).abs() < 0.05, "jaccard {j}");
    }

    #[test]
    fn disjoint_sets_have_low_similarity() {
        let a = sketch_of(0..500, 1 << 12);
        let b = sketch_of(10_000..10_500, 1 << 12);
        assert!(a.jaccard(&b, 500.0, 500.0) < 0.1);
    }

    #[test]
    fn saturation_is_finite() {
        // Difference far beyond sketch capacity must not return NaN/inf.
        let a = sketch_of(0..100_000, 64);
        let b = OddSketch::new(64);
        let d = a.symmetric_difference(&b);
        assert!(d.is_finite());
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(OddSketch::new(1 << 13).memory_bytes(), 1024);
    }
}
