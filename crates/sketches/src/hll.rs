//! HyperLogLog (Flajolet, Fusy, Gandouet, Meunier, 2007).

use flymon_rmt::hash::murmur3_32;

/// HyperLogLog cardinality estimator with `2^b` registers.
///
/// Each inserted key is hashed; the top `b` bits select a register
/// (stochastic averaging) and the register tracks the maximum
/// `ρ` = position of the leftmost 1-bit of the remaining bits. The
/// estimate is the bias-corrected harmonic mean, with the standard small-
/// range (linear counting) correction.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    b: u32,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an estimator with `2^b` registers (`4 <= b <= 16`).
    ///
    /// # Panics
    /// Panics if `b` is outside `4..=16`.
    pub fn new(b: u32) -> Self {
        assert!((4..=16).contains(&b), "b must be in 4..=16, got {b}");
        HyperLogLog {
            b,
            registers: vec![0; 1 << b],
        }
    }

    /// Creates an estimator using roughly `bytes` of register memory
    /// (one byte per register in this software model).
    pub fn with_memory(bytes: usize) -> Self {
        let b = (bytes.max(16).ilog2()).clamp(4, 16);
        Self::new(b)
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.registers.len()
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let h = murmur3_32(0x4177_0000, key);
        let idx = (h >> (32 - self.b)) as usize;
        let rest = h << self.b;
        // ρ = leading zeros of the remaining (32-b) bits, plus one.
        let rho = (rest.leading_zeros().min(32 - self.b) + 1) as u8;
        if self.registers[idx] < rho {
            self.registers[idx] = rho;
        }
    }

    /// The cardinality estimate.
    pub fn estimate(&self) -> f64 {
        estimate_from_registers(&self.registers)
    }

    /// Resets all registers.
    pub fn clear(&mut self) {
        self.registers.fill(0);
    }
}

/// Computes the HLL estimate from a register array (shared with the
/// CMU-hosted implementation, whose control plane reads CMU buckets and
/// applies the same mathematics, §4 "Flow Cardinality").
pub fn estimate_from_registers(registers: &[u8]) -> f64 {
    let m = registers.len() as f64;
    let alpha = match registers.len() {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m),
    };
    let sum: f64 = registers.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
    let raw = alpha * m * m / sum;
    if raw <= 2.5 * m {
        // Small-range correction: linear counting on empty registers.
        let zeros = registers.iter().filter(|&&r| r == 0).count();
        if zeros > 0 {
            return m * (m / zeros as f64).ln();
        }
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_within_expected_error() {
        // Standard error is ~1.04/sqrt(m); with b=12 (m=4096) that is
        // ~1.6%. Allow 5% slack for a single trial.
        let mut hll = HyperLogLog::new(12);
        let n = 100_000u32;
        for i in 0..n {
            hll.insert(&i.to_be_bytes());
        }
        let est = hll.estimate();
        let err = (est - f64::from(n)).abs() / f64::from(n);
        assert!(err < 0.05, "estimate {est}, true {n}, err {err:.4}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(10);
        for _ in 0..100 {
            for i in 0..500u32 {
                hll.insert(&i.to_be_bytes());
            }
        }
        let est = hll.estimate();
        let err = (est - 500.0).abs() / 500.0;
        assert!(err < 0.15, "estimate {est} for 500 distinct");
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut hll = HyperLogLog::new(12);
        for i in 0..50u32 {
            hll.insert(&i.to_be_bytes());
        }
        let est = hll.estimate();
        assert!((est - 50.0).abs() < 5.0, "small-range estimate {est}");
    }

    #[test]
    fn empty_estimates_zero() {
        let hll = HyperLogLog::new(8);
        assert_eq!(hll.estimate(), 0.0);
    }

    #[test]
    fn with_memory_picks_reasonable_b() {
        assert_eq!(HyperLogLog::with_memory(4096).memory_bytes(), 4096);
        assert_eq!(HyperLogLog::with_memory(10).memory_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "b must be")]
    fn rejects_silly_precision() {
        let _ = HyperLogLog::new(2);
    }
}
