//! Address translation: dynamic memory management on fixed registers
//! (§3.3).
//!
//! A register's geometry is frozen; what *can* change at runtime is the
//! address range a task's hashes land in. FlyMon narrows the full range
//! `[0, m)` to a `2^-p` sub-range per task. Both hardware mechanisms —
//! shift-based and TCAM-based — compute the same mapping and differ only
//! in resource cost, which this module models for Figure 11.

/// How the translation is realized in hardware (cost model only — the
/// arithmetic is identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationMethod {
    /// Right-shift then add a base: an extra MAU stage, or pre-computed
    /// offsets in PHV for the single-stage variant.
    ShiftBased,
    /// TCAM range entries adding offsets (ADD with overflow wrap covers
    /// SUB, §6 "Other optimizations").
    TcamBased,
}

/// A task's address translation: which `2^partitions_log2`-way partition
/// it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrTranslation {
    /// `log2` of the partition count (0 = whole register).
    pub partitions_log2: u8,
    /// Which partition this task owns, `< 2^partitions_log2`.
    pub partition_index: u32,
    /// Hardware mechanism (for resource accounting).
    pub method: TranslationMethod,
}

impl AddrTranslation {
    /// The identity translation (whole register).
    pub const IDENTITY: AddrTranslation = AddrTranslation {
        partitions_log2: 0,
        partition_index: 0,
        method: TranslationMethod::TcamBased,
    };

    /// Creates a translation for partition `index` of `2^log2`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn new(partitions_log2: u8, partition_index: u32, method: TranslationMethod) -> Self {
        assert!(
            u64::from(partition_index) < (1u64 << partitions_log2),
            "partition index {partition_index} out of range for 2^{partitions_log2}"
        );
        AddrTranslation {
            partitions_log2,
            partition_index,
            method,
        }
    }

    /// Buckets in this task's sub-range of an `m`-bucket register.
    pub fn sub_range_len(&self, m: usize) -> usize {
        m >> self.partitions_log2
    }

    /// First bucket of the sub-range.
    pub fn base(&self, m: usize) -> usize {
        self.sub_range_len(m) * self.partition_index as usize
    }

    /// Maps a full-range address into the task's sub-range:
    /// `(addr >> p) + index·(m >> p)`.
    pub fn translate(&self, addr: u32, m: usize) -> usize {
        debug_assert!(m.is_power_of_two());
        let within = (addr as usize % m) >> self.partitions_log2;
        self.base(m) + within
    }

    /// TCAM entries this task's translation costs (TCAM-based method):
    /// one range entry per source partition that must be offset into the
    /// target, plus the in-place default — `2^p` entries total (Fig. 9).
    pub fn tcam_entries(&self) -> usize {
        1usize << self.partitions_log2
    }
}

/// Figure 11a: fraction of one MAU stage's TCAM needed to split a CMU
/// into `partitions` ranges with one task per partition
/// (`partitions · tcam_entries = partitions²` slots).
pub fn fig11_tcam_usage(partitions: usize, tcam_slots_per_stage: usize) -> f64 {
    (partitions * partitions) as f64 / tcam_slots_per_stage as f64
}

/// Figure 11b: PHV bits for the single-stage shift-based method across a
/// CMU Group's 3 CMUs.
pub fn fig11_shift_phv_bits(partitions: usize) -> usize {
    3 * 16 * partitions.ilog2() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_translation_is_identity() {
        let t = AddrTranslation::IDENTITY;
        assert_eq!(t.translate(12345, 65536), 12345);
        assert_eq!(t.sub_range_len(65536), 65536);
        assert_eq!(t.base(65536), 0);
    }

    #[test]
    fn paper_example_second_quarter() {
        // Fig. 9: task 2 owns [m/2, 3m/4).
        let m = 1024;
        let t = AddrTranslation::new(2, 2, TranslationMethod::TcamBased);
        assert_eq!(t.base(m), 512);
        assert_eq!(t.sub_range_len(m), 256);
        for addr in [0u32, 255, 256, 1023, 5000] {
            let out = t.translate(addr, m);
            assert!((512..768).contains(&out), "addr {addr} -> {out}");
        }
        // The mapping is the shift + base of Fig. 9.
        assert_eq!(t.translate(0, m), 512);
        assert_eq!(t.translate(1023, m), 767);
    }

    #[test]
    fn partitions_are_disjoint_and_cover() {
        let m = 256;
        let p = 3; // 8 partitions
        let mut seen = vec![false; m];
        for idx in 0..8u32 {
            let t = AddrTranslation::new(p, idx, TranslationMethod::ShiftBased);
            let (base, len) = (t.base(m), t.sub_range_len(m));
            for (b, s) in seen.iter_mut().enumerate().skip(base).take(len) {
                assert!(!*s, "bucket {b} owned twice");
                *s = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn translation_is_uniform_over_sub_range() {
        // Hashing uniformly over [0, m) must land uniformly in the
        // sub-range (the shift keeps the high-order hash bits).
        let m = 64;
        let t = AddrTranslation::new(2, 1, TranslationMethod::TcamBased);
        let mut hits = vec![0u32; m];
        for addr in 0..(m as u32) {
            hits[t.translate(addr, m)] += 1;
        }
        let (base, len) = (t.base(m), t.sub_range_len(m));
        for (b, &n) in hits.iter().enumerate().skip(base).take(len) {
            assert_eq!(n, 4, "bucket {b} hit {n} times");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_partition() {
        let _ = AddrTranslation::new(2, 4, TranslationMethod::TcamBased);
    }

    #[test]
    fn fig11a_tcam_fractions() {
        // §5.1: "only 12.5% of the TCAM is needed in the preparation
        // stage to split a CMU into 32 memory partitions."
        let slots = flymon_rmt::resources::TofinoModel::default().tcam_slots_per_stage;
        assert!((fig11_tcam_usage(32, slots) - 0.125).abs() < 1e-9);
        assert!(fig11_tcam_usage(8, slots) < 0.01);
        assert!(fig11_tcam_usage(64, slots) <= 0.5);
    }

    #[test]
    fn fig11b_phv_grows_logarithmically() {
        assert_eq!(fig11_shift_phv_bits(8), 144);
        assert_eq!(fig11_shift_phv_bits(16), 192);
        assert_eq!(fig11_shift_phv_bits(32), 240);
        assert_eq!(fig11_shift_phv_bits(64), 288);
    }

    #[test]
    fn power_of_two_limitation() {
        // §3.3: only 2^n partitions are efficiently supported — the API
        // cannot even express others (partition counts are log2-encoded).
        let t = AddrTranslation::new(5, 31, TranslationMethod::TcamBased);
        assert_eq!(t.sub_range_len(65536), 2048);
        assert_eq!(t.tcam_entries(), 32);
    }
}
