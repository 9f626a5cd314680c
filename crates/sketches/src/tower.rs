//! TowerSketch (Yang et al., SketchINT, ICNP 2021).
//!
//! A stack of counter arrays with *equal memory per level* but different
//! counter widths: level 0 has many tiny counters (2-bit), the top level
//! has few wide counters. Small (mouse) flows are answered by the tiny
//! counters; a saturated tiny counter is a sticky overflow marker and the
//! query falls through to wider levels. This adapts to skewed traffic.

use flymon_rmt::hash::murmur3_32;

/// One level of the tower.
#[derive(Debug, Clone)]
struct Level {
    bits: u8,
    counters: Vec<u32>,
}

impl Level {
    fn cap(&self) -> u32 {
        (1u32 << self.bits) - 1
    }
}

/// A TowerSketch with the canonical 2/4/8/16-bit level ladder.
#[derive(Debug, Clone)]
pub struct TowerSketch {
    levels: Vec<Level>,
}

impl TowerSketch {
    /// Counter widths of the canonical ladder, bottom-up.
    pub const LADDER_BITS: [u8; 4] = [2, 4, 8, 16];

    /// Creates a tower where each level gets `bits_per_level` bits of
    /// memory, so level widths are `bits_per_level / counter_bits`.
    ///
    /// # Panics
    /// Panics if `bits_per_level` cannot hold at least one 16-bit counter.
    pub fn new(bits_per_level: usize) -> Self {
        assert!(bits_per_level >= 16, "need at least one 16-bit counter");
        Self::with_ladder(&Self::LADDER_BITS, bits_per_level).expect("canonical ladder is valid")
    }

    /// Creates a tower with a custom level ladder (counter widths,
    /// bottom-up). Rejects ladders a query could not answer: an empty
    /// ladder (the all-saturated fallback would have no top level to
    /// bound from), a counter width outside `1..=16` bits (`Level::cap`
    /// is computed in 32-bit arithmetic), or a level budget too small
    /// for even one counter of the widest level.
    pub fn with_ladder(ladder_bits: &[u8], bits_per_level: usize) -> Result<Self, String> {
        if ladder_bits.is_empty() {
            return Err("tower ladder must have at least one level".into());
        }
        let mut levels = Vec::with_capacity(ladder_bits.len());
        for &bits in ladder_bits {
            if bits == 0 || bits > 16 {
                return Err(format!("tower counter width {bits} not in 1..=16 bits"));
            }
            let width = bits_per_level / bits as usize;
            if width == 0 {
                return Err(format!(
                    "level budget of {bits_per_level} bits cannot hold one {bits}-bit counter"
                ));
            }
            levels.push(Level {
                bits,
                counters: vec![0; width],
            });
        }
        Ok(TowerSketch { levels })
    }

    /// Creates a tower within `bytes` total (split evenly across levels).
    pub fn with_memory(bytes: usize) -> Self {
        Self::new((bytes * 8 / Self::LADDER_BITS.len()).max(16))
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.counters.len() * l.bits as usize)
            .sum::<usize>()
            / 8
    }

    fn index(level: usize, width: usize, key: &[u8]) -> usize {
        murmur3_32(0x7011_0000 ^ level as u32, key) as usize % width
    }

    /// Counts one packet of `key`. Each level increments its counter
    /// unless saturated; a saturated counter is sticky (the overflow
    /// marker).
    pub fn update(&mut self, key: &[u8]) {
        for (li, level) in self.levels.iter_mut().enumerate() {
            let cap = level.cap();
            let i = Self::index(li, level.counters.len(), key);
            if level.counters[i] < cap {
                level.counters[i] += 1;
            }
        }
    }

    /// Point query: minimum over non-saturated levels; if every level is
    /// saturated, the top level's cap (the best available lower bound).
    pub fn query(&self, key: &[u8]) -> u64 {
        let mut best: Option<u64> = None;
        for (li, level) in self.levels.iter().enumerate() {
            let i = Self::index(li, level.counters.len(), key);
            let v = level.counters[i];
            if v < level.cap() {
                best = Some(best.map_or(u64::from(v), |b| b.min(u64::from(v))));
            }
        }
        // Empty-level sketches cannot be constructed (with_ladder rejects
        // them), but map_or keeps this total rather than panicking.
        best.unwrap_or_else(|| self.levels.last().map_or(0, |l| u64::from(l.cap())))
    }

    /// Resets all counters.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            level.counters.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_for_small_flows_when_sparse() {
        let mut t = TowerSketch::new(1 << 16);
        for _ in 0..2 {
            t.update(b"mouse");
        }
        assert_eq!(t.query(b"mouse"), 2);
        assert_eq!(t.query(b"unseen"), 0);
    }

    #[test]
    fn large_flows_fall_through_to_wide_levels() {
        let mut t = TowerSketch::new(1 << 16);
        for _ in 0..1_000 {
            t.update(b"elephant");
        }
        // 2-bit and 4-bit and 8-bit levels saturate; the 16-bit level
        // answers exactly (sparse tower).
        assert_eq!(t.query(b"elephant"), 1_000);
    }

    #[test]
    fn never_underestimates_when_sparse_at_top() {
        let mut t = TowerSketch::with_memory(64 * 1024);
        for i in 0..2_000u32 {
            for _ in 0..(i % 5 + 1) {
                t.update(&i.to_be_bytes());
            }
        }
        for i in 0..2_000u32 {
            let truth = u64::from(i % 5 + 1);
            assert!(
                t.query(&i.to_be_bytes()) >= truth,
                "tower under-estimated flow {i}"
            );
        }
    }

    #[test]
    fn skewed_memory_efficiency_beats_cms_on_mice() {
        use crate::cms::CountMinSketch;
        // Same memory: tower spends most counters on 2/4-bit cells, so a
        // mouse-heavy workload sees fewer collisions than 32-bit CMS.
        let bytes = 2048;
        let mut tower = TowerSketch::with_memory(bytes);
        let mut cms = CountMinSketch::new(1, bytes / 4);
        for i in 0..4_000u32 {
            tower.update(&i.to_be_bytes());
            cms.update(&i.to_be_bytes(), 1);
        }
        let tower_err: u64 = (0..4_000u32)
            .map(|i| tower.query(&i.to_be_bytes()).saturating_sub(1))
            .sum();
        let cms_err: u64 = (0..4_000u32).map(|i| cms.query(&i.to_be_bytes()) - 1).sum();
        assert!(
            tower_err < cms_err,
            "tower {tower_err} should beat cms {cms_err} on mice"
        );
    }

    #[test]
    fn empty_and_degenerate_ladders_are_rejected() {
        assert!(TowerSketch::with_ladder(&[], 1024).is_err());
        assert!(TowerSketch::with_ladder(&[0], 1024).is_err());
        assert!(TowerSketch::with_ladder(&[17], 1024).is_err());
        // Budget too small for one counter of the widest level.
        assert!(TowerSketch::with_ladder(&[2, 16], 8).is_err());
        assert!(TowerSketch::with_ladder(&[2, 4, 8, 16], 16).is_ok());
    }

    #[test]
    fn saturated_all_levels_returns_top_cap_without_panicking() {
        // One counter per... well, as few as possible: a 2-bit-only
        // ladder with a single counter saturates after 3 updates of any
        // key, after which every query key aliases onto the saturated
        // counter and the old `levels.last().unwrap()` path is the only
        // answer left. It must return the top cap, not panic.
        let mut t = TowerSketch::with_ladder(&[2], 2).expect("valid ladder");
        for _ in 0..10 {
            t.update(b"flood");
        }
        assert_eq!(t.query(b"flood"), 3);
        assert_eq!(t.query(b"innocent-bystander"), 3);

        // Same property on the canonical ladder: saturate every level.
        let mut canon = TowerSketch::new(16);
        for _ in 0..100_000 {
            canon.update(b"flood");
        }
        assert_eq!(canon.query(b"flood"), u64::from(u16::MAX));
    }

    #[test]
    fn ladder_memory_split_is_even() {
        let t = TowerSketch::new(1 << 10);
        // 2-bit level: 512 counters; 16-bit level: 64 counters.
        assert_eq!(t.levels[0].counters.len(), 512);
        assert_eq!(t.levels[3].counters.len(), 64);
        assert_eq!(t.memory_bytes(), 4 * 128);
    }
}
