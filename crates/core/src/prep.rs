//! Preparation-stage parameter processing (§3.2).
//!
//! "With a TCAM-based table, a CMU can dynamically establish a mapping
//! function between the input and output parameters" — one-hot encodings
//! for Bloom/BeauCoup, leading-zero patterns for HyperLogLog, overflow
//! judgement for Counter Braids, interval subtraction for the
//! max-inter-arrival task. Each action documents its TCAM entry cost,
//! which feeds the install plan and Figure 11.

use crate::params::{CmuRef, PacketContext};

/// A preparation-stage transformation of `(p1, p2)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepAction {
    /// Pass parameters through unchanged.
    None,
    /// `p1 ← 1 << (p1 mod bits)` — select one bit of a bucket. Used by
    /// the bit-optimized Bloom filter (§4 Existence Check) and Linear
    /// Counting. `p2` is forced to 1 (the OR side of AND-OR).
    OneHotBit {
        /// Number of addressable bits (the bucket width, e.g. 16).
        bits: u8,
    },
    /// BeauCoup coupon draw: hash `p1` draws coupon `p1 / space` when
    /// `p1 < coupons·space`, yielding a one-hot `p1`; otherwise `p1 ← 0`
    /// (no coupon, the OR becomes a no-op). `p2` is forced to 1.
    Coupon {
        /// Number of coupons (≤ bucket width).
        coupons: u8,
        /// Hash-space slice owned by each coupon
        /// (`⌊coupon_probability · 2^32⌋`).
        space: u32,
    },
    /// HyperLogLog ρ: `p1 ← min(leading_zeros(p1 << skip_top),
    /// consider_bits) + 1` — the TCAM leading-zero pattern match of §4
    /// Flow Cardinality, expressed as a value so the MAX operation can
    /// track the largest ρ.
    Rho {
        /// Bits to discard from the top (the bucket-index bits).
        skip_top: u8,
        /// Bits participating in the ρ pattern.
        consider_bits: u8,
    },
    /// Counter Braids carry (Appendix D): `p1 ← when_zero` if the
    /// upstream result `p1` is 0 (low layer saturated), else
    /// `p1 ← otherwise`.
    MapZero {
        /// Replacement when the incoming `p1` is zero.
        when_zero: u32,
        /// Replacement otherwise.
        otherwise: u32,
    },
    /// Max-inter-arrival (§4): `p1 ← p1 − p2` (current timestamp minus
    /// the recorder CMU's old arrival time), but forced to 0 when the
    /// membership CMU says the flow is new. `p2 ← 0`.
    IntervalGated {
        /// The Bloom-filter CMU whose forwarded value is nonzero iff the
        /// flow was seen before.
        seen: CmuRef,
    },
    /// One-hot bit select gated on *first occurrence*: `p1 ← 1 << (p1
    /// mod bits)` only when the membership CMU says the value is new,
    /// else `p1 ← 0`. This is what lets the XOR operation implement Odd
    /// Sketch on multiset traffic (§6 expansion): duplicates must not
    /// re-toggle the parity bit.
    OneHotBitGated {
        /// Number of addressable bits (the bucket width).
        bits: u8,
        /// The Bloom-filter CMU whose forwarded value is nonzero iff the
        /// value was seen before.
        seen: CmuRef,
    },
}

impl PrepAction {
    /// True when application reads the per-packet PHV context.
    pub fn reads_ctx(&self) -> bool {
        matches!(
            self,
            PrepAction::IntervalGated { .. } | PrepAction::OneHotBitGated { .. }
        )
    }

    /// Applies the transformation.
    #[inline]
    pub fn apply(&self, p1: u32, p2: u32, ctx: &PacketContext) -> (u32, u32) {
        match self {
            PrepAction::None => (p1, p2),
            PrepAction::OneHotBit { bits } => (1u32 << (p1 % u32::from(*bits)), 1),
            PrepAction::Coupon { coupons, space } => {
                let space64 = u64::from(*space);
                let total = space64 * u64::from(*coupons);
                let h = u64::from(p1);
                if *space == 0 || h >= total {
                    (0, 1)
                } else {
                    (1u32 << (h / space64), 1)
                }
            }
            PrepAction::Rho {
                skip_top,
                consider_bits,
            } => {
                let v = p1 << skip_top;
                let rho = v.leading_zeros().min(u32::from(*consider_bits)) + 1;
                (rho, p2)
            }
            PrepAction::MapZero {
                when_zero,
                otherwise,
            } => {
                if p1 == 0 {
                    (*when_zero, p2)
                } else {
                    (*otherwise, p2)
                }
            }
            PrepAction::IntervalGated { seen } => {
                if ctx.get(*seen) == 0 {
                    (0, 0)
                } else {
                    (p1.saturating_sub(p2), 0)
                }
            }
            PrepAction::OneHotBitGated { bits, seen } => {
                if ctx.get(*seen) != 0 {
                    (0, 0) // already counted: XOR with 0 is a no-op
                } else {
                    (1u32 << (p1 % u32::from(*bits)), 0)
                }
            }
        }
    }

    /// Bits of a bucket the action's one-hot `p1` can land on (0 when it
    /// makes none): a narrower register masks the high bits away.
    pub fn one_hot_bits(&self) -> u8 {
        match self {
            PrepAction::OneHotBit { bits } | PrepAction::OneHotBitGated { bits, .. } => *bits,
            PrepAction::Coupon { coupons, .. } => *coupons,
            _ => 0,
        }
    }

    /// TCAM entries this mapping costs in the preparation stage.
    pub fn tcam_entries(&self) -> usize {
        match self {
            PrepAction::None => 0,
            // One entry per selectable bit.
            PrepAction::OneHotBit { bits } => usize::from(*bits),
            // One range entry per coupon plus the "no coupon" default.
            PrepAction::Coupon { coupons, .. } => usize::from(*coupons) + 1,
            // One leading-zero pattern per bit plus the all-zero case.
            PrepAction::Rho { consider_bits, .. } => usize::from(*consider_bits) + 1,
            // Zero / nonzero.
            PrepAction::MapZero { .. } => 2,
            // Seen/new gate plus the subtraction (an ADD with overflow).
            PrepAction::IntervalGated { .. } => 2,
            // Seen/new gate plus one entry per selectable bit.
            PrepAction::OneHotBitGated { bits, .. } => usize::from(*bits) + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PacketContext {
        PacketContext::default()
    }

    #[test]
    fn one_hot_bit_selects_within_bucket() {
        let a = PrepAction::OneHotBit { bits: 16 };
        assert_eq!(a.apply(0, 0, &ctx()), (1, 1));
        assert_eq!(a.apply(5, 0, &ctx()), (1 << 5, 1));
        assert_eq!(a.apply(21, 0, &ctx()), (1 << 5, 1)); // 21 mod 16
        assert_eq!(a.tcam_entries(), 16);
    }

    #[test]
    fn coupon_draw_partitions_hash_space() {
        let a = PrepAction::Coupon {
            coupons: 4,
            space: 1 << 20,
        };
        // Hash 0 -> coupon 0; hash just below 2*space -> coupon 1.
        assert_eq!(a.apply(0, 0, &ctx()).0, 1);
        assert_eq!(a.apply((1 << 21) - 1, 0, &ctx()).0, 1 << 1);
        // Hash beyond the coupon space -> no coupon.
        assert_eq!(a.apply(1 << 30, 0, &ctx()).0, 0);
        assert_eq!(a.tcam_entries(), 5);
    }

    #[test]
    fn coupon_probability_empirical() {
        // space = 2^32 * p with p = 1/64, 16 coupons -> draw prob 1/4.
        let space = (u32::MAX / 64) + 1;
        let a = PrepAction::Coupon { coupons: 16, space };
        let mut draws = 0;
        let n = 100_000u32;
        for i in 0..n {
            let h = flymon_rmt::hash::murmur3_32(7, &i.to_be_bytes());
            if a.apply(h, 0, &ctx()).0 != 0 {
                draws += 1;
            }
        }
        let p = f64::from(draws) / f64::from(n);
        assert!((p - 0.25).abs() < 0.01, "draw rate {p}");
    }

    #[test]
    fn rho_counts_leading_zeros() {
        let a = PrepAction::Rho {
            skip_top: 16,
            consider_bits: 16,
        };
        // p1 with bit 15 set (topmost considered bit): rho = 1.
        assert_eq!(a.apply(0x0000_8000, 0, &ctx()).0, 1);
        // p1 with bit 8 set: 7 leading zeros -> rho 8.
        assert_eq!(a.apply(0x0000_0100, 0, &ctx()).0, 8);
        // All zero: capped at consider_bits + 1.
        assert_eq!(a.apply(0, 0, &ctx()).0, 17);
        assert_eq!(a.tcam_entries(), 17);
    }

    #[test]
    fn map_zero_branches() {
        let a = PrepAction::MapZero {
            when_zero: 0x1000,
            otherwise: 0,
        };
        assert_eq!(a.apply(0, 9, &ctx()), (0x1000, 9));
        assert_eq!(a.apply(5, 9, &ctx()), (0, 9));
    }

    #[test]
    fn interval_gated_by_membership() {
        let seen = CmuRef { group: 0, cmu: 0 };
        let a = PrepAction::IntervalGated { seen };
        let mut c = PacketContext::default();
        // New flow: interval forced to zero.
        assert_eq!(a.apply(500, 300, &c), (0, 0));
        // Seen flow: interval = now - prev.
        c.record(0, 0, 1);
        assert_eq!(a.apply(500, 300, &c), (200, 0));
        // Clock skew guard: never negative.
        assert_eq!(a.apply(100, 300, &c), (0, 0));
    }
}
