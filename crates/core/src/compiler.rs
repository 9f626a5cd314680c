//! The task compiler: lowers a task definition onto placed CMUs.
//!
//! §3.4: "A dedicated compiler selects a built-in algorithm according to
//! the attribute and translates the task definition into runtime rules."
//! The control plane decides *where* (groups, CMUs, partitions, hash
//! units); this module decides *what rules* — one [`CmuBinding`] per row,
//! plus the install plan whose rule counts drive the Table 3 deployment
//! delays and the resource footprints behind Figures 2 and 13a.

use flymon_packet::KeySpec;
use flymon_rmt::resources::{ResourceVector, TofinoModel};
use flymon_rmt::rules::InstallPlan;
use flymon_rmt::salu::StatefulOp;

use crate::addr::AddrTranslation;
use crate::group::{CmuBinding, Forward, GroupConfig};
use crate::keysel::{KeySelect, KeySource};
use crate::params::{CmuRef, ParamSource};
use crate::prep::PrepAction;
use crate::task::{Algorithm, Attribute, FreqParam, MaxParam, TaskDefinition, TaskId};
use crate::FlymonError;

/// Compressed keys a group hosting this task must provide.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyNeeds {
    /// The addressing key (None ⇒ address from the param key, or the
    /// whole-register single flow when that is absent too).
    pub key: Option<KeySpec>,
    /// The parameter key (Distinct/Existence parameter).
    pub param: Option<KeySpec>,
}

/// What compressed keys the algorithm needs in each hosting group.
pub fn required_keys(def: &TaskDefinition, alg: Algorithm) -> KeyNeeds {
    let key = (!def.key.is_empty()).then_some(def.key);
    let param = match (&def.attribute, alg) {
        (Attribute::Distinct(p), _) | (Attribute::Existence(p), _) => {
            (!p.is_empty()).then_some(*p)
        }
        _ => None,
    };
    KeyNeeds { key, param }
}

/// One placed row (CMU) of a deployment, as decided by the control plane.
#[derive(Debug, Clone)]
pub struct PlacedRow {
    /// Hosting group.
    pub group: usize,
    /// Hosting CMU within the group.
    pub cmu: usize,
    /// Bit-slice shift distinguishing rows that share a compressed key.
    pub slice_shift: u8,
    /// The task's partition of the CMU register.
    pub translation: AddrTranslation,
    /// Partition offset in buckets.
    pub offset: usize,
    /// Partition size in buckets.
    pub size: usize,
    /// Resolved source of the addressing key in this group.
    pub key_source: KeySource,
    /// Resolved source of the parameter key, when the algorithm has one.
    pub param_source: Option<KeySource>,
    /// Maximum representable bucket value of the hosting register
    /// (recipes use it as Cond-ADD's threshold so counters *saturate*
    /// instead of wrapping — the TowerSketch overflow guard of
    /// Appendix D, applied everywhere).
    pub bucket_max: u32,
}

impl PlacedRow {
    fn cmu_ref(&self) -> CmuRef {
        CmuRef {
            group: self.group,
            cmu: self.cmu,
        }
    }

    fn key_select(&self) -> KeySelect {
        KeySelect {
            source: self.key_source,
            slice_shift: self.slice_shift,
        }
    }
}

/// Bits of a bucket the one-hot recipes address (bit-optimized Bloom,
/// Linear Counting, Odd Sketch: one bit of this many; BeauCoup: this
/// many coupons). Deploy refuses a narrower register.
pub const ONE_HOT_BITS: u8 = 16;

/// FlyMon-BeauCoup per-CMU coupon configuration: 16 coupons carved from a
/// 16-bit bucket, 12 required to report, draw probability calibrated so
/// the expected number of distinct values to collect 12 of 16 coupons
/// equals the detection threshold (§4 DDoS Victim Detection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmuCouponConfig {
    /// Coupons per bucket (= bucket bits used).
    pub coupons: u8,
    /// Coupons required per row to report.
    pub threshold_coupons: u32,
    /// Per-coupon hash-space slice (`⌊p·2^32⌋`).
    pub space: u32,
    /// Per-coupon draw probability.
    pub prob: f64,
}

impl CmuCouponConfig {
    /// Calibrates for a distinct-count detection threshold.
    pub fn for_threshold(distinct_threshold: u64) -> Self {
        let coupons = u32::from(ONE_HOT_BITS);
        let threshold_coupons = 12u32;
        let harmonic = |n: u32| (1..=n).map(|i| 1.0 / f64::from(i)).sum::<f64>();
        let draws = harmonic(coupons) - harmonic(coupons - threshold_coupons);
        let prob = (draws / distinct_threshold as f64).min(1.0 / f64::from(coupons));
        CmuCouponConfig {
            coupons: coupons as u8,
            threshold_coupons,
            space: (prob * 2f64.powi(32)) as u32,
            prob,
        }
    }

    /// Inverts the coupon-collection expectation into a distinct-count
    /// estimate (same mathematics as the reference BeauCoup).
    pub fn estimate_distinct(&self, collected: u32) -> f64 {
        let c = f64::from(self.coupons);
        if collected == 0 {
            return 0.0;
        }
        if collected >= u32::from(self.coupons) {
            return (0..u32::from(self.coupons))
                .map(|i| 1.0 / (f64::from(u32::from(self.coupons) - i) * self.prob))
                .sum();
        }
        (1.0 - f64::from(collected) / c).ln() / (1.0 - self.prob).ln()
    }
}

/// TowerSketch level widths (bits) for row `i` of a `d`-level tower
/// carved from 16-bit buckets (Appendix D).
pub const TOWER_LEVEL_BITS: [u8; 3] = [4, 8, 16];

/// Counter Braids low-layer cap inside a 16-bit bucket (8-bit semantics,
/// Appendix D).
pub const BRAIDS_LOW_CAP: u32 = 255;

/// Builds the per-row bindings for a placed task: one `(row, binding)`
/// per row, in row order.
///
/// Rows must be ordered: for single-group algorithms, row order is the
/// row index; for chained algorithms (SuMax(Sum), Counter Braids,
/// MaxInterval), rows are in stage order and stage `s` reads stage
/// `s-1`'s forwarded output, so the control plane must place them in
/// ascending group order.
pub fn build_bindings(
    def: &TaskDefinition,
    id: TaskId,
    alg: Algorithm,
    rows: &[PlacedRow],
) -> Result<Vec<(usize, CmuBinding)>, FlymonError> {
    let mut out = Vec::with_capacity(rows.len());
    build_bindings_into(def, id, alg, rows, &mut out)?;
    Ok(out)
}

/// [`build_bindings`] into `out`, cleared first: the deploy path keeps
/// one vector across deploys.
pub fn build_bindings_into(
    def: &TaskDefinition,
    id: TaskId,
    alg: Algorithm,
    rows: &[PlacedRow],
    out: &mut Vec<(usize, CmuBinding)>,
) -> Result<(), FlymonError> {
    out.clear();
    let base = |row: &PlacedRow| CmuBinding {
        task: id,
        filter: def.filter,
        prob_log2: def.prob_log2,
        key: row.key_select(),
        p1: ParamSource::Const(1),
        p2: ParamSource::Const(row.bucket_max),
        prep: PrepAction::None,
        translation: row.translation,
        op: StatefulOp::CondAdd,
        forward: Forward::Result,
    };
    let freq_p1 = |def: &TaskDefinition| match def.attribute {
        Attribute::Frequency(FreqParam::Bytes) => ParamSource::PacketBytes,
        _ => ParamSource::Const(1),
    };

    let expect_rows = |n: usize| -> Result<(), FlymonError> {
        if rows.len() == n {
            Ok(())
        } else {
            Err(FlymonError::BadTask(format!(
                "{} needs {n} rows, got {}",
                alg.name(),
                rows.len()
            )))
        }
    };

    match alg {
        Algorithm::Cms { d } | Algorithm::SuMaxSum { d } => {
            expect_rows(d)?;
            for (i, row) in rows.iter().enumerate() {
                let mut b = base(row);
                b.p1 = freq_p1(def);
                if matches!(alg, Algorithm::SuMaxSum { .. }) && i > 0 {
                    // Approximate conservative update: compare against the
                    // minimum of the upstream rows' post-update values.
                    b.p2 = ParamSource::ChainMin(
                        rows[..i].iter().map(PlacedRow::cmu_ref).collect(),
                    );
                }
                out.push((i, b));
            }
        }
        Algorithm::Mrac => {
            expect_rows(1)?;
            let mut b = base(&rows[0]);
            b.p1 = ParamSource::Const(1); // MRAC counts packets
            out.push((0, b));
        }
        Algorithm::Tower { d } => {
            expect_rows(d)?;
            if d > TOWER_LEVEL_BITS.len() {
                return Err(FlymonError::BadTask(
                    "TowerSketch supports at most 3 levels on 16-bit buckets".into(),
                ));
            }
            for (i, row) in rows.iter().enumerate() {
                let bits = TOWER_LEVEL_BITS[i];
                let step = 1u32 << (16 - bits);
                let cap_value = (((1u32 << bits) - 1) * step).min(0xffff);
                let mut b = base(row);
                // p1 represents "1" in the level's left-aligned counter;
                // p2 guards saturation (Appendix D, Fig. 15a).
                b.p1 = ParamSource::Const(step);
                b.p2 = ParamSource::Const(cap_value);
                out.push((i, b));
            }
        }
        Algorithm::CounterBraids => {
            expect_rows(2)?;
            // Low layer: count until the 8-bit cap, then stop updating;
            // blocked packets return 0, which the high layer's MapZero
            // turns into a carry (Appendix D, Fig. 15b).
            let mut low = base(&rows[0]);
            low.p1 = ParamSource::Const(1);
            low.p2 = ParamSource::Const(BRAIDS_LOW_CAP);
            out.push((0, low));
            let mut high = base(&rows[1]);
            high.p1 = ParamSource::PrevResult(rows[0].cmu_ref());
            high.prep = PrepAction::MapZero {
                when_zero: 1,
                otherwise: 0,
            };
            out.push((1, high));
        }
        Algorithm::Hll | Algorithm::LinearCounting => {
            expect_rows(1)?;
            let row = &rows[0];
            let param = row.param_source.or(Some(row.key_source)).ok_or_else(|| {
                FlymonError::BadTask("distinct task needs a parameter key".into())
            })?;
            let mut b = base(row);
            b.p1 = ParamSource::CompressedKey(param);
            if matches!(alg, Algorithm::Hll) {
                // ρ from the *low* 16 bits of the compressed key — the
                // bucket index is sliced from the high bits, and the two
                // must be disjoint or leading-zero keys pile biased ρ
                // values into the low-index registers (§4 Flow
                // Cardinality; stochastic averaging needs independent
                // index/pattern bits).
                b.prep = PrepAction::Rho {
                    skip_top: 16,
                    consider_bits: 16,
                };
                b.op = StatefulOp::Max;
                b.p2 = ParamSource::Const(0);
            } else {
                // Linear Counting: one bit per value, same data plane as
                // the bit-optimized Bloom filter.
                b.prep = PrepAction::OneHotBit { bits: ONE_HOT_BITS };
                b.op = StatefulOp::AndOr;
                b.p2 = ParamSource::Const(1);
            }
            // For the pure-cardinality form the addressing key *is* the
            // param key (stochastic averaging over its low bits).
            if def.key.is_empty() {
                b.key = KeySelect {
                    source: param,
                    slice_shift: 16,
                };
            }
            out.push((0, b));
        }
        Algorithm::BeauCoup { d } => {
            expect_rows(d)?;
            let coupons = CmuCouponConfig::for_threshold(def.distinct_threshold);
            for (i, row) in rows.iter().enumerate() {
                let param = row.param_source.ok_or_else(|| {
                    FlymonError::BadTask("BeauCoup needs a parameter key".into())
                })?;
                let mut b = base(row);
                b.p1 = ParamSource::CompressedKey(param);
                b.prep = PrepAction::Coupon {
                    coupons: coupons.coupons,
                    space: coupons.space,
                };
                b.op = StatefulOp::AndOr;
                b.p2 = ParamSource::Const(1);
                out.push((i, b));
            }
        }
        Algorithm::Bloom { d, bit_optimized } => {
            expect_rows(d)?;
            for (i, row) in rows.iter().enumerate() {
                // §4 Existence Check: both the key and p1 are the
                // compressed key being checked.
                let param = row.param_source.unwrap_or(row.key_source);
                let mut b = base(row);
                b.op = StatefulOp::AndOr;
                b.p2 = ParamSource::Const(1);
                if bit_optimized {
                    b.p1 = ParamSource::CompressedKey(param);
                    b.prep = PrepAction::OneHotBit { bits: ONE_HOT_BITS };
                } else {
                    // Whole bucket as one bit: memory-wasteful variant
                    // (Fig. 14g "w/o Opt").
                    b.p1 = ParamSource::Const(1);
                }
                if def.key.is_empty() {
                    b.key = KeySelect {
                        source: param,
                        slice_shift: 8u8.wrapping_mul(i as u8),
                    };
                }
                out.push((i, b));
            }
        }
        Algorithm::SuMaxMax { d } => {
            expect_rows(d)?;
            let p1 = match def.attribute {
                Attribute::Max(MaxParam::QueueLen) => ParamSource::QueueLen,
                Attribute::Max(MaxParam::QueueDelayUs) => ParamSource::QueueDelayUs,
                _ => {
                    return Err(FlymonError::BadTask(
                        "SuMax(Max) hosts QueueLen/QueueDelay maxima".into(),
                    ))
                }
            };
            for (i, row) in rows.iter().enumerate() {
                let mut b = base(row);
                b.p1 = p1.clone();
                b.p2 = ParamSource::Const(0);
                b.op = StatefulOp::Max;
                out.push((i, b));
            }
        }
        Algorithm::OddSketch => {
            expect_rows(2)?;
            // Row 0: Bloom-filter gate — membership of the param value,
            // forwarding "seen before?". Row 1: the parity bitmap — XOR
            // a one-hot bit, but only on first occurrence (§6 expansion
            // via the reserved XOR operation).
            let bf = &rows[0];
            let odd = &rows[1];
            let param = bf.param_source.unwrap_or(bf.key_source);
            let mut b_bf = base(bf);
            b_bf.p1 = ParamSource::CompressedKey(param);
            b_bf.prep = PrepAction::OneHotBit { bits: ONE_HOT_BITS };
            b_bf.op = StatefulOp::AndOr;
            b_bf.p2 = ParamSource::Const(1);
            b_bf.forward = Forward::OldAndP1;
            if def.key.is_empty() {
                b_bf.key = KeySelect {
                    source: param,
                    slice_shift: 0,
                };
            }
            out.push((0, b_bf));

            let odd_param = odd.param_source.unwrap_or(odd.key_source);
            let mut b_odd = base(odd);
            b_odd.p1 = ParamSource::CompressedKey(odd_param);
            b_odd.prep = PrepAction::OneHotBitGated {
                bits: ONE_HOT_BITS,
                seen: bf.cmu_ref(),
            };
            b_odd.op = StatefulOp::Xor;
            if def.key.is_empty() {
                b_odd.key = KeySelect {
                    source: odd_param,
                    slice_shift: 8,
                };
            }
            out.push((1, b_odd));
        }
        Algorithm::MaxInterval { d } => {
            expect_rows(3 * d)?;
            // Rows come in instance-major order: for instance i, rows
            // 3i (Bloom membership), 3i+1 (arrival recorder), 3i+2
            // (interval maximizer), in ascending group order (§4).
            for inst in 0..d {
                let bf = &rows[3 * inst];
                let rec = &rows[3 * inst + 1];
                let max = &rows[3 * inst + 2];

                let mut b_bf = base(bf);
                b_bf.p1 = ParamSource::CompressedKey(bf.key_source);
                b_bf.prep = PrepAction::OneHotBit { bits: ONE_HOT_BITS };
                b_bf.op = StatefulOp::AndOr;
                b_bf.p2 = ParamSource::Const(1);
                b_bf.forward = Forward::OldAndP1;
                out.push((3 * inst, b_bf));

                let mut b_rec = base(rec);
                b_rec.p1 = ParamSource::TimestampUs;
                b_rec.p2 = ParamSource::Const(0);
                b_rec.op = StatefulOp::Max;
                b_rec.forward = Forward::Old;
                out.push((3 * inst + 1, b_rec));

                let mut b_max = base(max);
                b_max.p1 = ParamSource::TimestampUs;
                b_max.p2 = ParamSource::PrevResult(rec.cmu_ref());
                b_max.prep = PrepAction::IntervalGated { seen: bf.cmu_ref() };
                b_max.op = StatefulOp::Max;
                out.push((3 * inst + 2, b_max));
            }
        }
    }
    Ok(())
}

/// Computes the install plan (rule counts) for a deployment: hash-mask
/// rules for newly configured units, one synchronous table transaction,
/// and everything else batched. The per-rule latencies are the §5.1
/// measurements (see [`flymon_rmt::rules`]).
pub fn install_plan(bindings: &[(usize, CmuBinding)], new_hash_masks: usize) -> InstallPlan {
    // Per row: filter/select-key rule, select-param rule, select-op rule,
    // address-translation entry, plus the preparation-stage TCAM entries.
    let table_rules: usize = bindings
        .iter()
        .map(|(_, b)| 4 + b.prep.tcam_entries() + b.translation.tcam_entries())
        .sum();
    InstallPlan {
        hash_mask_rules: new_hash_masks,
        sync_table_rules: usize::from(table_rules > 0),
        batched_table_rules: table_rules.saturating_sub(1),
        ..InstallPlan::default()
    }
}

/// Absolute resource footprint of one CMU Group on the Tofino model —
/// Figure 13a's per-group overhead. Derived from the paper's stage-usage
/// table (Fig. 8): 6 hash units (3 compression + 3 SALU addressing),
/// 3 SALUs, 62.5% of one stage's VLIW slots, 62.5% of one stage's TCAM,
/// the 3 registers' SRAM, ~6 logical tables, and the less-copy PHV cost
/// (3×32-bit compressed keys + per-CMU scratch fields).
pub fn cmu_group_footprint(config: &GroupConfig, model: &TofinoModel) -> ResourceVector {
    let sram_bits =
        config.cmus as u64 * config.buckets_per_cmu as u64 * u64::from(config.bucket_bits);
    ResourceVector {
        hash_units: (config.compression_units + config.cmus) as u64,
        salus: config.cmus as u64,
        vliw_slots: (0.625 * model.vliw_slots_per_stage as f64).round() as u64,
        tcam_slots: (0.625 * model.tcam_slots_per_stage as f64).round() as u64,
        sram_bits,
        table_ids: 6,
        phv_bits: 32 * config.compression_units as u64 + 112 * config.cmus as u64,
    }
}

/// A statically deployed single-key sketch, as in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticSketch {
    /// 3-hash Bloom filter over 5-tuples.
    BloomFilter,
    /// 3-row Count-Min Sketch.
    Cms,
    /// HyperLogLog (hash for index + hash for ρ, TCAM ρ-patterns).
    Hll,
    /// MRAC single counter array.
    Mrac,
}

impl StaticSketch {
    /// The four sketches of Figure 2.
    pub const ALL: [StaticSketch; 4] = [
        StaticSketch::BloomFilter,
        StaticSketch::Cms,
        StaticSketch::Hll,
        StaticSketch::Mrac,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StaticSketch::BloomFilter => "BloomFilter",
            StaticSketch::Cms => "CMS",
            StaticSketch::Hll => "HLL",
            StaticSketch::Mrac => "MRAC",
        }
    }

    /// Static-deployment footprint: the resources a standalone P4
    /// implementation hard-wires for one key. Unit counts follow the
    /// reference implementations the paper cites (\[11\] for HLL, Fig. 1
    /// for CMS/BF); each sketch copies its 104-bit key into PHV.
    pub fn footprint(self, model: &TofinoModel) -> ResourceVector {
        let _ = model;
        match self {
            StaticSketch::BloomFilter => ResourceVector {
                hash_units: 3,
                salus: 3,
                sram_bits: 3 * 65536, // 64K 1-bit buckets per row
                tcam_slots: 0,
                vliw_slots: 6,
                table_ids: 4,
                phv_bits: 104 + 3 * 16,
            },
            StaticSketch::Cms => ResourceVector {
                hash_units: 3,
                salus: 3,
                sram_bits: 3 * 65536 * 32,
                tcam_slots: 0,
                vliw_slots: 6,
                table_ids: 4,
                phv_bits: 104 + 3 * 48,
            },
            StaticSketch::Hll => ResourceVector {
                hash_units: 2,
                salus: 1,
                sram_bits: 16384 * 8,
                tcam_slots: 33, // leading-zero patterns
                vliw_slots: 4,
                table_ids: 3,
                phv_bits: 104 + 48,
            },
            StaticSketch::Mrac => ResourceVector {
                hash_units: 1,
                salus: 1,
                sram_bits: 65536 * 32,
                tcam_slots: 0,
                vliw_slots: 2,
                table_ids: 2,
                phv_bits: 104 + 32,
            },
        }
    }
}

/// The Figure 2 "Sum": all four sketches deployed side by side.
pub fn static_sum_footprint(model: &TofinoModel) -> ResourceVector {
    StaticSketch::ALL
        .iter()
        .fold(ResourceVector::ZERO, |acc, s| acc.add(&s.footprint(model)))
}

/// PHV bits available to measurement in a shared switch (half the 4096-bit
/// PHV; the rest serves forwarding — Figure 13c's setting).
pub const MEASUREMENT_PHV_BITS: u64 = 2048;

/// Figure 13c: how many CMUs fit as the candidate key set grows.
///
/// Without the less-copy strategy every CMU copies the whole candidate
/// key set into PHV (plus a 16-bit address and a 32-bit parameter field).
/// With compression a CMU *Group* materializes three 32-bit compressed
/// keys shared by its three CMUs, each of which only adds a 32-bit
/// parameter field — the PHV cost stops depending on the key size
/// entirely. Both variants cap at the 27 CMUs cross-stacking fits into a
/// 12-stage pipeline (§3.2).
pub fn phv_limited_cmus(candidate_key_bits: u64, with_compression: bool) -> usize {
    const STAGE_CAP: usize = 27;
    if with_compression {
        let per_group = 3 * 32 + 3 * 32; // compressed keys + param fields
        let groups = (MEASUREMENT_PHV_BITS / per_group) as usize;
        (groups * 3).min(STAGE_CAP)
    } else {
        let per_cmu = candidate_key_bits + 16 + 32;
        ((MEASUREMENT_PHV_BITS / per_cmu) as usize).min(STAGE_CAP)
    }
}

/// How many *additional keys* the static approach could support: each
/// extra key re-deploys the whole sketch suite (the `O(m·n)` explosion of
/// §1). Returns the largest `m` such that `m` copies of the suite fit
/// beside `switch.p4`.
pub fn max_static_key_copies(model: &TofinoModel) -> usize {
    let base = model.baseline_switch();
    let suite = static_sum_footprint(model);
    let mut m = 0;
    while base.add(&suite.scale(m as u64 + 1)).fits(model) {
        m += 1;
        if m > 64 {
            break; // safety against a degenerate model
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon_packet::TaskFilter;

    fn placed_row(group: usize, cmu: usize, shift: u8) -> PlacedRow {
        PlacedRow {
            group,
            cmu,
            slice_shift: shift,
            translation: AddrTranslation::IDENTITY,
            offset: 0,
            size: 65536,
            key_source: KeySource::Unit(0),
            param_source: Some(KeySource::Unit(1)),
            bucket_max: 0xffff,
        }
    }

    fn cms_task() -> TaskDefinition {
        TaskDefinition::builder("t")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .build()
    }

    #[test]
    fn cms_bindings_are_unconditional_adds() {
        let rows: Vec<_> = (0..3).map(|i| placed_row(0, i, 8 * i as u8)).collect();
        let b = build_bindings(&cms_task(), TaskId(1), Algorithm::Cms { d: 3 }, &rows).unwrap();
        assert_eq!(b.len(), 3);
        for (i, binding) in &b {
            assert_eq!(binding.op, StatefulOp::CondAdd);
            assert_eq!(binding.p2, ParamSource::Const(0xffff));
            assert_eq!(binding.key.slice_shift, 8 * *i as u8);
        }
    }

    #[test]
    fn sumax_chains_the_minimum() {
        let rows: Vec<_> = (0..3).map(|g| placed_row(g, 0, 0)).collect();
        let b =
            build_bindings(&cms_task(), TaskId(1), Algorithm::SuMaxSum { d: 3 }, &rows).unwrap();
        assert_eq!(b[0].1.p2, ParamSource::Const(0xffff));
        match &b[2].1.p2 {
            ParamSource::ChainMin(refs) => assert_eq!(refs.len(), 2),
            other => panic!("expected ChainMin, got {other:?}"),
        }
    }

    #[test]
    fn tower_levels_follow_appendix_d() {
        let rows: Vec<_> = (0..3).map(|i| placed_row(0, i, 8 * i as u8)).collect();
        let b = build_bindings(
            &cms_task(),
            TaskId(1),
            Algorithm::Tower { d: 3 },
            &rows,
        )
        .unwrap();
        // 4-bit level: step 2^12, cap 15*2^12.
        assert_eq!(b[0].1.p1, ParamSource::Const(1 << 12));
        assert_eq!(b[0].1.p2, ParamSource::Const(15 << 12));
        // 16-bit level: step 1, cap 0xffff.
        assert_eq!(b[2].1.p1, ParamSource::Const(1));
        assert_eq!(b[2].1.p2, ParamSource::Const(0xffff));
    }

    #[test]
    fn braids_low_feeds_high_through_map_zero() {
        let rows = vec![placed_row(0, 0, 0), placed_row(1, 0, 0)];
        let b =
            build_bindings(&cms_task(), TaskId(1), Algorithm::CounterBraids, &rows).unwrap();
        assert_eq!(b[0].1.p2, ParamSource::Const(BRAIDS_LOW_CAP));
        assert!(matches!(
            b[1].1.prep,
            PrepAction::MapZero { when_zero: 1, otherwise: 0 }
        ));
        assert!(matches!(b[1].1.p1, ParamSource::PrevResult(_)));
    }

    #[test]
    fn hll_uses_rho_and_max() {
        let def = TaskDefinition::builder("card")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .algorithm(Algorithm::Hll)
            .build();
        let rows = vec![placed_row(0, 0, 0)];
        let b = build_bindings(&def, TaskId(1), Algorithm::Hll, &rows).unwrap();
        assert_eq!(b[0].1.op, StatefulOp::Max);
        assert!(matches!(b[0].1.prep, PrepAction::Rho { .. }));
        // Cardinality addresses by the param key's high bits.
        assert_eq!(b[0].1.key.source, KeySource::Unit(1));
        assert_eq!(b[0].1.key.slice_shift, 16);
    }

    #[test]
    fn beaucoup_coupon_calibration() {
        let c = CmuCouponConfig::for_threshold(512);
        assert_eq!(c.coupons, 16);
        // Expected draws to collect 12 of 16 coupons ≈ 512.
        let harmonic = |n: u32| (1..=n).map(|i| 1.0 / f64::from(i)).sum::<f64>();
        let draws = (harmonic(16) - harmonic(4)) / c.prob;
        assert!((draws - 512.0).abs() / 512.0 < 0.02, "draws {draws}");
        // Estimate inversion is monotone.
        assert!(c.estimate_distinct(4) < c.estimate_distinct(8));
        assert_eq!(c.estimate_distinct(0), 0.0);
        assert!(c.estimate_distinct(16) > c.estimate_distinct(15));
    }

    #[test]
    fn bloom_bit_opt_versus_naive() {
        let def = TaskDefinition::builder("bl")
            .key(KeySpec::NONE)
            .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
            .build();
        let rows: Vec<_> = (0..3).map(|i| placed_row(0, i, 8 * i as u8)).collect();
        let opt = build_bindings(
            &def,
            TaskId(1),
            Algorithm::Bloom { d: 3, bit_optimized: true },
            &rows,
        )
        .unwrap();
        assert!(matches!(opt[0].1.prep, PrepAction::OneHotBit { bits: 16 }));
        let naive = build_bindings(
            &def,
            TaskId(1),
            Algorithm::Bloom { d: 3, bit_optimized: false },
            &rows,
        )
        .unwrap();
        assert_eq!(naive[0].1.p1, ParamSource::Const(1));
        assert!(matches!(naive[0].1.prep, PrepAction::None));
    }

    #[test]
    fn max_interval_wiring() {
        let def = TaskDefinition::builder("interval")
            .key(KeySpec::FIVE_TUPLE)
            .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
            .build();
        let rows: Vec<_> = (0..3).map(|g| placed_row(g, 0, 0)).collect();
        let b = build_bindings(&def, TaskId(1), Algorithm::MaxInterval { d: 1 }, &rows).unwrap();
        assert_eq!(b[0].1.forward, Forward::OldAndP1); // membership
        assert_eq!(b[1].1.forward, Forward::Old); // recorder
        assert!(matches!(b[2].1.prep, PrepAction::IntervalGated { .. }));
        assert_eq!(b[2].1.op, StatefulOp::Max);
    }

    #[test]
    fn wrong_row_count_is_rejected() {
        let rows = vec![placed_row(0, 0, 0)];
        assert!(build_bindings(&cms_task(), TaskId(1), Algorithm::Cms { d: 3 }, &rows).is_err());
    }

    #[test]
    fn install_plan_counts_rules() {
        let rows: Vec<_> = (0..3).map(|i| placed_row(0, i, 0)).collect();
        let b = build_bindings(&cms_task(), TaskId(1), Algorithm::Cms { d: 3 }, &rows).unwrap();
        let plan = install_plan(&b, 1);
        assert_eq!(plan.hash_mask_rules, 1);
        assert_eq!(plan.sync_table_rules, 1);
        // 3 rows × (4 + 0 prep + 1 addr) = 15 rules, one sync.
        assert_eq!(plan.batched_table_rules, 14);
        assert!(plan.latency_ms() > 16.0 && plan.latency_ms() < 30.0);
    }

    #[test]
    fn group_footprint_matches_paper_headline() {
        let model = TofinoModel::default();
        let config = GroupConfig::default();
        let fp = cmu_group_footprint(&config, &model);
        let utils = fp.utilization(&model);
        // Hash units are the bottleneck at 6/72 = 8.33% (§5.2: "less than
        // 8.3% resource overhead ... the hash resources are the
        // bottleneck").
        let hash = utils
            .iter()
            .find(|(k, _)| matches!(k, flymon_rmt::resources::ResourceKind::HashUnit))
            .unwrap()
            .1;
        assert!((hash - 6.0 / 72.0).abs() < 1e-9);
        // Among the six stage resources of Fig. 13a, hash is the
        // bottleneck (PHV is pipeline-wide and reported separately).
        for (kind, frac) in &utils {
            if matches!(kind, flymon_rmt::resources::ResourceKind::Phv) {
                continue;
            }
            assert!(
                *frac <= 6.0 / 72.0 + 1e-9,
                "{} exceeds the hash bottleneck: {frac}",
                kind.name()
            );
        }
        assert!(fp.mean_utilization(&model) < 0.083);
        // More than 3 CMU Groups fit beside switch.p4 (§5.2).
        let base = model.baseline_switch();
        assert!(base.add(&fp.scale(3)).fits(&model));
    }

    #[test]
    fn static_deployment_explodes_with_key_count() {
        let model = TofinoModel::default();
        let m = max_static_key_copies(&model);
        // The whole 4-sketch suite fits a handful of times at best —
        // nowhere near the 96 concurrent tasks one CMU Group hosts.
        assert!(m >= 1, "at least one suite must fit");
        assert!(m <= 6, "static suites must not scale (got {m})");
    }

    #[test]
    fn fig13c_compression_decouples_phv_from_key_size() {
        // §5.2: "FlyMon can deploy 5x more CMUs when the candidate key
        // size reaches 350 bits."
        let with_at_360 = phv_limited_cmus(360, true);
        let without_at_360 = phv_limited_cmus(360, false);
        assert!(with_at_360 >= 5 * without_at_360);
        // Compression cost is key-size independent.
        assert_eq!(phv_limited_cmus(32, true), phv_limited_cmus(360, true));
        // Small keys fit either way.
        assert!(phv_limited_cmus(32, false) >= 20);
        // The stage cap is 27 CMUs.
        assert!(phv_limited_cmus(8, true) <= 27);
    }

    #[test]
    fn required_keys_per_attribute() {
        let cms = cms_task();
        let needs = required_keys(&cms, Algorithm::Cms { d: 3 });
        assert_eq!(needs.key, Some(KeySpec::SRC_IP));
        assert_eq!(needs.param, None);

        let ddos = TaskDefinition::builder("ddos")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::Distinct(KeySpec::SRC_IP))
            .build();
        let needs = required_keys(&ddos, Algorithm::BeauCoup { d: 3 });
        assert_eq!(needs.key, Some(KeySpec::DST_IP));
        assert_eq!(needs.param, Some(KeySpec::SRC_IP));

        let card = TaskDefinition::builder("card")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .build();
        let needs = required_keys(&card, Algorithm::Hll);
        assert_eq!(needs.key, None);
        assert_eq!(needs.param, Some(KeySpec::FIVE_TUPLE));
    }

    #[test]
    fn filters_propagate_to_bindings() {
        let mut def = cms_task();
        def.filter = TaskFilter::src(0x0a000000, 8);
        def.prob_log2 = 3;
        let rows: Vec<_> = (0..3).map(|i| placed_row(0, i, 0)).collect();
        let b = build_bindings(&def, TaskId(9), Algorithm::Cms { d: 3 }, &rows).unwrap();
        for (_, binding) in &b {
            assert_eq!(binding.filter, def.filter);
            assert_eq!(binding.prob_log2, 3);
            assert_eq!(binding.task, TaskId(9));
        }
    }
}
