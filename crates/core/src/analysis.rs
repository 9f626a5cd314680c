//! Control-plane analysis: turning CMU readouts into statistics.
//!
//! §3.1.2: algorithms decompose into *data-plane operations* and
//! *control-plane analysis*. The data-plane halves live in
//! [`crate::compiler`] as binding recipes; this module is the analysis
//! half — it replays the addressing path over the readout and applies the
//! published estimators (several shared verbatim with the reference
//! implementations in `flymon-sketches`).

use flymon_packet::Packet;
use flymon_sketches::hll::estimate_from_registers;
use flymon_sketches::mrac::{entropy_from_counters, estimate_distribution_from_counters};

use flymon_rmt::register::Buckets;

use crate::compiler::{CmuCouponConfig, BRAIDS_LOW_CAP, ONE_HOT_BITS, TOWER_LEVEL_BITS};
use crate::control::{FlyMon, TaskHandle};
use crate::params::PacketContext;
use crate::task::Algorithm;
use crate::FlymonError;

/// Frequency estimate for the flow `pkt` belongs to.
///
/// Multi-row estimators address every row with one reused hash scratch
/// ([`FlyMon::row_value_with`]) — a query sweep over the readout
/// allocates once, not once per row.
pub fn query_frequency(fm: &FlyMon, h: TaskHandle, pkt: &Packet) -> Result<u64, FlymonError> {
    let task = fm.task(h)?;
    let mut scratch = flymon_rmt::hash::HashScratch::default();
    match task.algorithm {
        Algorithm::Cms { d } | Algorithm::SuMaxSum { d } => (0..d)
            .map(|i| fm.row_value_with(h, i, pkt, &mut scratch).map(u64::from))
            .try_fold(u64::MAX, |acc, v| v.map(|v| acc.min(v))),
        Algorithm::Mrac => fm.row_value_with(h, 0, pkt, &mut scratch).map(u64::from),
        Algorithm::Tower { d } => {
            let mut best: Option<u64> = None;
            let mut top_cap = 0u64;
            for (i, &bits) in TOWER_LEVEL_BITS.iter().enumerate().take(d) {
                let count = u64::from(fm.row_value_with(h, i, pkt, &mut scratch)?) >> (16 - bits);
                let cap = (1u64 << bits) - 1;
                top_cap = top_cap.max(cap);
                if count < cap {
                    best = Some(best.map_or(count, |b| b.min(count)));
                }
            }
            Ok(best.unwrap_or(top_cap))
        }
        Algorithm::CounterBraids => {
            // Low layer counts to its cap; each blocked packet carried
            // one unit into the high layer (Appendix D).
            let low = u64::from(fm.row_value_with(h, 0, pkt, &mut scratch)?);
            let high = u64::from(fm.row_value_with(h, 1, pkt, &mut scratch)?);
            debug_assert!(low <= u64::from(BRAIDS_LOW_CAP));
            Ok(low + high)
        }
        // BeauCoup can proxy frequency by counting distinct timestamps
        // (§5.3 Fig. 14a); the estimate is the coupon inversion.
        Algorithm::BeauCoup { .. } => Ok(query_distinct(fm, h, pkt)?.round() as u64),
        other => Err(FlymonError::BadTask(format!(
            "{} has no frequency query",
            other.name()
        ))),
    }
}

/// Max-attribute estimate (row-wise minimum of maxima).
pub fn query_max(fm: &FlyMon, h: TaskHandle, pkt: &Packet) -> Result<u64, FlymonError> {
    let task = fm.task(h)?;
    let mut scratch = flymon_rmt::hash::HashScratch::default();
    match task.algorithm {
        Algorithm::SuMaxMax { d } => (0..d)
            .map(|i| fm.row_value_with(h, i, pkt, &mut scratch).map(u64::from))
            .try_fold(u64::MAX, |acc, v| v.map(|v| acc.min(v))),
        Algorithm::MaxInterval { d } => (0..d)
            .map(|i| fm.row_value_with(h, 3 * i + 2, pkt, &mut scratch).map(u64::from))
            .try_fold(u64::MAX, |acc, v| v.map(|v| acc.min(v))),
        other => Err(FlymonError::BadTask(format!(
            "{} has no max query",
            other.name()
        ))),
    }
}

/// Existence check: every row's bit (or bucket) is set.
pub fn query_exists(fm: &FlyMon, h: TaskHandle, pkt: &Packet) -> Result<bool, FlymonError> {
    let task = fm.task(h)?;
    let Algorithm::Bloom { d, bit_optimized } = task.algorithm else {
        return Err(FlymonError::BadTask(format!(
            "{} has no existence query",
            task.algorithm.name()
        )));
    };
    let ctx = PacketContext::default();
    let mut scratch = flymon_rmt::hash::HashScratch::default();
    for i in 0..d {
        let row = &task.rows[i];
        let binding = &task.bindings[i];
        let bucket = fm.row_value_with(h, i, pkt, &mut scratch)?;
        if bit_optimized {
            fm.groups()[row.group].compress_into(pkt, &mut scratch);
            let p1 = binding.p1.resolve(pkt, scratch.as_slice(), &ctx);
            let (bit, _) = binding.prep.apply(p1, 0, &ctx);
            if bucket & bit == 0 {
                return Ok(false);
            }
        } else if bucket == 0 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Coupons collected per BeauCoup row for `pkt`'s flow.
pub fn query_coupons(fm: &FlyMon, h: TaskHandle, pkt: &Packet) -> Result<Vec<u32>, FlymonError> {
    let task = fm.task(h)?;
    let Algorithm::BeauCoup { d } = task.algorithm else {
        return Err(FlymonError::BadTask(format!(
            "{} has no coupon query",
            task.algorithm.name()
        )));
    };
    let mut scratch = flymon_rmt::hash::HashScratch::default();
    (0..d)
        .map(|i| fm.row_value_with(h, i, pkt, &mut scratch).map(u32::count_ones))
        .collect()
}

/// §4 DDoS Victim Detection: report only when *every* coupon table
/// crossed the threshold (the multi-table AND that hardens FlyMon-
/// BeauCoup against hash collisions).
pub fn beaucoup_reports(fm: &FlyMon, h: TaskHandle, pkt: &Packet) -> Result<bool, FlymonError> {
    let coupons = query_coupons(fm, h, pkt)?;
    let config = fm.coupon_config(h)?;
    Ok(coupons.iter().all(|&c| c >= config.threshold_coupons))
}

/// Distinct-count estimate for a flow (BeauCoup inversion) or for the
/// whole stream (HLL/LC cardinality when the task key is empty).
pub fn query_distinct(fm: &FlyMon, h: TaskHandle, pkt: &Packet) -> Result<f64, FlymonError> {
    let task = fm.task(h)?;
    match task.algorithm {
        Algorithm::BeauCoup { .. } => {
            let coupons = query_coupons(fm, h, pkt)?;
            let config: CmuCouponConfig = fm.coupon_config(h)?;
            // The AND semantics make the row-wise minimum the robust
            // reading (a polluted row only ever overestimates).
            let min = coupons.into_iter().min().unwrap_or(0);
            Ok(config.estimate_distinct(min))
        }
        Algorithm::Hll | Algorithm::LinearCounting => cardinality(fm, h),
        other => Err(FlymonError::BadTask(format!(
            "{} has no distinct query",
            other.name()
        ))),
    }
}

/// Cardinality estimate for single-key distinct tasks.
pub fn cardinality(fm: &FlyMon, h: TaskHandle) -> Result<f64, FlymonError> {
    let task = fm.task(h)?;
    match task.algorithm {
        Algorithm::Hll => {
            // CMU buckets hold max-ρ values; the harmonic-mean estimator
            // is exactly the published one (§4 Flow Cardinality).
            let regs: Vec<u8> = fm
                .row_view(h, 0)?
                .iter()
                .map(|v| v.min(255) as u8)
                .collect();
            Ok(estimate_from_registers(&regs))
        }
        // Buckets are one-hot bitmaps; LC over the bit population.
        Algorithm::LinearCounting => Ok(linear_counting(fm.row_view(h, 0)?)),
        other => Err(FlymonError::BadTask(format!(
            "{} has no cardinality query",
            other.name()
        ))),
    }
}

/// MRAC flow-size-distribution estimate (EM over the readout).
pub fn flow_size_distribution(
    fm: &FlyMon,
    h: TaskHandle,
    em_iterations: usize,
) -> Result<Vec<f64>, FlymonError> {
    expect_mrac(fm, h)?;
    let counters = fm.read_row(h, 0)?;
    Ok(estimate_distribution_from_counters(&counters, em_iterations))
}

/// MRAC flow-entropy estimate.
pub fn entropy(fm: &FlyMon, h: TaskHandle, em_iterations: usize) -> Result<f64, FlymonError> {
    expect_mrac(fm, h)?;
    let counters = fm.read_row(h, 0)?;
    Ok(entropy_from_counters(&counters, em_iterations))
}

/// Jaccard similarity of the traffic sets recorded by two Odd-Sketch
/// tasks (§6 expansion): XOR the parity rows to estimate the symmetric
/// difference, estimate each set's size by Linear Counting over its
/// Bloom-gate row, and combine.
pub fn jaccard_similarity(
    fm: &FlyMon,
    a: TaskHandle,
    b: TaskHandle,
) -> Result<f64, FlymonError> {
    for &h in &[a, b] {
        if !matches!(fm.task(h)?.algorithm, Algorithm::OddSketch) {
            return Err(FlymonError::BadTask(
                "similarity needs two Odd Sketch tasks".into(),
            ));
        }
    }
    let parity_a = fm.row_view(a, 1)?;
    let parity_b = fm.row_view(b, 1)?;
    if parity_a.len() != parity_b.len() {
        return Err(FlymonError::BadTask(
            "Odd Sketch tasks must have equal memory to compare".into(),
        ));
    }
    let n = (parity_a.len() * usize::from(ONE_HOT_BITS)) as f64;
    let odd: u32 = parity_a
        .iter()
        .zip(parity_b.iter())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum();
    let frac = 2.0 * f64::from(odd) / n;
    let sym_diff = if frac >= 1.0 {
        n / 2.0 * n.ln() // saturated
    } else {
        -(n / 2.0) * (1.0 - frac).ln()
    };

    // |A|, |B| via Linear Counting over the Bloom-gate rows.
    let size_a = linear_counting(fm.row_view(a, 0)?);
    let size_b = linear_counting(fm.row_view(b, 0)?);
    let den = size_a + size_b + sym_diff;
    if den <= 0.0 {
        return Ok(1.0);
    }
    Ok(((size_a + size_b - sym_diff) / den).clamp(0.0, 1.0))
}

/// Linear Counting over a row of one-hot bitmaps: `m ln(m / zeros)`
/// with `m` the row's bits.
fn linear_counting(row: Buckets<'_>) -> f64 {
    let m = (row.len() * usize::from(ONE_HOT_BITS)) as f64;
    let ones: u32 = row.iter().map(u32::count_ones).sum();
    let zeros = m - f64::from(ones);
    if zeros == 0.0 {
        m * m.ln()
    } else {
        m * (m / zeros).ln()
    }
}

fn expect_mrac(fm: &FlyMon, h: TaskHandle) -> Result<(), FlymonError> {
    let task = fm.task(h)?;
    if matches!(task.algorithm, Algorithm::Mrac) {
        Ok(())
    } else {
        Err(FlymonError::BadTask(format!(
            "{} has no distribution query",
            task.algorithm.name()
        )))
    }
}
