//! Merged readouts of a [`SwitchFleet`](crate::SwitchFleet) task over
//! its *members*, the alive switches that host it.
//!
//! Four questions — a merged row, a point frequency, a cardinality and
//! an existence check — answered over an iterator of `(&FlyMon,
//! TaskHandle)`. Deployments are deterministic: every member derives
//! the same hash configuration and row geometry, so the first member's
//! placement locates buckets and sizes rows for all of them.

use flymon::prelude::*;
use flymon::FlymonError;
use flymon_packet::Packet;
use flymon_sketches::hll::estimate_from_registers;

use crate::datapath::{MergeLaw, RowOccupancy};

/// The member whose placement stands for everyone's.
fn first<'a>(
    mut members: impl Iterator<Item = (&'a FlyMon, TaskHandle)>,
) -> Result<(&'a FlyMon, TaskHandle), FlymonError> {
    members.next().ok_or_else(|| {
        FlymonError::NoCapacity("every switch in the fleet has failed".into())
    })
}

/// Count-min estimate of `pkt`'s flow: per row, the one bucket the flow
/// hashes to is read from every member and summed, clamped at the row's
/// cell ceiling as Cond-ADD saturates it; the estimate is the minimum
/// over the rows. A query costs rows × members bucket reads, and is
/// bit-identical to merging whole rows and indexing the result: the
/// clamped fold of single buckets is what the row merge computes at
/// that index.
pub(crate) fn point_frequency<'a>(
    algorithm: Algorithm,
    members: impl Iterator<Item = (&'a FlyMon, TaskHandle)> + Clone,
    pkt: &Packet,
) -> Result<u64, FlymonError> {
    let d = match algorithm {
        Algorithm::Cms { d } => d,
        Algorithm::Mrac => 1,
        other => {
            return Err(FlymonError::BadTask(format!(
                "{} readouts do not merge by summation",
                other.name()
            )))
        }
    };
    let (locator, locator_h) = first(members.clone())?;
    let mut best = u64::MAX;
    let mut scratch = flymon_rmt::hash::HashScratch::default();
    for row in 0..d {
        let cap = locator
            .task(locator_h)?
            .rows
            .get(row)
            .map_or(u32::MAX, |r| r.bucket_max);
        let idx = locator.locate_with(locator_h, row, pkt, &mut scratch)?;
        let bucket = |fm: &FlyMon, h| {
            fm.row_view(h, row).map(|v| v.get(idx).expect("members share the row's geometry"))
        };
        let mut sum = bucket(locator, locator_h)?;
        for (fm, h) in members.clone().skip(1) {
            sum = MergeLaw::Sum.combine(sum, bucket(fm, h)?, cap);
        }
        best = best.min(u64::from(sum));
    }
    Ok(best)
}

/// One row merged into `acc` by `algorithm`'s [`MergeLaw`], with the
/// fused occupancy scan. A member whose epoch watermark proves the row
/// untouched is left out (all zero, the identity of every law), and a
/// readout loop that reuses `acc` allocates nothing once it has grown
/// to the row size.
pub(crate) fn row_into<'a>(
    algorithm: Algorithm,
    members: impl Iterator<Item = (&'a FlyMon, TaskHandle)> + Clone,
    row: usize,
    acc: &mut Vec<u32>,
) -> Result<RowOccupancy, FlymonError> {
    let (locator, locator_h) = first(members.clone())?;
    let placed = locator
        .task(locator_h)?
        .rows
        .get(row)
        .ok_or_else(|| FlymonError::BadTask(format!("task has no row {row}")))?;
    let touched = members.filter_map(|(fm, h)| match fm.row_untouched(h, row) {
        Ok(true) => None,
        Ok(false) => Some(fm.row_view(h, row)),
        Err(e) => Some(Err(e)),
    });
    MergeLaw::of(algorithm)?.merge_rows(acc, placed.size, touched, placed.bucket_max)
}

/// Cardinality estimate of an HLL deployment: registers merge by max.
pub(crate) fn cardinality<'a>(
    algorithm: Algorithm,
    members: impl Iterator<Item = (&'a FlyMon, TaskHandle)> + Clone,
) -> Result<f64, FlymonError> {
    if !matches!(algorithm, Algorithm::Hll) {
        return Err(FlymonError::BadTask("merged cardinality needs an HLL task".into()));
    }
    let mut merged = Vec::new();
    row_into(algorithm, members, 0, &mut merged)?;
    let regs: Vec<u8> = merged.into_iter().map(|v| v.min(255) as u8).collect();
    Ok(estimate_from_registers(&regs))
}

/// Existence check of a Bloom deployment. A key inserted anywhere was
/// inserted on exactly one member (its ingress), which set
/// *all* of its filter rows — so union membership is the OR of the
/// per-member checks: no false negatives, and at most the sum of the
/// per-member false-positive rates.
pub(crate) fn exists<'a>(
    algorithm: Algorithm,
    mut members: impl Iterator<Item = (&'a FlyMon, TaskHandle)>,
    pkt: &Packet,
) -> Result<bool, FlymonError> {
    if !matches!(algorithm, Algorithm::Bloom { .. }) {
        return Err(FlymonError::BadTask("merged existence needs a Bloom task".into()));
    }
    Ok(members.any(|(fm, h)| fm.query_exists(h, pkt)))
}
