//! Versioned register-file checkpoints with full and dirty-delta capture.
//!
//! The control plane periodically snapshots SALU register files so a
//! warm standby can reconstruct a failed switch's sketch state. Two
//! capture modes exist:
//!
//! - **Full**: copies every bucket. Taken once when a standby attaches.
//! - **Delta**: copies only the [`crate::register::Register::dirty_range`]
//!   watermark written since the previous capture, so periodic snapshots
//!   of a mostly-idle register cost O(touched SRAM), not O(all SRAM).
//!   The part of that range a reset or a bank swap zeroed and nothing
//!   wrote since (outside [`crate::register::Register::touched_range`])
//!   travels as a length, not as buckets.
//!
//! Capture is a *barrier*: it clears the dirty watermark, so consecutive
//! deltas compose — applying a full snapshot and then every delta taken
//! after it, in order, reproduces the live register bit-identically.
//! [`RegisterCheckpoint`] bundles one snapshot per register in a pipeline
//! in canonical order; [`RegisterCheckpoint::overlay`] folds a delta
//! checkpoint onto a full base so the standby always holds a single
//! restorable image. A full image keeps the register's untouched-hull
//! watermark ([`RegisterSnapshot::hull`]), so an overlay costs what the
//! delta can change, not what it covers: zeros shipped onto buckets the
//! image already knows to be zero are not written again.

use std::ops::Range;

use crate::register::{at_width, extend, subtract, Buckets, Cell, Register};
use crate::RmtError;

/// Format version stamped into every snapshot. Restore refuses a
/// version it does not understand rather than misinterpreting payload.
pub const CHECKPOINT_VERSION: u16 = 1;

/// How much of a register a capture copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Copy every bucket regardless of dirty state.
    Full,
    /// Copy only the dirty watermark since the previous capture.
    Delta,
}

/// A contiguous run of buckets a delta covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirtySpan {
    /// Captured bucket values for `[start, start + data.len())`.
    Values {
        /// First bucket index covered by `data`.
        start: usize,
        /// The bucket values, in address order.
        data: Vec<u32>,
    },
    /// `[start, start + len)` held zero at capture: dirty, but outside
    /// the register's touched hull, which is where every bucket is zero
    /// (the invariant rotation elision already reads by). Recorded as a
    /// length; restore and overlay fill it.
    Zeros {
        /// First bucket index of the run.
        start: usize,
        /// Buckets in the run.
        len: usize,
    },
}

impl DirtySpan {
    /// The bucket range the span covers, refused when it runs past a
    /// register of `limit` buckets, and its buckets (`None`: zeros).
    fn view(&self, limit: usize) -> Result<(Range<usize>, Option<Buckets<'_>>), RmtError> {
        let (start, len, values) = match self {
            DirtySpan::Values { start, data } => (*start, data.len(), Some(Buckets::U32(data))),
            DirtySpan::Zeros { start, len } => (*start, *len, None),
        };
        match start.checked_add(len) {
            Some(end) if end <= limit => Ok((start..end, values)),
            _ => Err(RmtError::CheckpointMismatch("delta span range")),
        }
    }
}

/// The span walk of a delta: `reg`'s dirty range cut against its
/// touched hull — the buckets inside it, zero runs (`None`) on either
/// side, each only when nonempty.
fn dirty_spans(reg: &Register) -> impl Iterator<Item = (Range<usize>, Option<Buckets<'_>>)> {
    let (start, end) = reg.dirty_range().unwrap_or((0, 0));
    let (lo, hi) = match reg.touched_range() {
        Some((lo, hi)) if lo < end && start < hi => (lo.max(start), hi.min(end)),
        _ => (start, start),
    };
    let values = reg.read_range(lo, hi).expect("the dirty range lies inside the register");
    [(start..lo, None), (lo..hi, Some(values)), (hi..end, None)]
        .into_iter()
        .filter(|(range, _)| !range.is_empty())
}

/// `src`'s cells, widened, into `dst` (one length).
fn widen<C: Cell>(dst: &mut [u32], src: &[C]) {
    for (slot, &v) in dst.iter_mut().zip(src) {
        *slot = v.into();
    }
}

/// Snapshot payload: either the whole register file or the dirty spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotData {
    /// Every bucket, in address order.
    Full(Vec<u32>),
    /// Only buckets written since the previous capture barrier. Empty
    /// when the register was untouched.
    Delta(Vec<DirtySpan>),
}

/// A versioned snapshot of one register's state plus enough geometry to
/// refuse restoring onto a mismatched register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterSnapshot {
    /// Format version ([`CHECKPOINT_VERSION`] at capture time).
    pub version: u16,
    /// Bucket bit width of the source register.
    pub width_bits: u8,
    /// Bucket count of the source register.
    pub len: usize,
    /// Captured payload.
    pub data: SnapshotData,
    /// Of a full image: the half-open hull outside which every bucket
    /// of `data` is zero — the image's copy of the watermark the live
    /// register keeps ([`Register::touched_range`], which a full
    /// capture takes it from); `None` says the whole image is zero.
    /// [`RegisterSnapshot::merge_delta`] keeps it current and reads it
    /// to leave alone what is already zero. An image put together by
    /// hand states `Some((0, len))` unless it knows better. Unused
    /// (`None`) on a delta.
    pub hull: Option<(usize, usize)>,
}

impl RegisterSnapshot {
    /// Captures `reg` and clears its dirty watermark (the snapshot
    /// barrier: the next delta covers only writes after this call).
    pub fn capture(reg: &mut Register, mode: CaptureMode) -> Self {
        let hull = match mode {
            CaptureMode::Full => reg.touched_range(),
            CaptureMode::Delta => None,
        };
        let data = match mode {
            CaptureMode::Full => {
                SnapshotData::Full(reg.read_range(0, reg.len()).expect("full range").to_vec())
            }
            CaptureMode::Delta => SnapshotData::Delta(
                dirty_spans(reg)
                    .map(|(range, values)| match values {
                        Some(values) => DirtySpan::Values {
                            start: range.start,
                            data: values.to_vec(),
                        },
                        None => DirtySpan::Zeros {
                            start: range.start,
                            len: range.len(),
                        },
                    })
                    .collect(),
            ),
        };
        reg.clear_dirty();
        RegisterSnapshot {
            version: CHECKPOINT_VERSION,
            width_bits: reg.width_bits(),
            len: reg.len(),
            data,
            hull,
        }
    }

    /// Number of bucket values this snapshot actually carries — the
    /// cheapness metric for delta mode.
    pub fn payload_buckets(&self) -> usize {
        match &self.data {
            SnapshotData::Full(data) => data.len(),
            SnapshotData::Delta(spans) => spans
                .iter()
                .map(|s| match s {
                    DirtySpan::Values { data, .. } => data.len(),
                    DirtySpan::Zeros { .. } => 0,
                })
                .sum(),
        }
    }

    /// True when the payload is a full image (restorable on its own).
    pub fn is_full(&self) -> bool {
        matches!(self.data, SnapshotData::Full(_))
    }

    fn check_geometry(&self, reg: &Register) -> Result<(), RmtError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(RmtError::CheckpointMismatch("snapshot version"));
        }
        if self.width_bits != reg.width_bits() {
            return Err(RmtError::CheckpointMismatch("register width"));
        }
        if self.len != reg.len() {
            return Err(RmtError::CheckpointMismatch("register length"));
        }
        Ok(())
    }

    /// Writes the snapshot into `reg`. A full snapshot overwrites every
    /// bucket; a delta overwrites only its spans (the caller must have
    /// applied the base image first), all of them checked before the
    /// first is written. Restored writes dirty `reg` like any other
    /// write; the restoring control plane decides when to place the
    /// next barrier.
    pub fn apply(&self, reg: &mut Register) -> Result<(), RmtError> {
        self.check_geometry(reg)?;
        match &self.data {
            SnapshotData::Full(_) => reg.load_range(0, self.image()?)?,
            SnapshotData::Delta(spans) => {
                for span in spans {
                    span.view(reg.len())?;
                }
                for span in spans {
                    let (range, _) = span.view(reg.len())?;
                    match span {
                        DirtySpan::Values { data, .. } => reg.load_range(range.start, data)?,
                        DirtySpan::Zeros { .. } => reg.clear_range(range.start, range.end)?,
                    }
                }
            }
        }
        Ok(())
    }

    /// Refuses a delta this full image cannot absorb, span by span.
    fn check_merge(&self, delta: &RegisterSnapshot) -> Result<(), RmtError> {
        if self.version != delta.version {
            return Err(RmtError::CheckpointMismatch("snapshot version"));
        }
        if self.width_bits != delta.width_bits || self.len != delta.len {
            return Err(RmtError::CheckpointMismatch("register geometry"));
        }
        self.image()?;
        match &delta.data {
            SnapshotData::Full(_) => delta.image().map(drop),
            SnapshotData::Delta(spans) => spans.iter().try_for_each(|s| s.view(self.len).map(drop)),
        }
    }

    /// Folds a delta snapshot of the same register onto this full
    /// snapshot, producing the image a restore would yield after
    /// applying both in order, at the cost of what the delta changes.
    pub fn merge_delta(&mut self, delta: &RegisterSnapshot) -> Result<(), RmtError> {
        self.check_merge(delta)?;
        self.fold(delta);
        Ok(())
    }

    /// [`RegisterSnapshot::merge_delta`] once `check_merge` has passed.
    fn fold(&mut self, delta: &RegisterSnapshot) {
        let SnapshotData::Delta(spans) = &delta.data else {
            // A full snapshot supersedes the base outright.
            self.data = delta.data.clone();
            self.hull = delta.hull;
            return;
        };
        let len = self.len;
        self.fold_spans(spans.iter().map(|s| s.view(len).expect("check_merge checked every span")));
    }

    /// Folds `spans` into this full image and keeps its hull current: a
    /// value span is widened in and joins the hull; a zero span is
    /// filled only where it meets the hull — outside it the image is
    /// zero already — and then leaves it, so zeros onto an image already
    /// zeroed cost O(1). Returns the value buckets folded.
    fn fold_spans<'a>(
        &mut self,
        spans: impl Iterator<Item = (Range<usize>, Option<Buckets<'a>>)>,
    ) -> usize {
        let SnapshotData::Full(base) = &mut self.data else {
            unreachable!("every fold is checked against a full image");
        };
        let mut payload = 0;
        for (range, values) in spans {
            if let Some(values) = values {
                payload += values.len();
                if !range.is_empty() {
                    self.hull = Some(extend(self.hull, range.start, range.end));
                }
                at_width!(Buckets, values, cells => widen(&mut base[range], cells));
                continue;
            }
            if let Some((lo, hi)) = self.hull {
                // Clamped to the span, whatever a hostile hull says.
                let (from, to) = (range.start.max(lo), range.end.min(hi));
                if from < to {
                    base[from..to].fill(0);
                }
            }
            self.hull = subtract(self.hull, range.start, range.end);
        }
        payload
    }

    /// The buckets of a full image of `len` buckets; refuses anything else.
    fn image(&self) -> Result<&[u32], RmtError> {
        match &self.data {
            SnapshotData::Full(data) if data.len() == self.len => Ok(data),
            SnapshotData::Full(_) => Err(RmtError::CheckpointMismatch("full image length")),
            SnapshotData::Delta(_) => Err(RmtError::CheckpointMismatch("merge base must be full")),
        }
    }

    /// Refuses a live register this full image cannot follow.
    pub fn check_image_of(&self, reg: &Register) -> Result<(), RmtError> {
        self.check_geometry(reg)?;
        self.image().map(drop)
    }

    /// What merging `capture(reg, Delta)` does, each value span widened
    /// straight from `reg` into the image: brings this full image up to
    /// date in place and places the barrier. Refused, with nothing
    /// written, where [`RegisterSnapshot::check_image_of`] refuses.
    /// Returns the delta's [`RegisterSnapshot::payload_buckets`].
    pub fn refresh(&mut self, reg: &mut Register) -> Result<usize, RmtError> {
        self.check_image_of(reg)?;
        let payload = self.fold_spans(dirty_spans(reg));
        reg.clear_dirty();
        Ok(payload)
    }
}

/// A checkpoint over a whole pipeline's register files, one snapshot per
/// register in a canonical order fixed by the capturing control plane
/// (group-major, CMU-minor). Restore and overlay require the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`] at capture time).
    pub version: u16,
    /// Per-register snapshots in canonical order.
    pub snapshots: Vec<RegisterSnapshot>,
}

impl RegisterCheckpoint {
    /// Captures every register in `regs` (in the order given) and places
    /// the snapshot barrier on each.
    pub fn capture<'a, I>(regs: I, mode: CaptureMode) -> Self
    where
        I: IntoIterator<Item = &'a mut Register>,
    {
        RegisterCheckpoint {
            version: CHECKPOINT_VERSION,
            snapshots: regs
                .into_iter()
                .map(|r| RegisterSnapshot::capture(r, mode))
                .collect(),
        }
    }

    /// True when every snapshot is a full image (restorable on its own).
    pub fn is_full(&self) -> bool {
        self.snapshots.iter().all(RegisterSnapshot::is_full)
    }

    /// Total bucket values carried across all snapshots.
    pub fn payload_buckets(&self) -> usize {
        self.snapshots.iter().map(|s| s.payload_buckets()).sum()
    }

    /// Applies each snapshot to the corresponding register in `regs`
    /// (same canonical order as capture). Register count must match.
    pub fn restore<'a, I>(&self, regs: I) -> Result<(), RmtError>
    where
        I: IntoIterator<Item = &'a mut Register>,
    {
        let mut applied = 0;
        let mut iter = regs.into_iter();
        for snapshot in &self.snapshots {
            let reg = iter
                .next()
                .ok_or(RmtError::CheckpointMismatch("register count"))?;
            snapshot.apply(reg)?;
            applied += 1;
        }
        if iter.next().is_some() {
            return Err(RmtError::CheckpointMismatch("register count"));
        }
        debug_assert_eq!(applied, self.snapshots.len());
        Ok(())
    }

    /// Folds a delta checkpoint onto this full base, register by
    /// register, all checked before the first is folded. After the
    /// overlay this base equals the live pipeline at the delta's barrier.
    pub fn overlay(&mut self, delta: &RegisterCheckpoint) -> Result<(), RmtError> {
        if self.version != delta.version {
            return Err(RmtError::CheckpointMismatch("checkpoint version"));
        }
        if self.snapshots.len() != delta.snapshots.len() {
            return Err(RmtError::CheckpointMismatch("register count"));
        }
        for (base, d) in self.snapshots.iter().zip(&delta.snapshots) {
            base.check_merge(d)?;
        }
        for (base, d) in self.snapshots.iter_mut().zip(&delta.snapshots) {
            base.fold(d);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(buckets: usize, width: u8, stride: usize) -> Register {
        let mut r = Register::new(buckets, width);
        for i in (0..buckets).step_by(stride) {
            r.write(i, (i as u32).wrapping_mul(2654435761) & r.max_value())
                .unwrap();
        }
        r
    }

    fn contents(r: &Register) -> Vec<u32> {
        r.read_range(0, r.len()).unwrap().to_vec()
    }

    #[test]
    fn full_round_trip_is_bit_identical() {
        let mut src = filled(256, 16, 3);
        let snap = RegisterSnapshot::capture(&mut src, CaptureMode::Full);
        assert_eq!(snap.payload_buckets(), 256);
        assert!(snap.is_full());
        let mut dst = Register::new(256, 16);
        snap.apply(&mut dst).unwrap();
        assert_eq!(contents(&src), contents(&dst));
    }

    #[test]
    fn delta_captures_only_touched_sram() {
        let mut src = filled(1024, 32, 1);
        // Barrier: everything before this is "already checkpointed".
        let mut base = RegisterSnapshot::capture(&mut src, CaptureMode::Full);
        // Touch a narrow window.
        src.write(100, 7).unwrap();
        src.write(110, 9).unwrap();
        let delta = RegisterSnapshot::capture(&mut src, CaptureMode::Delta);
        assert_eq!(delta.payload_buckets(), 11, "watermark spans [100, 111)");
        assert!(delta.payload_buckets() < 1024 / 8, "delta must be cheap");
        // base + delta == live register.
        base.merge_delta(&delta).unwrap();
        let mut dst = Register::new(1024, 32);
        base.apply(&mut dst).unwrap();
        assert_eq!(contents(&src), contents(&dst));
        // Untouched register yields an empty delta.
        let empty = RegisterSnapshot::capture(&mut src, CaptureMode::Delta);
        assert_eq!(empty.payload_buckets(), 0);
    }

    #[test]
    fn capture_is_a_barrier() {
        let mut src = Register::new(64, 16);
        src.write(5, 1).unwrap();
        let _ = RegisterSnapshot::capture(&mut src, CaptureMode::Delta);
        src.write(40, 2).unwrap();
        let second = RegisterSnapshot::capture(&mut src, CaptureMode::Delta);
        // Only the post-barrier write appears.
        assert_eq!(second.payload_buckets(), 1);
        match &second.data {
            SnapshotData::Delta(spans) => {
                assert!(matches!(spans[..], [DirtySpan::Values { start: 40, .. }]))
            }
            _ => panic!("expected delta"),
        }
    }

    #[test]
    fn geometry_and_version_mismatches_are_rejected() {
        let mut src = Register::new(64, 16);
        let mut snap = RegisterSnapshot::capture(&mut src, CaptureMode::Full);
        let mut wrong_len = Register::new(128, 16);
        assert!(matches!(
            snap.apply(&mut wrong_len),
            Err(RmtError::CheckpointMismatch("register length"))
        ));
        let mut wrong_width = Register::new(64, 8);
        assert!(matches!(
            snap.apply(&mut wrong_width),
            Err(RmtError::CheckpointMismatch("register width"))
        ));
        snap.version = CHECKPOINT_VERSION + 1;
        let mut ok = Register::new(64, 16);
        assert!(matches!(
            snap.apply(&mut ok),
            Err(RmtError::CheckpointMismatch("snapshot version"))
        ));

        // Across the u16/u32 cell cutoff, either way: applied or
        // overlaid, refused, and nothing written.
        for (from, onto) in [(32u8, 16u8), (16, 32)] {
            let mut src = filled(64, from, 3);
            let full = RegisterSnapshot::capture(&mut src, CaptureMode::Full);
            src.write(7, 1).unwrap();
            let delta = RegisterSnapshot::capture(&mut src, CaptureMode::Delta);
            let mut dst = Register::new(64, onto);
            for snap in [&full, &delta] {
                assert!(matches!(
                    snap.apply(&mut dst),
                    Err(RmtError::CheckpointMismatch("register width"))
                ));
            }
            assert_eq!(contents(&dst), [0; 64], "{from} onto {onto} bits");
            let mut base = RegisterSnapshot::capture(&mut dst, CaptureMode::Full);
            assert!(matches!(
                base.merge_delta(&delta),
                Err(RmtError::CheckpointMismatch("register geometry"))
            ));
        }

        // A hand-built image with values over a narrow ceiling loads
        // masked to the width, the way every write is.
        for width in [8u8, 15, 16] {
            let mut reg = Register::new(64, width);
            let base = RegisterSnapshot::capture(&mut reg, CaptureMode::Full);
            let values: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            let image = RegisterSnapshot {
                data: SnapshotData::Full(values.clone()),
                hull: Some((0, 64)),
                ..base
            };
            image.apply(&mut reg).unwrap();
            let masked: Vec<u32> = values.iter().map(|v| v & reg.max_value()).collect();
            assert_eq!(contents(&reg), masked, "{width} bits");
        }
    }

    #[test]
    fn pipeline_checkpoint_restores_in_order() {
        let mut a = filled(32, 16, 2);
        let mut b = filled(64, 8, 5);
        let chk =
            RegisterCheckpoint::capture(vec![&mut a, &mut b], CaptureMode::Full);
        assert!(chk.is_full());
        assert_eq!(chk.payload_buckets(), 96);
        let mut a2 = Register::new(32, 16);
        let mut b2 = Register::new(64, 8);
        chk.restore(vec![&mut a2, &mut b2]).unwrap();
        assert_eq!(contents(&a), contents(&a2));
        assert_eq!(contents(&b), contents(&b2));
        // Register-count mismatch in either direction is rejected.
        let mut only = Register::new(32, 16);
        assert!(chk.restore(vec![&mut only]).is_err());
        let mut c = Register::new(16, 4);
        assert!(chk
            .restore(vec![&mut a2, &mut b2, &mut c])
            .is_err());
    }

    #[test]
    fn overlay_folds_deltas_onto_full_base() {
        let mut a = filled(32, 16, 1);
        let mut b = filled(32, 16, 4);
        let mut base =
            RegisterCheckpoint::capture(vec![&mut a, &mut b], CaptureMode::Full);
        a.write(3, 999).unwrap();
        b.clear_range(8, 12).unwrap();
        let delta =
            RegisterCheckpoint::capture(vec![&mut a, &mut b], CaptureMode::Delta);
        assert!(!delta.is_full());
        base.overlay(&delta).unwrap();
        let mut a2 = Register::new(32, 16);
        let mut b2 = Register::new(32, 16);
        base.restore(vec![&mut a2, &mut b2]).unwrap();
        assert_eq!(contents(&a), contents(&a2));
        assert_eq!(contents(&b), contents(&b2));
    }

    #[test]
    fn overlay_rejects_shape_mismatch() {
        let mut a = Register::new(32, 16);
        let mut base = RegisterCheckpoint::capture(vec![&mut a], CaptureMode::Full);
        let mut b = Register::new(32, 16);
        let mut c = Register::new(32, 16);
        let delta =
            RegisterCheckpoint::capture(vec![&mut b, &mut c], CaptureMode::Delta);
        assert!(matches!(
            base.overlay(&delta),
            Err(RmtError::CheckpointMismatch("register count"))
        ));
        // A delta base cannot absorb anything.
        let mut delta_base = RegisterCheckpoint::capture(vec![&mut b], CaptureMode::Delta);
        let d2 = RegisterCheckpoint::capture(vec![&mut c], CaptureMode::Delta);
        assert!(delta_base.overlay(&d2).is_err());
    }

    /// Places a delta barrier on `src` and returns the spans it shipped,
    /// after checking that they compose onto `base` into the live
    /// register both ways: applied after it, and overlaid into it
    /// (which also moves `base` up to the new barrier).
    fn sync(src: &mut Register, base: &mut RegisterSnapshot) -> Vec<DirtySpan> {
        let delta = RegisterSnapshot::capture(src, CaptureMode::Delta);
        let mut applied = Register::new(src.len(), src.width_bits());
        base.apply(&mut applied).unwrap();
        delta.apply(&mut applied).unwrap();
        assert_eq!(contents(src), contents(&applied));
        base.merge_delta(&delta).unwrap();
        let mut overlaid = Register::new(src.len(), src.width_bits());
        base.apply(&mut overlaid).unwrap();
        assert_eq!(contents(src), contents(&overlaid));
        match delta.data {
            SnapshotData::Delta(spans) => spans,
            SnapshotData::Full(_) => panic!("expected delta"),
        }
    }

    #[test]
    fn delta_cuts_the_dirty_range_against_the_touched_hull() {
        let zeros = |start, len| DirtySpan::Zeros { start, len };
        let values = |start, data: &[u32]| DirtySpan::Values {
            start,
            data: data.to_vec(),
        };
        let mut src = filled(64, 16, 1);
        let mut base = RegisterSnapshot::capture(&mut src, CaptureMode::Full);

        // A reset and nothing since: no hull, the dirty range is zeros.
        src.clear_range(0, 64).unwrap();
        assert_eq!(sync(&mut src, &mut base), [zeros(0, 64)]);

        // The hull [20, 24) interior to the dirty range [8, 40).
        src.write(20, 5).unwrap();
        src.write(23, 6).unwrap();
        src.clear_range(8, 20).unwrap();
        src.clear_range(24, 40).unwrap();
        assert_eq!(src.touched_range(), Some((20, 24)));
        assert_eq!(
            sync(&mut src, &mut base),
            [zeros(8, 12), values(20, &[5, 0, 0, 6]), zeros(24, 16)]
        );

        // The dirty range over the hull's upper edge, then its lower.
        src.write(22, 8).unwrap();
        src.clear_range(24, 28).unwrap();
        assert_eq!(
            sync(&mut src, &mut base),
            [values(22, &[8, 6]), zeros(24, 4)]
        );
        src.clear_range(16, 20).unwrap();
        src.write(20, 1).unwrap();
        assert_eq!(
            sync(&mut src, &mut base),
            [zeros(16, 4), values(20, &[1])]
        );

        // Inside the hull: values only. Clear of it: zeros only.
        src.write(21, 9).unwrap();
        assert_eq!(sync(&mut src, &mut base), [values(21, &[9])]);
        src.clear_range(40, 50).unwrap();
        assert_eq!(sync(&mut src, &mut base), [zeros(40, 10)]);
        assert_eq!(sync(&mut src, &mut base), []);
    }

    /// The image's buckets, and its hull checked against them: every
    /// bucket outside it must be zero.
    fn image_buckets(image: &RegisterSnapshot, case: &str) -> Vec<u32> {
        let SnapshotData::Full(buckets) = &image.data else {
            panic!("{case}: the image is not full");
        };
        let (lo, hi) = image.hull.unwrap_or((0, 0));
        for (i, &v) in buckets.iter().enumerate() {
            assert!(v == 0 || (lo..hi).contains(&i), "{case}: bucket {i} = {v} outside {:?}", image.hull);
        }
        buckets.clone()
    }

    #[test]
    fn image_hull_tracks_the_register_through_seeded_histories() {
        use flymon_packet::SplitMix64;
        let mut rng = SplitMix64::new(0x1d_a6e5);
        for (buckets, width) in [(16, 1), (64, 16), (256, 32), (4096, 16), (1024, 1), (32, 32)] {
            for history in 0..24 {
                let mut reg = Register::new(buckets, width);
                // Half the histories attach the standby to a register
                // that already carries traffic.
                if history % 2 == 1 {
                    let at = rng.range_u64(0, buckets as u64) as usize;
                    reg.write(at, rng.next_u32() | 1).unwrap();
                }
                let mut image = RegisterSnapshot::capture(&mut reg, CaptureMode::Full);
                assert_eq!(image.hull, reg.touched_range(), "a full capture takes the live hull");
                let mut reference = image_buckets(&image, "attach");
                for step in 0..40 {
                    let case = format!("{buckets}x{width} history {history} step {step}");
                    let (a, b) = (
                        rng.range_u64(0, buckets as u64 + 1) as usize,
                        rng.range_u64(0, buckets as u64 + 1) as usize,
                    );
                    let (start, end) = (a.min(b), a.max(b));
                    match rng.next_u32() % 8 {
                        0 | 1 => reg.write(start.min(buckets - 1), rng.next_u32()).unwrap(),
                        2 => {
                            let values: Vec<u32> = (start..end).map(|_| rng.next_u32() % 3).collect();
                            reg.load_range(start, &values).unwrap();
                        }
                        3 => reg.clear_range(start, end).unwrap(),
                        // A rotation: the bank swap clears the whole
                        // register, here two partitions' worth.
                        4 if reg.touched_range().is_some() => {
                            reg.swap_epoch_bank();
                            reg.mark_epoch_cleared(0, start).unwrap();
                            reg.mark_epoch_cleared(start, buckets).unwrap();
                            reg.retire_shadow();
                        }
                        5 => {
                            // A second full capture supersedes the base.
                            let full = RegisterSnapshot::capture(&mut reg, CaptureMode::Full);
                            image.merge_delta(&full).unwrap();
                            assert_eq!(image, full, "{case}: superseded");
                            reference = image_buckets(&image, &case);
                        }
                        _ => {}
                    }
                    if rng.next_u32().is_multiple_of(3) {
                        continue; // let operations pile up under one delta
                    }
                    let delta = RegisterSnapshot::capture(&mut reg, CaptureMode::Delta);
                    let SnapshotData::Delta(spans) = &delta.data else {
                        panic!("{case}: expected a delta");
                    };
                    // The reference overlay fills every zero span,
                    // whatever the image already holds there.
                    for span in spans {
                        match span {
                            DirtySpan::Values { start, data } => {
                                reference[*start..start + data.len()].copy_from_slice(data)
                            }
                            DirtySpan::Zeros { start, len } => reference[*start..start + len].fill(0),
                        }
                    }
                    image.merge_delta(&delta).unwrap();
                    let overlaid = image_buckets(&image, &case);
                    assert_eq!(overlaid, reference, "{case}: the hull skipped a bucket that differed");
                    assert_eq!(overlaid, contents(&reg), "{case}: image != live register");
                }
            }
        }
    }

    #[test]
    fn hand_built_image_states_the_whole_register_as_its_hull() {
        // The geometry comes from a capture (`..base`), the buckets and
        // the hull are stated: nothing is known to be zero, so a zero
        // span must fill all of itself.
        let mut reg = Register::new(32, 16);
        let base = RegisterSnapshot::capture(&mut reg, CaptureMode::Full);
        assert_eq!(base.hull, None, "an untouched register's image is all zero");
        let mut image = RegisterSnapshot {
            data: SnapshotData::Full(vec![7; 32]),
            hull: Some((0, 32)),
            ..base.clone()
        };
        let zeros = |start, len| RegisterSnapshot {
            data: SnapshotData::Delta(vec![DirtySpan::Zeros { start, len }]),
            ..base.clone()
        };
        image.merge_delta(&zeros(8, 8)).unwrap();
        assert_eq!(image.hull, Some((0, 32)), "an interior span leaves the hull");
        image.merge_delta(&zeros(0, 8)).unwrap();
        image.merge_delta(&zeros(24, 8)).unwrap();
        assert_eq!(image.hull, Some((8, 24)), "edge spans shrink it");
        let mut expected = vec![0; 32];
        expected[16..24].fill(7);
        assert_eq!(image_buckets(&image, "hand-built"), expected);
        // Zeros onto what is zero already, inside the hull or out.
        image.merge_delta(&zeros(0, 16)).unwrap();
        assert_eq!(image.hull, Some((16, 24)));
        assert_eq!(image_buckets(&image, "hand-built"), expected);
        image.merge_delta(&zeros(10, 22)).unwrap();
        assert_eq!(image.hull, None);
        assert_eq!(image_buckets(&image, "zeroed"), vec![0; 32]);
    }

    #[test]
    fn spans_past_the_register_are_refused_not_panicked_on() {
        let mut reg = Register::new(16, 16);
        let base = RegisterSnapshot::capture(&mut reg, CaptureMode::Full);
        let hostile = [
            DirtySpan::Values {
                start: 10,
                data: vec![1; 7],
            },
            DirtySpan::Zeros { start: 10, len: 7 },
            DirtySpan::Values {
                start: usize::MAX,
                data: vec![1; 2],
            },
            DirtySpan::Zeros {
                start: 2,
                len: usize::MAX,
            },
        ];
        for span in hostile {
            let delta = RegisterSnapshot {
                data: SnapshotData::Delta(vec![span.clone()]),
                ..base.clone()
            };
            assert!(
                matches!(
                    delta.apply(&mut reg),
                    Err(RmtError::CheckpointMismatch("delta span range"))
                ),
                "apply {span:?}"
            );
            assert!(
                matches!(
                    base.clone().merge_delta(&delta),
                    Err(RmtError::CheckpointMismatch("delta span range"))
                ),
                "merge_delta {span:?}"
            );
        }
        assert_eq!(contents(&reg), [0; 16], "a refused span writes nothing");
        // A full image of the wrong length is refused the same way.
        let short = RegisterSnapshot {
            data: SnapshotData::Full(vec![1; 15]),
            ..base
        };
        assert!(matches!(
            short.apply(&mut reg),
            Err(RmtError::CheckpointMismatch("full image length"))
        ));
        // And a value span past a narrow register, values over its
        // ceiling and all.
        let mut narrow = Register::new(16, 8);
        let base = RegisterSnapshot::capture(&mut narrow, CaptureMode::Full);
        let delta = RegisterSnapshot {
            data: SnapshotData::Delta(vec![DirtySpan::Values {
                start: 14,
                data: vec![0x1_0000; 3],
            }]),
            ..base
        };
        assert!(matches!(
            delta.apply(&mut narrow),
            Err(RmtError::CheckpointMismatch("delta span range"))
        ));
        assert_eq!(contents(&narrow), [0; 16]);
    }

    #[test]
    fn a_refused_fold_leaves_its_base_whole() {
        // Span 0 fits, span 1 runs past the register: nothing of the
        // delta may land, not even the span that fits.
        let mut src = filled(64, 16, 1);
        let base = RegisterSnapshot::capture(&mut src, CaptureMode::Full);
        let hostile = RegisterSnapshot {
            data: SnapshotData::Delta(vec![
                DirtySpan::Values { start: 0, data: vec![7; 8] },
                DirtySpan::Values { start: 60, data: vec![7; 8] },
            ]),
            hull: None,
            ..base.clone()
        };
        let mut image = base.clone();
        assert!(matches!(
            image.merge_delta(&hostile),
            Err(RmtError::CheckpointMismatch("delta span range"))
        ));
        assert_eq!(image, base, "merge_delta");
        assert!(hostile.apply(&mut src).is_err());
        assert_eq!(contents(&src), image_buckets(&base, "apply"), "apply");

        // Across snapshots: register 0's delta is sound, register 1's
        // is not, and register 0's image must not move either.
        let (mut a, mut b) = (filled(64, 16, 1), filled(64, 16, 2));
        let full = RegisterCheckpoint::capture([&mut a, &mut b], CaptureMode::Full);
        a.write(3, 9).unwrap();
        let mut delta = RegisterCheckpoint::capture([&mut a, &mut b], CaptureMode::Delta);
        delta.snapshots[1] = hostile.clone();
        let mut image = full.clone();
        assert!(image.overlay(&delta).is_err());
        assert_eq!(image, full, "overlay");
        // And a full snapshot of the wrong length supersedes nothing.
        let short = RegisterSnapshot {
            data: SnapshotData::Full(vec![1; 63]),
            ..base.clone()
        };
        let mut image = base.clone();
        assert!(matches!(
            image.merge_delta(&short),
            Err(RmtError::CheckpointMismatch("full image length"))
        ));
        assert_eq!(image, base);
    }

    #[test]
    fn refresh_is_the_merge_of_a_delta_capture() {
        use flymon_packet::SplitMix64;
        let mut rng = SplitMix64::new(0x5e_f5e5);
        for (buckets, width) in [(64, 16), (256, 32), (1024, 8), (32, 32)] {
            for history in 0..12 {
                // Twin registers under one history: one ships deltas
                // into its image, the other refreshes its image in place.
                let mut shipped = filled(buckets, width, 1 + history);
                let mut refreshed = shipped.clone();
                let mut oracle = RegisterSnapshot::capture(&mut shipped, CaptureMode::Full);
                let mut image = RegisterSnapshot::capture(&mut refreshed, CaptureMode::Full);
                for step in 0..40 {
                    let case = format!("{buckets}x{width} history {history} step {step}");
                    let (a, b) = (
                        rng.range_u64(0, buckets as u64 + 1) as usize,
                        rng.range_u64(0, buckets as u64 + 1) as usize,
                    );
                    let (start, end) = (a.min(b), a.max(b));
                    let value = rng.next_u32();
                    for reg in [&mut shipped, &mut refreshed] {
                        match value % 5 {
                            0 | 1 => reg.write(start.min(buckets - 1), value).unwrap(),
                            2 => reg.clear_range(start, end).unwrap(),
                            3 if reg.touched_range().is_some() => {
                                reg.swap_epoch_bank();
                                reg.mark_epoch_cleared(0, buckets).unwrap();
                                reg.retire_shadow();
                            }
                            _ => {}
                        }
                    }
                    if rng.next_u32().is_multiple_of(3) {
                        continue;
                    }
                    let delta = RegisterSnapshot::capture(&mut shipped, CaptureMode::Delta);
                    oracle.merge_delta(&delta).unwrap();
                    let payload = image.refresh(&mut refreshed).unwrap();
                    assert_eq!(image, oracle, "{case}: buckets or hull");
                    assert_eq!(payload, delta.payload_buckets(), "{case}: payload");
                    assert_eq!(refreshed.dirty_range(), None, "{case}: the barrier");
                    assert_eq!(
                        contents(&refreshed),
                        image_buckets(&image, &case),
                        "{case}: image != live"
                    );
                }
            }
        }
        // An image of another geometry, or a delta, is refused with the
        // image and the live barrier as they were.
        let mut reg = filled(64, 16, 3);
        let mut wide = RegisterSnapshot::capture(&mut Register::new(64, 32), CaptureMode::Full);
        let mut delta = RegisterSnapshot::capture(&mut reg, CaptureMode::Delta);
        reg.write(5, 1).unwrap();
        let (wide_before, delta_before) = (wide.clone(), delta.clone());
        assert!(matches!(
            wide.refresh(&mut reg),
            Err(RmtError::CheckpointMismatch("register width"))
        ));
        assert!(matches!(
            delta.refresh(&mut reg),
            Err(RmtError::CheckpointMismatch("merge base must be full"))
        ));
        assert_eq!((wide, delta), (wide_before, delta_before));
        assert_eq!(reg.dirty_range(), Some((5, 6)));
    }
}
