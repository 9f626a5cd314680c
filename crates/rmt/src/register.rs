//! Stateful memory: fixed-geometry register (bucket) arrays in SRAM.

use crate::RmtError;

/// A register: an array of fixed-width buckets bound to one SALU.
///
/// Geometry (bucket count and bit width) is frozen at construction,
/// mirroring the hardware constraint of §3.3: "The configuration of the
/// stateful memory (i.e., size and bit-width) cannot be changed at
/// runtime". FlyMon's dynamic memory management never resizes a register;
/// it re-maps address ranges instead.
///
/// Buckets are stored at the register's width: one [`Cell`] of 16 bits
/// per bucket when the register is at most 16 bits wide (FlyMon's
/// default), of 32 otherwise — the width picks the cell, no knob does.
/// Values enter and leave as `u32`: masked to the configured width on
/// write, so a 16-bit register wraps at 65535 exactly like hardware,
/// and widened on read.
#[derive(Debug, Clone)]
pub struct Register {
    width_bits: u8,
    bank: Bank,
    /// Half-open bucket range written since the last
    /// [`Register::clear_dirty`] (`None` = untouched). Checkpoint delta
    /// capture reads this so periodic snapshots copy only the SRAM that
    /// actually changed.
    dirty: Option<(usize, usize)>,
    /// Half-open hull of buckets written since they last held zero —
    /// the epoch-elision watermark. Unlike `dirty`, checkpoint barriers
    /// do *not* retire it ([`Register::clear_dirty`] leaves it alone);
    /// only zeroing the span does ([`Register::clear_range`], a bank
    /// swap). The invariant readout elision relies on: every bucket
    /// outside this hull holds zero.
    touched: Option<(usize, usize)>,
    /// Epoch shadow bank, `None` until the first
    /// [`Register::swap_epoch_bank`]. Between a swap and the matching
    /// [`Register::retire_shadow`] it holds the archived epoch's
    /// buckets; otherwise it is all-zero and ready to become the next
    /// live bank in O(1).
    shadow: Option<ShadowBank>,
}

/// The spare bucket bank a double-buffered epoch rotation swaps in.
#[derive(Debug, Clone)]
struct ShadowBank {
    bank: Bank,
    /// Half-open hull of the archived (not yet retired) epoch: the live
    /// bank's touched hull at the swap, less what the rotation has
    /// drained since ([`Register::drain_archived_range`]). Every bucket
    /// outside it is zero, so it is all [`Register::retire_shadow`]
    /// still owes; `None` means the bank holds no archive.
    owed: Option<(usize, usize)>,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
}

/// The storage type of one bucket, sealed to `u16` and `u32`. Bulk code
/// — the SALU sweep, the merge kernels — is generic over it and matches
/// on a register's width once per sweep ([`Buckets`]), never per bucket.
pub trait Cell: Copy + Default + Into<u32> + sealed::Sealed {
    /// `v`, already masked to the register width, as a cell.
    fn truncate(v: u32) -> Self;
}

impl Cell for u16 {
    #[inline(always)]
    fn truncate(v: u32) -> Self {
        v as u16
    }
}

impl Cell for u32 {
    #[inline(always)]
    fn truncate(v: u32) -> Self {
        v
    }
}

/// One bucket bank of a register, in the cells its width picks.
#[derive(Debug, Clone)]
pub(crate) enum Bank {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// `$body` with `$cells` bound to the cells of a [`Bank`] or [`Buckets`]
/// (`$kind`): one body, compiled once per [`Cell`].
macro_rules! at_width {
    ($kind:ident, $bank:expr, $cells:ident => $body:expr) => {
        match $bank {
            $kind::U16($cells) => $body,
            $kind::U32($cells) => $body,
        }
    };
}
pub(crate) use at_width;

impl Bank {
    fn zeroed(len: usize, width_bits: u8) -> Bank {
        if width_bits <= 16 {
            Bank::U16(vec![0; len])
        } else {
            Bank::U32(vec![0; len])
        }
    }

    fn len(&self) -> usize {
        at_width!(Bank, self, cells => cells.len())
    }

    fn zero(&mut self, start: usize, end: usize) {
        at_width!(Bank, self, cells => cells[start..end].fill(Default::default()));
    }

    fn buckets(&self, start: usize, end: usize) -> Buckets<'_> {
        match self {
            Bank::U16(cells) => Buckets::U16(&cells[start..end]),
            Bank::U32(cells) => Buckets::U32(&cells[start..end]),
        }
    }
}

/// A borrowed run of buckets in the register's own cells
/// ([`Register::read_range`]). Element reads widen to `u32`; a bulk
/// reader matches on the variant once, then loops over its [`Cell`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buckets<'a> {
    /// Buckets of a register at most 16 bits wide.
    U16(&'a [u16]),
    /// Buckets of a wider register.
    U32(&'a [u32]),
}

impl<'a> Buckets<'a> {
    /// Number of buckets.
    pub fn len(self) -> usize {
        at_width!(Buckets, self, cells => cells.len())
    }

    /// True when the run holds no bucket.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Bucket `i`, widened; `None` past the end.
    pub fn get(self, i: usize) -> Option<u32> {
        match self {
            Buckets::U16(cells) => cells.get(i).map(|&v| v.into()),
            Buckets::U32(cells) => cells.get(i).copied(),
        }
    }

    /// The buckets, widened, in address order.
    pub fn iter(self) -> impl Iterator<Item = u32> + 'a {
        // One iterator type for both widths: the other half is empty.
        let (narrow, wide): (&[u16], &[u32]) = match self {
            Buckets::U16(cells) => (cells, &[]),
            Buckets::U32(cells) => (&[], cells),
        };
        narrow.iter().map(|&v| u32::from(v)).chain(wide.iter().copied())
    }

    /// The sub-run `[start, end)`; panics out of bounds, like slicing.
    pub fn slice(self, start: usize, end: usize) -> Buckets<'a> {
        match self {
            Buckets::U16(cells) => Buckets::U16(&cells[start..end]),
            Buckets::U32(cells) => Buckets::U32(&cells[start..end]),
        }
    }

    /// The buckets, widened, as an owned row.
    pub fn to_vec(self) -> Vec<u32> {
        self.iter().collect()
    }
}

/// Union of a watermark hull with `[start, end)` (callers ensure
/// `start < end`).
pub(crate) fn extend(hull: Option<(usize, usize)>, start: usize, end: usize) -> (usize, usize) {
    match hull {
        Some((lo, hi)) => (lo.min(start), hi.max(end)),
        None => (start, end),
    }
}

/// A watermark hull less `[start, end)`. A hull is an interval, so only
/// a span that reaches an edge can shrink it; an interior span leaves
/// the hull as a conservative over-cover — whoever reads by it may then
/// visit some zero buckets, but never skips a nonzero one.
pub(crate) fn subtract(
    hull: Option<(usize, usize)>,
    start: usize,
    end: usize,
) -> Option<(usize, usize)> {
    let (lo, hi) = hull?;
    if start <= lo && end >= hi {
        None
    } else if start <= lo {
        Some((end.max(lo), hi))
    } else if end >= hi {
        Some((lo, start.min(hi)))
    } else {
        Some((lo, hi))
    }
}

/// A span of an archived epoch on its way out
/// ([`Register::drain_archived_range`]): readable whole, zeroed from
/// the front as the reader lets go of it, and zeroed to the end when
/// dropped — so whatever the reader does, an early return included,
/// the shadow bank gets the span back all-zero.
#[derive(Debug)]
pub struct ArchiveDrain<'a> {
    bank: &'a mut Bank,
    /// The span of `bank` handed over: `[start, end)`.
    start: usize,
    end: usize,
    /// Buckets of the span, from its start, already zeroed.
    retired: usize,
}

impl ArchiveDrain<'_> {
    /// Zeroes the span up to bucket `upto` (relative to its start): the
    /// reader is done with everything before it.
    pub fn retire_to(&mut self, upto: usize) {
        if upto > self.retired {
            self.bank.zero(self.start + self.retired, self.start + upto);
            self.retired = upto;
        }
    }

    /// The whole span; what was retired reads as the zeros it now is.
    pub fn buckets(&self) -> Buckets<'_> {
        self.bank.buckets(self.start, self.end)
    }
}

impl Drop for ArchiveDrain<'_> {
    fn drop(&mut self) {
        self.bank.zero(self.start + self.retired, self.end);
    }
}

impl Register {
    /// Creates a register with `buckets` buckets of `width_bits` bits.
    ///
    /// # Panics
    /// Panics if `width_bits` is 0 or exceeds 32, or if `buckets` is not a
    /// power of two (FlyMon's address translation assumes 2^n geometry).
    pub fn new(buckets: usize, width_bits: u8) -> Self {
        assert!((1..=32).contains(&width_bits), "width must be 1..=32 bits");
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a power of two (got {buckets})"
        );
        Register {
            width_bits,
            bank: Bank::zeroed(buckets, width_bits),
            dirty: None,
            touched: None,
            shadow: None,
        }
    }

    /// Extends the dirty watermark to cover `[start, end)`.
    ///
    /// `pub(crate)` so [`crate::salu::Salu::sweep`] can fold a
    /// whole sweep's writes into one running `(min, max)` mark instead
    /// of one call per write. The watermark is a *union* of marks
    /// (`mark(a) ∪ mark(b) == mark(a ∪ b)`), so batching the marks is
    /// observationally identical to per-write marking — delta
    /// checkpoints see the same range.
    pub(crate) fn mark_dirty(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        self.dirty = Some(extend(self.dirty, start, end));
        self.touched = Some(extend(self.touched, start, end));
    }

    /// Extends only the checkpoint watermark — a zeroing reset must
    /// reach the next delta snapshot, but it makes buckets *less*
    /// touched, not more (see [`Register::clear_range`]).
    fn extend_dirty(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        self.dirty = Some(extend(self.dirty, start, end));
    }

    /// The half-open bucket range written since the last
    /// [`Register::clear_dirty`] (or construction), if any. A single
    /// watermark range, not an exact set: it may cover untouched buckets
    /// between two distant writes, but never misses a written one.
    pub fn dirty_range(&self) -> Option<(usize, usize)> {
        self.dirty
    }

    /// Resets dirty tracking — the snapshot barrier a checkpoint capture
    /// places after copying the dirty range. The touched hull is *not*
    /// reset: a checkpoint copies data, it does not zero it.
    pub fn clear_dirty(&mut self) {
        self.dirty = None;
    }

    /// The half-open hull of buckets that may hold nonzero values:
    /// written since they last held zero. `None` means the whole
    /// register is zero — the epoch-rotation/readout elision check.
    /// Checkpoint barriers do not retire this watermark (unlike
    /// [`Register::dirty_range`]); zeroing resets and bank swaps do.
    pub fn touched_range(&self) -> Option<(usize, usize)> {
        self.touched
    }

    /// True when `[start, end)` cannot hold a nonzero bucket — it lies
    /// entirely outside the touched hull, so a readout may substitute
    /// zeros without looking at SRAM.
    pub fn is_untouched(&self, start: usize, end: usize) -> bool {
        match self.touched {
            None => true,
            Some((lo, hi)) => end <= lo || start >= hi,
        }
    }

    /// Double-buffered epoch reset: swaps the live bucket bank with the
    /// zeroed shadow bank in O(1), leaving the epoch's data readable
    /// until it is drained ([`Register::drain_archived_range`]) or
    /// [`Register::retire_shadow`] re-zeroes it. After the swap the
    /// live bank is all-zero, so the touched hull drops to `None` — and
    /// becomes the hull of the archive, the only part of the shadow
    /// bank anyone has to zero again.
    ///
    /// The checkpoint watermark is *not* extended here: the register
    /// does not know which sub-ranges were task partitions. The control
    /// plane marks each retired partition via
    /// [`Register::mark_epoch_cleared`] so delta checkpoints ship the
    /// zeroed ranges, exactly as a [`Register::clear_range`] sweep
    /// would have.
    ///
    /// The first call allocates the shadow bank; a bank still holding
    /// an unretired archive (an aborted rotation) is re-zeroed first,
    /// so stale epochs can never leak into the live bank.
    pub fn swap_epoch_bank(&mut self) {
        self.retire_shadow();
        let (len, width_bits) = (self.len(), self.width_bits);
        let shadow = self.shadow.get_or_insert_with(|| ShadowBank {
            bank: Bank::zeroed(len, width_bits),
            owed: None,
        });
        std::mem::swap(&mut self.bank, &mut shadow.bank);
        shadow.owed = self.touched.take();
    }

    /// Records that `[start, end)` was reset to zero by a bank swap:
    /// extends the checkpoint watermark (the zeros must reach the next
    /// delta) and retires the span from the touched hull. Bucket data
    /// is not inspected — the caller asserts the span is zero, which
    /// [`Register::swap_epoch_bank`] guarantees for the whole bank.
    pub fn mark_epoch_cleared(&mut self, start: usize, end: usize) -> Result<(), RmtError> {
        self.check_range(start, end)?;
        self.extend_dirty(start, end);
        self.touched = subtract(self.touched, start, end);
        Ok(())
    }

    /// Refuses a bucket range that is inverted or runs past the
    /// register.
    fn check_range(&self, start: usize, end: usize) -> Result<(), RmtError> {
        if end > self.len() || start > end {
            return Err(RmtError::IndexOutOfRange {
                what: "bucket range end",
                index: end,
                limit: self.len(),
            });
        }
        Ok(())
    }

    /// The archived epoch's `[start, end)`, handed over for good, if
    /// the shadow bank holds an unretired archive. `Ok(None)` means no
    /// archive — no swap happened, or everything it archived was
    /// drained or retired — and the caller should treat the span as
    /// all-zero.
    ///
    /// The span leaves the register's books here: it is subtracted from
    /// what [`Register::retire_shadow`] still owes (from an edge of the
    /// archive's hull, like every hull subtraction in this module), and
    /// the [`ArchiveDrain`] zeroes it instead — chunk by chunk as the
    /// caller finishes reading, each while it is still in cache from
    /// being read, so the epoch's archive is written once rather than
    /// read cold a second time to be cleared.
    pub fn drain_archived_range(
        &mut self,
        start: usize,
        end: usize,
    ) -> Result<Option<ArchiveDrain<'_>>, RmtError> {
        self.check_range(start, end)?;
        let Some(shadow) = self.shadow.as_mut().filter(|b| b.owed.is_some()) else {
            return Ok(None);
        };
        shadow.owed = subtract(shadow.owed, start, end);
        Ok(Some(ArchiveDrain {
            bank: &mut shadow.bank,
            start,
            end,
            retired: 0,
        }))
    }

    /// Whether the shadow bank holds an archived epoch that is neither
    /// drained nor retired.
    pub fn has_archive(&self) -> bool {
        self.shadow.as_ref().is_some_and(|b| b.owed.is_some())
    }

    /// Re-zeroes what is left of the archived epoch once it has been
    /// merged: the archive's hull, less the spans the merge drained —
    /// nothing at all when it drained every partition of the register.
    /// Paid off the ingestion-stall path. No-op when nothing is
    /// archived.
    pub fn retire_shadow(&mut self) {
        if let Some(shadow) = self.shadow.as_mut() {
            if let Some((lo, hi)) = shadow.owed.take() {
                shadow.bank.zero(lo, hi);
            }
            debug_assert!(
                shadow.bank.buckets(0, shadow.bank.len()).iter().all(|v| v == 0),
                "a retired shadow bank must be all-zero"
            );
        }
    }

    /// Bucket bit width.
    pub fn width_bits(&self) -> u8 {
        self.width_bits
    }

    /// Maximum representable bucket value.
    pub fn max_value(&self) -> u32 {
        if self.width_bits == 32 {
            u32::MAX
        } else {
            (1u32 << self.width_bits) - 1
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.bank.len()
    }

    /// True when the register has no buckets (never the case after
    /// construction; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the bucket at `addr`.
    pub fn read(&self, addr: usize) -> Result<u32, RmtError> {
        let limit = self.len();
        self.bank.buckets(0, limit).get(addr).ok_or(RmtError::IndexOutOfRange {
            what: "bucket",
            index: addr,
            limit,
        })
    }

    /// Writes the bucket at `addr`, masking to the register width.
    pub fn write(&mut self, addr: usize, value: u32) -> Result<(), RmtError> {
        let limit = self.len();
        if addr >= limit {
            return Err(RmtError::IndexOutOfRange {
                what: "bucket",
                index: addr,
                limit,
            });
        }
        let value = value & self.max_value();
        at_width!(Bank, &mut self.bank, cells => cells[addr] = Cell::truncate(value));
        self.mark_dirty(addr, addr + 1);
        Ok(())
    }

    /// Bulk [`Register::write`]: stores `values` at `[start, start +
    /// values.len())`, each masked to the register width, with one
    /// bounds check and one watermark mark for the whole range — the
    /// checkpoint restore path, which would otherwise pay both per
    /// bucket.
    pub(crate) fn load_range(&mut self, start: usize, values: &[u32]) -> Result<(), RmtError> {
        let max = self.max_value();
        let limit = self.len();
        let end = start
            .checked_add(values.len())
            .filter(|&end| end <= limit)
            .ok_or(RmtError::IndexOutOfRange {
                what: "bucket range end",
                index: start.saturating_add(values.len()),
                limit,
            })?;
        at_width!(Bank, &mut self.bank, cells => {
            for (slot, &value) in cells[start..end].iter_mut().zip(values) {
                *slot = Cell::truncate(value & max);
            }
        });
        self.mark_dirty(start, end);
        Ok(())
    }

    /// Zeroes a half-open bucket range (a control-plane reset of one
    /// task's partition at epoch boundaries or on reallocation).
    pub fn clear_range(&mut self, start: usize, end: usize) -> Result<(), RmtError> {
        self.check_range(start, end)?;
        self.bank.zero(start, end);
        // The zeros must reach the next delta checkpoint, but the span
        // is now *less* touched: retire it from the elision hull.
        self.extend_dirty(start, end);
        self.touched = subtract(self.touched, start, end);
        Ok(())
    }

    /// Raw bucket storage for the SALU's batched read-modify-write loop.
    ///
    /// Crate-internal on purpose: callers outside the substrate must go
    /// through [`Register::write`]/[`Register::clear_range`], which keep
    /// the dirty watermark honest. [`crate::salu::Salu::sweep`]
    /// pairs this with an explicit [`Register::mark_dirty`] covering
    /// every bucket it wrote.
    pub(crate) fn bank_mut(&mut self) -> &mut Bank {
        &mut self.bank
    }

    /// Borrowed view of a bucket range, in the register's own cells
    /// (the control plane's periodic readout).
    pub fn read_range(&self, start: usize, end: usize) -> Result<Buckets<'_>, RmtError> {
        self.check_range(start, end)?;
        Ok(self.bank.buckets(start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_enforced() {
        let r = Register::new(1024, 16);
        assert_eq!(r.len(), 1024);
        assert_eq!(r.width_bits(), 16);
        assert_eq!(r.max_value(), 65535);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Register::new(1000, 16);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = Register::new(16, 0);
    }

    #[test]
    fn write_masks_to_width() {
        let mut r = Register::new(4, 16);
        r.write(0, 0x1_2345).unwrap();
        assert_eq!(r.read(0).unwrap(), 0x2345);
        let mut r32 = Register::new(4, 32);
        r32.write(0, u32::MAX).unwrap();
        assert_eq!(r32.read(0).unwrap(), u32::MAX);
    }

    #[test]
    fn one_bit_register_behaves_like_bloom_bit() {
        let mut r = Register::new(8, 1);
        assert_eq!(r.max_value(), 1);
        r.write(3, 0xff).unwrap();
        assert_eq!(r.read(3).unwrap(), 1);
    }

    #[test]
    fn out_of_range_access_errors() {
        let mut r = Register::new(4, 16);
        assert!(matches!(
            r.read(4),
            Err(RmtError::IndexOutOfRange { index: 4, .. })
        ));
        assert!(r.write(17, 1).is_err());
        assert!(r.clear_range(0, 5).is_err());
        assert!(r.read_range(3, 2).is_err());
    }

    #[test]
    fn dirty_watermark_tracks_writes() {
        let mut r = Register::new(64, 16);
        assert_eq!(r.dirty_range(), None, "fresh register is clean");
        r.write(10, 1).unwrap();
        assert_eq!(r.dirty_range(), Some((10, 11)));
        r.write(3, 1).unwrap();
        r.write(20, 1).unwrap();
        assert_eq!(r.dirty_range(), Some((3, 21)), "watermark spans all writes");
        r.clear_dirty();
        assert_eq!(r.dirty_range(), None);
        // clear_range dirties too (a reset must reach the next delta).
        r.clear_range(8, 16).unwrap();
        assert_eq!(r.dirty_range(), Some((8, 16)));
        // Out-of-range writes leave the watermark untouched.
        r.clear_dirty();
        assert!(r.write(99, 1).is_err());
        assert_eq!(r.dirty_range(), None);
    }

    #[test]
    fn touched_hull_survives_checkpoint_barriers() {
        let mut r = Register::new(64, 16);
        assert!(r.is_untouched(0, 64), "fresh register is all-zero");
        r.write(10, 5).unwrap();
        r.write(20, 5).unwrap();
        assert_eq!(r.touched_range(), Some((10, 21)));
        // A checkpoint barrier clears the delta watermark only.
        r.clear_dirty();
        assert_eq!(r.dirty_range(), None);
        assert_eq!(r.touched_range(), Some((10, 21)), "data is still there");
        assert!(r.is_untouched(0, 10) && r.is_untouched(21, 64));
        assert!(!r.is_untouched(15, 30));
        // Zeroing the span retires it.
        r.clear_range(10, 21).unwrap();
        assert_eq!(r.touched_range(), None);
        assert_eq!(r.dirty_range(), Some((10, 21)), "zeros reach the delta");
    }

    #[test]
    fn touched_hull_retires_conservatively() {
        let mut r = Register::new(64, 16);
        r.write(10, 1).unwrap();
        r.write(40, 1).unwrap();
        // Edge clear trims the hull.
        r.clear_range(0, 20).unwrap();
        assert_eq!(r.touched_range(), Some((20, 41)));
        r.clear_range(41, 64).unwrap();
        assert_eq!(r.touched_range(), Some((20, 41)));
        // Interior clear keeps the hull (conservative over-cover).
        r.clear_range(25, 30).unwrap();
        assert_eq!(r.touched_range(), Some((20, 41)));
    }

    #[test]
    fn bank_swap_archives_and_zeroes() {
        let mut r = Register::new(8, 16);
        for i in 0..8 {
            r.write(i, (i as u32) + 1).unwrap();
        }
        assert!(!r.has_archive());
        r.swap_epoch_bank();
        // Live bank is zero, archive holds the epoch.
        assert_eq!(r.read_range(0, 8).unwrap().to_vec(), [0; 8]);
        assert_eq!(r.touched_range(), None);
        assert!(r.has_archive());
        r.mark_epoch_cleared(0, 8).unwrap();
        assert_eq!(r.dirty_range(), Some((0, 8)), "reset reaches the delta");
        // Half of it is drained, the other half left to retirement.
        let mut drain = r.drain_archived_range(0, 4).unwrap().unwrap();
        assert_eq!(drain.buckets().to_vec(), [1, 2, 3, 4]);
        drain.retire_to(2);
        assert_eq!(drain.buckets().to_vec(), [0, 0, 3, 4], "zeroed behind the reader");
        drop(drain);
        assert!(r.has_archive(), "[4, 8) is still owed");
        r.retire_shadow();
        assert!(!r.has_archive());
        assert!(r.drain_archived_range(0, 8).unwrap().is_none());
        // The bank comes back all-zero, drained and retired halves alike.
        r.swap_epoch_bank();
        assert_eq!(r.read_range(0, 8).unwrap().to_vec(), [0; 8]);
        // New traffic lands in the fresh bank.
        r.write(2, 9).unwrap();
        assert_eq!(r.touched_range(), Some((2, 3)));
    }

    #[test]
    fn unretired_archive_never_leaks_into_live_bank() {
        let mut r = Register::new(4, 16);
        r.write(0, 11).unwrap();
        r.swap_epoch_bank();
        // Rotation aborted: the archive is never retired. The next
        // epoch's traffic and swap must not resurrect bucket values.
        r.write(1, 22).unwrap();
        r.swap_epoch_bank();
        assert_eq!(r.read_range(0, 4).unwrap().to_vec(), [0; 4], "live is clean");
        assert_eq!(
            r.drain_archived_range(0, 4).unwrap().unwrap().buckets().to_vec(),
            [0, 22, 0, 0],
            "archive holds only the epoch just rotated, not the aborted one"
        );
    }

    #[test]
    fn archived_range_checks_bounds() {
        let mut r = Register::new(4, 16);
        assert!(r.drain_archived_range(0, 5).is_err());
        assert!(r.mark_epoch_cleared(3, 2).is_err());
        r.write(0, 1).unwrap();
        r.swap_epoch_bank();
        assert!(r.drain_archived_range(2, 1).is_err());
        assert!(r.has_archive(), "a refused range drains nothing");
    }

    #[test]
    fn load_range_is_a_bulk_write() {
        let mut bulk = Register::new(16, 8);
        let mut single = Register::new(16, 8);
        let values = [0x1ff, 0, 7, 0x100];
        bulk.load_range(5, &values).unwrap();
        for (i, &v) in values.iter().enumerate() {
            single.write(5 + i, v).unwrap();
        }
        assert_eq!(bulk.read_range(0, 16).unwrap(), single.read_range(0, 16).unwrap());
        assert_eq!(bulk.read_range(5, 9).unwrap().to_vec(), [0xff, 0, 7, 0], "masked to 8 bits");
        assert_eq!(bulk.dirty_range(), single.dirty_range());
        assert_eq!(bulk.touched_range(), single.touched_range());
        // Past the end (or past `usize`): refused whole, nothing marked.
        bulk.clear_dirty();
        assert!(bulk.load_range(14, &values).is_err());
        assert!(bulk.load_range(usize::MAX, &values).is_err());
        assert_eq!(bulk.dirty_range(), None);
        assert_eq!(bulk.read_range(14, 16).unwrap().to_vec(), [0, 0]);
    }

    #[test]
    fn clear_range_is_half_open() {
        let mut r = Register::new(8, 16);
        for i in 0..8 {
            r.write(i, 7).unwrap();
        }
        r.clear_range(2, 5).unwrap();
        assert_eq!(r.read_range(0, 8).unwrap().to_vec(), [7, 7, 0, 0, 0, 7, 7, 7]);
    }
}
