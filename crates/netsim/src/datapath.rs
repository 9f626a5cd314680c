//! Sharded parallel datapath: multi-core trace replay for one switch.
//!
//! The software pipeline is single-threaded per [`FlyMon`] instance —
//! faithful to the hardware, where one pipeline processes one packet per
//! clock, but far too slow to replay the multi-million-packet traces the
//! experiments in `results/` feed it. This module recovers multi-core
//! throughput without giving up single-switch semantics:
//!
//! 1. a dedicated **ingress** (the calling thread) walks the trace once,
//!    computes an RSS-style flow hash per packet ([`slot_of`]: murmur3
//!    over the source address, finalized with `fmix32`, folded into
//!    [`FANOUT_SLOTS`] slots) and routes each packet through a
//!    slot→worker **fanout table** into that worker's bounded ring;
//! 2. each **worker** thread owns a private [`FlyMon`] *replica* of the
//!    switch (deployments are deterministic, so every replica derives
//!    identical hash configurations, partition layouts and bindings),
//!    drains its ring in [`PIPELINE_BATCH`]-packet batches through the
//!    stage-major [`FlyMon::process_batch`] path, and recycles drained
//!    buffers back to the ingress;
//! 3. readouts are merged per the deployed sketch's merge law, exactly as
//!    fleet readouts are: per-bucket **sum** for linear frequency rows
//!    (CMS/MRAC), per-bucket **max** for HLL cardinality registers,
//!    per-bucket **OR** / any-replica for Bloom existence rows.
//!
//! For those laws the merged registers are *bit-identical* to a serial
//! replay of the whole trace on one switch for **any** disjoint packet
//! partition (each packet updates exactly one replica, and the per-bucket
//! operation is associative and commutative across packets) — which is
//! what lets the fanout table be *rebalanced*: slots are weighed by a
//! profiling pass over the trace and assigned to workers longest-
//! processing-time-first, keeping per-worker packet counts within ~1.2×
//! of each other even on heavily skewed traffic. Non-linear recipes —
//! max-inter-arrival, which differences consecutive timestamps *of the
//! same flow* inside one register — additionally need **flow affinity**:
//! for those the table degrades to the static `slot % workers` map (a
//! flow's packets always share a slot, hence a worker, across calls).
//!
//! The rings are plain `std::sync::mpsc::sync_channel`s of recycled
//! `Vec<Packet>` batches, depth [`RING_DEPTH`]: a full ring blocks the
//! ingress (backpressure, the same discipline as `ingest::BoundedQueue`)
//! instead of ballooning memory. No external thread-pool or channel
//! dependency is used; workers are best-effort pinned to distinct cores
//! ([`flymon_rmt::affinity`]) when the host has enough of them.
//!
//! On a single-CPU host (or with one worker) the replay degrades to an
//! inline sweep on the calling thread ([`ReplayMode::Serial`]) instead of
//! time-slicing threads that cannot run concurrently: mergeable
//! deployments *stripe* the trace over the replicas in
//! [`STRIPE_CHUNK`]-packet chunks (no per-packet hashing at all), while
//! affinity-bound deployments and fleet replays stage per-worker batches
//! through the same fanout table the pipelined path would use. See
//! `DESIGN.md` § "SIMD & ingress/worker datapath" for why this replaced
//! the claim-chunk scan model.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use flymon::prelude::*;
use flymon::FlymonError;
use flymon_packet::Packet;
use flymon_rmt::hash::{fmix32, murmur3_32_word};
use flymon_sketches::hll::estimate_from_registers;

/// Seed of the ingress/shard hash. Shared with
/// [`SwitchFleet::process_trace`](crate::SwitchFleet::process_trace) so a
/// fleet replay and a sharded replay split a trace identically.
pub const INGRESS_HASH_SEED: u32 = 0xf1ee7;

/// The per-bucket law by which two partial registers of the same
/// deployment combine into the register of the union traffic.
///
/// This is *the* canonical table: the sharded datapath's merged readouts
/// and the fleet's epoch rotation both route through [`MergeLaw::of`],
/// so a sketch can never be merged under one law in one path and a
/// different law in another. (That divergence was a real bug: epoch
/// rotation used to fall through to a blanket sum, silently adding
/// SuMax-Max rows' maxima across the fleet.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeLaw {
    /// Linear counter rows: per-bucket sum, clamped at the hosting
    /// register's cell ceiling (Cond-ADD saturates there, so the merge
    /// must too).
    Sum,
    /// MAX-op rows (HLL ρ registers, SuMax-Max maxima): per-bucket max.
    Max,
    /// Bitmap rows (Bloom, Linear Counting, BeauCoup coupons):
    /// per-bucket OR.
    Or,
}

impl MergeLaw {
    /// The merge law of `algorithm`'s register rows.
    ///
    /// Exhaustive over the algorithm table on purpose — adding an
    /// algorithm without deciding its merge law is a compile error, not
    /// a silent sum. Errors for [`Algorithm::OddSketch`], whose two rows
    /// obey *different* laws (a Bloom gate plus an XOR parity bitmap):
    /// no single per-bucket law merges it, and pretending one does is
    /// exactly the bug this table exists to prevent.
    pub fn of(algorithm: Algorithm) -> Result<MergeLaw, FlymonError> {
        Ok(match algorithm {
            Algorithm::Cms { .. }
            | Algorithm::SuMaxSum { .. }
            | Algorithm::Mrac
            | Algorithm::Tower { .. }
            | Algorithm::CounterBraids => MergeLaw::Sum,
            Algorithm::Hll | Algorithm::SuMaxMax { .. } | Algorithm::MaxInterval { .. } => {
                MergeLaw::Max
            }
            Algorithm::Bloom { .. } | Algorithm::LinearCounting | Algorithm::BeauCoup { .. } => {
                MergeLaw::Or
            }
            Algorithm::OddSketch => {
                return Err(FlymonError::BadTask(
                    "OddSketch rows have no single per-bucket merge law \
                     (Bloom gate merges by OR, the parity bitmap by XOR)"
                        .into(),
                ))
            }
        })
    }

    /// Combines two partial buckets. `cap` is the hosting register's
    /// cell ceiling, honored by [`MergeLaw::Sum`] only (pass `u32::MAX`
    /// when the row has no ceiling).
    #[inline]
    pub fn combine(self, a: u32, b: u32, cap: u32) -> u32 {
        match self {
            MergeLaw::Sum => (u64::from(a) + u64::from(b)).min(u64::from(cap)) as u32,
            MergeLaw::Max => a.max(b),
            MergeLaw::Or => a | b,
        }
    }

    /// Bulk form of [`MergeLaw::combine`]: folds `src` into `acc`
    /// bucket-by-bucket (`acc[i] = combine(acc[i], src[i], cap)`). The
    /// per-law loops have no branch and stay in `u32`, so they
    /// autovectorize. Bit-identical to the per-element path for every
    /// law, cap and length (pinned by `tests/readout.rs`).
    ///
    /// # Panics
    /// Panics if the rows differ in length — partial registers of one
    /// deployment always share a geometry, so a mismatch is a caller
    /// bug, not a data condition.
    pub fn combine_rows(self, acc: &mut [u32], src: &[u32], cap: u32) {
        match self {
            MergeLaw::Sum => fold(acc, src, |a, s| a.saturating_add(s).min(cap)),
            MergeLaw::Max => fold(acc, src, u32::max),
            MergeLaw::Or => fold(acc, src, |a, s| a | s),
        }
    }

    /// [`MergeLaw::combine_rows`] fused with the occupancy scan: merges
    /// `src` into `acc` and counts the *merged* row's nonzero and
    /// at-ceiling buckets in the same sweep, so the adaptive
    /// controller's fill/saturation signals cost no second pass over
    /// the epoch's rows. Use for the final member of a merge fold;
    /// `saturation_cap` is the row's cell ceiling (what Cond-ADD
    /// saturates at), which for Sum rows coincides with the clamp cap.
    ///
    /// With `candidates`, the same sweep also collects the merged row's
    /// nonzero bucket indices, ascending, replacing the vector's
    /// contents. The collection is branch-free — every index is
    /// written, the cursor advances only past nonzero buckets — because
    /// a half-full row makes a `if v > 0 { push }` loop mispredict on
    /// every other bucket.
    ///
    /// # Panics
    /// Panics if the rows differ in length.
    pub fn combine_rows_scan(
        self,
        acc: &mut [u32],
        src: &[u32],
        cap: u32,
        saturation_cap: u32,
        candidates: Option<&mut Vec<u32>>,
    ) -> RowOccupancy {
        match self {
            MergeLaw::Sum => fold_scan(acc, src, saturation_cap, candidates, |a, s| {
                a.saturating_add(s).min(cap)
            }),
            MergeLaw::Max => fold_scan(acc, src, saturation_cap, candidates, u32::max),
            MergeLaw::Or => fold_scan(acc, src, saturation_cap, candidates, |a, s| a | s),
        }
    }

    /// One row merged across `members` into `acc`, in one sweep per
    /// member: the first row is copied, the middle ones fold in through
    /// [`MergeLaw::combine_rows`], and the last goes through the fused
    /// [`MergeLaw::combine_rows_scan`], which also yields the occupancy
    /// (and `candidates`). Callers leave out members whose row is
    /// provably zero; with none left the row is `size` zeros. A lone
    /// member folds into zeros instead of being copied — 0 is the
    /// identity of every law and a register never holds more than its
    /// ceiling — so it too gets the fused sweep.
    pub(crate) fn merge_rows<'a>(
        self,
        acc: &mut Vec<u32>,
        size: usize,
        mut members: impl Iterator<Item = Result<&'a [u32], FlymonError>>,
        cap: u32,
        saturation_cap: u32,
        candidates: Option<&mut Vec<u32>>,
    ) -> Result<RowOccupancy, FlymonError> {
        acc.clear();
        let Some(mut last) = members.next().transpose()? else {
            acc.resize(size, 0);
            if let Some(out) = candidates {
                out.clear();
            }
            return Ok(RowOccupancy::default());
        };
        match members.next().transpose()? {
            None => acc.resize(last.len(), 0),
            Some(second) => {
                acc.extend_from_slice(last);
                last = second;
                for next in members {
                    self.combine_rows(acc, last, cap);
                    last = next?;
                }
            }
        }
        Ok(self.combine_rows_scan(acc, last, cap, saturation_cap, candidates))
    }
}

/// `acc[i] = op(acc[i], src[i])` over two rows of one geometry.
#[inline(always)]
fn fold(acc: &mut [u32], src: &[u32], op: impl Fn(u32, u32) -> u32) {
    assert_eq!(
        acc.len(),
        src.len(),
        "merged rows must share a geometry"
    );
    for (a, &s) in acc.iter_mut().zip(src) {
        *a = op(*a, s);
    }
}

/// Buckets per block of [`fold_scan`]: a block of both rows and of the
/// index buffer stays in L1 between the fold and the candidate step.
/// Inside a block the occupancy counts are `u32`, as wide as the
/// buckets, so the loop keeps every vector lane (`usize` counters halve
/// them on the sse2 build); across blocks they add up in `usize`, so
/// no row is long enough to wrap them.
const SCAN_BLOCK: usize = 1024;

/// [`fold`] fused with the occupancy scan of the merged row and, with
/// `candidates`, the collection of its nonzero indices — block by
/// block, so the candidate step reads the buckets the fold just wrote.
#[inline(always)]
fn fold_scan(
    acc: &mut [u32],
    src: &[u32],
    saturation_cap: u32,
    mut candidates: Option<&mut Vec<u32>>,
    op: impl Fn(u32, u32) -> u32,
) -> RowOccupancy {
    assert_eq!(
        acc.len(),
        src.len(),
        "merged rows must share a geometry"
    );
    if let Some(out) = candidates.as_deref_mut() {
        out.clear();
        out.reserve(acc.len());
    }
    let mut occ = RowOccupancy::default();
    let mut indices = [0u32; SCAN_BLOCK];
    let mut base = 0u32;
    for (a, s) in acc.chunks_mut(SCAN_BLOCK).zip(src.chunks(SCAN_BLOCK)) {
        let (mut nonzero, mut saturated) = (0u32, 0u32);
        for (a, &s) in a.iter_mut().zip(s) {
            let v = op(*a, s);
            *a = v;
            nonzero += u32::from(v > 0);
            saturated += u32::from(v >= saturation_cap);
        }
        occ.nonzero += nonzero as usize;
        occ.saturated += saturated as usize;
        if let Some(out) = candidates.as_deref_mut() {
            // Every index is written at the cursor; the cursor moves
            // only past a nonzero bucket, so it never passes the index.
            let mut kept = 0;
            for (i, &v) in (base..).zip(a.iter()) {
                indices[kept] = i;
                kept += usize::from(v > 0);
            }
            out.extend_from_slice(&indices[..kept]);
            base += SCAN_BLOCK as u32;
        }
    }
    occ
}

/// Occupancy of one merged row, computed in the same sweep that merged
/// it ([`MergeLaw::combine_rows_scan`]): the raw counts behind the
/// adaptive controller's fill and saturation ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowOccupancy {
    /// Buckets holding a nonzero value.
    pub nonzero: usize,
    /// Buckets at the row's cell ceiling (saturated by Cond-ADD, not
    /// exactly counted).
    pub saturated: usize,
}

/// The shard (or fleet ingress) among `n` that `pkt` belongs to.
///
/// The raw murmur3 digest is finalized through [`fmix32`] before the
/// modulus: on real traces source addresses are far from uniform, and
/// folding the unmixed digest `% n` measured up to 2.7× worst/best
/// shard imbalance at 4 shards. The extra avalanche pass costs four
/// shifts and two multiplies per packet and brings the split to within
/// a few percent of uniform.
///
/// # Panics
/// Panics if `n` is zero — an empty datapath has no shards.
pub fn shard_of(pkt: &Packet, n: usize) -> usize {
    assert!(n > 0, "cannot shard across zero workers");
    let h = ingress_hash(pkt);
    // A 32-bit modulus whenever `n` fits one (a 64-bit divide costs
    // several times more); a wider `n` exceeds every digest, so the
    // remainder is the digest itself.
    match u32::try_from(n) {
        Ok(n) => (h % n) as usize,
        Err(_) => h as usize,
    }
}

/// The mixed ingress hash of `pkt`: murmur3 over the source address's
/// four network-order bytes (the single-word path — no slice walk),
/// finalized through [`fmix32`].
#[inline]
fn ingress_hash(pkt: &Packet) -> u32 {
    fmix32(murmur3_32_word(INGRESS_HASH_SEED, pkt.src_ip.swap_bytes()))
}

/// Partitions `trace` into `n` shards by [`shard_of`], preserving the
/// original packet order within each shard.
///
/// This is the *reference* partitioner: the replay path never
/// materializes shards (the ingress routes packets straight into worker
/// rings — see [`ShardedDatapath::process_trace`]), but fleet tests pin
/// drop attribution against this function, and offline tooling that
/// genuinely wants per-shard vectors can still build them.
pub fn shard_trace(trace: &[Packet], n: usize) -> Vec<Vec<Packet>> {
    let mut shards: Vec<Vec<Packet>> = vec![Vec::new(); n];
    for p in trace {
        shards[shard_of(p, n)].push(*p);
    }
    shards
}

/// Slots in the ingress fanout table. A power of two (the slot index is
/// a mask of the mixed flow hash) well above any realistic worker count,
/// so the rebalancer has fine-grained units to pack: with 256 slots the
/// largest slot holds ~the heaviest single flow, which bounds how far
/// from perfect the longest-processing-time-first assignment can land.
pub const FANOUT_SLOTS: usize = 256;

/// The fanout slot of `pkt`: mixed flow hash, masked to
/// [`FANOUT_SLOTS`]. Depends only on the source address, so a flow's
/// packets always share a slot — the property that makes the static
/// slot map flow-affine.
#[inline]
pub fn slot_of(pkt: &Packet) -> usize {
    ingress_hash(pkt) as usize & (FANOUT_SLOTS - 1)
}

/// Packets per batch handed from the ingress to a worker ring (and per
/// inline staged flush). Large enough to amortize the channel round-trip
/// and let the stage-major batch path stretch its legs; small enough
/// that `RING_DEPTH` in-flight batches per worker stay cache-friendly.
pub(crate) const PIPELINE_BATCH: usize = 1024;

/// Bounded depth of each worker's ring, in batches. A full ring blocks
/// the ingress on `send` — backpressure, not growth: at most
/// `RING_DEPTH × PIPELINE_BATCH` packets (~224 KiB at 28-byte packets)
/// are in flight per worker, and a slow worker throttles the ingress
/// instead of queueing unboundedly.
pub(crate) const RING_DEPTH: usize = 8;

/// Packets per chunk in the inline striped fallback (single-CPU hosts,
/// mergeable deployments): chunk `c` goes to replica `c % workers`
/// whole, with no per-packet hashing. Any chunking yields register state
/// a merge reconstructs exactly; the size only balances dispatch
/// amortization against how evenly short traces spread over replicas.
pub(crate) const STRIPE_CHUNK: usize = 4096;

/// Where one packet goes in a replay.
pub(crate) struct Assignment {
    /// The ingress the shard hash picked (drop accounting lands here).
    pub ingress: usize,
    /// The worker that must process the packet, or `None` to drop it
    /// (fleet replays with dead switches).
    pub to: Option<usize>,
}

/// Per-worker accounting of one parallel replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStats {
    /// Worker index (= replica index).
    pub worker: usize,
    /// Packets this worker processed.
    pub packets: u64,
    /// Packets this worker mirrored to the recirculation port.
    pub recirculated: u64,
    /// Packets routed to this worker's ingress that no one could take
    /// (always 0 for a [`ShardedDatapath`]; nonzero on an all-dead fleet).
    pub dropped: u64,
    /// Time this worker spent *inside* [`FlyMon::process_batch`] — pure
    /// pipeline work, excluding ring waits and ingress stalls. Per-worker
    /// [`WorkerStats::packets_per_sec`] is therefore the replica's
    /// processing rate (the per-core efficiency number the bench
    /// tabulates), while [`ReplayStats::elapsed`] brackets the whole
    /// replay including fanout planning and scheduling gaps.
    pub busy: Duration,
}

impl WorkerStats {
    /// This worker's processing throughput in packets per second.
    pub fn packets_per_sec(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.packets as f64 / secs
        } else {
            0.0
        }
    }

    /// Worst/best packet-count ratio across `stats` — the fanout
    /// balance figure of merit (1.0 is perfect). `1.0` when every
    /// worker is idle (nothing to imbalance); `f64::INFINITY` when some
    /// worker got packets and another got none.
    pub fn imbalance_ratio(stats: &[WorkerStats]) -> f64 {
        let max = stats.iter().map(|s| s.packets).max().unwrap_or(0);
        let min = stats.iter().map(|s| s.packets).min().unwrap_or(0);
        if max == 0 {
            1.0
        } else if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// How a replay drove its workers.
///
/// A worker is a (replica, ring) pair; a *thread* is an OS thread. With
/// more than one usable CPU the replay spawns one OS thread per worker
/// plus the ingress on the calling thread ([`ReplayMode::Pipelined`]);
/// on a 1-CPU host — or with a single worker — it runs the replicas
/// inline on the calling thread ([`ReplayMode::Serial`]) instead of
/// paying spawn, channel and context-switch overhead for parallelism
/// the machine cannot deliver (the 0.69×-at-4-workers regression in
/// `results/BENCH_datapath.json` history).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplayMode {
    /// All workers ran inline on the calling thread (the host has one
    /// usable CPU, or there is one worker): striped chunks for
    /// mergeable deployments, staged fanout batches otherwise.
    #[default]
    Serial,
    /// A dedicated ingress (the calling thread) fanned packets out to
    /// `workers` spawned worker threads over bounded rings.
    Pipelined {
        /// Worker OS threads spawned (= replica count).
        workers: usize,
    },
}

/// Aggregates per-worker stats into whole-replay numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    /// Packets processed across all workers.
    pub packets: u64,
    /// Recirculated packets across all workers.
    pub recirculated: u64,
    /// Dropped packets across all workers.
    pub dropped: u64,
    /// Wall-clock time of the replay (fanout planning to last join).
    pub elapsed: Duration,
    /// How the workers were scheduled onto OS threads.
    pub mode: ReplayMode,
    /// [`WorkerStats::imbalance_ratio`] of *this* replay's per-worker
    /// packet counts (not the cumulative counters). `0.0` before any
    /// replay ran.
    pub imbalance: f64,
}

impl ReplayStats {
    /// Whole-replay throughput in packets per second.
    pub fn packets_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.packets as f64 / secs
        } else {
            0.0
        }
    }

    /// Folds a worker report into the aggregate.
    pub fn absorb(&mut self, w: &WorkerStats) {
        self.packets += w.packets;
        self.recirculated += w.recirculated;
        self.dropped += w.dropped;
    }
}

/// Usable CPUs on this host (≥ 1).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs one batch through `fm`, folding the report into `report` and
/// clearing `buf` for reuse. The timer brackets only the pipeline work —
/// see [`WorkerStats::busy`].
fn flush_batch(fm: &mut FlyMon, report: &mut WorkerStats, buf: &mut Vec<Packet>) {
    if buf.is_empty() {
        return;
    }
    let begun = Instant::now();
    let b = fm.process_batch(buf);
    report.busy += begun.elapsed();
    report.packets += b.packets;
    report.recirculated += b.recirculated;
    buf.clear();
}

/// Inline fallback for mergeable deployments: stripe the trace over the
/// replicas in [`STRIPE_CHUNK`]-packet chunks, round-robin. No per-packet
/// hashing, no copies — chunk `c` is sliced straight out of the shared
/// trace into replica `c % n`'s batch path. Merge laws reconstruct the
/// serial registers from *any* disjoint partition, so the chunk→replica
/// map is free to ignore flows entirely.
fn replay_inline_striped(replicas: &mut [FlyMon], trace: &[Packet]) -> Vec<WorkerStats> {
    let n = replicas.len();
    let mut reports: Vec<WorkerStats> = (0..n)
        .map(|worker| WorkerStats {
            worker,
            ..WorkerStats::default()
        })
        .collect();
    for (c, chunk) in trace.chunks(STRIPE_CHUNK).enumerate() {
        let w = c % n;
        let begun = Instant::now();
        let b = replicas[w].process_batch(chunk);
        reports[w].busy += begun.elapsed();
        reports[w].packets += b.packets;
        reports[w].recirculated += b.recirculated;
    }
    reports
}

/// Inline fallback for routed replays (flow-affine deployments, fleets
/// with failover/drops): one pass over the trace on the calling thread,
/// staging each packet into its worker's buffer and flushing full
/// buffers through that replica's batch path. A single trace walk —
/// unlike the retired claim-chunk model, which scanned the whole trace
/// once *per worker* and hashed every packet `workers` times.
fn replay_inline_staged<A>(
    replicas: &mut [FlyMon],
    trace: &[Packet],
    assign: &mut A,
) -> Vec<WorkerStats>
where
    A: FnMut(&Packet) -> Assignment,
{
    let n = replicas.len();
    let mut reports: Vec<WorkerStats> = (0..n)
        .map(|worker| WorkerStats {
            worker,
            ..WorkerStats::default()
        })
        .collect();
    let mut bufs: Vec<Vec<Packet>> = (0..n).map(|_| Vec::with_capacity(PIPELINE_BATCH)).collect();
    for p in trace {
        let a = assign(p);
        match a.to {
            None => reports[a.ingress].dropped += 1,
            Some(w) => {
                bufs[w].push(*p);
                if bufs[w].len() == PIPELINE_BATCH {
                    flush_batch(&mut replicas[w], &mut reports[w], &mut bufs[w]);
                }
            }
        }
    }
    for w in 0..n {
        flush_batch(&mut replicas[w], &mut reports[w], &mut bufs[w]);
    }
    reports
}

/// The real parallel path: the calling thread becomes the ingress,
/// walking the trace once and fanning batches out into per-worker
/// bounded rings; each spawned worker owns one replica, drains its ring
/// through the stage-major batch path, and sends cleared buffers back
/// on an unbounded recycle channel so steady state allocates nothing.
///
/// Backpressure is the ring bound itself: `sync_channel(RING_DEPTH)`
/// blocks the ingress when a worker falls behind. Drops are decided and
/// counted at the ingress (`to: None` → the ingress worker's `dropped`),
/// so workers never see a packet they don't process.
///
/// Workers are pinned to distinct cores only when the host has enough
/// for all of them *plus* the ingress; the ingress itself is never
/// pinned — it runs on the caller's thread, and narrowing its affinity
/// would leak past the replay.
fn replay_pipelined<A>(replicas: &mut [FlyMon], trace: &[Packet], assign: &mut A) -> Vec<WorkerStats>
where
    A: FnMut(&Packet) -> Assignment,
{
    let n = replicas.len();
    let cores = host_parallelism();
    let pin = cores > n;
    std::thread::scope(|scope| {
        let mut rings = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (w, fm) in replicas.iter_mut().enumerate() {
            let (data_tx, data_rx) = mpsc::sync_channel::<Vec<Packet>>(RING_DEPTH);
            let (recycle_tx, recycle_rx) = mpsc::channel::<Vec<Packet>>();
            rings.push((data_tx, recycle_rx));
            handles.push(scope.spawn(move || {
                if pin {
                    // Core 0 is left to the ingress; worker w takes w+1.
                    let _ = flymon_rmt::affinity::pin_current_thread((w + 1) % cores);
                }
                let mut report = WorkerStats {
                    worker: w,
                    ..WorkerStats::default()
                };
                while let Ok(mut batch) = data_rx.recv() {
                    let begun = Instant::now();
                    let b = fm.process_batch(&batch);
                    report.busy += begun.elapsed();
                    report.packets += b.packets;
                    report.recirculated += b.recirculated;
                    batch.clear();
                    // The ingress may already be gone (tail flush); a
                    // dead recycle channel just means fresh allocations.
                    let _ = recycle_tx.send(batch);
                }
                report
            }));
        }

        // Ingress: one walk over the shared trace on the calling thread.
        let mut bufs: Vec<Vec<Packet>> =
            (0..n).map(|_| Vec::with_capacity(PIPELINE_BATCH)).collect();
        let mut dropped = vec![0u64; n];
        for p in trace {
            let a = assign(p);
            match a.to {
                None => dropped[a.ingress] += 1,
                Some(w) => {
                    bufs[w].push(*p);
                    if bufs[w].len() == PIPELINE_BATCH {
                        let fresh = rings[w]
                            .1
                            .try_recv()
                            .unwrap_or_else(|_| Vec::with_capacity(PIPELINE_BATCH));
                        let full = std::mem::replace(&mut bufs[w], fresh);
                        // Blocking send on a full ring = backpressure.
                        rings[w].0.send(full).expect("datapath worker hung up");
                    }
                }
            }
        }
        for (w, buf) in bufs.into_iter().enumerate() {
            if !buf.is_empty() {
                rings[w].0.send(buf).expect("datapath worker hung up");
            }
        }
        // Closing the data channels is the workers' shutdown signal.
        drop(rings);

        let mut reports: Vec<WorkerStats> = handles
            .into_iter()
            .map(|h| h.join().expect("datapath worker panicked"))
            .collect();
        for (w, d) in dropped.into_iter().enumerate() {
            reports[w].dropped = d;
        }
        reports
    })
}

/// Parallel replay entry point shared by
/// [`ShardedDatapath::process_trace`] and
/// [`SwitchFleet::process_trace_parallel`](crate::SwitchFleet::process_trace_parallel):
/// both reduce parallel replay to "disjoint packet sets on disjoint
/// [`FlyMon`] instances", which needs no locking at all.
///
/// `assign` routes a packet (run only on the ingress/calling thread, so
/// `FnMut` with captured state is fine); a `to: None` assignment drops
/// the packet, attributed to its `ingress` worker. `can_stripe` declares
/// that *any* disjoint partition reconstructs under the deployment's
/// merge law (no flow affinity, no routing side effects) — it unlocks
/// the zero-hash striped fallback on hosts without real parallelism and
/// is ignored otherwise. `parallelism` overrides the detected CPU count
/// (`None` = ask the host): `Some(1)` forces the inline path, `Some(≥2)`
/// forces the pipelined path even on a 1-CPU host (CI exercises the
/// threaded machinery this way).
///
/// One [`WorkerStats`] report is produced per worker — including idle
/// ones — and merged into the cumulative `stats` rows; the returned
/// aggregate carries this replay's own mode, wall-clock and
/// [`ReplayStats::imbalance`].
pub(crate) fn replay_pipeline<A>(
    replicas: &mut [FlyMon],
    trace: &[Packet],
    mut assign: A,
    can_stripe: bool,
    parallelism: Option<usize>,
    stats: &mut Vec<WorkerStats>,
) -> ReplayStats
where
    A: FnMut(&Packet) -> Assignment,
{
    let n = replicas.len();
    let cpus = parallelism.unwrap_or_else(host_parallelism);
    let started = Instant::now();
    let (mode, reports) = if n == 1 || cpus <= 1 {
        let reports = if can_stripe {
            replay_inline_striped(replicas, trace)
        } else {
            replay_inline_staged(replicas, trace, &mut assign)
        };
        (ReplayMode::Serial, reports)
    } else {
        let reports = replay_pipelined(replicas, trace, &mut assign);
        (ReplayMode::Pipelined { workers: n }, reports)
    };
    let mut total = ReplayStats {
        elapsed: started.elapsed(),
        mode,
        imbalance: WorkerStats::imbalance_ratio(&reports),
        ..ReplayStats::default()
    };
    for report in reports {
        total.absorb(&report);
        match stats.iter_mut().find(|s| s.worker == report.worker) {
            Some(s) => {
                s.packets += report.packets;
                s.recirculated += report.recirculated;
                s.dropped += report.dropped;
                s.busy += report.busy;
            }
            None => stats.push(report),
        }
    }
    stats.sort_by_key(|s| s.worker);
    total
}

/// Count-min estimate of `pkt`'s flow merged across `members` (the
/// alive switches of a fleet, the replicas of a sharded datapath): per
/// row, the one bucket the flow hashes to is read from every member and
/// summed, clamped at the row's cell ceiling as Cond-ADD saturates it;
/// the estimate is the minimum over the rows. The bucket is located
/// through the first member — deployments are deterministic, so every
/// member shares its layout. A query costs rows × members bucket
/// reads, and is bit-identical to merging whole rows and indexing the
/// result: the clamped fold of single buckets is what the row merge
/// computes at that index.
pub(crate) fn merged_point_frequency<'a>(
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
    let (locator, locator_h) = members.clone().next().ok_or_else(|| {
        FlymonError::NoCapacity("every switch in the fleet has failed".into())
    })?;
    let mut best = u64::MAX;
    let mut scratch = flymon_rmt::hash::HashScratch::default();
    for row in 0..d {
        let cap = locator
            .task(locator_h)?
            .rows
            .get(row)
            .map_or(u32::MAX, |r| r.bucket_max);
        let idx = locator.locate_with(locator_h, row, pkt, &mut scratch)?;
        let mut sum = locator.row_view(locator_h, row)?[idx];
        for (fm, h) in members.clone().skip(1) {
            sum = MergeLaw::Sum.combine(sum, fm.row_view(h, row)?[idx], cap);
        }
        best = best.min(u64::from(sum));
    }
    Ok(best)
}

/// A sharded, multi-threaded datapath for **one logical switch**: a set
/// of per-worker [`FlyMon`] replicas that together replay a trace and
/// answer queries as if a single switch had processed it serially.
#[derive(Debug)]
pub struct ShardedDatapath {
    replicas: Vec<FlyMon>,
    handles: Vec<TaskHandle>,
    algorithm: Algorithm,
    stats: Vec<WorkerStats>,
    last_replay: ReplayStats,
    parallelism: Option<usize>,
}

impl ShardedDatapath {
    /// Builds `workers` replicas of a switch with `config` and deploys
    /// `task` on each. Deployment is deterministic, so the replicas end
    /// up with identical layouts — the precondition for exact merging.
    pub fn deploy(
        workers: usize,
        config: FlyMonConfig,
        task: &TaskDefinition,
    ) -> Result<Self, FlymonError> {
        if workers == 0 {
            return Err(FlymonError::BadTask(
                "a sharded datapath needs at least one worker".into(),
            ));
        }
        let mut replicas = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut algorithm = None;
        for _ in 0..workers {
            let mut fm = FlyMon::new(config);
            let h = fm.deploy(task)?;
            algorithm = Some(fm.task(h)?.algorithm);
            replicas.push(fm);
            handles.push(h);
        }
        Ok(ShardedDatapath {
            replicas,
            handles,
            algorithm: algorithm.expect("workers > 0"),
            stats: Vec::new(),
            last_replay: ReplayStats::default(),
            parallelism: None,
        })
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.replicas.len()
    }

    /// Overrides the CPU count the replay scheduler sees (`None` = ask
    /// the host, the default). `Some(1)` forces the inline serial path;
    /// `Some(≥2)` forces the pipelined ingress/worker path even on a
    /// single-CPU host — how CI exercises the threaded machinery on
    /// 1-CPU runners. Purely a scheduling knob: claims, merge laws and
    /// per-replica state are identical either way.
    pub fn set_parallelism_hint(&mut self, cpus: Option<usize>) {
        self.parallelism = cpus;
    }

    /// Cumulative per-worker throughput counters.
    pub fn worker_stats(&self) -> &[WorkerStats] {
        &self.stats
    }

    /// Stats of the most recent [`ShardedDatapath::process_trace`] call.
    pub fn last_replay(&self) -> ReplayStats {
        self.last_replay
    }

    /// One replica and its task handle (diagnostics, per-shard queries).
    pub fn replica(&self, worker: usize) -> (&FlyMon, TaskHandle) {
        (&self.replicas[worker], self.handles[worker])
    }

    /// Whether the deployed algorithm's register semantics require all
    /// packets of a flow to visit the same replica. Max-inter-arrival
    /// differences consecutive timestamps of a flow inside one register;
    /// splitting a flow across replicas would fabricate intervals no
    /// serial switch ever saw. Every other deployed algorithm
    /// reconstructs under its merge law from any disjoint partition.
    fn affinity_required(&self) -> bool {
        matches!(self.algorithm, Algorithm::MaxInterval { .. })
    }

    /// Builds the slot→worker fanout table for `trace`.
    ///
    /// Flow-affine deployments get the static `slot % workers` map —
    /// stable across calls, so a flow observed in two replays still
    /// lands on the same replica. Mergeable deployments get a
    /// *rebalanced* table: one profiling pass weighs each slot by its
    /// packet count, then slots are assigned longest-processing-time
    /// first, each to the least-loaded worker. With [`FANOUT_SLOTS`]
    /// fine-grained units the worst worker exceeds the ideal share by
    /// at most one mid-sized slot, which holds the packet imbalance
    /// under ~1.2× even on zipf-skewed traffic (the naive `hash % n`
    /// split measured 2.7× — see DESIGN.md).
    fn fanout_table(&self, trace: &[Packet]) -> Vec<usize> {
        let n = self.replicas.len();
        if self.affinity_required() {
            return (0..FANOUT_SLOTS).map(|s| s % n).collect();
        }
        let mut weight = [0u64; FANOUT_SLOTS];
        for p in trace {
            weight[slot_of(p)] += 1;
        }
        let mut order: Vec<usize> = (0..FANOUT_SLOTS).collect();
        order.sort_by_key(|&s| (std::cmp::Reverse(weight[s]), s));
        let mut load = vec![0u64; n];
        let mut table = vec![0usize; FANOUT_SLOTS];
        for s in order {
            // Deterministic tie-break on the worker index keeps the
            // table — and therefore every replay — reproducible.
            let w = (0..n).min_by_key(|&w| (load[w], w)).expect("workers > 0");
            table[s] = w;
            load[w] += weight[s];
        }
        table
    }

    /// Replays `trace` through the ingress/worker pipeline (or its
    /// inline fallback on hosts without real parallelism — see
    /// [`ReplayMode`]). Returns the aggregate stats; per-worker counters
    /// accumulate in [`ShardedDatapath::worker_stats`].
    pub fn process_trace(&mut self, trace: &[Packet]) -> ReplayStats {
        let n = self.replicas.len();
        let can_stripe = !self.affinity_required();
        let cpus = self.parallelism.unwrap_or_else(host_parallelism);
        let begun = Instant::now();
        // The striped inline path never consults the assignment, so
        // skip the fanout profiling pass (and its table) entirely when
        // replay_pipeline will take it — same predicate as there.
        let table = if can_stripe && (n == 1 || cpus <= 1) {
            Vec::new()
        } else {
            self.fanout_table(trace)
        };
        let mut total = replay_pipeline(
            &mut self.replicas,
            trace,
            |p| {
                let w = table[slot_of(p)];
                Assignment {
                    ingress: w,
                    to: Some(w),
                }
            },
            can_stripe,
            self.parallelism,
            &mut self.stats,
        );
        // Charge the fanout profiling pass to the replay it served.
        total.elapsed = begun.elapsed();
        self.last_replay = total;
        total
    }

    /// Per-bucket merged readout of one row across the replicas: the
    /// first replica's row is copied once, then every further replica's
    /// *borrowed* row folds in through the lane-vectorized
    /// [`MergeLaw::combine_rows`] kernel — no per-replica row copies,
    /// no per-element closure dispatch.
    fn merged_row_with(&self, row: usize, law: MergeLaw, cap: u32) -> Result<Vec<u32>, FlymonError> {
        let mut acc = self.replicas[0].read_row(self.handles[0], row)?;
        for (fm, h) in self.replicas.iter().zip(&self.handles).skip(1) {
            law.combine_rows(&mut acc, fm.row_view(*h, row)?, cap);
        }
        Ok(acc)
    }

    /// The hosting register's cell ceiling for `row`. Cond-ADD saturates
    /// there (its `p2` threshold, the Appendix D overflow guard), so a
    /// summed merge must clamp to it too — otherwise a bucket that
    /// saturated in the serial replay reads higher in the merged one.
    fn row_cap(&self, row: usize) -> u32 {
        self.replicas[0]
            .task(self.handles[0])
            .ok()
            .and_then(|t| t.rows.get(row))
            .map_or(u32::MAX, |r| r.bucket_max)
    }

    /// One row's merged register, per the deployed algorithm's merge law
    /// (cap-clamped sum for counter rows, max for MAX-op rows, OR for
    /// bitmap rows). For sum/max/OR-law algorithms this is bit-identical
    /// to the row a serial replay of the same trace would have produced;
    /// for [`Algorithm::MaxInterval`] it is only an approximation (the
    /// arrival-time state is not mergeable — see DESIGN.md).
    pub fn merged_row(&self, row: usize) -> Result<Vec<u32>, FlymonError> {
        let law = MergeLaw::of(self.algorithm)?;
        let cap = match law {
            MergeLaw::Sum => self.row_cap(row),
            MergeLaw::Max | MergeLaw::Or => u32::MAX,
        };
        self.merged_row_with(row, law, cap)
    }

    /// Merged frequency estimate: per-bucket sums, then the row-wise
    /// minimum — identical to the serial estimate by linearity.
    pub fn merged_frequency(&self, pkt: &Packet) -> Result<u64, FlymonError> {
        merged_point_frequency(
            self.algorithm,
            self.replicas.iter().zip(self.handles.iter().copied()),
            pkt,
        )
    }

    /// Merged cardinality estimate: HLL registers merge by max.
    pub fn merged_cardinality(&self) -> Result<f64, FlymonError> {
        if !matches!(self.algorithm, Algorithm::Hll) {
            return Err(FlymonError::BadTask(
                "merged cardinality needs an HLL task".into(),
            ));
        }
        let merged = self.merged_row_with(0, MergeLaw::Max, u32::MAX)?;
        let regs: Vec<u8> = merged.into_iter().map(|v| v.min(255) as u8).collect();
        Ok(estimate_from_registers(&regs))
    }

    /// Merged existence check: a key inserted anywhere was inserted on
    /// exactly one replica, so union membership is the OR of the
    /// per-replica checks.
    pub fn merged_exists(&self, pkt: &Packet) -> Result<bool, FlymonError> {
        if !matches!(self.algorithm, Algorithm::Bloom { .. }) {
            return Err(FlymonError::BadTask(
                "merged existence needs a Bloom task".into(),
            ));
        }
        Ok(self
            .replicas
            .iter()
            .zip(&self.handles)
            .any(|(fm, h)| fm.query_exists(*h, pkt)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon_packet::KeySpec;

    fn config() -> FlyMonConfig {
        FlyMonConfig {
            groups: 2,
            buckets_per_cmu: 4096,
            ..FlyMonConfig::default()
        }
    }

    fn cms_def(d: usize) -> TaskDefinition {
        TaskDefinition::builder("f")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d })
            .memory(1024)
            .build()
    }

    #[test]
    fn shard_of_matches_the_generic_byte_slice_hash() {
        // The mapping is frozen: the single-word murmur3 path and the
        // 32-bit modulus must pick the shard the generic byte-slice
        // function and a `usize` modulus pick, for every address.
        use flymon_packet::SplitMix64;
        use flymon_rmt::hash::murmur3_32;
        let mut rng = SplitMix64::new(0x5a4d);
        for i in 0..1_050_000u32 {
            // Seeded addresses, plus a run of sequential ones.
            let ip = if i < 1_000_000 { rng.next_u32() } else { i };
            let pkt = Packet::udp(ip, 1, 2, 3);
            let generic = fmix32(murmur3_32(INGRESS_HASH_SEED, &ip.to_be_bytes())) as usize;
            for n in 1..=8 {
                assert_eq!(shard_of(&pkt, n), generic % n, "ip {ip:#x} n {n}");
            }
            assert_eq!(slot_of(&pkt), generic & (FANOUT_SLOTS - 1));
        }
    }

    #[test]
    fn sharding_covers_and_preserves_order() {
        let trace: Vec<Packet> = (0..1000u32).map(|i| Packet::tcp(i % 37, i, 1, 2)).collect();
        let shards = shard_trace(&trace, 4);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), trace.len());
        for (s, shard) in shards.iter().enumerate() {
            // Every packet landed on its hash shard…
            assert!(shard.iter().all(|p| shard_of(p, 4) == s));
            // …and same-source packets keep their relative order.
            let mut per_src: std::collections::HashMap<u32, Vec<u64>> = Default::default();
            for p in shard {
                per_src.entry(p.src_ip).or_default().push(p.ts_ns);
            }
            for seq in per_src.values() {
                assert!(seq.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn zero_worker_datapath_is_refused() {
        let def = TaskDefinition::builder("f")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .memory(256)
            .build();
        assert!(ShardedDatapath::deploy(0, config(), &def).is_err());
    }

    #[test]
    fn lpt_fanout_balances_skewed_slots() {
        // A deliberately skewed trace: source i contributes i+1 packets,
        // so slot weights span two orders of magnitude. The rebalanced
        // table must still split packets within 1.2× worst/best, where
        // the naive `hash % n` split has no such guarantee.
        let mut trace = Vec::new();
        for i in 0..256u32 {
            for _ in 0..=i {
                trace.push(Packet::tcp(i, 1, 2, 3));
            }
        }
        let dp = ShardedDatapath::deploy(3, config(), &cms_def(2)).unwrap();
        let table = dp.fanout_table(&trace);
        assert_eq!(table.len(), FANOUT_SLOTS);
        let mut load = [0u64; 3];
        for p in &trace {
            load[table[slot_of(p)]] += 1;
        }
        let max = *load.iter().max().unwrap() as f64;
        let min = *load.iter().min().unwrap() as f64;
        assert!(min > 0.0, "a worker was starved: {load:?}");
        assert!(
            max / min < 1.2,
            "rebalanced fanout too skewed: {load:?} ({:.3}×)",
            max / min
        );
    }

    #[test]
    fn affine_fanout_is_static_and_flow_stable() {
        // Max-inter-arrival must keep each flow on one replica across
        // calls, so its table ignores traffic entirely: slot % workers.
        let def = TaskDefinition::builder("gap")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
            .memory(1024)
            .build();
        let cfg = FlyMonConfig {
            groups: 3,
            buckets_per_cmu: 1024,
            bucket_bits: 32,
            ..FlyMonConfig::default()
        };
        let dp = ShardedDatapath::deploy(2, cfg, &def).unwrap();
        assert!(dp.affinity_required());
        let trace: Vec<Packet> = (0..100u32).map(|i| Packet::tcp(i, 1, 2, 3)).collect();
        let table = dp.fanout_table(&trace);
        for (s, &w) in table.iter().enumerate() {
            assert_eq!(w, s % 2);
        }
    }

    #[test]
    fn pipelined_replay_matches_inline_and_balances() {
        // Force the threaded ingress/worker path (even on a 1-CPU CI
        // host) and pin it against the inline path and a solo serial
        // switch: identical merged rows, full coverage, bounded
        // imbalance.
        let d = 2;
        let def = cms_def(d);
        let trace: Vec<Packet> = (0..50_000u32)
            .map(|i| Packet::tcp(i.wrapping_mul(0x9e37_79b9) % 1000, i, 1, 2))
            .collect();

        let mut solo = FlyMon::new(config());
        let h = solo.deploy(&def).unwrap();
        solo.process_trace(&trace);

        let mut inline = ShardedDatapath::deploy(3, config(), &def).unwrap();
        inline.set_parallelism_hint(Some(1));
        let it = inline.process_trace(&trace);
        assert_eq!(it.mode, ReplayMode::Serial);
        assert_eq!(it.packets as usize, trace.len());

        let mut piped = ShardedDatapath::deploy(3, config(), &def).unwrap();
        piped.set_parallelism_hint(Some(4));
        let pt = piped.process_trace(&trace);
        assert_eq!(pt.mode, ReplayMode::Pipelined { workers: 3 });
        assert_eq!(pt.packets as usize, trace.len(), "every packet delivered");
        assert_eq!(pt.dropped, 0);
        assert!(
            pt.imbalance < 1.2,
            "rebalanced fanout exceeded 1.2× ({:.3}×)",
            pt.imbalance
        );
        for row in 0..d {
            let want = solo.read_row(h, row).unwrap();
            assert_eq!(inline.merged_row(row).unwrap(), want, "inline row {row}");
            assert_eq!(piped.merged_row(row).unwrap(), want, "pipelined row {row}");
        }
    }

    #[test]
    fn pipelined_drops_are_attributed_at_the_ingress() {
        // The `to: None` path (dead fleet switches) through the
        // threaded pipeline: drops land on the assignment's ingress row
        // and the dropped packets reach no worker.
        let def = cms_def(1);
        let mut replicas: Vec<FlyMon> = (0..2)
            .map(|_| {
                let mut fm = FlyMon::new(config());
                fm.deploy(&def).unwrap();
                fm
            })
            .collect();
        let trace: Vec<Packet> = (0..3000u32).map(|i| Packet::tcp(i, 1, 2, 3)).collect();
        let mut stats = Vec::new();
        let total = replay_pipeline(
            &mut replicas,
            &trace,
            |p| {
                let w = shard_of(p, 2);
                Assignment {
                    ingress: w,
                    // Worker 1's traffic is all dropped at the ingress.
                    to: (w == 0).then_some(0),
                }
            },
            false,
            Some(2),
            &mut stats,
        );
        assert_eq!(total.mode, ReplayMode::Pipelined { workers: 2 });
        let shards = shard_trace(&trace, 2);
        assert_eq!(total.packets as usize, shards[0].len());
        assert_eq!(total.dropped as usize, shards[1].len());
        assert_eq!(stats.len(), 2, "idle workers still report");
        assert_eq!(stats[0].packets as usize, shards[0].len());
        assert_eq!(stats[0].dropped, 0);
        assert_eq!(stats[1].packets, 0);
        assert_eq!(stats[1].dropped as usize, shards[1].len());
    }

    #[test]
    fn affine_replay_keeps_flows_on_one_replica_across_calls() {
        // Strongest witness for flow affinity: replica w's registers
        // must be bit-identical to a solo switch fed exactly the flows
        // the static table maps to w — across *two* replays, which a
        // traffic-rebalanced table would shuffle.
        let def = TaskDefinition::builder("gap")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
            .memory(1024)
            .build();
        let cfg = FlyMonConfig {
            groups: 3,
            buckets_per_cmu: 1024,
            bucket_bits: 32,
            ..FlyMonConfig::default()
        };
        let mut trace = Vec::new();
        for round in 0..40u64 {
            for i in 0..200u32 {
                let mut p = Packet::tcp(i, 1, 2, 3);
                p.ts_ns = round * 1_000_000 + u64::from(i) * 900;
                trace.push(p);
            }
        }
        let n = 2;
        for hint in [Some(1), Some(4)] {
            let mut dp = ShardedDatapath::deploy(n, cfg, &def).unwrap();
            dp.set_parallelism_hint(hint);
            dp.process_trace(&trace);
            dp.process_trace(&trace);
            for w in 0..n {
                let sub: Vec<Packet> = trace
                    .iter()
                    .filter(|p| slot_of(p) % n == w)
                    .copied()
                    .collect();
                let mut solo = FlyMon::new(cfg);
                let h = solo.deploy(&def).unwrap();
                solo.process_trace(&sub);
                solo.process_trace(&sub);
                let (replica, rh) = dp.replica(w);
                for row in 0..3 {
                    assert_eq!(
                        replica.read_row(rh, row).unwrap(),
                        solo.read_row(h, row).unwrap(),
                        "worker {w} row {row} diverged (hint {hint:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_mode_matches_available_parallelism() {
        let def = cms_def(1);
        let trace: Vec<Packet> = (0..200u32).map(|i| Packet::tcp(i, 1, 2, 3)).collect();
        let cpus = host_parallelism();

        // One worker never spawns, whatever the host offers.
        let mut dp = ShardedDatapath::deploy(1, config(), &def).unwrap();
        assert_eq!(dp.process_trace(&trace).mode, ReplayMode::Serial);

        // Four workers: inline on a 1-CPU host, else the full pipeline.
        let mut dp = ShardedDatapath::deploy(4, config(), &def).unwrap();
        let total = dp.process_trace(&trace);
        assert_eq!(total.packets, 200, "scheduling must not change claims");
        match total.mode {
            ReplayMode::Serial => assert_eq!(cpus, 1),
            ReplayMode::Pipelined { workers } => {
                assert!(cpus > 1);
                assert_eq!(workers, 4);
            }
        }
        assert_eq!(dp.last_replay().mode, total.mode);

        // The hint overrides the host in both directions.
        dp.set_parallelism_hint(Some(1));
        assert_eq!(dp.process_trace(&trace).mode, ReplayMode::Serial);
        dp.set_parallelism_hint(Some(2));
        assert_eq!(
            dp.process_trace(&trace).mode,
            ReplayMode::Pipelined { workers: 4 }
        );
    }

    #[test]
    fn worker_stats_accumulate() {
        let def = TaskDefinition::builder("f")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .memory(256)
            .build();
        let mut dp = ShardedDatapath::deploy(2, config(), &def).unwrap();
        let trace: Vec<Packet> = (0..500u32).map(|i| Packet::tcp(i, 1, 2, 3)).collect();
        let total = dp.process_trace(&trace);
        assert_eq!(total.packets, 500);
        assert_eq!(total.dropped, 0);
        let per_worker: u64 = dp.worker_stats().iter().map(|s| s.packets).sum();
        assert_eq!(per_worker, 500);
        // A second replay accumulates rather than resets.
        dp.process_trace(&trace);
        let per_worker: u64 = dp.worker_stats().iter().map(|s| s.packets).sum();
        assert_eq!(per_worker, 1000);
    }

    #[test]
    fn imbalance_ratio_edge_cases() {
        let w = |worker, packets| WorkerStats {
            worker,
            packets,
            ..WorkerStats::default()
        };
        assert_eq!(WorkerStats::imbalance_ratio(&[]), 1.0);
        assert_eq!(WorkerStats::imbalance_ratio(&[w(0, 0), w(1, 0)]), 1.0);
        assert_eq!(
            WorkerStats::imbalance_ratio(&[w(0, 5), w(1, 0)]),
            f64::INFINITY
        );
        assert_eq!(WorkerStats::imbalance_ratio(&[w(0, 10), w(1, 8)]), 1.25);
    }
}
