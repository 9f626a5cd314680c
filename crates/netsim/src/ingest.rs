//! Supervised streaming ingestion: bounded queues, backpressure, load
//! shedding, epoch rotation and worker supervision over a
//! [`SwitchFleet`].
//!
//! The rest of the crate replays whole traces out of RAM; this module is
//! the runtime that lets the fleet measure an *unbounded* stream in
//! bounded memory, and keep measuring while the stream misbehaves.
//! A [`ChunkSource`] (a chunked trace reader, or the constant-memory
//! [`PhasedSource`] generator) feeds a bounded SPSC queue; an admission
//! controller walks a three-rung degradation ladder as the queue fills;
//! an epoch rotator archives and clears the fleet's registers under
//! continuous traffic; and a supervisor isolates worker panics with
//! `catch_unwind`, quarantines the poisoned replica, and respawns it
//! from the warm-standby checkpoint + WAL path.
//!
//! # The degradation ladder
//!
//! 1. **Block** — below the high watermark everything is admitted; when
//!    the queue is full the producer blocks: the unadmitted remainder
//!    waits in a bounded backlog and no new chunk is pulled (explicit
//!    backpressure, observable as [`RuntimeStats::blocked_steps`]).
//! 2. **Probabilistic shed** — at or above the high watermark each
//!    arriving packet is shed with a seeded coin (probability 0.5).
//! 3. **Priority shed** — at or above the critical watermark only
//!    packets matching the high-priority task filter are admitted;
//!    everything else is shed.
//!
//! Every shed packet is accounted: the streaming ledger
//! ([`StreamingRuntime::ledger`]) extends the fleet's conservation
//! invariant to `fed == represented + shed + lost + dropped +
//! in_flight`, which collapses to the quiescent form
//! `fed == represented + shed + lost + dropped` once the queues drain.
//!
//! # Health
//!
//! The runtime surfaces a [`RuntimeHealth`] state machine:
//! `Healthy` (ladder rung 0, nothing pending), `Degraded` (backpressure
//! is blocking the producer), `Shedding` (rungs 2–3 active), and
//! `Recovering` (a worker panicked; the replica is quarantined until a
//! standby respawn and a fresh sync barrier land). All counters feeding
//! the state machine are exported through [`RuntimeStats`] for the
//! streaming bench.
//!
//! # Determinism
//!
//! Everything here is modeled, single-threaded and seed-deterministic —
//! queue stalls, slow consumers, bursts and worker panics are injected
//! at chunk boundaries ([`IngestFault`]), so any failing stream script
//! replays exactly from its seed. A panic is injected
//! *before* the batch mutates fleet state (the poison scribbles
//! registers through the fleet's crate-private `scribble` instead),
//! which is what makes checkpoint respawn bit-exact: the interrupted
//! batch is still in the queue and is simply retried after recovery.
//!
//! [`PhasedSource`]: flymon_traffic::gen::PhasedSource

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use flymon::FlymonError;
use flymon_packet::{Packet, SplitMix64, TaskFilter};
use flymon_traffic::gen::{PhasedSource, ShiftingSource};

use crate::adapt::{AdaptiveController, ControllerReport};
use crate::fleet::{FleetEpoch, SwitchFleet};

/// A producer of packet chunks: the streaming runtime pulls one chunk
/// per step (when its backlog is clear) instead of loading a trace.
pub trait ChunkSource {
    /// The next chunk, or `None` when the stream is exhausted.
    fn next_chunk(&mut self) -> Option<Vec<Packet>>;
}

impl ChunkSource for PhasedSource {
    fn next_chunk(&mut self) -> Option<Vec<Packet>> {
        PhasedSource::next_chunk(self)
    }
}

impl ChunkSource for ShiftingSource {
    fn next_chunk(&mut self) -> Option<Vec<Packet>> {
        ShiftingSource::next_chunk(self)
    }
}

/// A chunked reader over an in-memory trace — the adapter that lets
/// recorded traces flow through the same bounded-queue path as live
/// generators.
#[derive(Debug)]
pub struct TraceChunks {
    trace: Vec<Packet>,
    pos: usize,
    chunk: usize,
}

impl TraceChunks {
    /// Reads `trace` in chunks of `chunk` packets.
    pub fn new(trace: Vec<Packet>, chunk: usize) -> Self {
        TraceChunks {
            trace,
            pos: 0,
            chunk: chunk.max(1),
        }
    }
}

impl ChunkSource for TraceChunks {
    fn next_chunk(&mut self) -> Option<Vec<Packet>> {
        if self.pos >= self.trace.len() {
            return None;
        }
        let end = (self.pos + self.chunk).min(self.trace.len());
        let out = self.trace[self.pos..end].to_vec();
        self.pos = end;
        Some(out)
    }
}

/// Occupancy statistics of a [`BoundedQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Packets ever enqueued.
    pub enqueued: u64,
    /// Packets ever dequeued.
    pub dequeued: u64,
    /// Push attempts rejected because the queue was full.
    pub rejected: u64,
    /// The deepest the queue has ever been.
    pub high_watermark: usize,
}

/// The bounded SPSC ring between admission and the datapath worker.
///
/// Modeled as a `VecDeque` under the crate's `deny(unsafe_code)` —
/// the ring semantics (fixed capacity, reject-on-full, FIFO) are what
/// the backpressure model needs, not lock-free memory orderings.
#[derive(Debug)]
pub struct BoundedQueue {
    buf: VecDeque<Packet>,
    capacity: usize,
    stats: QueueStats,
}

impl BoundedQueue {
    /// An empty queue holding at most `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            stats: QueueStats::default(),
        }
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when another push would be rejected.
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.capacity
    }

    /// Fill fraction in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.buf.len() as f64 / self.capacity as f64
    }

    /// Enqueues `pkt`; `false` (and a rejection tick) when full.
    pub fn push(&mut self, pkt: Packet) -> bool {
        if self.is_full() {
            self.stats.rejected += 1;
            return false;
        }
        self.buf.push_back(pkt);
        self.stats.enqueued += 1;
        self.stats.high_watermark = self.stats.high_watermark.max(self.buf.len());
        true
    }

    /// Enqueues all of `pkts` with one bulk move, leaving it empty. The
    /// caller guarantees the room (`len() + pkts.len() <= capacity()`);
    /// statistics end as that many [`BoundedQueue::push`] calls leave
    /// them. An empty ring adopts `pkts`' buffer and hands its own
    /// (empty) one back, so no packet is copied; only a ring that still
    /// holds packets has `pkts` appended behind them.
    fn push_all(&mut self, pkts: &mut VecDeque<Packet>) {
        debug_assert!(self.buf.len() + pkts.len() <= self.capacity);
        self.stats.enqueued += pkts.len() as u64;
        if self.buf.is_empty() {
            std::mem::swap(&mut self.buf, pkts);
        } else {
            self.buf.append(pkts);
        }
        self.stats.high_watermark = self.stats.high_watermark.max(self.buf.len());
    }

    /// Dequeues up to `n` packets in FIFO order.
    pub fn pop_n(&mut self, n: usize) -> Vec<Packet> {
        let (head, tail) = self.front(n);
        let out = [head, tail].concat();
        self.discard(out.len());
        out
    }

    /// The oldest up-to-`n` packets in FIFO order, borrowed in place:
    /// the ring's storage wraps at most once, hence two slices (either
    /// may be empty). [`BoundedQueue::discard`] dequeues them.
    fn front(&self, n: usize) -> (&[Packet], &[Packet]) {
        let (head, tail) = self.buf.as_slices();
        let head = &head[..n.min(head.len())];
        let tail = &tail[..(n - head.len()).min(tail.len())];
        (head, tail)
    }

    /// Dequeues the oldest `n` packets (`n <= len()`) without copying
    /// them out.
    fn discard(&mut self, n: usize) {
        self.buf.drain(..n);
        self.stats.dequeued += n as u64;
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Queue occupancy at which probabilistic shedding starts, and at which
/// only priority traffic is admitted.
const HIGH_WATERMARK: f64 = 0.75;
const CRITICAL_WATERMARK: f64 = 0.90;
/// Per-packet shed probability between the watermarks.
const SHED_PROBABILITY: f64 = 0.5;
/// Zero-progress steps (packets queued, nothing drained or rotated)
/// tolerated before [`IngestError::Stalled`].
const MAX_IDLE_STEPS: usize = 64;
/// Zero-progress steps granted first while recovery waits only on a
/// control-channel retry: a fleet waiting on the channel is not stalled.
const CHANNEL_GRACE_STEPS: usize = 8;

/// The one choice the admission ladder leaves: what its top rung keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionConfig {
    /// The high-priority task's traffic filter; packets matching it are
    /// never priority-shed. `None` sheds indiscriminately at the
    /// critical rung.
    pub priority: Option<TaskFilter>,
}

/// What the admission ladder does with one arriving packet, decided by
/// the queue occupancy it arrives at (a full queue blocks before any
/// rung is consulted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Below the high watermark: admitted.
    Admit,
    /// At or above the high watermark: shed on a seeded coin.
    CoinShed,
    /// At or above the critical watermark: shed unless it matches the
    /// priority filter.
    PriorityShed,
}

/// The runtime's supervised health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeHealth {
    /// Ladder rung 0: everything offered is admitted promptly.
    #[default]
    Healthy,
    /// Backpressure is blocking the producer, but nothing is shed.
    Degraded,
    /// The admission ladder is shedding (probabilistic or priority).
    Shedding,
    /// A worker panicked; its replica is quarantined until the standby
    /// respawn and a fresh sync barrier complete.
    Recovering,
}

/// A deterministic ingestion fault, injected at chunk boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestFault {
    /// The consumer drains nothing for `steps` steps starting at
    /// `from_step` (1-based, inclusive).
    QueueStall {
        /// First affected step.
        from_step: u64,
        /// How many steps the stall lasts.
        steps: u64,
    },
    /// The consumer's drain budget is divided by `factor` for `steps`
    /// steps starting at `from_step`.
    SlowConsumer {
        /// First affected step.
        from_step: u64,
        /// How many steps the slowdown lasts.
        steps: u64,
        /// Budget divisor (>= 1).
        factor: usize,
    },
    /// At step `at_step` the worker scribbles switch `switch`'s
    /// registers (an un-admitted packet, via the diagnostic escape
    /// hatch) and panics before processing its batch. A `switch` past
    /// the fleet's end makes that step return an error instead.
    WorkerPanic {
        /// The step at which the panic fires.
        at_step: u64,
        /// The replica left poisoned.
        switch: usize,
    },
}

/// Errors surfaced by the streaming runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The pipeline made no progress for longer than 64 steps
    /// (`MAX_IDLE_STEPS`) with packets still queued — a
    /// stalled consumer that would otherwise hang the caller forever.
    Stalled {
        /// The step at which the stall was declared.
        step: u64,
        /// Packets stranded in the queue and backlog.
        queued: usize,
    },
    /// A control-plane operation (rotation, respawn) failed.
    Control(FlymonError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Stalled { step, queued } => write!(
                f,
                "ingestion stalled at step {step}: {queued} packets queued with no progress"
            ),
            IngestError::Control(e) => write!(f, "streaming control-plane failure: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<FlymonError> for IngestError {
    fn from(e: FlymonError) -> Self {
        IngestError::Control(e)
    }
}

/// WAL records per switch above which the sync barrier also runs
/// off-barrier compaction ([`SwitchFleet::maintain_wals`]: aborted-record
/// pruning plus a standby sync).
const WAL_THRESHOLD: usize = 256;

/// Shape of a [`StreamingRuntime`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Capacity of the bounded ingress queue, in packets.
    pub queue_capacity: usize,
    /// Packets the datapath worker drains per step at full speed.
    pub drain_chunk: usize,
    /// Bound on the producer-side backlog (the "blocked" remainder);
    /// overflow beyond it is tail-shed.
    pub backlog_limit: usize,
    /// The admission controller's ladder.
    pub admission: AdmissionConfig,
    /// Rotate the epoch after this many *processed* packets; 0 never
    /// rotates.
    pub epoch_packets: u64,
    /// Standby sync cadence in steps (1 = a barrier before every
    /// batch, which makes worker-panic respawn loss-free).
    pub sync_every_steps: u64,
    /// Seed of the admission controller's shed coin.
    pub seed: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queue_capacity: 8_192,
            drain_chunk: 2_048,
            backlog_limit: 16_384,
            admission: AdmissionConfig::default(),
            epoch_packets: 0,
            sync_every_steps: 1,
            seed: 0x57_12EA,
        }
    }
}

/// Counters exported by the runtime (the streaming bench reads these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Steps executed.
    pub steps: u64,
    /// Packets pulled from the source.
    pub offered: u64,
    /// Packets admitted into the queue.
    pub admitted: u64,
    /// Packets drained through the fleet.
    pub processed: u64,
    /// Packets shed by the probabilistic rung.
    pub shed_random: u64,
    /// Packets shed by the priority rung.
    pub shed_priority: u64,
    /// Packets tail-shed from an overflowing backlog.
    pub shed_overflow: u64,
    /// Steps on which backpressure blocked the producer.
    pub blocked_steps: u64,
    /// Standby syncs performed.
    pub syncs: u64,
    /// Epoch rotations performed.
    pub epochs_rotated: u64,
    /// Worker panics caught and supervised.
    pub panics_recovered: u64,
    /// Quarantined replicas respawned from the standby checkpoint.
    pub promotions: u64,
    /// Quarantined replicas revived fresh (no usable standby image).
    pub revives: u64,
    /// Steps on which a respawn stayed deferred because its control-
    /// channel command timed out (retried every step until it lands).
    pub respawns_deferred: u64,
    /// Health-state transitions.
    pub health_transitions: u64,
}

impl RuntimeStats {
    /// Total packets shed across all ladder rungs.
    pub fn shed(&self) -> u64 {
        self.shed_random + self.shed_priority + self.shed_overflow
    }
}

/// Where every packet the source ever offered currently stands.
///
/// The streaming extension of the fleet's [`crate::fleet::PacketLedger`]:
/// admission shedding adds the `shed` term, and packets sitting in the
/// queue/backlog are `in_flight`. Conservation —
/// `fed == represented + shed + lost + dropped + in_flight` — must hold
/// after every step; at quiescence `in_flight` is zero and the invariant
/// collapses to `fed == represented + shed + lost + dropped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamLedger {
    /// Packets ever pulled from the source.
    pub fed: u64,
    /// Packets waiting in the bounded queue or the blocked backlog.
    pub in_flight: u64,
    /// Packets represented in fleet registers or archived epoch
    /// readouts.
    pub represented: u64,
    /// Packets shed by the admission ladder.
    pub shed: u64,
    /// Packets lost to failures (revivals, promotion loss windows).
    pub lost: u64,
    /// Packets dropped by a fully dead fleet.
    pub dropped: u64,
}

impl StreamLedger {
    /// True when every offered packet is accounted for.
    pub fn conserved(&self) -> bool {
        self.fed == self.represented + self.shed + self.lost + self.dropped + self.in_flight
    }
}

/// What one [`StreamingRuntime::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepOutcome {
    /// Packets pulled from the source this step.
    pub pulled: usize,
    /// Packets admitted to the queue this step.
    pub admitted: usize,
    /// Packets shed this step.
    pub shed: usize,
    /// Packets drained through the fleet this step.
    pub drained: usize,
    /// Whether an epoch rotation happened.
    pub rotated: bool,
    /// Whether a worker panic was caught and supervised.
    pub recovered: bool,
    /// Whether the source reported exhaustion this step.
    pub source_dry: bool,
    /// Health after the step.
    pub health: RuntimeHealth,
}

/// Final report of a [`StreamingRuntime::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Counter snapshot.
    pub stats: RuntimeStats,
    /// The quiescent ledger (`in_flight` is zero after a full run).
    pub ledger: StreamLedger,
    /// Final health.
    pub health: RuntimeHealth,
    /// Queue statistics.
    pub queue: QueueStats,
}

/// A flow the runtime tracks across epoch rotations (readout
/// continuity: archived estimates accumulate as registers clear).
#[derive(Debug, Clone, Copy)]
struct WatchFlow {
    pkt: Packet,
    processed: u64,
    archived: u64,
}

fn same_flow(a: &Packet, b: &Packet) -> bool {
    a.src_ip == b.src_ip
        && a.dst_ip == b.dst_ip
        && a.src_port == b.src_port
        && a.dst_port == b.dst_port
        && a.protocol == b.protocol
}

/// The supervised streaming runtime: source → admission → bounded queue
/// → datapath worker → epoch rotator, under a health state machine.
#[derive(Debug)]
pub struct StreamingRuntime {
    fleet: SwitchFleet,
    cfg: IngestConfig,
    queue: BoundedQueue,
    backlog: VecDeque<Packet>,
    rng: SplitMix64,
    health: RuntimeHealth,
    stats: RuntimeStats,
    faults: Vec<IngestFault>,
    step: u64,
    processed_since_rotate: u64,
    idle_steps: usize,
    /// Set while a respawned replica awaits its first post-recovery
    /// sync barrier; holds the health machine in `Recovering`.
    resync_pending: bool,
    /// A quarantined replica whose respawn command timed out on the
    /// control channel; retried at the top of every step until it
    /// lands. Holds the health machine in `Recovering`.
    respawn_pending: Option<usize>,
    /// Consecutive steps the pending respawn has waited on the channel
    /// (compared against `CHANNEL_GRACE_STEPS`).
    channel_wait_steps: usize,
    watch: Option<WatchFlow>,
    last_epoch: Option<FleetEpoch>,
    /// The closed-loop adaptive controller, when attached; it observes
    /// every epoch rotation and reconfigures the fleet through the
    /// logged control plane — paused whenever health is off `Healthy`.
    controller: Option<AdaptiveController>,
}

impl StreamingRuntime {
    /// Wraps `fleet` (enabling its warm standby — supervision needs a
    /// checkpoint to respawn from) in a streaming runtime.
    pub fn new(mut fleet: SwitchFleet, cfg: IngestConfig) -> Self {
        fleet.enable_standby();
        let rng = SplitMix64::new(cfg.seed);
        let queue = BoundedQueue::new(cfg.queue_capacity);
        StreamingRuntime {
            fleet,
            cfg,
            queue,
            backlog: VecDeque::new(),
            rng,
            health: RuntimeHealth::Healthy,
            stats: RuntimeStats::default(),
            faults: Vec::new(),
            step: 0,
            processed_since_rotate: 0,
            idle_steps: 0,
            resync_pending: false,
            respawn_pending: None,
            channel_wait_steps: 0,
            watch: None,
            last_epoch: None,
            controller: None,
        }
    }

    /// Attaches a closed-loop adaptive controller: from now on every
    /// epoch rotation feeds it the full fleet readout, and — while the
    /// runtime is `Healthy` — it may grow, shrink or split fleet tasks
    /// through the logged control plane. On any other health state the
    /// epoch is observed but adaptation is paused (degraded readouts
    /// make lousy control signals, and a mid-recovery fleet must not be
    /// reconfigured).
    pub fn attach_controller(&mut self, controller: AdaptiveController) {
        self.controller = Some(controller);
    }

    /// The attached controller's audit trail, if one is attached.
    pub fn controller_report(&self) -> Option<&ControllerReport> {
        self.controller.as_ref().map(|c| c.report())
    }

    /// Schedules a deterministic ingestion fault.
    pub fn inject(&mut self, fault: IngestFault) {
        self.faults.push(fault);
    }

    /// Tracks a flow across epoch rotations; see
    /// [`StreamingRuntime::watch_bound`].
    pub fn watch(&mut self, pkt: Packet) {
        self.watch = Some(WatchFlow {
            pkt,
            processed: 0,
            archived: 0,
        });
    }

    /// `(estimate, loss_bound, processed)` for the watched flow: the
    /// archived epoch estimates plus the live merged estimate, the
    /// fleet's explicit loss bound, and how many copies the worker has
    /// drained into the fleet. The streaming loss-window guarantee —
    /// which holds after *every* step, not just at quiescence — is
    /// `estimate + loss_bound >= processed`. (Admitted-but-queued
    /// copies are deliberately excluded: they are `in_flight` in the
    /// ledger and have not reached any register yet.)
    pub fn watch_bound(&self) -> Option<(u64, u64, u64)> {
        let w = self.watch.as_ref()?;
        let live = self
            .fleet
            .merged_frequency_bounded(&w.pkt)
            .map(|b| (b.estimate, b.loss_bound))
            .unwrap_or((0, u64::MAX));
        Some((w.archived + live.0, live.1, w.processed))
    }

    /// Current health.
    pub fn health(&self) -> RuntimeHealth {
        self.health
    }

    /// Exported counters.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// The supervised fleet (readouts, diagnostics).
    pub fn fleet(&self) -> &SwitchFleet {
        &self.fleet
    }

    /// The most recent epoch rotation's archived readout, every fleet
    /// task's — one readout is retained, not the whole history
    /// (constant memory).
    pub fn last_epoch(&self) -> Option<&FleetEpoch> {
        self.last_epoch.as_ref()
    }

    /// The streaming conservation ledger; see [`StreamLedger`].
    pub fn ledger(&self) -> StreamLedger {
        let fl = self.fleet.ledger();
        StreamLedger {
            fed: self.stats.offered,
            in_flight: (self.queue.len() + self.backlog.len()) as u64,
            represented: fl.represented,
            shed: self.stats.shed(),
            lost: fl.lost,
            dropped: fl.dropped,
        }
    }

    /// The consumer's drain budget at `step` under the scheduled
    /// faults.
    fn drain_budget(&self, step: u64) -> usize {
        let mut budget = self.cfg.drain_chunk;
        for f in &self.faults {
            match *f {
                IngestFault::QueueStall { from_step, steps } => {
                    if step >= from_step && step < from_step.saturating_add(steps) {
                        return 0;
                    }
                }
                IngestFault::SlowConsumer {
                    from_step,
                    steps,
                    factor,
                } => {
                    if step >= from_step && step < from_step.saturating_add(steps) {
                        budget /= factor.max(1);
                    }
                }
                IngestFault::WorkerPanic { .. } => {}
            }
        }
        budget
    }

    /// The ladder rung a packet meets when it arrives with `depth`
    /// packets already queued.
    fn rung_at(&self, depth: usize) -> Rung {
        let occ = depth as f64 / self.queue.capacity() as f64;
        if occ >= CRITICAL_WATERMARK {
            Rung::PriorityShed
        } else if occ >= HIGH_WATERMARK {
            Rung::CoinShed
        } else {
            Rung::Admit
        }
    }

    /// True when the admission loop would admit the whole backlog with
    /// no rung firing: the *last* packet — which arrives at the greatest
    /// depth, and occupancy only grows with depth — still meets
    /// [`Rung::Admit`], below the high watermark and so with room. Then
    /// the per-packet loop pushes every packet and never draws the shed
    /// coin, so one bulk move leaves the stats, the queue and the RNG
    /// exactly as that loop would.
    fn ladder_at_rest(&self) -> bool {
        match (self.queue.len() + self.backlog.len()).checked_sub(1) {
            Some(last) => self.rung_at(last) == Rung::Admit,
            None => true,
        }
    }

    fn set_health(&mut self, next: RuntimeHealth) {
        if self.health != next {
            self.health = next;
            self.stats.health_transitions += 1;
        }
    }

    /// One respawn attempt for a quarantined replica: standby promotion
    /// first, fresh revival as the fallback. Returns `Ok(true)` when
    /// the replica is back, `Ok(false)` when the respawn command timed
    /// out on the control channel (never applied — safe to retry next
    /// step), and `Err` on any genuine failure.
    fn try_respawn(&mut self, victim: usize) -> Result<bool, IngestError> {
        match self.fleet.promote_standby(victim) {
            Ok(_) => {
                self.stats.promotions += 1;
                Ok(true)
            }
            Err(FlymonError::ChannelTimeout { .. }) => Ok(false),
            Err(_) => match self.fleet.revive_switch(victim) {
                Ok(()) => {
                    self.stats.revives += 1;
                    Ok(true)
                }
                Err(FlymonError::ChannelTimeout { .. }) => Ok(false),
                Err(e) => Err(e.into()),
            },
        }
    }

    /// Executes one supervised step: sync barrier, producer pull,
    /// admission ladder, panic supervision, worker drain, epoch
    /// rotation, health update, stall detection.
    pub fn step(&mut self, source: &mut dyn ChunkSource) -> Result<StepOutcome, IngestError> {
        self.step += 1;
        self.stats.steps += 1;
        let step = self.step;
        let mut out = StepOutcome::default();

        // 0. A respawn deferred by a control-channel timeout is retried
        // before anything else: if the channel has healed, the replica
        // comes back this step and the barrier below re-images it.
        if let Some(victim) = self.respawn_pending {
            if self.try_respawn(victim)? {
                self.respawn_pending = None;
                self.channel_wait_steps = 0;
            } else {
                self.stats.respawns_deferred += 1;
                self.channel_wait_steps += 1;
            }
        }

        // 1. Sync barrier first, so a panic later in the step finds a
        // checkpoint that already covers every processed packet (the
        // zero-loss respawn window). Off-cadence WAL maintenance rides
        // the same cadence.
        if self.cfg.sync_every_steps > 0 && (step - 1).is_multiple_of(self.cfg.sync_every_steps) {
            self.fleet.maintain_wals(WAL_THRESHOLD);
            self.fleet.sync_standby();
            self.stats.syncs += 1;
            if self.resync_pending && self.respawn_pending.is_none() {
                // The respawned replica is re-imaged; recovery is done.
                self.resync_pending = false;
            }
        }

        // 2. Producer: pull a chunk only when the backlog is clear —
        // a non-empty backlog IS the blocked producer. The chunk's buffer
        // becomes the backlog as is, and an empty ring adopts it in turn
        // (`BoundedQueue::push_all`), so a stream that keeps up copies
        // no packet between the source and the drain.
        if self.backlog.is_empty() {
            match source.next_chunk() {
                Some(chunk) => {
                    out.pulled = chunk.len();
                    self.stats.offered += chunk.len() as u64;
                    self.backlog = chunk.into();
                }
                None => out.source_dry = true,
            }
        } else {
            self.stats.blocked_steps += 1;
        }

        // 3. Admission ladder. When no rung can fire for any packet of
        // the backlog, the whole backlog is admitted with one bulk move.
        let mut shed_this_step = 0usize;
        if self.ladder_at_rest() {
            out.admitted = self.backlog.len();
            self.stats.admitted += self.backlog.len() as u64;
            self.queue.push_all(&mut self.backlog);
        }
        while let Some(pkt) = self.backlog.pop_front() {
            if self.queue.is_full() {
                // Rung 1: block. The packet (and everything behind it)
                // waits in the backlog.
                self.backlog.push_front(pkt);
                break;
            }
            match self.rung_at(self.queue.len()) {
                Rung::Admit => {}
                Rung::CoinShed => {
                    if self.rng.chance(SHED_PROBABILITY) {
                        self.stats.shed_random += 1;
                        shed_this_step += 1;
                        continue;
                    }
                }
                Rung::PriorityShed => {
                    let keep = self
                        .cfg
                        .admission
                        .priority
                        .map(|f| f.matches(&pkt))
                        .unwrap_or(false);
                    if !keep {
                        self.stats.shed_priority += 1;
                        shed_this_step += 1;
                        continue;
                    }
                }
            }
            let pushed = self.queue.push(pkt);
            debug_assert!(pushed, "fullness was checked above");
            self.stats.admitted += 1;
            out.admitted += 1;
        }
        // Backlog overflow: the producer cannot be blocked forever on a
        // bounded buffer; the newest excess is tail-shed.
        while self.backlog.len() > self.cfg.backlog_limit {
            self.backlog.pop_back();
            self.stats.shed_overflow += 1;
            shed_this_step += 1;
        }
        out.shed = shed_this_step;

        // 4. Supervision point: scheduled worker panics fire at the
        // chunk boundary, before the batch touches fleet state.
        let panic_victim = self.faults.iter().find_map(|f| match *f {
            IngestFault::WorkerPanic { at_step, switch } if at_step == step => Some(switch),
            _ => None,
        });
        if let Some(victim) = panic_victim {
            self.fleet.require_switch(victim)?;
            let poison = Packet::udp(0xdead_0000 | step as u32, 0x0a00_00ff, 6666, 6666);
            let fleet = &mut self.fleet;
            // The supervisor owns this unwind: silence the global panic
            // hook for its duration so an *expected* worker death does
            // not spray backtraces over daemon logs and CI output.
            let prev_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                // The dying worker scribbles a register update for a
                // packet that was never admitted (bypassing the
                // ledger), then unwinds mid-batch.
                fleet.scribble(victim, &poison);
                panic!("injected worker panic at step {step}");
            }));
            std::panic::set_hook(prev_hook);
            debug_assert!(caught.is_err());
            self.stats.panics_recovered += 1;
            out.recovered = true;
            // Quarantine: the replica's registers cannot be trusted.
            self.fleet.fail_switch(victim)?;
            // Respawn from the PR-4 restore path: last standby image +
            // WAL suffix. With a per-step sync barrier the loss window
            // is empty and the respawned registers are bit-identical to
            // an unfailed replica's. Fall back to a fresh revival when
            // no image exists.
            if !self.try_respawn(victim)? {
                // The respawn command timed out on the control channel
                // (partition or loss burst): the replica stays
                // quarantined and the respawn is retried every step.
                // Not an error — the channel may heal.
                self.respawn_pending = Some(victim);
                self.stats.respawns_deferred += 1;
                self.channel_wait_steps = 1;
            }
            self.resync_pending = true;
            self.set_health(RuntimeHealth::Recovering);
        }

        // 5. Worker drain — paused for the rest of a recovery step; the
        // batch stays queued and is retried next step.
        if self.health != RuntimeHealth::Recovering {
            let budget = self.drain_budget(step);
            if budget > 0 && !self.queue.is_empty() {
                // The batch is fed from the ring's own storage — two
                // slices where it wraps; liveness is the same for both
                // and per-switch order is kept, so two calls leave the
                // fleet exactly where one call on their concatenation
                // would — and only then dequeued.
                let (head, tail) = self.queue.front(budget);
                for part in [head, tail] {
                    self.fleet.process_trace(part);
                    if let Some(w) = self.watch.as_mut() {
                        w.processed += part.iter().filter(|p| same_flow(p, &w.pkt)).count() as u64;
                    }
                }
                let drained = head.len() + tail.len();
                self.queue.discard(drained);
                self.stats.processed += drained as u64;
                self.processed_since_rotate += drained as u64;
                out.drained = drained;
            }
        }

        // 6. Epoch rotation: readout + logged reset under continuous
        // traffic, never during recovery.
        if self.cfg.epoch_packets > 0
            && self.processed_since_rotate >= self.cfg.epoch_packets
            && self.health != RuntimeHealth::Recovering
            && self.fleet.alive_count() > 0
        {
            if let Some(w) = self.watch.as_mut() {
                w.archived += self.fleet.merged_frequency(&w.pkt).unwrap_or(0);
            }
            let epoch = self.fleet.rotate_epoch_all()?;
            // Close the loop: the controller sees every rotation but
            // only acts while the runtime is healthy — backpressure,
            // shedding and recovery all pause adaptation.
            if let Some(ctl) = self.controller.as_mut() {
                let paused = self.health != RuntimeHealth::Healthy;
                ctl.on_epoch(&mut self.fleet, &epoch, paused)?;
            }
            self.last_epoch = Some(epoch);
            self.stats.epochs_rotated += 1;
            self.processed_since_rotate = 0;
            out.rotated = true;
        }

        // 7. Health: Recovering holds until the post-respawn barrier
        // (and until any channel-deferred respawn lands); otherwise the
        // ladder's observable state decides.
        if self.health == RuntimeHealth::Recovering {
            if !self.resync_pending && self.respawn_pending.is_none() {
                self.set_health(RuntimeHealth::Healthy);
            }
        } else {
            let occ = self.queue.occupancy();
            let next = if shed_this_step > 0 || occ >= HIGH_WATERMARK {
                RuntimeHealth::Shedding
            } else if !self.backlog.is_empty() {
                RuntimeHealth::Degraded
            } else {
                RuntimeHealth::Healthy
            };
            self.set_health(next);
        }
        out.health = self.health;

        // 8. Stall detection: packets queued, nothing moving. A fleet
        // whose only blocker is an in-flight control-channel retry is
        // *waiting*, not stalled — it gets `CHANNEL_GRACE_STEPS` of
        // grace before the ordinary idle budget starts counting.
        let progress = out.drained > 0 || out.rotated || out.recovered;
        let channel_waiting = self.health == RuntimeHealth::Recovering
            && self.respawn_pending.is_some()
            && self.channel_wait_steps <= CHANNEL_GRACE_STEPS;
        if !progress && !self.queue.is_empty() && !channel_waiting {
            self.idle_steps += 1;
            if self.idle_steps > MAX_IDLE_STEPS {
                return Err(IngestError::Stalled {
                    step,
                    queued: self.queue.len() + self.backlog.len(),
                });
            }
        } else if progress || self.queue.is_empty() {
            self.idle_steps = 0;
        }

        debug_assert!(self.ledger().conserved(), "{:?}", self.ledger());
        Ok(out)
    }

    /// Runs the stream to quiescence: steps until the source is dry and
    /// both buffers have drained, then takes a final sync barrier.
    pub fn run(&mut self, source: &mut dyn ChunkSource) -> Result<RuntimeReport, IngestError> {
        loop {
            let out = self.step(source)?;
            if out.source_dry && self.queue.is_empty() && self.backlog.is_empty() {
                break;
            }
        }
        self.fleet.sync_standby();
        self.stats.syncs += 1;
        if self.resync_pending && self.respawn_pending.is_none() {
            self.resync_pending = false;
            if self.health == RuntimeHealth::Recovering {
                self.set_health(RuntimeHealth::Healthy);
            }
        }
        Ok(self.report())
    }

    /// The current report (final when called after
    /// [`StreamingRuntime::run`]).
    pub fn report(&self) -> RuntimeReport {
        RuntimeReport {
            stats: self.stats,
            ledger: self.ledger(),
            health: self.health,
            queue: self.queue.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon::prelude::*;
    use flymon_packet::KeySpec;

    fn config() -> FlyMonConfig {
        FlyMonConfig {
            groups: 2,
            buckets_per_cmu: 16384,
            ..FlyMonConfig::default()
        }
    }

    fn cms_def() -> TaskDefinition {
        TaskDefinition::builder("stream-freq")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(8192)
            .build()
    }

    fn fleet(n: usize) -> SwitchFleet {
        SwitchFleet::deploy(n, config(), &cms_def()).unwrap()
    }

    #[test]
    fn bounded_queue_rejects_overflow_and_tracks_watermark() {
        let mut q = BoundedQueue::new(3);
        let p = Packet::tcp(1, 2, 3, 4);
        assert!(q.push(p));
        assert!(q.push(p));
        assert!(q.push(p));
        assert!(q.is_full());
        assert!(!q.push(p), "capacity 3 rejects the 4th");
        assert_eq!(q.stats().rejected, 1);
        assert_eq!(q.stats().high_watermark, 3);
        assert_eq!(q.pop_n(10).len(), 3);
        assert!(q.is_empty());
        assert_eq!(q.stats().dequeued, 3);
    }

    #[test]
    fn pop_n_is_fifo_across_the_ring_wrap() {
        // Head and tail of a wrapped ring come back as one ordered
        // batch, and a short queue yields what it has.
        let mut q = BoundedQueue::new(8);
        for i in 0..6u32 {
            q.push(Packet::tcp(i, 0, 0, 0));
        }
        assert_eq!(q.pop_n(5).len(), 5);
        for i in 6..12u32 {
            q.push(Packet::tcp(i, 0, 0, 0));
        }
        let srcs = |batch: Vec<Packet>| batch.iter().map(|p| p.src_ip).collect::<Vec<_>>();
        assert_eq!(srcs(q.pop_n(4)), vec![5, 6, 7, 8]);
        assert_eq!(srcs(q.pop_n(9)), vec![9, 10, 11]);
        assert_eq!(q.stats().dequeued, 12);
        assert!(q.pop_n(1).is_empty());
    }

    /// The admission ladder exactly as the module docs state it, one
    /// packet at a time — the reference [`StreamingRuntime::step`]'s
    /// bulk admission must be indistinguishable from. Models a
    /// fault-free runtime over a healthy fleet: every drained packet is
    /// represented, none is lost or dropped.
    struct PerPacketReference {
        cfg: IngestConfig,
        queue: VecDeque<Packet>,
        backlog: VecDeque<Packet>,
        rng: SplitMix64,
        stats: RuntimeStats,
        queue_stats: QueueStats,
        health: RuntimeHealth,
    }

    impl PerPacketReference {
        fn new(cfg: IngestConfig) -> Self {
            PerPacketReference {
                rng: SplitMix64::new(cfg.seed),
                cfg,
                queue: VecDeque::new(),
                backlog: VecDeque::new(),
                stats: RuntimeStats::default(),
                queue_stats: QueueStats::default(),
                health: RuntimeHealth::Healthy,
            }
        }

        /// One step. Returns, when every packet of a non-empty backlog
        /// met [`Rung::Admit`] with room to spare — the runtime's bulk
        /// move — whether the queue was empty when they arrived.
        fn step(&mut self, source: &mut dyn ChunkSource) -> Option<bool> {
            let adm = self.cfg.admission;
            self.stats.steps += 1;
            self.stats.syncs += 1;
            if self.backlog.is_empty() {
                if let Some(chunk) = source.next_chunk() {
                    self.stats.offered += chunk.len() as u64;
                    self.backlog.extend(chunk);
                }
            } else {
                self.stats.blocked_steps += 1;
            }
            let shed_before = self.stats.shed();
            let ring_was_empty = self.queue.is_empty();
            let mut at_rest = !self.backlog.is_empty();
            while let Some(pkt) = self.backlog.pop_front() {
                if self.queue.len() >= self.cfg.queue_capacity {
                    self.backlog.push_front(pkt);
                    at_rest = false;
                    break;
                }
                let occ = self.queue.len() as f64 / self.cfg.queue_capacity as f64;
                at_rest &= occ < HIGH_WATERMARK;
                if occ >= CRITICAL_WATERMARK {
                    if !adm.priority.is_some_and(|f| f.matches(&pkt)) {
                        self.stats.shed_priority += 1;
                        continue;
                    }
                } else if occ >= HIGH_WATERMARK && self.rng.chance(SHED_PROBABILITY) {
                    self.stats.shed_random += 1;
                    continue;
                }
                self.queue.push_back(pkt);
                self.stats.admitted += 1;
                self.queue_stats.enqueued += 1;
                self.queue_stats.high_watermark = self.queue_stats.high_watermark.max(self.queue.len());
            }
            while self.backlog.len() > self.cfg.backlog_limit {
                self.backlog.pop_back();
                self.stats.shed_overflow += 1;
            }
            let drained = self.cfg.drain_chunk.min(self.queue.len());
            self.queue.drain(..drained);
            self.queue_stats.dequeued += drained as u64;
            self.stats.processed += drained as u64;
            let occ = self.queue.len() as f64 / self.cfg.queue_capacity as f64;
            let next = if self.stats.shed() > shed_before || occ >= HIGH_WATERMARK {
                RuntimeHealth::Shedding
            } else if !self.backlog.is_empty() {
                RuntimeHealth::Degraded
            } else {
                RuntimeHealth::Healthy
            };
            if next != self.health {
                self.health = next;
                self.stats.health_transitions += 1;
            }
            at_rest.then_some(ring_was_empty)
        }

        fn ledger(&self) -> StreamLedger {
            StreamLedger {
                fed: self.stats.offered,
                in_flight: (self.queue.len() + self.backlog.len()) as u64,
                represented: self.stats.processed,
                shed: self.stats.shed(),
                lost: 0,
                dropped: 0,
            }
        }
    }

    /// Chunks of scripted sizes over seeded packets, a quarter of which
    /// match the priority filter `src 10.0.0.0/8`; dry once the script
    /// ends.
    struct SizedChunks {
        sizes: std::vec::IntoIter<usize>,
        rng: SplitMix64,
    }

    impl ChunkSource for SizedChunks {
        fn next_chunk(&mut self) -> Option<Vec<Packet>> {
            let len = self.sizes.next()?;
            let rng = &mut self.rng;
            Some(
                (0..len)
                    .map(|_| {
                        let r = rng.next_u32();
                        let src = if r & 3 == 0 { 10 << 24 | r >> 8 } else { r | 1 << 31 };
                        Packet::udp(src, r, 7, 9)
                    })
                    .collect(),
            )
        }
    }

    /// Queue of 1 024 drained 256 at a time: the high watermark is
    /// first met at depth 768, the critical one at depth 922.
    fn lockstep_config(seed: u64, priority: bool) -> IngestConfig {
        IngestConfig {
            queue_capacity: 1_024,
            drain_chunk: 256,
            backlog_limit: 1_536,
            admission: AdmissionConfig {
                priority: priority.then(|| TaskFilter::src(10 << 24, 8)),
            },
            seed,
            ..IngestConfig::default()
        }
    }

    /// Steps a runtime and the per-packet reference through the same
    /// chunks, comparing every observable — the queued and backlogged
    /// packets too, in order — after every step; returns the runtime
    /// and how many steps took the bulk move into an empty queue
    /// (adopting the backlog's buffer) and into a non-empty one
    /// (appending behind what is queued).
    fn run_lockstep(cfg: IngestConfig, sizes: Vec<usize>, what: &str) -> (StreamingRuntime, [usize; 2]) {
        let steps = sizes.len() + 8;
        let source = || SizedChunks {
            sizes: sizes.clone().into_iter(),
            rng: SplitMix64::new(cfg.seed ^ 0x50C),
        };
        let (mut fed_rt, mut fed_ref) = (source(), source());
        let mut rt = StreamingRuntime::new(fleet(2), cfg.clone());
        let mut reference = PerPacketReference::new(cfg);
        let mut bulk = [0; 2];
        for step in 0..steps {
            rt.step(&mut fed_rt).unwrap();
            if let Some(ring_was_empty) = reference.step(&mut fed_ref) {
                bulk[usize::from(!ring_was_empty)] += 1;
            }
            let at = format!("{what}, step {step}");
            assert_eq!(rt.queue.buf, reference.queue, "{at}: queued packets");
            assert_eq!(rt.backlog, reference.backlog, "{at}: backlog");
            assert_eq!(rt.stats(), reference.stats, "{at}");
            assert_eq!(rt.queue.stats(), reference.queue_stats, "{at}");
            assert_eq!(rt.ledger(), reference.ledger(), "{at}");
            assert_eq!(rt.health(), reference.health, "{at}");
            // The next coin: bulk admission drew exactly as many.
            assert_eq!(rt.rng.clone().next_u64(), reference.rng.clone().next_u64(), "{at}");
        }
        (rt, bulk)
    }

    #[test]
    fn bulk_admission_matches_the_per_packet_reference() {
        // Calm stretches (at most one drain's worth per chunk, so the
        // queue idles below the watermarks) alternate with bursts far
        // above the drain rate, which walk the queue through both
        // watermarks, fill it and overflow the backlog.
        let [mut adopted, mut appended] = [0; 2];
        for seed in 0..12u64 {
            let mut sizes = SplitMix64::new(seed);
            let sizes = (0..400)
                .map(|pull| match pull % 48 {
                    36.. => sizes.range_usize(300, 2_500),
                    _ => sizes.range_usize(0, 257),
                })
                .collect();
            let priority = seed % 2 == 0;
            let (rt, [adopt, append]) = run_lockstep(lockstep_config(seed, priority), sizes, &format!("seed {seed}"));
            adopted += adopt;
            appended += append;
            let stats = rt.stats();
            assert!(stats.shed_random > 0 && stats.shed_priority > 0, "{stats:?}");
            if priority {
                // Priority traffic is admitted above the critical
                // watermark, so it fills the queue: the producer
                // blocks and the backlog overflows.
                assert!(stats.blocked_steps > 0 && stats.shed_overflow > 0, "{stats:?}");
                assert_eq!(rt.queue.stats().high_watermark, 1_024);
            }
        }
        // Both branches of the bulk move: a queue that kept up adopts
        // the backlog's buffer, one still draining a burst appends.
        assert!(adopted + appended > 1_000, "only {} steps took the bulk move", adopted + appended);
        assert!(adopted > 0 && appended > 0, "adopted {adopted}, appended {appended}");
    }

    #[test]
    fn bulk_admission_stops_exactly_at_each_boundary() {
        // 700 packets arrive and 256 drain, leaving 444 queued; the
        // second chunk is sized so its last packet arrives at a depth
        // just below, at, and just above each point where the ladder
        // changes its answer: the two watermarks and a full queue. The
        // bulk move ends at the high watermark, below a full queue.
        for boundary in [768usize, 922, 1_024] {
            for last_depth in boundary - 2..=boundary + 1 {
                let second = last_depth + 1 - 444;
                let what = format!("last packet at depth {last_depth}");
                let cfg = lockstep_config(last_depth as u64, true);
                let (rt, _) = run_lockstep(cfg, vec![700, second, 64, 64], &what);
                // Below the high watermark nothing consults the coin;
                // from it on, at least the last packet does.
                let coin_untouched = rt.rng == SplitMix64::new(last_depth as u64);
                assert_eq!(coin_untouched, last_depth < 768, "{what}");
            }
        }
    }

    #[test]
    fn steady_stream_admits_everything_and_stays_healthy() {
        let mut rt = StreamingRuntime::new(
            fleet(3),
            IngestConfig {
                queue_capacity: 8_192,
                drain_chunk: 4_096,
                ..IngestConfig::default()
            },
        );
        let mut src = TraceChunks::new(
            flymon_traffic::gen::TraceGenerator::new(11).wide_like(
                &flymon_traffic::gen::TraceConfig {
                    flows: 2_000,
                    packets: 40_000,
                    zipf_alpha: 1.1,
                    duration_ns: 1_000_000_000,
                    seed: 11,
                },
            ),
            2_048,
        );
        let report = rt.run(&mut src).unwrap();
        assert_eq!(report.health, RuntimeHealth::Healthy);
        assert_eq!(report.stats.shed(), 0, "capacity exceeds offered load");
        assert_eq!(report.ledger.in_flight, 0);
        assert!(report.ledger.conserved(), "{:?}", report.ledger);
        assert_eq!(report.stats.processed, report.stats.offered);
    }

    #[test]
    fn burst_overload_walks_the_ladder_and_conserves_the_ledger() {
        let mut rt = StreamingRuntime::new(
            fleet(3),
            IngestConfig {
                queue_capacity: 1_024,
                drain_chunk: 512,
                backlog_limit: 2_048,
                epoch_packets: 0,
                ..IngestConfig::default()
            },
        );
        let mut src = flymon_traffic::gen::PhasedSource::new(flymon_traffic::gen::PhasedConfig {
            flows: 1_000,
            base_chunk: 512,
            phases: vec![
                flymon_traffic::gen::Phase { chunks: 4, rate: 1.0 },
                flymon_traffic::gen::Phase { chunks: 4, rate: 10.0 },
                flymon_traffic::gen::Phase { chunks: 4, rate: 1.0 },
            ],
            ..flymon_traffic::gen::PhasedConfig::default()
        });
        let mut saw_shedding = false;
        let mut ledgers_ok = true;
        loop {
            let out = rt.step(&mut src).unwrap();
            saw_shedding |= out.health == RuntimeHealth::Shedding;
            ledgers_ok &= rt.ledger().conserved();
            if out.source_dry && rt.ledger().in_flight == 0 {
                break;
            }
        }
        assert!(saw_shedding, "a 10x burst over a small queue must shed");
        assert!(ledgers_ok, "ledger must be conserved after every step");
        let report = rt.report();
        assert!(report.stats.shed() > 0);
        assert!(report.ledger.conserved(), "{:?}", report.ledger);
        assert_eq!(
            report.stats.offered,
            report.stats.processed + report.stats.shed(),
            "every offered packet was processed or shed"
        );
    }

    #[test]
    fn priority_traffic_survives_the_critical_rung() {
        let priority = TaskFilter::src(10 << 24, 8);
        let mut rt = StreamingRuntime::new(
            fleet(2),
            IngestConfig {
                queue_capacity: 512,
                drain_chunk: 64,
                backlog_limit: 1_024,
                admission: AdmissionConfig {
                    priority: Some(priority),
                },
                ..IngestConfig::default()
            },
        );
        let mut src = flymon_traffic::gen::PhasedSource::new(flymon_traffic::gen::PhasedConfig {
            flows: 1_000,
            base_chunk: 512,
            phases: vec![flymon_traffic::gen::Phase { chunks: 10, rate: 8.0 }],
            ..flymon_traffic::gen::PhasedConfig::default()
        });
        let report = rt.run(&mut src).unwrap();
        assert!(report.stats.shed_priority > 0, "critical rung engaged");
        assert!(report.ledger.conserved(), "{:?}", report.ledger);
        // Everything the fleet processed under priority shedding skews
        // toward the priority tenant; spot-check that priority packets
        // dominated admissions once rung 3 was active.
        assert!(
            report.stats.admitted > 0,
            "priority packets still got through"
        );
    }

    #[test]
    fn epoch_rotation_archives_counts_under_continuous_traffic() {
        let mut rt = StreamingRuntime::new(
            fleet(3),
            IngestConfig {
                queue_capacity: 8_192,
                drain_chunk: 2_048,
                epoch_packets: 5_000,
                ..IngestConfig::default()
            },
        );
        let watch = Packet::tcp(0x0a00_0042, 0x0a00_0001, 443, 50_000);
        rt.watch(watch);
        let seen = TaskDefinition::builder("stream-seen")
            .key(KeySpec::NONE)
            .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
            .memory(1024)
            .build();
        rt.fleet.deploy_task(&seen).unwrap();
        // A stream with a steady share of the watched flow.
        let mut trace = Vec::new();
        let mut rng = SplitMix64::new(99);
        for _ in 0..30_000 {
            if rng.chance(0.2) {
                trace.push(watch);
            } else {
                trace.push(Packet::udp(
                    0xc0a8_0000 | (rng.next_u32() & 0xfff),
                    0x0a00_0001,
                    rng.next_u16(),
                    53,
                ));
            }
        }
        let mut src = TraceChunks::new(trace, 2_048);
        let report = rt.run(&mut src).unwrap();
        assert!(
            report.stats.epochs_rotated >= 4,
            "30k packets / 5k epoch => several rotations, got {}",
            report.stats.epochs_rotated
        );
        assert!(report.ledger.conserved(), "{:?}", report.ledger);
        assert_eq!(report.stats.shed(), 0);
        // Readout continuity: archived + live estimate covers every
        // processed copy of the watched flow (CMS never undercounts).
        let (estimate, loss_bound, processed) = rt.watch_bound().unwrap();
        assert!(processed > 4_000, "watch flow fed: {processed}");
        assert!(
            estimate + loss_bound >= processed,
            "epoch continuity broken: {estimate} + {loss_bound} < {processed}"
        );
        // The archive did the heavy lifting — the live registers alone
        // hold only the tail epoch.
        let live = rt.fleet().merged_frequency(&watch).unwrap();
        assert!(
            live < processed / 2,
            "rotation should have cleared most counts (live {live} of {processed})"
        );
        // The retained readout is the whole fleet epoch, not only the
        // primary task's rows.
        let names: Vec<&str> =
            rt.last_epoch().unwrap().tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["stream-freq", "stream-seen"]);
    }

    #[test]
    fn queue_stall_trips_the_detector_instead_of_hanging() {
        let mut rt = StreamingRuntime::new(
            fleet(2),
            IngestConfig {
                queue_capacity: 1_024,
                drain_chunk: 256,
                ..IngestConfig::default()
            },
        );
        rt.inject(IngestFault::QueueStall {
            from_step: 1,
            steps: u64::MAX,
        });
        let mut src = TraceChunks::new(vec![Packet::tcp(1, 2, 3, 4); 4_096], 512);
        let err = rt.run(&mut src).unwrap_err();
        assert!(
            matches!(err, IngestError::Stalled { .. }),
            "a dead consumer must surface, got {err:?}"
        );
    }

    #[test]
    fn transient_stall_and_slow_consumer_recover_cleanly() {
        let mut rt = StreamingRuntime::new(
            fleet(2),
            IngestConfig {
                queue_capacity: 2_048,
                drain_chunk: 512,
                ..IngestConfig::default()
            },
        );
        rt.inject(IngestFault::QueueStall {
            from_step: 3,
            steps: 4,
        });
        rt.inject(IngestFault::SlowConsumer {
            from_step: 10,
            steps: 5,
            factor: 8,
        });
        let mut src = TraceChunks::new(vec![Packet::tcp(9, 9, 9, 9); 10_000], 500);
        let report = rt.run(&mut src).unwrap();
        assert_eq!(report.health, RuntimeHealth::Healthy);
        assert!(report.ledger.conserved(), "{:?}", report.ledger);
        assert_eq!(
            report.stats.processed + report.stats.shed(),
            report.stats.offered
        );
    }

    #[test]
    fn worker_panic_respawns_bit_identically_for_the_admitted_stream() {
        // Two identical runtimes over the identical stream; one suffers
        // a worker panic mid-stream. With per-step sync barriers the
        // respawn must be loss-free, so the final merged readouts are
        // bit-identical and health returns to Healthy.
        let cfg = IngestConfig {
            queue_capacity: 65_536, // nothing shed in either run
            drain_chunk: 1_024,
            epoch_packets: 6_000,
            ..IngestConfig::default()
        };
        let stream = || {
            TraceChunks::new(
                flymon_traffic::gen::TraceGenerator::new(77).wide_like(
                    &flymon_traffic::gen::TraceConfig {
                        flows: 3_000,
                        packets: 25_000,
                        zipf_alpha: 1.1,
                        duration_ns: 1_000_000_000,
                        seed: 77,
                    },
                ),
                1_024,
            )
        };

        let mut healthy = StreamingRuntime::new(fleet(3), cfg.clone());
        let healthy_report = healthy.run(&mut stream()).unwrap();

        let mut failed = StreamingRuntime::new(fleet(3), cfg);
        failed.inject(IngestFault::WorkerPanic {
            at_step: 7,
            switch: 1,
        });
        let failed_report = failed.run(&mut stream()).unwrap();

        assert_eq!(failed_report.stats.panics_recovered, 1);
        assert_eq!(failed_report.stats.promotions, 1, "respawn used the checkpoint path");
        assert_eq!(failed_report.health, RuntimeHealth::Healthy);
        assert!(failed_report.ledger.conserved(), "{:?}", failed_report.ledger);
        assert_eq!(failed_report.ledger.lost, 0, "per-step barriers => empty loss window");
        assert_eq!(healthy_report.stats.shed(), 0);
        assert_eq!(failed_report.stats.shed(), 0);
        assert_eq!(
            failed_report.stats.processed,
            healthy_report.stats.processed
        );

        // Bit-identity of the non-shed packet set: every register row of
        // every switch must match the unfailed replica fleet.
        for i in 0..3 {
            let (a, ha) = healthy.fleet().switch(i);
            let (b, hb) = failed.fleet().switch(i);
            let (ha, hb) = (ha.unwrap(), hb.unwrap());
            for row in 0..2 {
                assert_eq!(
                    a.read_row(ha, row).unwrap(),
                    b.read_row(hb, row).unwrap(),
                    "switch {i} row {row} diverged after supervised respawn"
                );
            }
            assert!(b.audit().is_empty(), "respawned switch {i} fails audit");
        }
        // And the archived epochs match too.
        assert_eq!(
            healthy.last_epoch(),
            failed.last_epoch(),
            "archived epoch readouts diverged"
        );
    }

    #[test]
    fn runtime_is_deterministic_given_seed() {
        let run = || {
            let mut rt = StreamingRuntime::new(
                fleet(2),
                IngestConfig {
                    queue_capacity: 512,
                    drain_chunk: 256,
                    epoch_packets: 2_000,
                    ..IngestConfig::default()
                },
            );
            rt.inject(IngestFault::SlowConsumer {
                from_step: 4,
                steps: 3,
                factor: 4,
            });
            let mut src =
                flymon_traffic::gen::PhasedSource::new(flymon_traffic::gen::PhasedConfig {
                    flows: 500,
                    base_chunk: 256,
                    phases: vec![
                        flymon_traffic::gen::Phase { chunks: 3, rate: 1.0 },
                        flymon_traffic::gen::Phase { chunks: 2, rate: 10.0 },
                    ],
                    ..flymon_traffic::gen::PhasedConfig::default()
                });
            rt.run(&mut src).unwrap()
        };
        assert_eq!(run(), run(), "same seeds, same report");
    }

    #[test]
    fn a_worker_panic_past_the_fleet_end_is_an_error() {
        // Regression: the supervisor caught the unwind and then
        // quarantined a switch that does not exist — an index panic.
        let mut rt = StreamingRuntime::new(fleet(2), IngestConfig::default());
        rt.inject(IngestFault::WorkerPanic {
            at_step: 1,
            switch: 2,
        });
        let mut src = TraceChunks::new(vec![Packet::tcp(1, 2, 3, 4); 512], 256);
        match rt.step(&mut src) {
            Err(IngestError::Control(FlymonError::BadTask(why))) => {
                assert!(why.contains("switch 2"), "{why}")
            }
            other => panic!("expected the index refused, got {other:?}"),
        }
        assert_eq!(rt.fleet().alive_count(), 2);
        assert_eq!(rt.stats().panics_recovered, 0);
    }

    /// A respawn blocked only by a partitioned control channel is
    /// *waiting*, not stalled: the respawn retries every step, and once
    /// the partition heals the replica comes back and the stream
    /// finishes healthy.
    #[test]
    fn channel_blocked_respawn_waits_out_grace_then_recovers() {
        let mut fl = fleet(2);
        fl.attach_channel(0xC4A5, crate::channel::ChannelConfig::default())
            .unwrap();
        let mut rt = StreamingRuntime::new(
            fl,
            IngestConfig {
                queue_capacity: 4_096,
                drain_chunk: 256,
                ..IngestConfig::default()
            },
        );
        rt.inject(IngestFault::WorkerPanic {
            at_step: 3,
            switch: 1,
        });
        let mut src = TraceChunks::new(vec![Packet::tcp(8, 8, 8, 8); 8_192], 512);
        // Partition the victim's control link before the panic fires:
        // the promote command cannot reach it.
        rt.fleet
            .channel_mut()
            .unwrap()
            .set_partitioned(1, true)
            .unwrap();
        for _ in 0..8 {
            rt.step(&mut src)
                .expect("a respawn waiting on the channel is not a stall");
        }
        assert_eq!(rt.health(), RuntimeHealth::Recovering);
        assert!(
            rt.stats().respawns_deferred >= 3,
            "deferred respawn retried every step: {:?}",
            rt.stats()
        );
        // Heal the partition: the next step's retry lands.
        rt.fleet
            .channel_mut()
            .unwrap()
            .set_partitioned(1, false)
            .unwrap();
        let report = rt.run(&mut src).unwrap();
        assert_eq!(report.health, RuntimeHealth::Healthy);
        assert_eq!(report.stats.promotions, 1, "respawn used the checkpoint path");
        assert_eq!(report.stats.panics_recovered, 1);
        assert!(report.ledger.conserved(), "{:?}", report.ledger);
    }

    /// A respawn stuck behind a partition that never heals waits out the
    /// channel grace and then the idle budget, and trips the stall
    /// detector instead of hanging. The panic lands at step 3; the
    /// retries of steps 4–10 are grace (their wait counts 2 to 8); the
    /// idle count starts at step 11 and passes 64 at step 75. A shorter
    /// or longer wait, or none, is a regression in either direction.
    #[test]
    fn a_never_healing_partition_stalls_after_grace_and_idle_budget() {
        let mut fl = fleet(2);
        fl.attach_channel(0xC4A6, crate::channel::ChannelConfig::default())
            .unwrap();
        let mut rt = StreamingRuntime::new(
            fl,
            IngestConfig {
                queue_capacity: 4_096,
                drain_chunk: 256,
                ..IngestConfig::default()
            },
        );
        rt.inject(IngestFault::WorkerPanic {
            at_step: 3,
            switch: 1,
        });
        let mut src = TraceChunks::new(vec![Packet::tcp(8, 8, 8, 8); 8_192], 512);
        rt.fleet
            .channel_mut()
            .unwrap()
            .set_partitioned(1, true)
            .unwrap();
        let err = (0..200).find_map(|_| rt.step(&mut src).err());
        assert!(
            matches!(err, Some(IngestError::Stalled { step: 75, .. })),
            "an unreachable replica must surface at step 75, got {err:?}"
        );
    }
}
