//! The FlyMon control plane (§3.4).
//!
//! [`FlyMon`] owns the data plane (a pipeline of [`CmuGroup`]s) and the
//! two §3.4 interface families:
//!
//! - **task management** — [`FlyMon::deploy`], [`FlyMon::remove`],
//!   [`FlyMon::reallocate_memory`] install/retire runtime rules without
//!   touching traffic;
//! - **resource management** — compressed-key occupancy (reference-
//!   counted hash units), per-CMU buddy allocators, greedy placement
//!   preferring groups that already own the needed compressed keys, and
//!   the accurate/efficient allocation modes.
//!
//! Every mutating operation is **transactional**: it executes its
//! install-time operations (rule installs, partition writes, register
//! writes) through an optional armed [`FaultPlan`] with a bounded
//! [`RetryPolicy`], records an undo log as it stages state, and on any
//! failure replays the log to return the system bit-for-bit to its
//! pre-call state. [`FlyMon::audit`] (see [`crate::audit`]) reconciles
//! the control plane's shadow state against the data plane after the
//! fact.
//!
//! Queries replay the data-plane addressing path over the readout, so
//! control-plane estimates see exactly the buckets the hardware updated.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flymon_packet::{KeySpec, Packet};
use flymon_rmt::fault::{FaultPlan, InstallOpKind, RetryPolicy};
use flymon_rmt::register::{ArchiveDrain, Buckets, Register};
use flymon_rmt::rules::{InstallPlan, RuleKind};

use crate::addr::{AddrTranslation, TranslationMethod};
use crate::alloc::{AllocMode, BuddyAllocator};
use crate::analysis;
use crate::checkpoint::UnitImage;
use crate::compiler::{self, CmuCouponConfig, PlacedRow};
use crate::group::{CmuBinding, CmuGroup, GroupConfig};
use crate::keysel::KeySource;
use crate::scratch::BatchScratch;
use crate::task::{Algorithm, TaskDefinition, TaskId};
use crate::wal::{WalIntent, WriteAheadLog};
use crate::FlymonError;

/// Configuration of a FlyMon data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlyMonConfig {
    /// Number of CMU Groups (9 fit a 12-stage Tofino pipeline, §3.2).
    pub groups: usize,
    /// Compression-stage hash units per group (paper setting: 3).
    pub compression_units: usize,
    /// CMUs per group (paper setting: 3).
    pub cmus_per_group: usize,
    /// Buckets per CMU register (power of two; paper-scale: 65536).
    pub buckets_per_cmu: usize,
    /// Register bucket width in bits (16 default; 32 for timestamp-heavy
    /// recipes like max-inter-arrival).
    pub bucket_bits: u8,
    /// Memory allocation policy (§3.4 accurate vs efficient).
    pub alloc_mode: AllocMode,
    /// Maximum partitions per CMU as a power of two (5 ⇒ 32, the
    /// paper's setting; bounded by preparation-stage TCAM, Fig. 11).
    pub max_partitions_log2: u8,
    /// Pre-configure unit 0 of every group with the 5-tuple mask (the
    /// §5 evaluation setting's standing candidate key).
    pub preconfigure_five_tuple: bool,
    /// Number of *spliced* groups at the tail of the pipeline
    /// (Appendix E): they are reached by mirroring + recirculating the
    /// packet, so every packet that executes a task there is counted as
    /// extra bandwidth ([`FlyMon::recirculated_packets`]).
    pub spliced_groups: usize,
}

impl FlyMonConfig {
    /// The geometry rules a switch is built under: [`FlyMon::new`]
    /// asserts them, and [`FlyMon::restore`] refuses an image breaking one.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.groups == 0 {
            Err("groups must be nonzero")
        } else if u32::from(self.max_partitions_log2) >= usize::BITS {
            Err("max_partitions_log2 must be below the bits of a bucket count")
        } else {
            self.group_config().validate()
        }
    }

    fn group_config(&self) -> GroupConfig {
        GroupConfig {
            compression_units: self.compression_units,
            cmus: self.cmus_per_group,
            buckets_per_cmu: self.buckets_per_cmu,
            bucket_bits: self.bucket_bits,
        }
    }
}

impl Default for FlyMonConfig {
    fn default() -> Self {
        FlyMonConfig {
            groups: 9,
            compression_units: 3,
            cmus_per_group: 3,
            buckets_per_cmu: 65536,
            bucket_bits: 16,
            alloc_mode: AllocMode::Accurate,
            max_partitions_log2: 5,
            preconfigure_five_tuple: true,
            spliced_groups: 0,
        }
    }
}

/// Handle to a deployed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskHandle(pub TaskId);

/// What one [`FlyMon::process_batch`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Packets processed in the batch.
    pub packets: u64,
    /// Packets mirrored to the recirculation port by the batch.
    pub recirculated: u64,
}

/// A deployed task's record.
#[derive(Debug, Clone)]
pub struct DeployedTask {
    /// The definition as submitted, shared with the WAL intent that
    /// logged it (and a fleet's task list). A reallocation deploys a new
    /// one; nothing edits a shared definition.
    pub def: Arc<TaskDefinition>,
    /// The algorithm that runs it.
    pub algorithm: Algorithm,
    /// Placed rows, in the recipe's row order.
    pub rows: Vec<PlacedRow>,
    /// The bindings installed for each row (row index parallel to
    /// `rows`) — kept so queries can replay the addressing path.
    pub bindings: Vec<CmuBinding>,
    /// Rule counts / modeled deployment latency.
    pub install: InstallPlan,
    /// Hash-unit references this task holds, as `(group, unit)` pairs
    /// with multiplicity — the exact refcounts `remove` gives back and
    /// the auditor recomputes.
    pub unit_refs: Vec<(usize, usize)>,
}

impl DeployedTask {
    /// Allocated sketch memory in bytes across all rows.
    pub fn memory_bytes(&self, bucket_bits: u8) -> usize {
        self.rows.iter().map(|r| r.size).sum::<usize>() * usize::from(bucket_bits) / 8
    }
}

/// One staged mutation of a deploy, recorded so a failed install can be
/// reverted precisely. Rollback replays the log in reverse.
#[derive(Debug, Clone)]
enum UndoOp {
    /// A reference was added to an already-configured hash unit.
    UnitRef { group: usize, unit: usize },
    /// A previously free hash unit was configured (refs went 0 → 1).
    FreshUnit { group: usize, unit: usize },
    /// A register partition was allocated.
    Partition {
        group: usize,
        cmu: usize,
        offset: usize,
        size: usize,
    },
    /// A group took the task's rows ([`CmuGroup::install_all`]).
    Bindings { group: usize, task: TaskId },
}

/// What a deploy stages before it commits, kept on the switch and
/// cleared rather than dropped between deploys, like [`BatchScratch`]:
/// a warm switch places and commits a task without allocating, and what
/// outlives the op is only what its [`DeployedTask`] record keeps.
#[derive(Debug, Default)]
struct DeployScratch {
    /// One slot per pipeline stage ([`FlyMon::place`]).
    slots: Vec<PlacedSlot>,
    /// The slots' CMUs back to back; [`PlacedSlot::cmus`] ranges over it.
    cmus: Vec<usize>,
    /// Every staged mutation, oldest first ([`FlyMon::rollback`]);
    /// empty between deploys (a commit and a rollback both drain it).
    undo: Vec<UndoOp>,
    /// The distinct hash masks the deploy configured fresh — at most its
    /// key's and its parameter's.
    masks: Vec<KeySpec>,
    /// `(row, binding)` per placed row, in row order.
    bindings: Vec<(usize, CmuBinding)>,
}

/// Retry accounting for one transaction's executed install ops.
#[derive(Debug, Clone, Copy, Default)]
struct ExecStats {
    retried_ops: usize,
    backoff_ms: f64,
}

/// A control generation no switch in this process has held: unique
/// across instances, so a sibling's image never reads as current.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The FlyMon system: data plane + control plane.
#[derive(Debug)]
pub struct FlyMon {
    pub(crate) config: FlyMonConfig,
    pub(crate) groups: Vec<CmuGroup>,
    pub(crate) allocators: Vec<Vec<BuddyAllocator>>,
    pub(crate) units: Vec<Vec<UnitImage>>,
    pub(crate) tasks: HashMap<TaskId, DeployedTask>,
    pub(crate) next_id: u32,
    /// Redrawn from [`next_generation`] by every deploy and remove (the
    /// only ops that touch tasks, units, masks, bindings or allocators),
    /// inherited by [`FlyMon::restore`]: an image at this generation
    /// holds the live control metadata.
    pub(crate) generation: u64,
    batch: BatchScratch,
    deploy_scratch: DeployScratch,
    batch_size: usize,
    lane_width: usize,
    pub(crate) packets_processed: u64,
    pub(crate) recirculated_packets: u64,
    pub(crate) total_install_ms: f64,
    fault: Option<FaultPlan>,
    retry: RetryPolicy,
    wal: Option<WriteAheadLog>,
}

/// The stage-major batch size: each chunk pays every group's dispatch
/// once, so a larger chunk pays it less often — until the chunk's
/// scratch spills L1. At 512 packets that scratch is the 16 KiB digest
/// matrix, 4 KiB of coin states, 4 KiB per matched list and the 16 KiB
/// of packets themselves: the largest chunk that stays inside a 48 KiB
/// L1d. The sweep that settled it (p25 ns/pkt over 4 096-packet calls,
/// 1 365 for the fleet row) is flat from 512 on:
///
/// | shape | 64 | 256 | 512 | 1 024 | 2 048 |
/// |---|---:|---:|---:|---:|---:|
/// | six-task mix | 63.3 | 57.2 | 55.1 | 54.2 | 54.8 |
/// | `Cms{d:3}` | 17.3 | 15.3 | 15.0 | 14.8 | 15.0 |
/// | fleet `Cms{d:2}` | 11.9 | 10.7 | 10.2 | 9.7 | 9.8 |
pub const BATCH_SIZE: usize = 512;

/// The SIMD lane-group width of the stage-major passes: the full
/// [`CRC_LANES`](flymon_rmt::hash::CRC_LANES) width, which keeps enough
/// independent CRC chains in flight to saturate the core's load ports.
/// The sweep that settled it read 39.0 / 47.2 / 56.2 M pkt/s at 1 / 4 / 8.
pub const LANE_WIDTH: usize = flymon_rmt::hash::CRC_LANES;

impl FlyMon {
    /// Builds the data plane.
    ///
    /// # Panics
    /// Panics on a geometry [`FlyMonConfig::validate`] refuses
    /// (programming errors in experiment setup).
    pub fn new(config: FlyMonConfig) -> Self {
        config.validate().unwrap_or_else(|rule| panic!("{rule}, got {config:?}"));
        let group_config = config.group_config();
        let min_block =
            (config.buckets_per_cmu >> config.max_partitions_log2).max(1);
        let mut groups: Vec<CmuGroup> = (0..config.groups)
            .map(|i| CmuGroup::new(i, group_config))
            .collect();
        let mut units =
            vec![vec![UnitImage::default(); config.compression_units]; config.groups];
        if config.preconfigure_five_tuple {
            for (g, group) in groups.iter_mut().enumerate() {
                group.unit_mut(0).set_mask(KeySpec::FIVE_TUPLE);
                units[g][0].spec = Some(KeySpec::FIVE_TUPLE);
                // refs stays 0: the standing key is free to share.
            }
        }
        FlyMon {
            config,
            groups,
            allocators: (0..config.groups)
                .map(|_| {
                    (0..config.cmus_per_group)
                        .map(|_| BuddyAllocator::new(config.buckets_per_cmu, min_block))
                        .collect()
                })
                .collect(),
            units,
            tasks: HashMap::new(),
            next_id: 1,
            generation: next_generation(),
            batch: BatchScratch::default(),
            deploy_scratch: DeployScratch::default(),
            batch_size: BATCH_SIZE,
            lane_width: LANE_WIDTH,
            packets_processed: 0,
            recirculated_packets: 0,
            total_install_ms: 0.0,
            fault: None,
            retry: RetryPolicy::default(),
            wal: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FlyMonConfig {
        &self.config
    }

    /// Read access to the groups (resource reports, tests).
    pub fn groups(&self) -> &[CmuGroup] {
        &self.groups
    }

    /// Packets processed so far.
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Packets mirrored to the recirculation port because they executed
    /// a task on a spliced group (Appendix E bandwidth overhead).
    pub fn recirculated_packets(&self) -> u64 {
        self.recirculated_packets
    }

    /// Cumulative modeled rule-install latency (ms), including retry
    /// backoff.
    pub fn total_install_ms(&self) -> f64 {
        self.total_install_ms
    }

    /// Arms a fault plan: until disarmed, every install-time operation
    /// of `deploy`/`remove`/`reallocate_memory`/`reset_task` is judged
    /// by it. The plan's op counter persists across calls while armed.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Disarms fault injection, returning the plan (and its op counter).
    pub fn disarm_faults(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The armed fault plan, if any (e.g. to revive a dead group).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault.as_mut()
    }

    /// Sets the retry policy applied to every install-time operation.
    ///
    /// The policy is validated here — a degenerate policy (zero
    /// attempts, non-finite backoff) is rejected up front instead of
    /// surfacing as a mysterious exhausted-retries failure halfway
    /// through a later install sequence. On error the previous policy
    /// stays in force.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) -> Result<(), FlymonError> {
        policy.validate().map_err(FlymonError::InvalidPolicy)?;
        self.retry = policy;
        Ok(())
    }

    /// Attaches a write-ahead log: until detached, every mutating
    /// task-management call appends an intent record before touching
    /// state and resolves it when the transaction finishes (see
    /// [`crate::wal`]). Replaces any previously attached log.
    pub fn attach_wal(&mut self, wal: WriteAheadLog) {
        self.wal = Some(wal);
    }

    /// Detaches and returns the write-ahead log, if one is attached.
    pub fn detach_wal(&mut self) -> Option<WriteAheadLog> {
        self.wal.take()
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&WriteAheadLog> {
        self.wal.as_ref()
    }

    /// The deployed task record for a handle.
    pub fn task(&self, h: TaskHandle) -> Result<&DeployedTask, FlymonError> {
        self.tasks.get(&h.0).ok_or(FlymonError::NoSuchTask)
    }

    /// Row `row` of task `h`: its placement, the binding installed for
    /// it and the register it lives in — or `BadTask` for a row the
    /// task does not have.
    fn placed_row(
        &self,
        h: TaskHandle,
        row: usize,
    ) -> Result<(&PlacedRow, &CmuBinding, &Register), FlymonError> {
        let task = self.task(h)?;
        // `bindings` is kept parallel to `rows`.
        let (Some(r), Some(binding)) = (task.rows.get(row), task.bindings.get(row)) else {
            return Err(FlymonError::BadTask(format!("row {row} out of range")));
        };
        Ok((r, binding, self.groups[r.group].cmus()[r.cmu].register()))
    }

    /// Number of tasks currently deployed.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Test hook: overrides [`BATCH_SIZE`] (clamped to ≥ 1) so the
    /// bit-identity sweeps of `tests/batch.rs` can show that chunk
    /// boundaries carry no state. Not a tuning knob.
    #[doc(hidden)]
    pub fn set_batch_size(&mut self, size: usize) {
        self.batch_size = size.max(1);
    }

    /// Test hook: overrides [`LANE_WIDTH`] (clamped to
    /// `1..=CRC_LANES`) so `tests/batch.rs` can pin every width
    /// bit-identical. Not a tuning knob.
    #[doc(hidden)]
    pub fn set_lane_width(&mut self, lanes: usize) {
        self.lane_width = lanes.clamp(1, flymon_rmt::hash::CRC_LANES);
    }

    /// Processes a batch of packets and reports what the batch did —
    /// the entry point a fleet's replay loop
    /// (`flymon_netsim::datapath::replay`) calls once per member per
    /// staged block.
    ///
    /// This is the stage-major hot path: the slice is cut into
    /// [`BATCH_SIZE`] chunks and each chunk sweeps through every
    /// group's compiled [`crate::program::GroupProgram`] one pipeline
    /// stage at a time ([`CmuGroup::process_chunk`]). Register contents,
    /// PHV results, hit counters and recirculation accounting are
    /// bit-identical to the per-packet reference,
    /// [`crate::oracle::PerPacket::process`].
    pub fn process_batch(&mut self, pkts: &[Packet]) -> BatchStats {
        let recirc_before = self.recirculated_packets;
        for chunk in pkts.chunks(self.batch_size) {
            self.process_chunk(chunk);
        }
        BatchStats {
            packets: pkts.len() as u64,
            recirculated: self.recirculated_packets - recirc_before,
        }
    }

    /// One stage-major chunk through the whole pipeline.
    fn process_chunk(&mut self, chunk: &[Packet]) {
        // PHV contexts only matter if some compiled binding reads them
        // (chained attributes); otherwise both the per-packet resets and
        // the per-op recording are skipped — the values are unobservable.
        let record_ctx = self.groups.iter().any(|g| g.program().reads_ctx);
        self.batch.begin_chunk(chunk.len(), record_ctx);
        let first_spliced =
            self.config.groups - self.config.spliced_groups.min(self.config.groups);
        for (g, group) in self.groups.iter_mut().enumerate() {
            group.process_chunk(
                chunk,
                &mut self.batch,
                g >= first_spliced,
                record_ctx,
                self.lane_width,
            );
        }
        self.recirculated_packets += self.batch.executed_count();
        self.packets_processed += chunk.len() as u64;
    }

    // ------------------------------------------------------------------
    // Task management interfaces (§3.4)
    // ------------------------------------------------------------------

    /// Runs `body` as one logged transaction. With a write-ahead log
    /// attached, every one of `intents` is appended before `body`
    /// mutates anything and resolved when it returns; without one this
    /// is just `body` (and `intents` is never built). The log is taken
    /// out for the duration, so the logged calls `body` itself makes
    /// (a reallocation's deploys and removes) add no records of their
    /// own.
    ///
    /// A record resolves by the call's *net effect* on the task set
    /// rather than by `Ok`/`Err` alone, because a reallocation can fail
    /// and still have changed state (`ReallocationReverted` lands under
    /// a fresh handle) and replay must reproduce what actually
    /// happened: `retires` is the task the call may remove — recorded
    /// as removed if it existed before and is gone after — and ids are
    /// handed out in order, so whatever the call created and left
    /// behind sits in `first_new..next_id`. A failed call with no
    /// effect is aborted.
    fn logged<T>(
        &mut self,
        intents: impl IntoIterator<Item = WalIntent>,
        retires: Option<TaskId>,
        body: impl FnOnce(&mut Self) -> Result<T, FlymonError>,
    ) -> Result<T, FlymonError> {
        let Some(mut wal) = self.wal.take() else {
            return body(self);
        };
        let first_seq = wal.last_seq() + 1;
        for intent in intents {
            wal.append(intent);
        }
        let retires = retires.filter(|id| self.tasks.contains_key(id));
        let first_new = self.next_id;
        let result = body(self);
        let removed = retires.filter(|id| !self.tasks.contains_key(id));
        let deployed = (first_new..self.next_id).find_map(|id| {
            let t = self.tasks.get(&TaskId(id))?;
            Some((TaskId(id), t.rows.first().map_or(0, |r| r.size)))
        });
        for seq in first_seq..=wal.last_seq() {
            if result.is_ok() || removed.is_some() || deployed.is_some() {
                wal.commit(seq, removed, deployed);
            } else {
                wal.abort(seq);
            }
        }
        self.wal = Some(wal);
        result
    }

    /// Deploys a task: picks groups/CMUs/partitions, configures hash
    /// units, installs bindings, and returns the handle. Pure runtime
    /// reconfiguration — no running packet is disturbed.
    ///
    /// Deployment is a transaction: every staged mutation is recorded in
    /// an undo log, and if any install-time operation fails (an armed
    /// [`FaultPlan`], a capacity race, a substrate error) the log is
    /// replayed in reverse, restoring the system exactly to its pre-call
    /// state before the error is returned.
    ///
    /// Logged ([`FlyMon::logged`]): committed with the new task's id
    /// and rounded geometry, aborted if the deployment rolled back.
    pub fn deploy(&mut self, def: &TaskDefinition) -> Result<TaskHandle, FlymonError> {
        self.deploy_shared(Arc::new(def.clone()))
    }

    /// [`FlyMon::deploy`] of a definition that is already shared — a
    /// fleet's, a reallocation's: the task record and the WAL intent
    /// hold the same `Arc`, so nothing is copied.
    pub fn deploy_shared(&mut self, def: Arc<TaskDefinition>) -> Result<TaskHandle, FlymonError> {
        // A definition that cannot be a task is refused before it is
        // logged: the WAL holds intents, not typos.
        def.validate()?;
        let intent = std::iter::once_with(|| WalIntent::Deploy(Arc::clone(&def)));
        self.logged(intent, None, |fm| fm.deploy_unlogged(&def))
    }

    /// [`FlyMon::deploy`] without write-ahead logging or validation —
    /// the body the logged wrapper runs, and WAL replay runs once it has
    /// validated the definition it decoded.
    pub(crate) fn deploy_unlogged(
        &mut self,
        def: &Arc<TaskDefinition>,
    ) -> Result<TaskHandle, FlymonError> {
        self.generation = next_generation();
        let alg = def.effective_algorithm();
        if matches!(alg, Algorithm::MaxInterval { .. }) && self.config.bucket_bits < 32 {
            return Err(FlymonError::BadTask(
                "max-inter-arrival time records µs timestamps and needs 32-bit registers \
                 (configure `bucket_bits: 32`)"
                    .into(),
            ));
        }
        let needs = compiler::required_keys(def, alg);
        let size = self.round_memory(def.memory)?;
        // The scratch leaves the switch for the op, so staging can fill
        // it while the switch mutates.
        let mut s = std::mem::take(&mut self.deploy_scratch);
        let result = self
            .place(def, &needs, alg, size, &mut s)
            .and_then(|()| self.deploy_commit(def, alg, &needs, size, &mut s));
        if result.is_err() {
            self.rollback(&mut s.undo);
        }
        self.deploy_scratch = s;
        result
    }

    /// The fallible staging half of [`FlyMon::deploy`], over the slots
    /// [`FlyMon::place`] left in `s`. Every mutation is mirrored into
    /// `s.undo`; the caller rolls back on `Err`.
    fn deploy_commit(
        &mut self,
        def: &Arc<TaskDefinition>,
        alg: Algorithm,
        needs: &compiler::KeyNeeds,
        size: usize,
        s: &mut DeployScratch,
    ) -> Result<TaskHandle, FlymonError> {
        let id = TaskId(self.next_id);
        let mut exec = ExecStats::default();
        s.masks.clear();
        let partitions_log2 = (self.config.buckets_per_cmu / size).ilog2() as u8;
        let bucket_max = if self.config.bucket_bits >= 32 {
            u32::MAX
        } else {
            (1u32 << self.config.bucket_bits) - 1
        };
        let mut rows = Vec::with_capacity(s.cmus.len());
        for slot in &s.slots {
            let g = slot.group;
            let key_source = match (needs.key, slot.key) {
                (Some(spec), Some(plan)) => {
                    Some(self.acquire_key(g, spec, plan, &mut s.undo, &mut s.masks, &mut exec)?)
                }
                _ => None,
            };
            // Planned only now: a unit the key just took may serve it.
            let param_source = match needs.param {
                Some(spec) => {
                    let plan = self.plan_key(g, &spec, 0).ok_or_else(|| {
                        FlymonError::NoCapacity(format!("group {g} has no hash unit for {spec}"))
                    })?;
                    Some(self.acquire_key(g, spec, plan, &mut s.undo, &mut s.masks, &mut exec)?)
                }
                None => None,
            };
            for (i, &cmu) in s.cmus[slot.cmus.clone()].iter().enumerate() {
                self.exec_op(InstallOpKind::BuddyWrite, g, &mut exec)?;
                // Placement verified capacity, but verify-then-commit is
                // a race window: surface it as a typed error, never a
                // panic mid-commit.
                let offset = self.allocators[g][cmu].alloc(size).ok_or(
                    FlymonError::PlacementRace {
                        group: g,
                        cmu,
                        buckets: size,
                    },
                )?;
                s.undo.push(UndoOp::Partition {
                    group: g,
                    cmu,
                    offset,
                    size,
                });
                rows.push(PlacedRow {
                    group: g,
                    cmu,
                    slice_shift: 8 * (i as u8 % 4),
                    translation: AddrTranslation::new(
                        partitions_log2,
                        (offset / size) as u32,
                        TranslationMethod::TcamBased,
                    ),
                    offset,
                    size,
                    key_source: key_source
                        .or(param_source)
                        .unwrap_or(KeySource::Unit(0)),
                    param_source,
                    bucket_max,
                });
            }
        }

        // Chained recipes want rows in instance-major order.
        if let Algorithm::MaxInterval { d } = alg {
            let stage_major = std::mem::take(&mut rows);
            rows = (0..d)
                .flat_map(|inst| (0..3).map(move |stage| stage * d + inst))
                .map(|i| stage_major[i].clone())
                .collect();
        }

        compiler::build_bindings_into(def, id, alg, &rows, &mut s.bindings)?;
        // Like the max-interval guard of `deploy_unlogged`, but read off
        // what was compiled: the SALU masks results to the register
        // width, so a one-hot bit above it would be set and lost.
        let one_hot = s.bindings.iter().map(|(_, b)| b.prep.one_hot_bits()).max().unwrap_or(0);
        if one_hot > self.config.bucket_bits {
            return Err(FlymonError::BadTask(format!(
                "{} sets one bit of {one_hot} per bucket and needs {one_hot}-bit registers \
                 (configure `bucket_bits: {one_hot}`)",
                alg.name()
            )));
        }
        let mut install = compiler::install_plan(&s.bindings, s.masks.len());
        // Every row's table op is judged, in row order, before the first
        // binding goes in; then each slot's group takes its rows in one
        // install, which refreshes its program once.
        for (row, _) in &s.bindings {
            let kind = InstallOpKind::Rule(RuleKind::TableEntry);
            self.exec_op(kind, rows[*row].group, &mut exec)?;
        }
        for slot in &s.slots {
            let g = slot.group;
            let on_group = s.bindings.iter().filter(|(r, _)| rows[*r].group == g);
            self.groups[g].install_all(on_group.map(|(r, b)| (rows[*r].cmu, b)))?;
            s.undo.push(UndoOp::Bindings { group: g, task: id });
        }

        install.retried_ops = exec.retried_ops;
        install.retry_backoff_ms = exec.backoff_ms;
        // Committed: the log is spent, and left empty for the next deploy.
        let unit_refs = s
            .undo
            .drain(..)
            .filter_map(|op| match op {
                UndoOp::UnitRef { group, unit } | UndoOp::FreshUnit { group, unit } => {
                    Some((group, unit))
                }
                _ => None,
            })
            .collect();
        self.total_install_ms += install.latency_ms();
        self.tasks.insert(
            id,
            DeployedTask {
                def: Arc::clone(def),
                algorithm: alg,
                rows,
                // `build_bindings` emits one binding per row, in row order.
                bindings: s.bindings.drain(..).map(|(_, b)| b).collect(),
                install,
                unit_refs,
            },
        );
        self.next_id += 1;
        Ok(TaskHandle(id))
    }

    /// Executes one modeled install op against the armed fault plan (if
    /// any), folding retry costs into `exec`.
    fn exec_op(
        &mut self,
        kind: InstallOpKind,
        group: usize,
        exec: &mut ExecStats,
    ) -> Result<(), FlymonError> {
        if let Some(plan) = &mut self.fault {
            let cost = plan
                .execute(kind, group, &self.retry)
                .map_err(FlymonError::Install)?;
            if cost.attempts > 1 {
                exec.retried_ops += 1;
                exec.backoff_ms += cost.backoff_ms;
            }
        }
        Ok(())
    }

    /// Replays an undo log in reverse, returning the system to the state
    /// it had before the failed transaction started staging, and leaves
    /// the log empty.
    fn rollback(&mut self, undo: &mut Vec<UndoOp>) {
        for op in undo.drain(..).rev() {
            match op {
                UndoOp::UnitRef { group, unit } => {
                    let u = &mut self.units[group][unit];
                    u.refs = u.refs.saturating_sub(1);
                }
                UndoOp::FreshUnit { group, unit } => {
                    self.units[group][unit] = UnitImage::default();
                    self.groups[group].unit_mut(unit).clear_mask();
                }
                UndoOp::Partition {
                    group,
                    cmu,
                    offset,
                    size,
                } => {
                    self.allocators[group][cmu].free(offset, size);
                }
                UndoOp::Bindings { group, task } => {
                    self.groups[group].remove_task(task);
                }
            }
        }
    }

    /// Removes a task: uninstalls bindings, frees partitions and releases
    /// hash-unit references.
    ///
    /// Removal is transactional too: the fallible data-plane phase
    /// (register clears and rule deletions, both judged by an armed
    /// [`FaultPlan`]) runs first with register snapshots, and any failure
    /// restores the cleared partitions bit-for-bit and leaves the task
    /// deployed. Only once every op has succeeded does the infallible
    /// bookkeeping phase retire the task.
    ///
    /// Logged ([`FlyMon::logged`]): committed as the task's removal,
    /// aborted if it stayed deployed.
    pub fn remove(&mut self, h: TaskHandle) -> Result<(), FlymonError> {
        self.logged([WalIntent::Remove(h.0)], Some(h.0), |fm| fm.remove_unlogged(h))
    }

    /// [`FlyMon::remove`] without write-ahead logging — the body the
    /// logged wrapper and WAL replay both run.
    pub(crate) fn remove_unlogged(&mut self, h: TaskHandle) -> Result<(), FlymonError> {
        self.generation = next_generation();
        // The record leaves the table for the op, so its rows are read
        // where they are, not copied; a refusal puts it back.
        let task = self.tasks.remove(&h.0).ok_or(FlymonError::NoSuchTask)?;

        // Phase 1 (fallible): clear partitions, then delete rules.
        if let Err(e) = self.clear_rows(&task.rows, true) {
            // Every cleared partition is restored; the task stays live.
            self.tasks.insert(h.0, task);
            return Err(e);
        }

        // Phase 2 (infallible): bookkeeping.
        self.retire(h.0, &task);
        Ok(())
    }

    /// The bookkeeping half of a removal, which nothing refuses: `task`
    /// (whose record has left the table) gives back its bindings, its
    /// partitions and its hash-unit references. Bindings go in per row,
    /// so only the rows' groups hold one of this task's.
    fn retire(&mut self, id: TaskId, task: &DeployedTask) {
        let mut swept = None;
        for row in &task.rows {
            if swept != Some(row.group) {
                self.groups[row.group].remove_task(id);
                swept = Some(row.group);
            }
            self.allocators[row.group][row.cmu].free(row.offset, row.size);
        }
        for &(g, u) in &task.unit_refs {
            self.release_unit_ref(g, u);
        }
    }

    /// Reallocates a task's memory (§6 memory reallocation strategy):
    /// deploys a fresh instance with the new size, diverts traffic to it,
    /// and reclaims the old one. Counts do not carry over — the paper's
    /// built-ins cannot resize without accuracy interference, so the old
    /// instance is frozen and retired. Returns the new handle.
    ///
    /// Deploy-first, and then atomic: a refused deploy or a refused
    /// removal of the old instance returns its error with the old task
    /// untouched — same handle, same rows — and nothing else changed.
    /// Only a deploy that found no room ([`FlymonError::NoCapacity`])
    /// falls back to remove-then-deploy, which can end in
    /// [`FlymonError::ReallocationReverted`] (the old geometry back under
    /// a fresh handle) or, if neither geometry deploys again, in an
    /// error saying the task was removed.
    ///
    /// Logged ([`FlyMon::logged`]) by its net effect — which task was
    /// retired, which was created at what rounded geometry — because a
    /// reallocation can land in several states: moved, reverted under a
    /// fresh handle, or untouched.
    pub fn reallocate_memory(
        &mut self,
        h: TaskHandle,
        new_buckets: usize,
    ) -> Result<TaskHandle, FlymonError> {
        let intent = WalIntent::Reallocate {
            task: h.0,
            new_buckets,
        };
        self.logged([intent], Some(h.0), |fm| fm.reallocate_unlogged(h, new_buckets))
    }

    /// [`FlyMon::reallocate_memory`] without write-ahead logging — the
    /// body the logged wrapper runs (replay re-executes the recorded
    /// net effect instead, see [`FlyMon::recover`]).
    pub(crate) fn reallocate_unlogged(
        &mut self,
        h: TaskHandle,
        new_buckets: usize,
    ) -> Result<TaskHandle, FlymonError> {
        let old = Arc::clone(&self.task(h)?.def);
        // A new definition for the new geometry: the old one stays what
        // its record and its WAL intent say it was.
        let def = Arc::new(TaskDefinition {
            memory: new_buckets,
            ..TaskDefinition::clone(&old)
        });
        let new_h = match self.deploy_shared(Arc::clone(&def)) {
            Ok(new_h) => new_h,
            // Capacity is tight: remove-then-deploy. A refused removal
            // returns with the task intact.
            Err(FlymonError::NoCapacity(_)) => {
                self.remove(h)?;
                return match self.deploy_shared(def) {
                    Ok(new_h) => Ok(new_h),
                    // The new geometry lost its race; re-deploying the
                    // old definition keeps the task alive (counts are
                    // lost either way, §6 freeze-and-divert).
                    Err(_) => match self.deploy_shared(old) {
                        Ok(restored) => Err(FlymonError::ReallocationReverted { restored }),
                        Err(e) => Err(FlymonError::NoCapacity(format!(
                            "reallocation removed task {:?} to make room and could not \
                             deploy it again at either geometry: {e}",
                            h.0
                        ))),
                    },
                };
            }
            Err(e) => return Err(e),
        };
        if let Err(e) = self.remove(h) {
            // The old instance survived its refused removal, so the new
            // one goes. It has seen no packet — its rows are the zeros
            // its partitions were handed out as — so its removal is the
            // bookkeeping half alone, which nothing refuses, and the
            // call leaves no trace, down to the next task id.
            let task = self.tasks.remove(&new_h.0).expect("deployed just above");
            self.retire(new_h.0, &task);
            self.next_id = new_h.0 .0;
            return Err(e);
        }
        Ok(new_h)
    }

    /// Clears a task's buckets (epoch boundary readout-and-reset).
    ///
    /// All-or-nothing: each clear is a fault-judged register write, and
    /// a failure restores the partitions already cleared.
    ///
    /// Logged ([`FlyMon::logged`]) — a reset is a control-plane
    /// mutation a recovered instance must replay, or it would resurrect
    /// pre-reset counts from the checkpoint.
    pub fn reset_task(&mut self, h: TaskHandle) -> Result<(), FlymonError> {
        self.logged([WalIntent::Reset(h.0)], None, |fm| fm.reset_unlogged(h))
    }

    /// [`FlyMon::reset_task`] without write-ahead logging — the body the
    /// logged wrapper and WAL replay both run.
    pub(crate) fn reset_unlogged(&mut self, h: TaskHandle) -> Result<(), FlymonError> {
        let rows = self.task(h)?.rows.clone();
        self.clear_rows(&rows, false)?;
        self.invalidate_programs(rows.iter().map(|r| r.group));
        Ok(())
    }

    /// Forces a program rebuild on each of `groups`, once. A reset
    /// leaves bindings untouched, but it is still a reconfiguration:
    /// *no* mutation path may leave a compiled program behind (the
    /// staleness contract of `tests/batch.rs`).
    fn invalidate_programs(&mut self, groups: impl Iterator<Item = usize>) {
        let mut touched: Vec<usize> = groups.collect();
        touched.sort_unstable();
        touched.dedup();
        for g in touched {
            self.groups[g].invalidate_program();
        }
    }

    /// Validates every row's range and, **only while a fault plan is
    /// armed**, copies each partition so a failed transaction can put it
    /// back bit for bit. Runs before the first clear: a bad range
    /// returns here with nothing mutated, which leaves the armed plan as
    /// the one thing that can fail between the first clear and the
    /// commit — so an unarmed switch has nothing to restore and skips
    /// the copy (96 KB for a `Cms{d:3}` at 8 192 buckets).
    fn snapshot_rows(&self, rows: &[PlacedRow]) -> Result<Vec<Vec<u32>>, FlymonError> {
        let armed = self.fault.is_some();
        let mut snapshots = Vec::with_capacity(if armed { rows.len() } else { 0 });
        for r in rows {
            let live = self.groups[r.group].cmus()[r.cmu]
                .register()
                .read_range(r.offset, r.offset + r.size)?;
            if armed {
                snapshots.push(live.to_vec());
            }
        }
        Ok(snapshots)
    }

    /// Clears each row's partition behind a fault-judged register write
    /// and then, for a remove (`delete_rules`), judges one rule deletion
    /// per row — all or nothing: a refusal writes
    /// [`FlyMon::snapshot_rows`]' copies back before it returns.
    fn clear_rows(&mut self, rows: &[PlacedRow], delete_rules: bool) -> Result<(), FlymonError> {
        let snapshots = self.snapshot_rows(rows)?;
        let mut exec = ExecStats::default();
        let cleared = rows
            .iter()
            .try_for_each(|r| {
                self.exec_op(InstallOpKind::RegisterWrite, r.group, &mut exec)?;
                let reg = self.groups[r.group].cmu_mut(r.cmu).register_mut();
                Ok::<_, FlymonError>(reg.clear_range(r.offset, r.offset + r.size)?)
            })
            .and_then(|()| {
                rows.iter().filter(|_| delete_rules).try_for_each(|r| {
                    self.exec_op(InstallOpKind::Rule(RuleKind::TableEntry), r.group, &mut exec)
                })
            });
        if cleared.is_err() {
            self.restore_rows(rows, snapshots);
        }
        cleared
    }

    /// Writes [`FlyMon::snapshot_rows`]' copies back over their rows.
    fn restore_rows(&mut self, rows: &[PlacedRow], snapshots: Vec<Vec<u32>>) {
        for (r, snap) in rows.iter().zip(snapshots) {
            let reg = self.groups[r.group].cmu_mut(r.cmu).register_mut();
            for (i, v) in snap.iter().enumerate() {
                // Indices and values came from this register.
                let _ = reg.write(r.offset + i, *v);
            }
        }
    }

    /// Double-buffered epoch reset of *every* deployed task at once:
    /// each touched register's live bank is swapped with its zeroed
    /// shadow bank in O(1), so the whole sweep costs O(rows) watermark
    /// checks and pointer swaps instead of an O(memory) read-and-clear
    /// — the data plane can resume the instant this returns. The
    /// retired epoch stays readable — once — through
    /// [`FlyMon::drain_archived_row`], which zeroes what it hands out;
    /// [`FlyMon::retire_epoch_banks`] re-zeroes whatever of the
    /// shadows was not drained, off the ingestion-stall path.
    ///
    /// Untouched registers (idle tasks) are not swapped at all: their
    /// live bank is already zero, so their archived rows read as `None`
    /// and merge as zeros.
    ///
    /// Semantically equivalent to [`FlyMon::reset_task`] over every
    /// deployed task in task-id order, and logged the same way: one
    /// `Reset` intent per task, appended before any mutation, so
    /// recovery and standby promotion replay per-task `clear_range`
    /// sweeps onto the checkpoint image and land on the same all-zero
    /// registers. Each partition is also marked on the checkpoint
    /// watermark, so the next delta snapshot ships the zeros exactly as
    /// a clear sweep would have.
    ///
    /// All-or-nothing for the whole switch: every reset op is
    /// fault-judged *before* the first swap, so a refused op leaves
    /// every register (and the WAL, via aborts) untouched.
    ///
    /// A bank swap clears whole registers, which is only a reset when
    /// it covers every task keeping state in them — hence the whole
    /// switch. Callers resetting a subset use [`FlyMon::reset_task`]
    /// per handle instead.
    pub fn rotate_banks(&mut self) -> Result<(), FlymonError> {
        let mut ids: Vec<TaskId> = self.tasks.keys().copied().collect();
        ids.sort_unstable();
        let intents = ids.iter().map(|&id| WalIntent::Reset(id));
        self.logged(intents, None, |fm| fm.rotate_banks_unlogged(&ids))
    }

    /// [`FlyMon::rotate_banks`] of the tasks `ids` — every deployed one,
    /// in the order their resets are judged — without write-ahead
    /// logging. (WAL replay does not run this: the logged intents are
    /// plain per-task resets, replayed through
    /// [`FlyMon::reset_unlogged`].)
    fn rotate_banks_unlogged(&mut self, ids: &[TaskId]) -> Result<(), FlymonError> {
        // (group, cmu, offset, size) per row, in task order — the same
        // op order a reset_task sweep would judge.
        let mut rows: Vec<(usize, usize, usize, usize)> = Vec::new();
        for id in ids {
            rows.extend(
                self.tasks[id]
                    .rows
                    .iter()
                    .map(|r| (r.group, r.cmu, r.offset, r.size)),
            );
        }
        // Judge every reset op before the first swap: a refused op
        // aborts the whole rotation with nothing mutated.
        let mut exec = ExecStats::default();
        for &(g, ..) in &rows {
            self.exec_op(InstallOpKind::RegisterWrite, g, &mut exec)?;
        }
        // Swap each touched register once; registers left holding an
        // archive by an aborted rotation are re-zeroed instead (their
        // live bank is only swap-clean if the shadow was).
        let mut regs: Vec<(usize, usize)> = rows.iter().map(|&(g, c, ..)| (g, c)).collect();
        regs.sort_unstable();
        regs.dedup();
        for &(g, c) in &regs {
            let reg = self.groups[g].cmu_mut(c).register_mut();
            if reg.touched_range().is_some() {
                reg.swap_epoch_bank();
            } else if reg.has_archive() {
                reg.retire_shadow();
            }
        }
        // Mark each retired partition on the checkpoint watermark so
        // the next delta ships the zeros (only where a swap actually
        // changed the live bank).
        for &(g, c, off, size) in &rows {
            let reg = self.groups[g].cmu_mut(c).register_mut();
            if reg.has_archive() {
                reg.mark_epoch_cleared(off, off + size)?;
            }
        }
        self.invalidate_programs(rows.iter().map(|r| r.0));
        Ok(())
    }

    /// The archived (pre-rotation) contents of one row, handed over
    /// for good between [`FlyMon::rotate_banks`] and
    /// [`FlyMon::retire_epoch_banks`]: the drain zeroes the row as the
    /// reader lets go of it, and retirement no longer owes it
    /// ([`flymon_rmt::register::Register::drain_archived_range`]).
    /// `Ok(None)` means the row's register holds no archive — it was
    /// untouched when the rotation ran, so the row's epoch contents
    /// were all-zero.
    pub fn drain_archived_row(
        &mut self,
        h: TaskHandle,
        row: usize,
    ) -> Result<Option<ArchiveDrain<'_>>, FlymonError> {
        let (r, ..) = self.placed_row(h, row)?;
        let (g, c, start, end) = (r.group, r.cmu, r.offset, r.offset + r.size);
        Ok(self.groups[g]
            .cmu_mut(c)
            .register_mut()
            .drain_archived_range(start, end)?)
    }

    /// Re-zeroes what the merge left of every archived epoch — the
    /// hulls of rows nobody drained (a failed switch's, an error
    /// path's) — after ingestion has already resumed on the fresh
    /// banks. Registers whose every partition was drained owe nothing.
    pub fn retire_epoch_banks(&mut self) {
        for g in 0..self.groups.len() {
            for c in 0..self.groups[g].cmus().len() {
                self.groups[g].cmu_mut(c).register_mut().retire_shadow();
            }
        }
    }

    // ------------------------------------------------------------------
    // Readout & queries
    // ------------------------------------------------------------------

    /// Borrowed view of one row's partition, in the register's own
    /// cells — the zero-copy readout the epoch merge kernels consume.
    /// The view aliases live SRAM: it reflects whatever the data plane
    /// wrote up to this call.
    pub fn row_view(&self, h: TaskHandle, row: usize) -> Result<Buckets<'_>, FlymonError> {
        let (r, _, reg) = self.placed_row(h, row)?;
        Ok(reg.read_range(r.offset, r.offset + r.size)?)
    }

    /// Copies one row's partition into `out`, reusing its capacity —
    /// the steady-state readout loop allocates nothing once `out` has
    /// grown to the largest row it services.
    pub fn read_row_into(
        &self,
        h: TaskHandle,
        row: usize,
        out: &mut Vec<u32>,
    ) -> Result<(), FlymonError> {
        let view = self.row_view(h, row)?;
        out.clear();
        out.extend(view.iter());
        Ok(())
    }

    /// Reads one row's partition (the control plane's periodic readout).
    pub fn read_row(&self, h: TaskHandle, row: usize) -> Result<Vec<u32>, FlymonError> {
        self.row_view(h, row).map(Buckets::to_vec)
    }

    /// True when the row's partition is provably all-zero: untouched
    /// since it was last reset, per the register's epoch watermark
    /// ([`flymon_rmt::register::Register::touched_range`]). Readout
    /// paths use this to elide idle rows — a skipped row contributes
    /// exactly what merging its zeros would have.
    pub fn row_untouched(&self, h: TaskHandle, row: usize) -> Result<bool, FlymonError> {
        let (r, _, reg) = self.placed_row(h, row)?;
        Ok(reg.is_untouched(r.offset, r.offset + r.size))
    }

    /// The bucket a row's data-plane path addresses for `pkt` —
    /// *relative to the row's partition*. Hashing state goes through
    /// the caller's scratch, so a query loop over many rows or packets
    /// allocates nothing. A `row` the task does not have is `BadTask`.
    pub fn locate_with(
        &self,
        h: TaskHandle,
        row: usize,
        pkt: &Packet,
        scratch: &mut flymon_rmt::hash::HashScratch,
    ) -> Result<usize, FlymonError> {
        let (r, binding, _) = self.placed_row(h, row)?;
        self.groups[r.group].compress_into(pkt, scratch);
        let raw = binding
            .key
            .address(scratch.as_slice(), self.groups[r.group].addr_bits());
        let abs = binding
            .translation
            .translate(raw, self.config.buckets_per_cmu);
        Ok(abs - r.offset)
    }

    /// [`FlyMon::locate_with`] with a throwaway scratch — convenience
    /// for one-off queries; loops should hold their own scratch.
    pub fn locate(&self, h: TaskHandle, row: usize, pkt: &Packet) -> Result<usize, FlymonError> {
        let mut scratch = flymon_rmt::hash::HashScratch::default();
        self.locate_with(h, row, pkt, &mut scratch)
    }

    /// The absolute bucket value a row holds for `pkt`, hashed through a
    /// caller-held scratch.
    pub fn row_value_with(
        &self,
        h: TaskHandle,
        row: usize,
        pkt: &Packet,
        scratch: &mut flymon_rmt::hash::HashScratch,
    ) -> Result<u32, FlymonError> {
        let idx = self.locate_with(h, row, pkt, scratch)?;
        let (r, _, reg) = self.placed_row(h, row)?;
        Ok(reg.read(r.offset + idx)?)
    }

    /// Frequency estimate for the flow `pkt` belongs to.
    pub fn query_frequency(&self, h: TaskHandle, pkt: &Packet) -> u64 {
        analysis::query_frequency(self, h, pkt).unwrap_or(0)
    }

    /// Max-attribute estimate for the flow `pkt` belongs to.
    pub fn query_max(&self, h: TaskHandle, pkt: &Packet) -> u64 {
        analysis::query_max(self, h, pkt).unwrap_or(0)
    }

    /// Existence check (Bloom-filter tasks).
    pub fn query_exists(&self, h: TaskHandle, pkt: &Packet) -> bool {
        analysis::query_exists(self, h, pkt).unwrap_or(false)
    }

    /// Coupons collected per row (BeauCoup tasks).
    pub fn query_coupons(&self, h: TaskHandle, pkt: &Packet) -> Vec<u32> {
        analysis::query_coupons(self, h, pkt).unwrap_or_default()
    }

    /// Whether a BeauCoup task reports the flow (all rows over
    /// threshold, §4).
    pub fn beaucoup_reports(&self, h: TaskHandle, pkt: &Packet) -> bool {
        analysis::beaucoup_reports(self, h, pkt).unwrap_or(false)
    }

    /// Distinct-count estimate (BeauCoup inversion or HLL/LC readout for
    /// per-flow and single-key tasks respectively).
    pub fn query_distinct(&self, h: TaskHandle, pkt: &Packet) -> f64 {
        analysis::query_distinct(self, h, pkt).unwrap_or(0.0)
    }

    /// Cardinality estimate for single-key distinct tasks (HLL/LC).
    pub fn cardinality(&self, h: TaskHandle) -> f64 {
        analysis::cardinality(self, h).unwrap_or(0.0)
    }

    /// MRAC flow-size distribution estimate.
    pub fn flow_size_distribution(&self, h: TaskHandle, em_iterations: usize) -> Vec<f64> {
        analysis::flow_size_distribution(self, h, em_iterations).unwrap_or_default()
    }

    /// MRAC flow-entropy estimate.
    pub fn entropy(&self, h: TaskHandle, em_iterations: usize) -> f64 {
        analysis::entropy(self, h, em_iterations).unwrap_or(0.0)
    }

    /// Packets the task's first row has matched since deployment — the
    /// per-task traffic counter an operator reads alongside the sketch
    /// (sampled tasks count only the packets their coin admitted).
    pub fn task_hits(&self, h: TaskHandle) -> Result<u64, FlymonError> {
        let task = self.task(h)?;
        let row = &task.rows[0];
        Ok(self.groups[row.group].cmus()[row.cmu]
            .hits_of(h.0)
            .unwrap_or(0))
    }

    /// Jaccard similarity between the traffic sets of two Odd-Sketch
    /// tasks (§6 expansion via the reserved XOR operation).
    pub fn jaccard_similarity(&self, a: TaskHandle, b: TaskHandle) -> Result<f64, FlymonError> {
        analysis::jaccard_similarity(self, a, b)
    }

    /// The BeauCoup coupon calibration of a deployed task.
    pub fn coupon_config(&self, h: TaskHandle) -> Result<CmuCouponConfig, FlymonError> {
        let task = self.task(h)?;
        Ok(CmuCouponConfig::for_threshold(task.def.distinct_threshold))
    }

    // ------------------------------------------------------------------
    // Resource management interfaces (§3.4)
    // ------------------------------------------------------------------

    /// Hardware resource utilization of this data plane on a Tofino-like
    /// model: the per-group footprint (Fig. 13a) scaled by group count.
    pub fn resource_utilization(
        &self,
        model: &flymon_rmt::resources::TofinoModel,
    ) -> Vec<(flymon_rmt::resources::ResourceKind, f64)> {
        compiler::cmu_group_footprint(&self.config.group_config(), model)
            .scale(self.config.groups as u64)
            .utilization(model)
    }

    /// Free CMU-equivalents: CMUs with no binding at all.
    pub fn free_cmus(&self) -> usize {
        self.groups
            .iter()
            .flat_map(|g| g.cmus())
            .filter(|c| c.bindings().is_empty())
            .count()
    }

    /// Total free buckets across all CMUs.
    pub fn free_buckets(&self) -> usize {
        self.allocators
            .iter()
            .flatten()
            .map(BuddyAllocator::free_buckets)
            .sum()
    }

    fn round_memory(&self, request: usize) -> Result<usize, FlymonError> {
        if request == 0 {
            return Err(FlymonError::BadMemory("zero buckets".into()));
        }
        if request > self.config.buckets_per_cmu {
            return Err(FlymonError::BadMemory(format!(
                "{request} buckets exceed the register ({})",
                self.config.buckets_per_cmu
            )));
        }
        let min = (self.config.buckets_per_cmu >> self.config.max_partitions_log2).max(1);
        Ok(self.config.alloc_mode.round(request).clamp(min, self.config.buckets_per_cmu))
    }

    /// Where group `g` would get the compressed key `spec` from, without
    /// mutating state — the §3.4 preference order, stated once for the
    /// placer that plans it and the committer that applies it
    /// ([`FlyMon::acquire_key`]): a unit already configured with `spec`,
    /// else the XOR of two configured units, else the first free unit
    /// past the `promised` ones the same plan already claimed.
    fn plan_key(&self, g: usize, spec: &KeySpec, promised: usize) -> Option<KeyPlan> {
        let states = &self.units[g];
        if let Some(i) = states.iter().position(|u| u.spec.as_ref() == Some(spec)) {
            return Some(KeyPlan::Unit(i));
        }
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                if let (Some(a), Some(b)) = (&states[i].spec, &states[j].spec) {
                    if a.merge_disjoint(b) == Some(*spec) {
                        return Some(KeyPlan::Xor(i, j));
                    }
                }
            }
        }
        let mut free = (0..states.len()).filter(|&i| states[i].spec.is_none());
        free.nth(promised).map(KeyPlan::Fresh)
    }

    /// Acquires a key source in group `g` as `plan` — what
    /// [`FlyMon::plan_key`] picks in the group's current state — says,
    /// configuring a fresh unit if needed; a fresh mask joins `masks`
    /// once. Every refcount bump is mirrored into the undo log, so a
    /// later failure in the same transaction releases exactly what was
    /// acquired — including a key acquired for `key_source` before a
    /// failed `param_source` acquisition (the historical leak).
    fn acquire_key(
        &mut self,
        g: usize,
        spec: KeySpec,
        plan: KeyPlan,
        undo: &mut Vec<UndoOp>,
        masks: &mut Vec<KeySpec>,
        exec: &mut ExecStats,
    ) -> Result<KeySource, FlymonError> {
        let mut add_ref = |unit: usize| {
            self.units[g][unit].refs += 1;
            undo.push(UndoOp::UnitRef { group: g, unit });
        };
        match plan {
            KeyPlan::Unit(i) => {
                add_ref(i);
                Ok(KeySource::Unit(i))
            }
            KeyPlan::Xor(i, j) => {
                add_ref(i);
                add_ref(j);
                Ok(KeySource::Xor(i, j))
            }
            KeyPlan::Fresh(i) => {
                // A hash-mask rule install, judged by the fault plan
                // before any state changes.
                self.exec_op(InstallOpKind::Rule(RuleKind::HashMask), g, exec)?;
                self.units[g][i] = UnitImage {
                    spec: Some(spec),
                    refs: 1,
                };
                self.groups[g].unit_mut(i).set_mask(spec);
                if !masks.contains(&spec) {
                    masks.push(spec);
                }
                undo.push(UndoOp::FreshUnit { group: g, unit: i });
                Ok(KeySource::Unit(i))
            }
        }
    }

    /// Releases one reference on unit `u` of group `g`, clearing the
    /// unit when unreferenced (the standing 5-tuple mask is kept). The
    /// `(g, u)` pairs come from the owning task's `unit_refs`, making
    /// removal the exact inverse of deployment.
    fn release_unit_ref(&mut self, g: usize, u: usize) {
        let state = &mut self.units[g][u];
        state.refs = state.refs.saturating_sub(1);
        let keep_standing = self.config.preconfigure_five_tuple
            && u == 0
            && state.spec == Some(KeySpec::FIVE_TUPLE);
        if state.refs == 0 && !keep_standing {
            *state = UnitImage::default();
            self.groups[g].unit_mut(u).clear_mask();
        }
    }

    /// Whether CMU `c` of group `g` can host a new row of `size` buckets
    /// under `def`'s filter (§3.3: no traffic intersection on a CMU
    /// unless both tasks sample).
    fn cmu_usable(&self, g: usize, c: usize, def: &TaskDefinition, size: usize) -> bool {
        self.allocators[g][c].largest_free() >= size
            && self.groups[g].cmus()[c].bindings().iter().all(|b| {
                !b.filter.intersects(&def.filter) || (b.prob_log2 > 0 && def.prob_log2 > 0)
            })
    }

    /// Greedy placement into `s`: one [`PlacedSlot`] per pipeline stage
    /// of `alg`.
    fn place(
        &self,
        def: &TaskDefinition,
        needs: &compiler::KeyNeeds,
        alg: Algorithm,
        size: usize,
        s: &mut DeployScratch,
    ) -> Result<(), FlymonError> {
        let (stages, rows) = stage_layout(alg);
        let cmus = self.config.cmus_per_group;
        // Score group `g` without building anything: how many new masks
        // it would take (fewer is better — the greedy preference for
        // groups that already own the keys, §3.4) and the key's plan.
        // Its usable CMUs go onto `out`, and the scan stops once `rows`
        // are found or too few CMUs are left to find them.
        let fit = |g: usize, out: &mut Vec<usize>| -> Option<(usize, Option<KeyPlan>)> {
            let mut left = rows;
            for c in 0..cmus {
                if left == 0 || cmus - c < left {
                    break;
                }
                if self.cmu_usable(g, c, def, size) {
                    out.push(c);
                    left -= 1;
                }
            }
            if left > 0 {
                return None;
            }
            let key = match &needs.key {
                Some(spec) => Some(self.plan_key(g, spec, 0)?),
                None => None,
            };
            let mut new_masks = usize::from(matches!(key, Some(KeyPlan::Fresh(_))));
            if let Some(spec) = &needs.param {
                if let KeyPlan::Fresh(_) = self.plan_key(g, spec, new_masks)? {
                    new_masks += 1;
                }
            }
            Some((new_masks, key))
        };
        s.slots.clear();
        s.cmus.clear();
        let mut next_group = 0;
        for _ in 0..stages {
            // A chained stage takes the first group past the previous
            // stage's that fits, a lone stage the `(score, g)` minimum —
            // which cannot come after a score of 0. The best group's CMUs
            // stay in `s.cmus` from `start`.
            let start = s.cmus.len();
            let mut best = None;
            for g in next_group..self.config.groups {
                let at = s.cmus.len();
                match fit(g, &mut s.cmus) {
                    Some((score, key)) if best.is_none_or(|(least, _, _)| score < least) => {
                        s.cmus.drain(start..at);
                        best = Some((score, g, key));
                        if stages > 1 || score == 0 {
                            break;
                        }
                    }
                    _ => s.cmus.truncate(at),
                }
            }
            let Some((_, group, key)) = best else {
                return Err(FlymonError::NoCapacity(if stages == 1 {
                    format!("no group can host {rows} rows of {size} buckets for task {}", def.name)
                } else {
                    format!("no ascending group chain for task {} (stage needs {rows} rows)", def.name)
                }));
            };
            s.slots.push(PlacedSlot { group, key, cmus: start..s.cmus.len() });
            next_group = group + 1;
        }
        Ok(())
    }
}

/// Pipeline stages a recipe chains through (one group each, ascending)
/// and the rows each stage places.
fn stage_layout(alg: Algorithm) -> (usize, usize) {
    match alg {
        Algorithm::SuMaxSum { d } => (d, 1),
        Algorithm::CounterBraids | Algorithm::OddSketch => (2, 1),
        Algorithm::MaxInterval { d } => (3, d),
        other => (1, other.cmus_used()),
    }
}

/// One stage's placement: a group, the plan for the task's key there,
/// and the CMUs its rows take.
#[derive(Debug, Clone)]
struct PlacedSlot {
    group: usize,
    /// [`FlyMon::plan_key`]'s answer for the key, which the commit
    /// carries out: no stage before this one touched the group.
    key: Option<KeyPlan>,
    /// The slot's CMUs, as a range of [`DeployScratch::cmus`].
    cmus: Range<usize>,
}

/// How a group serves a compressed key ([`FlyMon::plan_key`]).
#[derive(Debug, Clone, Copy)]
enum KeyPlan {
    /// Unit `i` already hashes exactly this key.
    Unit(usize),
    /// The XOR of two configured units' digests is this key's.
    Xor(usize, usize),
    /// Free unit `i` gets configured with it (a new hash-mask rule).
    Fresh(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::PerPacket;
    use crate::task::Attribute;
    use flymon_packet::TaskFilter;

    impl FlyMon {
        /// Unconfigured hash units in group `g` (what `remove_frees_everything` counts).
        fn free_units(&self, g: usize) -> usize {
            self.units[g].iter().filter(|u| u.spec.is_none()).count()
        }
    }

    fn small() -> FlyMon {
        FlyMon::new(FlyMonConfig {
            groups: 4,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        })
    }

    fn cms_task(name: &str, mem: usize) -> TaskDefinition {
        TaskDefinition::builder(name)
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .memory(mem)
            .build()
    }

    #[test]
    fn deploy_and_count() {
        let mut fm = small();
        let h = fm.deploy(&cms_task("t", 256)).unwrap();
        for _ in 0..7 {
            fm.process(&Packet::tcp(0x0a000001, 2, 3, 4));
        }
        fm.process(&Packet::tcp(0x0b000001, 2, 3, 4));
        assert_eq!(fm.query_frequency(h, &Packet::tcp(0x0a000001, 9, 9, 9)), 7);
        assert_eq!(fm.query_frequency(h, &Packet::tcp(0x0b000001, 9, 9, 9)), 1);
        assert_eq!(fm.packets_processed(), 8);
    }

    #[test]
    fn zero_row_definitions_and_out_of_range_rows_are_errors() {
        // Both used to get past the control plane and panic later: a
        // `d = 0` task deployed with no rows (the REPL indexed
        // `rows[0]`), and the locate/value queries indexed `rows[row]`.
        let mut fm = small();
        fm.attach_wal(WriteAheadLog::new());
        let zero = TaskDefinition::builder("z")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 0 })
            .build();
        assert!(matches!(fm.deploy(&zero), Err(FlymonError::BadTask(_))));
        assert!(fm.wal().unwrap().is_empty(), "refused before the intent is appended");
        assert_eq!(fm.task_count(), 0);

        let h = fm.deploy(&cms_task("t", 256)).unwrap();
        let rows = fm.task(h).unwrap().rows.len();
        let pkt = Packet::tcp(0x0a000001, 2, 3, 4);
        let mut scratch = flymon_rmt::hash::HashScratch::default();
        assert!(fm.locate_with(h, rows - 1, &pkt, &mut scratch).is_ok());
        assert_eq!(fm.row_value_with(h, rows - 1, &pkt, &mut scratch).unwrap(), 0);
        for row in [rows, usize::MAX] {
            let located = fm.locate_with(h, row, &pkt, &mut scratch);
            assert!(matches!(located, Err(FlymonError::BadTask(_))), "{located:?}");
            let value = fm.row_value_with(h, row, &pkt, &mut scratch);
            assert!(matches!(value, Err(FlymonError::BadTask(_))), "{value:?}");
        }
    }

    #[test]
    fn memory_rounding_modes() {
        let mut fm = small();
        let h = fm.deploy(&cms_task("t", 200)).unwrap();
        // Accurate mode rounds 200 up to 256.
        assert_eq!(fm.task(h).unwrap().rows[0].size, 256);

        let mut fm2 = FlyMon::new(FlyMonConfig {
            groups: 2,
            buckets_per_cmu: 1024,
            alloc_mode: AllocMode::Efficient,
            ..FlyMonConfig::default()
        });
        let h2 = fm2.deploy(&cms_task("t", 280)).unwrap();
        // Efficient mode rounds 280 down to 256 (nearest).
        assert_eq!(fm2.task(h2).unwrap().rows[0].size, 256);
    }

    #[test]
    fn memory_validation() {
        let mut fm = small();
        assert!(matches!(
            fm.deploy(&cms_task("big", 4096)),
            Err(FlymonError::BadMemory(_))
        ));
        assert!(matches!(
            fm.deploy(&cms_task("zero", 0)),
            Err(FlymonError::BadMemory(_))
        ));
        // Requests below the 32-partition floor are raised to it.
        let h = fm.deploy(&cms_task("tiny", 1)).unwrap();
        assert_eq!(fm.task(h).unwrap().rows[0].size, 1024 / 32);
    }

    #[test]
    fn remove_frees_everything() {
        let mut fm = small();
        let before_units: usize = (0..4).map(|g| fm.free_units(g)).sum();
        let h = fm.deploy(&cms_task("t", 1024)).unwrap();
        assert!(fm.free_buckets() < 4 * 3 * 1024);
        fm.remove(h).unwrap();
        assert_eq!(fm.free_buckets(), 4 * 3 * 1024);
        assert_eq!(fm.task_count(), 0);
        let after_units: usize = (0..4).map(|g| fm.free_units(g)).sum();
        assert_eq!(before_units, after_units, "hash units must be released");
        assert!(matches!(fm.remove(h), Err(FlymonError::NoSuchTask)));
    }

    #[test]
    fn removing_one_task_leaves_others_intact() {
        let mut fm = small();
        let a = fm
            .deploy(&cms_task("a", 256).clone())
            .unwrap();
        let mut def_b = cms_task("b", 256);
        def_b.filter = TaskFilter::src(0x14000000, 8);
        let b = fm.deploy(&def_b).unwrap();
        for _ in 0..5 {
            fm.process(&Packet::tcp(0x14000001, 2, 3, 4));
        }
        fm.remove(a).unwrap();
        assert_eq!(fm.query_frequency(b, &Packet::tcp(0x14000001, 2, 3, 4)), 5);
    }

    #[test]
    fn key_reuse_avoids_new_masks() {
        let mut fm = small();
        // Disjoint filters so the tasks may share CMUs and therefore the
        // group whose hash unit already carries the SrcIP mask.
        let mut def_a = cms_task("a", 64);
        def_a.filter = TaskFilter::src(0x0a000000, 8);
        let h1 = fm.deploy(&def_a).unwrap();
        let mut def_b = cms_task("b", 64);
        def_b.filter = TaskFilter::src(0x14000000, 8);
        let h2 = fm.deploy(&def_b).unwrap();
        let (t1, t2) = (fm.task(h1).unwrap(), fm.task(h2).unwrap());
        // First deployment configures the SrcIP mask; the second reuses
        // it (greedy placement prefers the group that has it).
        assert_eq!(t1.install.hash_mask_rules, 1);
        assert_eq!(t2.install.hash_mask_rules, 0);
        assert_eq!(t1.rows[0].group, t2.rows[0].group);
    }

    #[test]
    fn xor_composition_for_ip_pair() {
        let mut fm = small();
        let a = fm.deploy(&cms_task("src", 64)).unwrap();
        let mut def_dst = cms_task("dst", 64);
        def_dst.key = KeySpec::DST_IP;
        def_dst.filter = TaskFilter::src(0x14000000, 8);
        let b = fm.deploy(&def_dst).unwrap();
        // Force both into the same group? They should land together by
        // the greedy scorer only if it helps; instead verify an IP-pair
        // task can use XOR when both parts exist in one group.
        let g = fm.task(a).unwrap().rows[0].group;
        if fm.task(b).unwrap().rows[0].group == g {
            let mut def_pair = cms_task("pair", 64);
            def_pair.key = KeySpec::IP_PAIR;
            def_pair.filter = TaskFilter::dst(0x22000000, 8);
            let c = fm.deploy(&def_pair).unwrap();
            let t = fm.task(c).unwrap();
            if t.rows[0].group == g {
                assert!(matches!(t.rows[0].key_source, KeySource::Xor(_, _)));
                assert_eq!(t.install.hash_mask_rules, 0);
            }
        }
    }

    #[test]
    fn intersecting_filters_do_not_share_a_cmu() {
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        });
        // Task A takes all 3 CMUs for all traffic.
        fm.deploy(&cms_task("a", 64)).unwrap();
        // Task B intersects (10/8 ⊂ any) -> no CMU available.
        let mut def_b = cms_task("b", 64);
        def_b.filter = TaskFilter::src(0x0a000000, 8);
        assert!(matches!(
            fm.deploy(&def_b),
            Err(FlymonError::NoCapacity(_))
        ));
        // But with sampling on both sides they may time-share.
        let mut fm2 = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        });
        let mut def_a = cms_task("a", 64);
        def_a.prob_log2 = 1;
        fm2.deploy(&def_a).unwrap();
        let mut def_b2 = cms_task("b", 64);
        def_b2.prob_log2 = 1;
        fm2.deploy(&def_b2).unwrap();
    }

    #[test]
    fn ninety_six_tasks_on_one_group() {
        // §5.1: 32 partitions × 3 CMUs = 96 isolated tasks per group.
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        });
        let min = 1024 / 32;
        for i in 0..96u32 {
            // Single-CMU tasks: 32 partitions × 3 CMUs = 96.
            let def = TaskDefinition::builder(format!("t{i}"))
                .key(KeySpec::SRC_IP)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 1 })
                // Disjoint /16 filters keep tasks isolated.
                .filter(TaskFilter::src((10 << 24) | (i << 16), 16))
                .memory(min)
                .build();
            fm.deploy(&def)
                .unwrap_or_else(|e| panic!("task {i} failed: {e}"));
        }
        assert_eq!(fm.task_count(), 96);
        assert_eq!(fm.free_buckets(), 0);
        // The 97th is refused.
        let extra = TaskDefinition::builder("extra")
            .key(KeySpec::SRC_IP)
            .filter(TaskFilter::src(0xff000000, 16))
            .memory(min)
            .build();
        assert!(fm.deploy(&extra).is_err());
    }

    #[test]
    fn reallocation_moves_to_new_partition() {
        let mut fm = small();
        let h = fm.deploy(&cms_task("t", 128)).unwrap();
        for _ in 0..5 {
            fm.process(&Packet::tcp(1, 2, 3, 4));
        }
        let h2 = fm.reallocate_memory(h, 512).unwrap();
        assert!(matches!(fm.task(h), Err(FlymonError::NoSuchTask)));
        assert_eq!(fm.task(h2).unwrap().rows[0].size, 512);
        // Fresh instance starts from zero (§6: freeze-and-divert).
        assert_eq!(fm.query_frequency(h2, &Packet::tcp(1, 2, 3, 4)), 0);
        for _ in 0..3 {
            fm.process(&Packet::tcp(1, 2, 3, 4));
        }
        assert_eq!(fm.query_frequency(h2, &Packet::tcp(1, 2, 3, 4)), 3);
    }

    #[test]
    fn reset_task_clears_only_its_partition() {
        let mut fm = small();
        let a = fm.deploy(&cms_task("a", 256)).unwrap();
        let mut def_b = cms_task("b", 256);
        def_b.filter = TaskFilter::src(0x14000000, 8);
        let b = fm.deploy(&def_b).unwrap();
        for _ in 0..4 {
            fm.process(&Packet::tcp(0x0a000001, 2, 3, 4));
            fm.process(&Packet::tcp(0x14000001, 2, 3, 4));
        }
        fm.reset_task(a).unwrap();
        assert_eq!(fm.query_frequency(a, &Packet::tcp(0x0a000001, 2, 3, 4)), 0);
        assert_eq!(fm.query_frequency(b, &Packet::tcp(0x14000001, 2, 3, 4)), 4);
    }

    #[test]
    fn install_latency_accumulates() {
        let mut fm = small();
        assert_eq!(fm.total_install_ms(), 0.0);
        let h = fm.deploy(&cms_task("t", 128)).unwrap();
        let t = fm.task(h).unwrap();
        assert!(t.install.latency_ms() > 0.0);
        assert!((fm.total_install_ms() - t.install.latency_ms()).abs() < 1e-9);
    }
}
