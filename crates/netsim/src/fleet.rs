//! Network-wide measurement: a fleet of FlyMon switches with merged
//! readouts.
//!
//! §3.4 positions FlyMon as the data plane under software-defined
//! measurement controllers (DREAM/SCREAM) that run *network-wide*
//! measurements. This module provides that control-plane layer for a
//! simulated fleet: the same task deployed on every switch, traffic
//! split across ingresses, and readouts merged according to each
//! sketch's merge law:
//!
//! - frequency sketches (CMS/MRAC) are *linear*: per-bucket sums of the
//!   partial registers equal the register of the union traffic —
//!   exactly, because every switch derives identical hash
//!   configurations for the same deployment;
//! - HLL registers merge by per-bucket max;
//! - Bloom filters merge by per-bucket OR.
//!
//! A fleet changes only through its own ops. It is born by the sweep
//! every later deploy runs ([`SwitchFleet::deploy`] is
//! [`SwitchFleet::deploy_task`] over fresh switches), so a refused
//! first deployment unwinds and returns `Err` instead of leaving a
//! switch born dead. It degrades gracefully: switches can fail
//! mid-epoch ([`SwitchFleet::fail_switch`]), ingress traffic reroutes to
//! survivors and merged readouts skip the dead — estimates continue
//! from whatever subset is still standing.
//!
//! # Failure & recovery model
//!
//! Every switch carries a control-plane [`WriteAheadLog`] from birth, so
//! each deploy/remove/reallocate/reset is durably intended before it
//! mutates state. A warm standby ([`SwitchFleet::enable_standby`])
//! holds one image per switch: a full checkpoint once, then refreshed
//! in place over the dirty ranges on each [`SwitchFleet::sync_standby`].
//! When a failed switch is promoted ([`SwitchFleet::promote_standby`]),
//! the standby replays the WAL suffix onto the last image, the probe
//! routing retargets the recovered instance, and the packets absorbed
//! *after* the last sync barrier — the bounded loss window — are moved
//! to the explicit [`SwitchFleet::lost_packets`] counter instead of
//! silently vanishing from merged readouts.
//! [`SwitchFleet::revive_switch`] is the cheaper alternative that
//! resets the switch instead of recovering it: its whole absorbed
//! count becomes loss. Either way the packet ledger
//! ([`SwitchFleet::ledger`]) stays conserved: every packet ever fed is
//! represented in some alive register file, explicitly lost, held by a
//! dead switch, or dropped.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flymon::prelude::*;
use flymon::FlymonError;
use flymon_packet::{Packet, TaskFilter};

use crate::channel::{ChannelConfig, ControlChannel, TxnResult};
use crate::datapath::{self, MergeLaw};
use crate::merged;

/// A merged estimate paired with an explicit bound on what it can miss.
///
/// For frequency tasks the true network-wide count `t` satisfies
/// `t <= estimate + loss_bound`: counter sketches never undercount the
/// traffic they represent, and every packet *not* represented is in the
/// bound. (The usual CMS overcount from hash collisions still applies
/// on the other side.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedEstimate {
    /// The merged readout over the alive fleet.
    pub estimate: u64,
    /// Packets the readout cannot see: explicitly lost to failures,
    /// held by currently dead switches, or dropped by a dead fabric.
    pub loss_bound: u64,
}

/// Where every packet ever fed to the fleet currently stands.
///
/// Conservation is the fleet's core accounting invariant:
/// `fed == represented + lost + dropped` after every event (note
/// `unavailable` is a subset of `represented`, not a separate term).
/// The fleet op generator (`tests/fleet_sequences.rs`) asserts it
/// after every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketLedger {
    /// Packets ever fed to the fleet ([`SwitchFleet::process_trace`]).
    pub fed: u64,
    /// Packets whose register updates live in some switch's registers
    /// (alive or dead), plus packets archived by epoch rotations
    /// ([`SwitchFleet::rotate_epoch_all`]) — their counts were read out
    /// before the registers were cleared, so they are represented in
    /// the archived readouts rather than vanished.
    pub represented: u64,
    /// The subset of `represented` held by dead switches — invisible to
    /// merged readouts until revival or promotion settles them.
    pub unavailable: u64,
    /// Packets permanently lost to failures: a revived switch's cleared
    /// registers, or a promotion's post-checkpoint loss window.
    pub lost: u64,
    /// Packets dropped because no alive switch could take them.
    pub dropped: u64,
}

impl PacketLedger {
    /// True when every fed packet is accounted for.
    pub fn balanced(&self) -> bool {
        self.fed == self.represented + self.lost + self.dropped
    }
}

/// One measurement task deployed fleet-wide: the shared definition plus
/// each switch's handle for it.
#[derive(Debug)]
struct FleetTask {
    /// The definition every switch deployed — the one their task
    /// records and WAL intents share (kept current across reallocation
    /// and splits).
    def: Arc<TaskDefinition>,
    /// The algorithm that runs it (identical on every switch).
    algorithm: Algorithm,
    /// One handle per switch; `None` on a switch an unwind could not
    /// reach ([`SwitchFleet::sweep`] left it diverged).
    handles: Vec<Option<TaskHandle>>,
}

/// A read-only description of one fleet task (what the adaptive
/// controller plans against).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTaskInfo {
    /// Position in the fleet's task list (the index reconfiguration ops
    /// take). Indices shift when a task splits.
    pub index: usize,
    /// The task's name.
    pub name: String,
    /// Which packets feed it.
    pub filter: TaskFilter,
    /// The algorithm running it.
    pub algorithm: Algorithm,
    /// Requested buckets per row (the knob
    /// [`SwitchFleet::reallocate_task`] turns).
    pub requested_buckets: usize,
    /// Buckets actually placed across all rows on one switch (requested
    /// buckets are rounded per the allocation mode).
    pub allocated_buckets: usize,
}

/// One task's slice of an epoch rotation: its merged pre-reset rows and
/// enough metadata to interpret them without a fleet in hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEpoch {
    /// The task's name at rotation time.
    pub name: String,
    /// Its traffic filter.
    pub filter: TaskFilter,
    /// Its algorithm.
    pub algorithm: Algorithm,
    /// Per-row merged registers, merged by the algorithm's
    /// [`MergeLaw`].
    pub rows: Vec<Vec<u32>>,
    /// Per-row register cell ceilings (a bucket at its ceiling was
    /// saturated, not exactly counted) — row index parallel to `rows`.
    pub row_caps: Vec<u32>,
    /// Per-row occupancy (nonzero / saturated bucket counts), computed
    /// in the same pass that merged the rows — row index parallel to
    /// `rows`.
    pub occupancy: Vec<datapath::RowOccupancy>,
}

/// A whole fleet epoch: every task's archived readout plus the packet
/// count the rotation archived ([`SwitchFleet::rotate_epoch_all`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEpoch {
    /// One entry per fleet task, in task-list order.
    pub tasks: Vec<TaskEpoch>,
    /// Packets the alive switches had absorbed this epoch (now
    /// archived).
    pub packets: u64,
}

/// A fleet of identically configured FlyMon switches running a shared
/// set of measurement tasks (one at deployment; reconfiguration ops can
/// grow, shrink and split them).
#[derive(Debug)]
pub struct SwitchFleet {
    switches: Vec<FlyMon>,
    /// The fleet-wide task list; `tasks[0]` is the primary task the
    /// single-task readout API answers for. Empty only on a zero-switch
    /// fleet, which hosts no task at all.
    tasks: Vec<FleetTask>,
    /// Liveness per switch; dead switches receive no traffic and are
    /// skipped by merged readouts.
    alive: Vec<bool>,
    dropped_packets: u64,
    /// Packets whose updates live in each switch's current registers.
    represented: Vec<u64>,
    /// `represented[i]` at switch `i`'s last standby sync barrier —
    /// what a promotion recovers; the difference is the loss window.
    checkpoint_represented: Vec<u64>,
    /// Warm-standby images, one slot per switch; `None` until
    /// [`SwitchFleet::enable_standby`].
    standby: Option<Vec<Option<SwitchCheckpoint>>>,
    /// Packets permanently lost to failures (see [`PacketLedger::lost`]).
    lost_packets: u64,
    /// Packets ever fed to the fleet.
    total_fed: u64,
    /// Packets archived by epoch rotations: read out before their
    /// registers were cleared, so still "represented" in the ledger.
    rotated_packets: u64,
    /// Lossy control channel every controller→switch command routes
    /// through once attached ([`SwitchFleet::attach_channel`]); `None`
    /// means the perfect in-process channel (direct calls).
    channel: Option<ControlChannel>,
    /// Ingestion-stall duration of the most recent epoch rotation (the
    /// bank-swap sweep; merge and retirement run off the stall path).
    last_rotation_stall: Duration,
    /// Cumulative rotation stall across the fleet's lifetime.
    total_rotation_stall: Duration,
    /// Epoch rotations performed (successful or failed mid-sweep).
    rotations: u64,
    /// Failover target of every ingress under the liveness the last
    /// packet call saw ([`SwitchFleet::resolve_targets`]); scratch, not
    /// state — rebuilt at the top of every packet call.
    targets: Vec<Option<usize>>,
    /// Per-switch staging buckets of [`SwitchFleet::process_trace`]
    /// (`datapath::replay`'s), reused across calls.
    staging: Vec<Vec<Packet>>,
    /// `datapath::replay`'s ingress-hash buffer, grown to one block once.
    hashes: Vec<u32>,
}

/// One controller→switch command of a reconfiguration sweep
/// ([`SwitchFleet::sweep`]). It reads or fills slot `i` of a *column* —
/// one `Option<TaskHandle>` per switch: a fleet task's `handles`, or a
/// new task's — and names enough to be taken back ([`Cmd::inverse`]).
#[derive(Clone, Copy)]
enum Cmd<'a> {
    /// Deploy `def`; the new handle fills column `col`.
    Deploy { def: &'a Arc<TaskDefinition>, col: usize },
    /// Remove column `col`'s task, emptying the slot; `def` is what it
    /// ran (definitions are deterministic, so deploying it again lands
    /// back in an equivalent placement).
    Remove { def: &'a Arc<TaskDefinition>, col: usize },
    /// Resize column `col`'s task from `from` to `to` buckets per row,
    /// reminting its handle.
    Resize { col: usize, from: usize, to: usize },
}

impl Cmd<'_> {
    /// The command that undoes this one on a switch that completed it.
    fn inverse(self) -> Self {
        match self {
            Cmd::Deploy { def, col } => Cmd::Remove { def, col },
            Cmd::Remove { def, col } => Cmd::Deploy { def, col },
            Cmd::Resize { col, from, to } => Cmd::Resize { col, from: to, to: from },
        }
    }
}

impl SwitchFleet {
    /// Builds `n` switches with the given config and deploys `task` on
    /// every one through [`SwitchFleet::deploy_task`]'s sweep, so a
    /// refusal unwinds and returns `Err`. Deployments are deterministic,
    /// so every switch ends up with identical hash configurations and
    /// partition layouts — the precondition for exact register merging.
    ///
    /// A zero-switch fleet is valid (a region whose last switch was
    /// decommissioned): it hosts no task, drops every packet, and its
    /// merged readouts return errors rather than panicking.
    pub fn deploy(n: usize, config: FlyMonConfig, task: &TaskDefinition) -> Result<Self, FlymonError> {
        let switches = (0..n)
            .map(|_| {
                let mut fm = FlyMon::new(config);
                // WAL from birth: the initial deployment itself is
                // logged, so a standby image plus the log reconstructs
                // the whole control-plane history.
                fm.attach_wal(WriteAheadLog::new());
                fm
            })
            .collect();
        let mut fleet = SwitchFleet {
            switches,
            tasks: Vec::new(),
            alive: vec![true; n],
            dropped_packets: 0,
            represented: vec![0; n],
            checkpoint_represented: vec![0; n],
            standby: None,
            lost_packets: 0,
            total_fed: 0,
            rotated_packets: 0,
            channel: None,
            last_rotation_stall: Duration::ZERO,
            total_rotation_stall: Duration::ZERO,
            rotations: 0,
            targets: Vec::with_capacity(n),
            staging: vec![Vec::new(); n],
            hashes: Vec::new(),
        };
        if n > 0 {
            fleet.deploy_task(task)?;
        }
        Ok(fleet)
    }

    /// Attaches a lossy control channel: from here on, every
    /// controller→switch command (deploys, removes, reallocations,
    /// splits, standby syncs, promotions, epoch resets) is routed
    /// through it — subject to its seeded drops, duplicates, reorders,
    /// partitions, retries, exactly-once dedup and fencing terms. Fails
    /// if the configuration does not validate; replaces any previously
    /// attached channel (links, terms and stats start fresh).
    pub fn attach_channel(&mut self, seed: u64, cfg: ChannelConfig) -> Result<(), FlymonError> {
        self.channel = Some(ControlChannel::new(self.switches.len(), seed, cfg)?);
        Ok(())
    }

    /// The attached control channel, if any.
    pub fn channel(&self) -> Option<&ControlChannel> {
        self.channel.as_ref()
    }

    /// Mutable access to the attached control channel (partition
    /// scheduling, fault-rate changes, term forcing in split-brain
    /// tests).
    pub fn channel_mut(&mut self) -> Option<&mut ControlChannel> {
        self.channel.as_mut()
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// True when the fleet has no switches at all.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// Switches currently alive (deployed and not failed).
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Whether switch `i` is alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Marks switch `i` failed: it stops receiving traffic and merged
    /// readouts skip it. The traffic it already absorbed becomes
    /// *unavailable* (held hostage by the dead registers) until the
    /// switch is revived — which forfeits it — or promoted from the
    /// standby — which recovers everything up to the last sync barrier.
    ///
    /// Errors if `i` is past the fleet's end.
    pub fn fail_switch(&mut self, i: usize) -> Result<(), FlymonError> {
        self.require_switch(i)?;
        self.alive[i] = false;
        Ok(())
    }

    /// Arms `plan` on switch `i`, or disarms it with `None`: the
    /// commands later fleet ops send that switch are then judged by the
    /// plan ([`FlyMon::arm_faults`]). Returns the plan it replaces, op
    /// counter included. Errors if `i` is past the fleet's end.
    pub fn set_faults(
        &mut self,
        i: usize,
        plan: Option<FaultPlan>,
    ) -> Result<Option<FaultPlan>, FlymonError> {
        self.require_switch(i)?;
        let sw = &mut self.switches[i];
        let replaced = sw.disarm_faults();
        if let Some(plan) = plan {
            sw.arm_faults(plan);
        }
        Ok(replaced)
    }

    /// Revives a previously failed switch as a *fresh* member: its task
    /// registers are reset (through the logged control plane) before it
    /// rejoins, and every packet it had absorbed moves to
    /// [`SwitchFleet::lost_packets`].
    ///
    /// Clearing is deliberate. The pre-failure registers are stale
    /// relative to the traffic that rerouted around the outage; merging
    /// them back would silently resurrect counts the operator already
    /// accounted as lost, making estimates jump backward in time. A
    /// revival that should *not* forfeit the absorbed traffic is a
    /// promotion — see [`SwitchFleet::promote_standby`].
    ///
    /// Errors if `i` is past the fleet's end or the fleet holds no
    /// handle on the switch (an unwind that could not reach it left it
    /// diverged, see [`SwitchFleet::sweep`]). Reviving an alive switch
    /// is a no-op.
    pub fn revive_switch(&mut self, i: usize) -> Result<(), FlymonError> {
        self.require_switch(i)?;
        if self.alive[i] {
            return Ok(());
        }
        if self.tasks.iter().all(|t| t.handles[i].is_none()) {
            return Err(FlymonError::NoSuchTask);
        }
        // One logged bank rotation resets every task (not just the
        // primary) with one `Reset` intent each: a later promotion
        // replays them, so the standby recovers to the same cleared
        // registers this switch rejoins with — which is why the sync
        // barrier drops to zero too. The rotation judges every reset
        // before it swaps a bank, and one channel command carries it:
        // either the switch performed the whole reset (exactly once) or
        // the revival never happened and nothing was cleared.
        Self::send(&mut self.channel, &mut self.switches[i], i, "revive-reset", |sw| {
            sw.rotate_banks()?;
            sw.retire_epoch_banks();
            Ok(TxnResult::Unit)
        })?;
        self.alive[i] = true;
        self.lost_packets += self.represented[i];
        self.represented[i] = 0;
        self.checkpoint_represented[i] = 0;
        Ok(())
    }

    /// Turns on the warm standby and takes the initial full checkpoint
    /// of every alive switch. Subsequent [`SwitchFleet::sync_standby`]
    /// calls move only the dirty ranges.
    pub fn enable_standby(&mut self) -> usize {
        if self.standby.is_none() {
            self.standby = Some(vec![None; self.switches.len()]);
        }
        self.sync_standby()
    }

    /// Brings the standby's image of every alive switch up to date — a
    /// full checkpoint for switches it has never seen, an in-place
    /// refresh of the dirty ranges otherwise ([`FlyMon::sync_into`]) —
    /// and advances each switch's loss-window barrier. Dead switches
    /// are skipped (they are unreachable); their images simply age,
    /// which is exactly what the loss window measures. Each switch's
    /// WAL is compacted up to its new barrier, so log growth is bounded
    /// by the sync cadence.
    ///
    /// Returns the register buckets shipped (the sync's payload cost);
    /// 0 when the standby is not enabled.
    ///
    /// With a control channel attached, each per-switch sync is one
    /// channel command: a switch whose command times out (drops, a
    /// partition) is simply skipped this round — its image ages like a
    /// dead switch's, which is exactly what the loss window measures —
    /// and the failure is counted in the channel stats and event log.
    pub fn sync_standby(&mut self) -> usize {
        let Some(images) = self.standby.as_mut() else {
            return 0;
        };
        let mut shipped = 0;
        for (i, slot) in images.iter_mut().enumerate() {
            if !self.alive[i] {
                continue;
            }
            let mut payload = 0usize;
            let synced = Self::send(&mut self.channel, &mut self.switches[i], i, "sync-standby", |sw| {
                let image = match slot {
                    Some(image) => {
                        payload = sw.sync_into(image).expect("an image follows its own switch");
                        image
                    }
                    None => {
                        let full = slot.insert(sw.checkpoint(CaptureMode::Full));
                        payload = full.payload_buckets();
                        full
                    }
                };
                if let Some(mut wal) = sw.detach_wal() {
                    wal.compact(image.wal_seq);
                    sw.attach_wal(wal);
                }
                Ok(TxnResult::Unit)
            });
            if synced.is_ok() {
                shipped += payload;
                self.checkpoint_represented[i] = self.represented[i];
            }
        }
        shipped
    }

    /// Promotes the standby in place of failed switch `i`: recovers the
    /// last synced image plus the WAL suffix ([`FlyMon::recover`], which
    /// audits the result), swaps the recovered instance in, and retargets
    /// the probe routing back at slot `i` by marking it alive. The task
    /// handle is unchanged — recovery reproduces task ids exactly.
    ///
    /// Packets absorbed after the last sync barrier are gone — that is
    /// the bounded loss window; they move to
    /// [`SwitchFleet::lost_packets`] and the count is returned.
    ///
    /// Errors if `i` is past the fleet's end, the standby is not
    /// enabled, holds no image for this switch, the switch is still
    /// alive, or recovery diverges (in which case the fleet is
    /// unchanged and the switch stays dead).
    ///
    /// With a control channel attached, promotion **mints a new fencing
    /// term** before anything else: the promote command and everything
    /// after it carry the new term, and on success the term is
    /// broadcast to every reachable switch, so a partitioned stale
    /// primary's late commands are rejected ([`FlymonError::Fenced`])
    /// rather than applied. If the promote command itself times out
    /// (the target is partitioned), the fleet is unchanged — but the
    /// term stays minted, which is safe: terms only ever rise.
    pub fn promote_standby(&mut self, i: usize) -> Result<u64, FlymonError> {
        self.require_switch(i)?;
        let images = self
            .standby
            .as_ref()
            .ok_or(FlymonError::Checkpoint("standby not enabled"))?;
        if self.alive[i] {
            return Err(FlymonError::Checkpoint(
                "only failed switches are promoted",
            ));
        }
        let image = images[i]
            .as_ref()
            .ok_or(FlymonError::Checkpoint("standby holds no image for this switch"))?;
        if let Some(c) = self.channel.as_mut() {
            c.mint_term();
        }
        let result = Self::send(&mut self.channel, &mut self.switches[i], i, "promote-standby", |sw| {
            let wal = sw
                .detach_wal()
                .ok_or(FlymonError::Checkpoint("failed switch has no WAL"))?;
            match FlyMon::recover(&wal, image) {
                Ok(fm) => {
                    *sw = fm;
                    sw.attach_wal(wal);
                    Ok(TxnResult::Unit)
                }
                Err(e) => {
                    sw.attach_wal(wal);
                    Err(e)
                }
            }
        });
        if let (Ok(_), Some(c)) = (&result, self.channel.as_mut()) {
            c.broadcast_term();
        }
        result?;
        self.alive[i] = true;
        let loss = self.represented[i] - self.checkpoint_represented[i];
        self.lost_packets += loss;
        self.represented[i] = self.checkpoint_represented[i];
        Ok(loss)
    }

    /// Packets dropped because no alive switch could take them.
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Packets permanently lost to failures (cleared by revivals,
    /// forfeited by promotion loss windows).
    pub fn lost_packets(&self) -> u64 {
        self.lost_packets
    }

    /// Packets held in dead switches' registers — invisible to merged
    /// readouts but not (yet) lost.
    pub fn unavailable_packets(&self) -> u64 {
        self.represented
            .iter()
            .zip(&self.alive)
            .filter(|&(_, &alive)| !alive)
            .map(|(&r, _)| r)
            .sum()
    }

    /// The full packet ledger; [`PacketLedger::balanced`] must hold
    /// after every fleet operation.
    pub fn ledger(&self) -> PacketLedger {
        PacketLedger {
            fed: self.total_fed,
            represented: self.represented.iter().sum::<u64>() + self.rotated_packets,
            unavailable: self.unavailable_packets(),
            lost: self.lost_packets,
            dropped: self.dropped_packets,
        }
    }

    /// Packets archived by epoch rotations (a subset of the ledger's
    /// `represented`: read out before their registers were cleared).
    pub fn rotated_packets(&self) -> u64 {
        self.rotated_packets
    }

    /// Epoch-boundary rotation: merges every row of every fleet task
    /// across the alive fleet — each task by its algorithm's
    /// [`MergeLaw`], the same canonical table the live readouts merge
    /// by — then clears all tasks on every alive switch through
    /// the logged reset path, returning the archived readouts.
    ///
    /// (Routing through the shared table is load-bearing: this path
    /// used to pick max/OR only for HLL/Bloom and silently *sum*
    /// everything else, inflating SuMax-Max maxima across the boundary.
    /// Sum-law rows are clamped at their register cell ceiling, exactly
    /// as Cond-ADD saturates them; an algorithm without a single merge
    /// law is an explicit error, never a silent sum.)
    ///
    /// Memory is constant per rotation — one merged copy of each task's
    /// rows — regardless of how much traffic the epoch carried, which
    /// is what lets a streaming runtime measure indefinitely.
    ///
    /// The rotation is double-buffered: the only work ingestion waits
    /// for is an O(rows) logged **bank swap** per alive switch
    /// ([`flymon::FlyMon::rotate_banks`]) — each switch's live
    /// registers trade places with a zeroed shadow bank, archiving the
    /// epoch in place. The merge then reads the immutable archives
    /// *after* ingestion resumes, and the O(memory) re-zeroing of the
    /// archives is deferred to bank retirement, off the stall path.
    /// Untouched registers skip the swap entirely (their rows are
    /// provably zero — the identity of every merge law), so an idle
    /// task's rotation costs a watermark check. The stall is observable
    /// via [`SwitchFleet::last_rotation_stall`].
    ///
    /// Accounting: the alive switches' absorbed counts move to
    /// [`SwitchFleet::rotated_packets`] (still `represented`, now in
    /// the archive), and each rotated switch's standby barrier drops to
    /// zero — the resets are WAL-logged, so a later promotion replays
    /// them and recovers the *cleared* registers; packets absorbed
    /// after the rotation are the new loss window. Dead switches are
    /// skipped (their registers are unreachable); they settle through
    /// revival or promotion as usual.
    ///
    /// Errors if every switch is dead (no rows to read), an alive
    /// switch hosts a task outside the fleet's list, a listed task has
    /// no handle on any alive switch, or a task's algorithm has no
    /// merge law ([`MergeLaw::of`]) — all before any bank is swapped or
    /// any ledger field moves. A task outside the list is what a sweep
    /// leaves on a switch its unwind could not reach
    /// ([`SwitchFleet::sweep`]): the switch still hosts the task but
    /// the fleet dropped its handle, and the whole-register swap would
    /// clear state the fleet no longer owns. Also errors if a logged
    /// reset fails mid-sweep — switches already rotated stay rotated
    /// (each per-switch reset is itself atomic; their archived epochs
    /// are discarded and their banks retired, so the packets they held
    /// move to [`SwitchFleet::lost_packets`]), and the error surfaces
    /// which switch refused.
    pub fn rotate_epoch_all(&mut self) -> Result<FleetEpoch, FlymonError> {
        if self.alive_task_members(0).next().is_none() {
            return Err(FlymonError::NoCapacity(
                "every switch in the fleet has failed".into(),
            ));
        }
        // The bank swap clears whole registers, so it is only sound
        // when the fleet's task list covers every task on every alive
        // switch (always true unless an unwind left one diverged).
        let unbankable = (0..self.switches.len()).find(|&i| {
            self.alive[i]
                && self.switches[i].task_count()
                    != self.tasks.iter().filter(|t| t.handles[i].is_some()).count()
        });
        if let Some(i) = unbankable {
            return Err(FlymonError::BadTask(format!(
                "switch {i} hosts a task the fleet does not track; \
                 a bank rotation would clear it"
            )));
        }
        // Nor when a listed task lives only on dead switches (a removal
        // rolled forward everywhere but a switch that has since failed):
        // its epoch has no member to merge from.
        let memberless = self.tasks.iter().enumerate().find(|&(t, _)| {
            self.alive_task_members(t).next().is_none()
        });
        if let Some((_, task)) = memberless {
            return Err(FlymonError::BadTask(format!(
                "task {} has no handle on an alive switch; its epoch has no member to merge",
                task.def.name
            )));
        }
        // Nor is an epoch worth archiving if some task's rows cannot be
        // merged out of the archive afterwards.
        for t in &self.tasks {
            MergeLaw::of(t.algorithm)?;
        }
        // Phase 1 — the ingestion stall: O(rows) logged bank swaps per
        // alive switch, plus ledger accounting.
        let stall_begun = Instant::now();
        let mut packets = 0;
        let mut refused = None;
        for i in 0..self.switches.len() {
            if !self.alive[i] {
                continue;
            }
            let reset = Self::send(&mut self.channel, &mut self.switches[i], i, "epoch-reset", |sw| {
                sw.rotate_banks()?;
                Ok(TxnResult::Unit)
            });
            if let Err(e) = reset {
                refused = Some(e);
                break;
            }
            packets += self.represented[i];
            self.rotated_packets += self.represented[i];
            self.represented[i] = 0;
            self.checkpoint_represented[i] = 0;
        }
        self.note_rotation_stall(stall_begun.elapsed());
        // Phase 2 — off the stall path: merge the archived banks (they
        // are out of ingestion's way; its writes land in the fresh live
        // banks), fusing the occupancy scan into the same pass and
        // zeroing each archived chunk behind it.
        let merged = match refused {
            None => self.merge_epochs(),
            Some(e) => Err(e),
        };
        // Phase 3 — retire what the merge did not drain: nothing after
        // a clean merge of a fully alive fleet; on an error path, the
        // archives of whatever did rotate, so that the next rotation's
        // swap does not have to zero them inside the stall. Those
        // archives are never read out, so their packets are lost.
        for (sw, _) in self.switches.iter_mut().zip(&self.alive).filter(|&(_, &alive)| alive) {
            sw.retire_epoch_banks();
        }
        if merged.is_err() {
            self.rotated_packets -= packets;
            self.lost_packets += packets;
        }
        Ok(FleetEpoch {
            tasks: merged?,
            packets,
        })
    }

    /// Merges every fleet task's rows across the alive fleet out of
    /// the archived epoch banks, draining them (a register that
    /// skipped the swap contributes nothing). Each row is one
    /// [`MergeLaw::merge_rows`]: the first two members merge in one
    /// sweep, the occupancy scan rides the last one, and every member's
    /// archived chunk is zeroed right behind the sweep that read it.
    fn merge_epochs(&mut self) -> Result<Vec<TaskEpoch>, FlymonError> {
        let mut task_epochs = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            let law = MergeLaw::of(task.algorithm)?;
            // The first alive member's placement stands for the fleet's.
            let (first, h) = (0..self.switches.len())
                .find_map(|i| task.handles[i].filter(|_| self.alive[i]).map(|h| (i, h)))
                .ok_or(FlymonError::NoSuchTask)?;
            let placed = &self.switches[first].task(h)?.rows;
            let row_caps: Vec<u32> = placed.iter().map(|r| r.bucket_max).collect();
            let mut rows = Vec::with_capacity(row_caps.len());
            let mut occupancy = Vec::with_capacity(row_caps.len());
            for (row, &bucket_max) in row_caps.iter().enumerate() {
                let size = self.switches[first].task(h)?.rows[row].size;
                let members = self
                    .switches
                    .iter_mut()
                    .zip(&task.handles)
                    .zip(&self.alive)
                    .filter(|&(_, &alive)| alive)
                    .filter_map(|((m, mh), _)| m.drain_archived_row((*mh)?, row).transpose());
                let mut acc = Vec::new();
                occupancy.push(law.merge_rows(&mut acc, size, members, bucket_max)?);
                rows.push(acc);
            }
            task_epochs.push(TaskEpoch {
                name: task.def.name.clone(),
                filter: task.def.filter,
                algorithm: task.algorithm,
                rows,
                row_caps,
                occupancy,
            });
        }
        Ok(task_epochs)
    }

    /// Records one rotation's ingestion stall.
    fn note_rotation_stall(&mut self, stall: Duration) {
        self.last_rotation_stall = stall;
        self.total_rotation_stall += stall;
        self.rotations += 1;
    }

    /// Ingestion-stall time of the most recent epoch rotation: the
    /// bank-swap sweep only — the merge and archive retirement run
    /// after ingestion resumes.
    pub fn last_rotation_stall(&self) -> Duration {
        self.last_rotation_stall
    }

    /// (rotations performed, cumulative ingestion stall across them).
    pub fn rotation_stall_totals(&self) -> (u64, Duration) {
        (self.rotations, self.total_rotation_stall)
    }

    /// Read-only descriptions of the fleet's task list, in the order
    /// reconfiguration ops index it.
    pub fn task_infos(&self) -> Vec<FleetTaskInfo> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(index, t)| {
                let allocated = self
                    .alive_task_members(index)
                    .next()
                    .and_then(|(fm, h)| fm.task(h).ok())
                    .map_or(0, |rec| rec.rows.iter().map(|r| r.size).sum());
                FleetTaskInfo {
                    index,
                    name: t.def.name.clone(),
                    filter: t.def.filter,
                    algorithm: t.algorithm,
                    requested_buckets: t.def.memory,
                    allocated_buckets: allocated,
                }
            })
            .collect()
    }

    /// True when every switch is alive — the precondition for fleet-wide
    /// reconfiguration ([`SwitchFleet::deploy_task`],
    /// [`SwitchFleet::reallocate_task`], [`SwitchFleet::split_task`],
    /// [`SwitchFleet::remove_task`]): reconfiguring around a dead switch
    /// would leave its task set diverged from the fleet's.
    pub fn fully_alive(&self) -> bool {
        self.alive.iter().all(|&a| a)
    }

    /// [`SwitchFleet::fully_alive`] as the error the reconfiguration ops
    /// refuse with.
    fn require_fully_alive(&self) -> Result<(), FlymonError> {
        if self.fully_alive() {
            return Ok(());
        }
        Err(FlymonError::NoCapacity(
            "fleet reconfiguration needs every switch alive".into(),
        ))
    }

    /// Refuses a switch index past the fleet's end, naming it.
    pub(crate) fn require_switch(&self, i: usize) -> Result<(), FlymonError> {
        let n = self.switches.len();
        if i < n {
            return Ok(());
        }
        Err(FlymonError::BadTask(format!(
            "switch {i} is not in the fleet ({n} switches)"
        )))
    }

    /// Routes one controller→switch command to switch `i` (`sw`): through
    /// the control channel when one is attached, directly — the perfect
    /// in-process channel — otherwise. Takes the two fields it needs and
    /// not `&mut self`, so `apply` may keep borrowing the rest of the
    /// fleet (a standby image, a task's handle column).
    fn send(
        channel: &mut Option<ControlChannel>,
        sw: &mut FlyMon,
        i: usize,
        op: &'static str,
        apply: impl FnOnce(&mut FlyMon) -> Result<TxnResult, FlymonError>,
    ) -> Result<TxnResult, FlymonError> {
        match channel {
            Some(c) => c.invoke(i, op, || apply(sw)),
            None => apply(sw),
        }
    }

    /// One command of a sweep on switch `i` (`sw`): sent as channel op
    /// `op`, its reply recorded in the column it names. `roll_forward`
    /// is [`SwitchFleet::remove_task`]'s: an empty slot is one an
    /// earlier, partially failed removal already cleared, and is skipped.
    fn run(
        channel: &mut Option<ControlChannel>,
        sw: &mut FlyMon,
        i: usize,
        (op, cmd): (&'static str, Cmd<'_>),
        cols: &mut [&mut Vec<Option<TaskHandle>>],
        roll_forward: bool,
    ) -> Result<(), FlymonError> {
        match cmd {
            Cmd::Deploy { def, col } => {
                let reply = Self::send(channel, sw, i, op, |sw| {
                    sw.deploy_shared(Arc::clone(def)).map(TxnResult::Handle)
                })?;
                cols[col][i] = Some(reply.handle());
            }
            Cmd::Remove { col, .. } if roll_forward && cols[col][i].is_none() => {}
            Cmd::Remove { col, .. } => {
                let h = cols[col][i].ok_or(FlymonError::NoSuchTask)?;
                Self::send(channel, sw, i, op, |sw| sw.remove(h).map(|()| TxnResult::Unit))?;
                cols[col][i] = None;
            }
            Cmd::Resize { col, to, .. } => {
                let h = cols[col][i].ok_or(FlymonError::NoSuchTask)?;
                let reply = Self::send(channel, sw, i, op, |sw| {
                    sw.reallocate_memory(h, to).map(TxnResult::Handle)
                });
                match &reply {
                    // A reverted reallocation is a refusal, but it
                    // reminted the handle on its way back to the old
                    // geometry.
                    Err(FlymonError::ReallocationReverted { restored }) => {
                        cols[col][i] = Some(*restored);
                    }
                    // A capacity-tight fallback that could deploy neither
                    // geometry lost the task: no column may name it.
                    Err(_) if sw.task(h).is_err() => cols[col][i] = None,
                    _ => {}
                }
                cols[col][i] = Some(reply?.handle());
            }
        }
        Ok(())
    }

    /// The one fleet transaction every reconfiguration op is: `cmds`,
    /// in order, on switch 0, then on switch 1, … each its own channel
    /// command, replies landing in `cols` (what [`Cmd`]'s `col` indexes).
    /// The first refusal — a [`FlymonError::ChannelTimeout`], a fencing
    /// reject, an install fault, a missing handle — ends the sweep and
    /// surfaces, after the sweep has run **backwards**: last switch
    /// first, every switch takes back the commands it completed, newest
    /// first, each inverse a channel command named `rollback`. So after
    /// an `Err` every switch hosts what it hosted before, under
    /// refreshed handles, and the op can simply be retried.
    ///
    /// The unwind crosses the same channel, so it is best-effort: a
    /// switch it cannot reach, or that refuses an inverse, is left
    /// *diverged* — its slot in every column goes `None`. Merged
    /// readouts skip such a switch, later sweeps stop at it with
    /// [`FlymonError::NoSuchTask`], and while it hosts a task the fleet
    /// lost the handle to, [`SwitchFleet::rotate_epoch_all`] refuses
    /// with an `Err` (never a panic).
    ///
    /// `rollback: None` **rolls forward** instead
    /// ([`SwitchFleet::remove_task`]): nothing is unwound, swept
    /// switches keep their emptied slots, and a retry skips them.
    fn sweep(
        channel: &mut Option<ControlChannel>,
        switches: &mut [FlyMon],
        cmds: &[(&'static str, Cmd<'_>)],
        cols: &mut [&mut Vec<Option<TaskHandle>>],
        rollback: Option<&'static str>,
    ) -> Result<(), FlymonError> {
        for i in 0..switches.len() {
            for (k, &cmd) in cmds.iter().enumerate() {
                let sent = Self::run(channel, &mut switches[i], i, cmd, cols, rollback.is_none());
                let Err(e) = sent else { continue };
                let Some(undo_op) = rollback else { return Err(e) };
                // Switch `i` completed `cmds[..k]`, every switch before
                // it all of `cmds`.
                for j in (0..=i).rev() {
                    let done = if j == i { &cmds[..k] } else { cmds };
                    let undone = done.iter().rev().try_for_each(|&(_, cmd)| {
                        let undo = (undo_op, cmd.inverse());
                        Self::run(channel, &mut switches[j], j, undo, cols, false)
                    });
                    if undone.is_err() {
                        cols.iter_mut().for_each(|col| col[j] = None);
                    }
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Resizes fleet task `task` to `new_buckets` buckets per row on
    /// every switch, through each switch's logged
    /// [`FlyMon::reallocate_memory`] (§6 freeze-and-divert: a fresh
    /// instance is deployed, traffic diverts, the old one is retired —
    /// counts do not carry over, so callers rotate the epoch first).
    ///
    /// Requires a fully alive fleet. A refusal unwinds
    /// ([`SwitchFleet::sweep`]): every switch already resized is resized
    /// back, so the fleet never holds one task at two geometries.
    pub fn reallocate_task(&mut self, task: usize, new_buckets: usize) -> Result<(), FlymonError> {
        self.require_fully_alive()?;
        let t = self.tasks.get_mut(task).ok_or(FlymonError::NoSuchTask)?;
        let resize = Cmd::Resize {
            col: 0,
            from: t.def.memory,
            to: new_buckets,
        };
        Self::sweep(
            &mut self.channel,
            &mut self.switches,
            &[("reallocate", resize)],
            &mut [&mut t.handles],
            Some("reallocate-rollback"),
        )?;
        // Every switch deployed the new geometry's definition; the
        // fleet shares the first one's.
        let h = t.handles[0].ok_or(FlymonError::NoSuchTask)?;
        t.def = Arc::clone(&self.switches[0].task(h)?.def);
        Ok(())
    }

    /// Splits fleet task `task` into two children along its filter
    /// (§3.1.1 task splitting: the src prefix halves, dst at /32), named
    /// `<parent>/0` and `<parent>/1`, each inheriting the parent's
    /// geometry. On every switch the parent is removed and both children
    /// deployed — all through the logged control plane, so recovery
    /// replays the split. The parent's registers are retired with it
    /// (callers rotate the epoch first, as with reallocation).
    ///
    /// Requires a fully alive fleet. A refusal unwinds
    /// ([`SwitchFleet::sweep`]): the children are removed and the parent
    /// redeployed wherever the split got to. Returns the two child task
    /// indices: the first child takes the parent's slot, the second is
    /// appended.
    pub fn split_task(&mut self, task: usize) -> Result<(usize, usize), FlymonError> {
        self.require_fully_alive()?;
        let parent = self.tasks.get_mut(task).ok_or(FlymonError::NoSuchTask)?;
        let (lo, hi) = parent.def.filter.split().ok_or_else(|| {
            FlymonError::BadTask(format!(
                "task '{}' filter {} cannot split further",
                parent.def.name,
                parent.def.filter
            ))
        })?;
        let child = |half: u8, filter| {
            Arc::new(TaskDefinition {
                name: format!("{}/{half}", parent.def.name),
                filter,
                ..TaskDefinition::clone(&parent.def)
            })
        };
        let (lo_def, hi_def) = (child(0, lo), child(1, hi));
        let n = parent.handles.len();
        let (mut lo_handles, mut hi_handles) = (vec![None; n], vec![None; n]);
        Self::sweep(
            &mut self.channel,
            &mut self.switches,
            &[
                ("split-remove", Cmd::Remove { def: &parent.def, col: 0 }),
                ("split-deploy", Cmd::Deploy { def: &lo_def, col: 1 }),
                ("split-deploy", Cmd::Deploy { def: &hi_def, col: 2 }),
            ],
            &mut [&mut parent.handles, &mut lo_handles, &mut hi_handles],
            Some("split-rollback"),
        )?;
        let algorithm = parent.algorithm;
        *parent = FleetTask {
            def: lo_def,
            algorithm,
            handles: lo_handles,
        };
        self.tasks.push(FleetTask {
            def: hi_def,
            algorithm,
            handles: hi_handles,
        });
        Ok((task, self.tasks.len() - 1))
    }

    /// Deploys a new task on every switch through the logged control
    /// plane (and the control channel, when one is attached), appending
    /// it to the fleet's task list. Requires a fully alive fleet —
    /// deploying around a dead switch would diverge its task set.
    ///
    /// A refusal unwinds ([`SwitchFleet::sweep`]): the switches already
    /// deployed remove the task again and the fleet's task list is
    /// unchanged. Returns the new task's index.
    ///
    /// The fleet's list, and every switch's task record and WAL intent,
    /// share one copy of `def`.
    pub fn deploy_task(&mut self, def: &TaskDefinition) -> Result<usize, FlymonError> {
        if self.switches.is_empty() {
            return Err(FlymonError::NoCapacity("fleet has no switches".into()));
        }
        self.require_fully_alive()?;
        let def = Arc::new(def.clone());
        let mut handles = vec![None; self.switches.len()];
        Self::sweep(
            &mut self.channel,
            &mut self.switches,
            &[("deploy", Cmd::Deploy { def: &def, col: 0 })],
            &mut [&mut handles],
            Some("deploy-rollback"),
        )?;
        let h = handles[0].expect("every deploy succeeded above");
        let algorithm = self.switches[0].task(h)?.algorithm;
        self.tasks.push(FleetTask {
            def,
            algorithm,
            handles,
        });
        Ok(self.tasks.len() - 1)
    }

    /// Removes fleet task `task` from every switch through the logged
    /// control plane (and the control channel, when one is attached).
    /// Requires a fully alive fleet; task 0 anchors the fleet's readout
    /// API and cannot be removed. Like [`SwitchFleet::split_task`],
    /// removal shifts the indices of later tasks.
    ///
    /// The one op that rolls forward ([`SwitchFleet::sweep`] without a
    /// rollback): whatever happens next, its caller wants the task gone
    /// everywhere, and redeploying it on the swept switches would only
    /// give the retry more to remove. So a refusal surfaces with the
    /// swept switches still cleared and the task still listed —
    /// retrying after a [`FlymonError::ChannelTimeout`] is idempotent.
    pub fn remove_task(&mut self, task: usize) -> Result<(), FlymonError> {
        if task == 0 {
            return Err(FlymonError::BadTask(
                "task 0 anchors the fleet readout API and cannot be removed".into(),
            ));
        }
        if task >= self.tasks.len() {
            return Err(FlymonError::NoSuchTask);
        }
        self.require_fully_alive()?;
        let t = &mut self.tasks[task];
        Self::sweep(
            &mut self.channel,
            &mut self.switches,
            &[("remove", Cmd::Remove { def: &t.def, col: 0 })],
            &mut [&mut t.handles],
            None,
        )?;
        self.tasks.remove(task);
        Ok(())
    }

    /// Bounds control-plane WAL growth outside the standby-sync cadence:
    /// every alive switch whose log holds more than `threshold` records
    /// first drops its aborted records (safe at any time — they never
    /// replay), and if any log is still oversized a standby sync runs,
    /// compacting at fresh barriers. Returns the records removed by
    /// pruning alone.
    ///
    /// Without a standby there is no checkpoint to anchor compaction of
    /// *committed* records, so pruning aborted ones is all that can be
    /// done safely; an operator who never syncs accepts that growth.
    pub fn maintain_wals(&mut self, threshold: usize) -> usize {
        let mut pruned = 0;
        let mut oversized = false;
        for i in 0..self.switches.len() {
            if !self.alive[i] {
                continue;
            }
            let Some(mut wal) = self.switches[i].detach_wal() else {
                continue;
            };
            if wal.len() > threshold {
                pruned += wal.prune_aborted();
            }
            oversized |= wal.len() > threshold;
            self.switches[i].attach_wal(wal);
        }
        if oversized && self.standby.is_some() {
            self.sync_standby();
        }
        pruned
    }

    /// Takes one packet's ledger tick at `ingress` and returns the switch
    /// that absorbs it: the ingress itself if alive, else the next alive
    /// switch (deterministic linear probe, a stand-in for the fabric's
    /// failover), or `None` — dropped — when the fleet is dead or empty.
    ///
    /// # Panics
    /// Panics if `ingress` is out of range on a non-empty fleet.
    pub(crate) fn route_one(&mut self, ingress: usize) -> Option<&mut FlyMon> {
        let n = self.switches.len();
        assert!(ingress < n || n == 0, "ingress {ingress} past {n} switches");
        self.total_fed += 1;
        self.resolve_targets();
        // A zero-switch fleet has no target: it drops, it does not panic.
        let Some(i) = self.targets.get(ingress).copied().flatten() else {
            self.dropped_packets += 1;
            return None;
        };
        self.represented[i] += 1;
        Some(&mut self.switches[i])
    }

    /// Rebuilds `self.targets`: for every ingress, the switch that
    /// actually takes its traffic — the ingress itself if alive, else
    /// the next alive switch in the deterministic linear probe
    /// `(ingress + k) % n`; `None` everywhere when the whole fleet is
    /// dead. Liveness cannot change inside a packet call, so every
    /// packet path resolves failover here once per call, never per
    /// packet. One backward sweep twice around the ring: the first lap
    /// carries the wrap-around successor in, the second assigns.
    fn resolve_targets(&mut self) {
        let n = self.alive.len();
        self.targets.clear();
        self.targets.resize(n, None);
        let mut next_alive = None;
        for lap in (0..2 * n).rev() {
            let i = lap % n;
            if self.alive[i] {
                next_alive = Some(i);
            }
            if lap < n {
                self.targets[i] = next_alive;
            }
        }
    }

    /// Splits a trace across ingresses by source address (a stand-in
    /// for topology-based ingress assignment) and feeds every switch
    /// its share through the stage-major batched datapath. An empty
    /// fleet records every packet as dropped instead of panicking on
    /// the ingress modulus.
    ///
    /// Failover is resolved once per call; the packets then go through
    /// `datapath::replay`, whose one caller this is. Registers, hit
    /// counters and the ledger end bit-identical to each packet run
    /// alone at ingress `shard_of(p, n)` (the per-packet reference,
    /// pinned by `tests/fleet_batch.rs`), and a healthy fleet's merged
    /// rows to one switch's serial replay (`tests/datapath.rs`).
    pub fn process_trace(&mut self, trace: &[Packet]) {
        self.resolve_targets();
        self.total_fed += trace.len() as u64;
        self.dropped_packets += datapath::replay(
            &mut self.switches,
            &self.targets,
            &mut self.staging,
            &mut self.hashes,
            trace,
            &mut self.represented,
        );
    }

    /// Alive switches paired with their handles for fleet task `ti`
    /// (empty when the task does not exist).
    fn alive_task_members(
        &self,
        ti: usize,
    ) -> impl Iterator<Item = (&FlyMon, TaskHandle)> + Clone {
        let handles: &[Option<TaskHandle>] = self
            .tasks
            .get(ti)
            .map_or(&[], |t| t.handles.as_slice());
        self.switches
            .iter()
            .zip(handles)
            .zip(&self.alive)
            .filter(|&(_, &alive)| alive)
            .filter_map(|((fm, h), _)| h.map(|h| (fm, h)))
    }

    /// Per-bucket merged readout of one row of fleet task `ti` across
    /// the alive fleet, by the task algorithm's [`MergeLaw`], into a
    /// caller-provided scratch: the merged row is readable as
    /// `scratch.acc` afterwards, and the fused occupancy scan is
    /// returned. Members whose row is provably untouched are elided. A
    /// steady-state readout loop reusing one scratch allocates nothing
    /// once the scratch has grown to the row size.
    pub fn merged_task_row_into(
        &self,
        ti: usize,
        row: usize,
        scratch: &mut ReadoutScratch,
    ) -> Result<datapath::RowOccupancy, FlymonError> {
        let task = self
            .tasks
            .get(ti)
            .ok_or_else(|| FlymonError::BadTask(format!("fleet task {ti} does not exist")))?;
        merged::row_into(task.algorithm, self.alive_task_members(ti), row, &mut scratch.acc)
    }

    /// Network-wide frequency estimate for a flow: per-bucket sums of
    /// the fleet's registers, then the row-wise minimum (linearity of
    /// counter sketches). Dead switches are skipped — the estimate
    /// covers the surviving traffic.
    ///
    /// The query routes to the first fleet task whose filter matches
    /// `pkt` — after a split, each child answers for its own prefix, so
    /// callers keep querying the fleet without tracking the task list.
    pub fn merged_frequency(&self, pkt: &Packet) -> Result<u64, FlymonError> {
        self.primary()?;
        let ti = self
            .tasks
            .iter()
            .position(|t| t.def.filter.matches(pkt))
            .ok_or_else(|| {
                FlymonError::BadTask("no fleet task's filter admits this packet".into())
            })?;
        merged::point_frequency(
            self.tasks[ti].algorithm,
            self.alive_task_members(ti),
            pkt,
        )
    }

    /// [`SwitchFleet::merged_frequency`] plus the explicit loss window:
    /// the bound collects everything the alive registers cannot see —
    /// permanently lost packets, dead switches' unavailable counts, and
    /// fabric drops. The true network-wide count never exceeds
    /// `estimate + loss_bound`.
    pub fn merged_frequency_bounded(&self, pkt: &Packet) -> Result<BoundedEstimate, FlymonError> {
        let estimate = self.merged_frequency(pkt)?;
        Ok(BoundedEstimate {
            estimate,
            loss_bound: self.lost_packets + self.unavailable_packets() + self.dropped_packets,
        })
    }

    /// The primary task, which the single-task readouts answer for.
    fn primary(&self) -> Result<&FleetTask, FlymonError> {
        self.tasks
            .first()
            .ok_or_else(|| FlymonError::BadTask("the fleet hosts no task to query".into()))
    }

    /// Network-wide cardinality estimate: HLL registers merge by max.
    /// Answers for the primary task.
    pub fn merged_cardinality(&self) -> Result<f64, FlymonError> {
        merged::cardinality(self.primary()?.algorithm, self.alive_task_members(0))
    }

    /// Network-wide existence check (the primary task's): the OR of the
    /// alive switches' checks.
    pub fn merged_exists(&self, pkt: &Packet) -> Result<bool, FlymonError> {
        merged::exists(self.primary()?.algorithm, self.alive_task_members(0), pkt)
    }

    /// Access one switch (diagnostics, per-ingress queries, audits),
    /// paired with its handle for the *primary* task. Returns `None`
    /// for the handle on a switch an unwind left diverged.
    pub fn switch(&self, i: usize) -> (&FlyMon, Option<TaskHandle>) {
        let h = self.tasks.first().and_then(|t| t.handles[i]);
        (&self.switches[i], h)
    }

    /// Feeds `pkt` to switch `i`'s registers with no ledger tick: the
    /// write a dying worker leaves behind before its injected panic
    /// (`ingest.rs`), which quarantine then discards.
    ///
    /// # Panics
    /// Panics if `i` is past the fleet's end.
    pub(crate) fn scribble(&mut self, i: usize, pkt: &Packet) {
        self.switches[i].process_batch(std::slice::from_ref(pkt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::PerPacketFleet;
    use flymon_packet::KeySpec;
    use flymon_traffic::gen::{TraceConfig, TraceGenerator};

    fn config() -> FlyMonConfig {
        FlyMonConfig {
            groups: 2,
            buckets_per_cmu: 16384,
            ..FlyMonConfig::default()
        }
    }

    fn trace() -> Vec<Packet> {
        TraceGenerator::new(44).wide_like(&TraceConfig {
            flows: 3_000,
            packets: 60_000,
            zipf_alpha: 1.1,
            duration_ns: 1_000_000_000,
            seed: 44,
        })
    }

    fn cms_def(d: usize) -> TaskDefinition {
        TaskDefinition::builder("freq")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d })
            .memory(8192)
            .build()
    }

    #[test]
    fn merged_frequency_equals_single_switch_exactly() {
        // Linearity: a 4-switch fleet over a split trace must produce
        // byte-identical merged registers to one switch over the whole
        // trace.
        let def = cms_def(3);
        let t = trace();

        let mut fleet = SwitchFleet::deploy(4, config(), &def).unwrap();
        fleet.process_trace(&t);

        let mut single = FlyMon::new(config());
        let h = single.deploy(&def).unwrap();
        single.process_batch(&t);

        let mut checked = 0;
        let mut seen = std::collections::HashSet::new();
        for p in &t {
            if !seen.insert(KeySpec::SRC_IP.extract(p)) {
                continue;
            }
            assert_eq!(
                fleet.merged_frequency(p).unwrap(),
                single.query_frequency(h, p),
                "merged and single-switch estimates diverged"
            );
            checked += 1;
            if checked > 500 {
                break;
            }
        }
    }

    #[test]
    fn empty_fleet_drops_instead_of_panicking() {
        // Regression: `process_trace` computed `hash % 0` and `process`
        // asserted `ingress < 0` — both panicked on a zero-switch fleet.
        let def = cms_def(1);
        let mut fleet = SwitchFleet::deploy(0, config(), &def).unwrap();
        assert!(fleet.is_empty());
        assert_eq!(fleet.alive_count(), 0);
        let flow = Packet::tcp(1, 2, 3, 4);
        let t = vec![flow; 5];
        fleet.process_trace(&t);
        fleet.process(0, &flow);
        assert_eq!(fleet.dropped_packets(), 6);
        // Readouts fail cleanly rather than returning garbage.
        assert!(fleet.merged_frequency(&flow).is_err());
        assert!(fleet.merged_cardinality().is_err());
        assert!(fleet.merged_exists(&flow).is_err());
    }

    #[test]
    fn taskless_fleet_query_says_there_is_no_task() {
        // Task 0 anchors the readouts, so a fleet with switches keeps
        // it whatever is asked — and keeps answering.
        let flow = Packet::tcp(1, 2, 3, 4);
        let mut fleet = SwitchFleet::deploy(2, config(), &cms_def(1)).unwrap();
        assert!(matches!(
            fleet.remove_task(0),
            Err(FlymonError::BadTask(_))
        ));
        fleet.process(0, &flow);
        assert_eq!(fleet.merged_frequency(&flow).unwrap(), 1);
        // The fleet that does host no task (it has no switch to host
        // one) reports the missing task, not a missing capacity.
        let empty = SwitchFleet::deploy(0, config(), &cms_def(1)).unwrap();
        match empty.merged_frequency(&flow) {
            Err(FlymonError::BadTask(why)) => assert!(why.contains("no task"), "{why}"),
            other => panic!("expected BadTask, got {other:?}"),
        }
    }

    #[test]
    fn merged_cardinality_tracks_union() {
        let def = TaskDefinition::builder("card")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .algorithm(Algorithm::Hll)
            .memory(2048)
            .build();
        let mut fleet = SwitchFleet::deploy(3, config(), &def).unwrap();
        let n = 20_000u32;
        for i in 0..n {
            fleet.process((i % 3) as usize, &Packet::udp(i, 9, 1, 53));
        }
        let est = fleet.merged_cardinality().unwrap();
        let err = (est - f64::from(n)).abs() / f64::from(n);
        assert!(err < 0.1, "merged estimate {est:.0} (err {err:.3})");
        // Each single switch saw only a third.
        let (fm, h) = fleet.switch(0);
        assert!(fm.cardinality(h.unwrap()) < est * 0.5);
    }

    #[test]
    fn merged_existence_unions_the_fleet() {
        let def = TaskDefinition::builder("bl")
            .key(KeySpec::NONE)
            .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
            .memory(8192)
            .build();
        let mut fleet = SwitchFleet::deploy(2, config(), &def).unwrap();
        let on_a = Packet::tcp(1, 2, 3, 4);
        let on_b = Packet::tcp(5, 6, 7, 8);
        fleet.process(0, &on_a);
        fleet.process(1, &on_b);
        assert!(fleet.merged_exists(&on_a).unwrap());
        assert!(fleet.merged_exists(&on_b).unwrap());
        assert!(!fleet.merged_exists(&Packet::tcp(9, 9, 9, 9)).unwrap());
    }

    #[test]
    fn mismatched_queries_are_rejected() {
        let def = cms_def(1);
        let fleet = SwitchFleet::deploy(2, config(), &def).unwrap();
        assert!(fleet.merged_cardinality().is_err());
        assert!(fleet.merged_exists(&Packet::tcp(1, 2, 3, 4)).is_err());
    }

    #[test]
    fn failed_switch_reroutes_and_survivors_keep_estimating() {
        let def = cms_def(2);
        let mut fleet = SwitchFleet::deploy(3, config(), &def).unwrap();
        let flow = Packet::tcp(0x0a000001, 5, 80, 80);
        for _ in 0..10 {
            fleet.process(0, &flow);
        }
        fleet.fail_switch(0).unwrap();
        assert_eq!(fleet.alive_count(), 2);
        // Ingress 0 now reroutes to switch 1; nothing is dropped.
        for _ in 0..4 {
            fleet.process(0, &flow);
        }
        assert_eq!(fleet.dropped_packets(), 0);
        // Switch 0's ten packets died with it; the rerouted four live on,
        // and the dead counts are explicitly unavailable, not hidden.
        assert_eq!(fleet.merged_frequency(&flow).unwrap(), 4);
        assert_eq!(fleet.unavailable_packets(), 10);
        let bounded = fleet.merged_frequency_bounded(&flow).unwrap();
        assert!(bounded.estimate + bounded.loss_bound >= 14);

        // Regression: revival must NOT merge the stale pre-failure
        // registers back in — the ten packets were already accounted as
        // gone, and resurrecting them would make the estimate jump.
        fleet.revive_switch(0).unwrap();
        assert_eq!(fleet.merged_frequency(&flow).unwrap(), 4);
        assert_eq!(fleet.lost_packets(), 10);
        assert_eq!(fleet.unavailable_packets(), 0);
        assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
        // The revived switch rejoins routing and is audit-clean.
        fleet.process(0, &flow);
        assert_eq!(fleet.merged_frequency(&flow).unwrap(), 5);
        assert!(fleet.switch(0).0.audit().is_empty());

        // A fully dead fleet reports failure, not garbage.
        for i in 0..3 {
            fleet.fail_switch(i).unwrap();
        }
        assert!(fleet.merged_frequency(&flow).is_err());
        fleet.process(0, &flow);
        assert_eq!(fleet.dropped_packets(), 1);
        assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
    }

    #[test]
    fn promotion_recovers_checkpoint_state_and_bounds_the_loss_window() {
        let def = cms_def(2);
        let mut fleet = SwitchFleet::deploy(3, config(), &def).unwrap();
        let flow = Packet::tcp(0x0a000001, 5, 80, 80);
        // 10 packets land on switch 0, then the standby syncs.
        for _ in 0..10 {
            fleet.process(0, &flow);
        }
        assert!(fleet.enable_standby() > 0, "initial sync ships a full image");
        // 6 more packets arrive after the barrier — the loss window.
        for _ in 0..6 {
            fleet.process(0, &flow);
        }
        fleet.fail_switch(0).unwrap();

        let loss = fleet.promote_standby(0).unwrap();
        assert_eq!(loss, 6, "exactly the post-barrier packets are lost");
        assert_eq!(fleet.lost_packets(), 6);
        assert_eq!(fleet.alive_count(), 3, "routing retargets the standby");
        // The promoted instance carries the checkpoint-era counts and a
        // clean control plane.
        assert_eq!(fleet.merged_frequency(&flow).unwrap(), 10);
        assert!(fleet.switch(0).0.audit().is_empty());
        assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
        let bounded = fleet.merged_frequency_bounded(&flow).unwrap();
        assert!(
            bounded.estimate + bounded.loss_bound >= 16,
            "true count 16 must stay within the documented bound {bounded:?}"
        );
        // The promoted switch keeps measuring under the same handle.
        fleet.process(0, &flow);
        assert_eq!(fleet.merged_frequency(&flow).unwrap(), 11);
    }

    #[test]
    fn delta_syncs_compose_and_compact_the_wal() {
        let def = cms_def(1);
        let mut fleet = SwitchFleet::deploy(2, config(), &def).unwrap();
        let flow = Packet::tcp(7, 7, 7, 7);
        fleet.enable_standby();
        for _ in 0..5 {
            fleet.process(datapath::shard_of(&flow, 2), &flow);
        }
        // A delta sync ships only the touched buckets, far fewer than
        // the full register file.
        let full = fleet.switch(0).0.task(fleet.switch(0).1.unwrap()).unwrap().rows[0].size;
        let shipped = fleet.sync_standby();
        assert!(
            shipped < full,
            "delta shipped {shipped} buckets, full image is {full}+"
        );
        // The WAL is compacted at the sync barrier: the initial deploy
        // record (seq 1) is gone once the image covers it.
        let wal = fleet.switch(0).0.wal().unwrap();
        assert!(wal.records().is_empty(), "{:?}", wal.records());

        // Promotion from a delta-composed image still recovers exactly.
        for _ in 0..3 {
            fleet.process(datapath::shard_of(&flow, 2), &flow);
        }
        let target = datapath::shard_of(&flow, 2);
        fleet.fail_switch(target).unwrap();
        assert_eq!(fleet.promote_standby(target).unwrap(), 3);
        assert_eq!(fleet.merged_frequency(&flow).unwrap(), 5);
    }

    #[test]
    fn promotion_error_paths_leave_the_fleet_unchanged() {
        let def = cms_def(1);
        let mut fleet = SwitchFleet::deploy(2, config(), &def).unwrap();
        // No standby yet.
        fleet.fail_switch(0).unwrap();
        assert!(matches!(
            fleet.promote_standby(0),
            Err(FlymonError::Checkpoint("standby not enabled"))
        ));
        fleet.revive_switch(0).unwrap();
        fleet.enable_standby();
        // Alive switches are not promoted.
        assert!(fleet.promote_standby(0).is_err());
        // A switch that was dead when the standby came up has no image.
        let mut degraded = SwitchFleet::deploy(2, config(), &def).unwrap();
        degraded.fail_switch(0).unwrap();
        degraded.enable_standby();
        assert!(matches!(
            degraded.promote_standby(0),
            Err(FlymonError::Checkpoint("standby holds no image for this switch"))
        ));
        assert!(!degraded.is_alive(0));
    }

    #[test]
    fn a_refused_first_deployment_is_an_error() {
        // The fleet is born by the deploy sweep: a definition its
        // switches cannot place is refused outright, not left behind as
        // a fleet of switches born dead.
        let too_big = TaskDefinition {
            memory: 4 * config().buckets_per_cmu,
            ..cms_def(1)
        };
        assert!(SwitchFleet::deploy(3, config(), &too_big).is_err());
        // No switch, no sweep: the empty fleet is still built.
        assert!(SwitchFleet::deploy(0, config(), &too_big).is_ok());
    }

    /// The refusal every index check below expects: a `BadTask` naming
    /// the switch.
    fn refuses_switch_2<T: std::fmt::Debug>(result: Result<T, FlymonError>) {
        match result {
            Err(FlymonError::BadTask(why)) => assert!(why.contains("switch 2"), "{why}"),
            other => panic!("expected the index refused, got {other:?}"),
        }
    }

    #[test]
    fn reviving_a_switch_past_the_end_is_an_error() {
        let mut fleet = SwitchFleet::deploy(2, config(), &cms_def(1)).unwrap();
        refuses_switch_2(fleet.revive_switch(2));
        assert_eq!(fleet.alive_count(), 2);
    }

    #[test]
    fn promoting_a_switch_past_the_end_is_an_error() {
        // With a standby, so the index is the only thing wrong.
        let mut fleet = SwitchFleet::deploy(2, config(), &cms_def(1)).unwrap();
        fleet.enable_standby();
        refuses_switch_2(fleet.promote_standby(2));
        assert_eq!(fleet.alive_count(), 2);
        assert!(fleet.ledger().balanced());
    }

    #[test]
    fn failing_a_switch_past_the_end_is_an_error() {
        // Regression: `fail_switch` indexed its liveness table unchecked
        // and panicked one past the fleet's end.
        let mut fleet = SwitchFleet::deploy(2, config(), &cms_def(1)).unwrap();
        refuses_switch_2(fleet.fail_switch(2));
        refuses_switch_2(fleet.set_faults(2, None));
        assert_eq!(fleet.alive_count(), 2);
    }

    #[test]
    fn ledger_conserves_packets_across_paths_and_failures() {
        let def = cms_def(2);
        let t = trace();
        let mut fleet = SwitchFleet::deploy(4, config(), &def).unwrap();
        fleet.enable_standby();
        fleet.process_trace(&t[..20_000]);
        fleet.fail_switch(2).unwrap();
        fleet.process_trace(&t[20_000..40_000]);
        fleet.sync_standby();
        fleet.promote_standby(2).unwrap();
        fleet.fail_switch(0).unwrap();
        fleet.process_trace(&t[40_000..]);
        fleet.revive_switch(0).unwrap();
        let ledger = fleet.ledger();
        assert_eq!(ledger.fed, t.len() as u64);
        assert!(ledger.balanced(), "{ledger:?}");
        assert_eq!(ledger.dropped, 0, "survivors absorbed every reroute");
        assert!(ledger.lost > 0, "switch 0 forfeited its packets on revival");
    }

    #[test]
    fn rotation_clamps_summed_rows_at_both_cell_widths() {
        // Every bucket of both members starts over half its ceiling (a
        // hand-edited full image swapped in for the switch), so the rows
        // the rotation sums clamp: the epoch must equal the per-element
        // law over the rows read just before it, and leave every shadow
        // bank zeroed. 15 and 16 bits store u16 cells, 17 and 32 u32.
        let t = trace();
        let bytes = TaskDefinition::builder("bytes")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_bytes())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(64)
            .build();
        for bits in [15u8, 16, 17, 32] {
            let config = FlyMonConfig {
                groups: 8,
                buckets_per_cmu: 2048,
                bucket_bits: bits,
                ..FlyMonConfig::default()
            };
            let max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
            let mut fleet = SwitchFleet::deploy(2, config, &bytes).unwrap();
            for sw in &mut fleet.switches {
                let mut image = sw.checkpoint(CaptureMode::Full);
                for snap in &mut image.registers.snapshots {
                    let flymon_rmt::checkpoint::SnapshotData::Full(data) = &mut snap.data else {
                        unreachable!("a full capture")
                    };
                    for (i, v) in data.iter_mut().enumerate() {
                        *v = max / 2 + (i % 8) as u32;
                    }
                    snap.hull = Some((0, data.len()));
                }
                *sw = FlyMon::restore(&image).unwrap();
            }
            fleet.process_trace(&t);
            let handles = &fleet.tasks[0].handles;
            let expected: Vec<Vec<u32>> = (0..2)
                .map(|row| {
                    let [a, b] = [0, 1].map(|i| fleet.switches[i].read_row(handles[i].unwrap(), row));
                    let cap = fleet.switches[0].task(handles[0].unwrap()).unwrap().rows[row].bucket_max;
                    let pairs = a.unwrap().into_iter().zip(b.unwrap());
                    pairs.map(|(x, y)| MergeLaw::Sum.combine(x, y, cap)).collect()
                })
                .collect();
            assert!(expected.iter().flatten().any(|&v| v == max), "{bits} bits: nothing clamped");
            let epoch = fleet.rotate_epoch_all().unwrap();
            assert_eq!(epoch.tasks[0].rows, expected, "{bits} bits");
            for sw in &fleet.switches {
                for cmu in sw.groups().iter().flat_map(|g| g.cmus()) {
                    let mut reg = cmu.register().clone();
                    assert!(!reg.has_archive(), "{bits} bits: an archive was kept");
                    reg.swap_epoch_bank();
                    let shadow = reg.read_range(0, reg.len()).unwrap();
                    assert!(shadow.iter().all(|v| v == 0), "{bits} bits: a stale shadow bank");
                }
            }
        }
    }
}
