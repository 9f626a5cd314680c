//! Chaos soak harness: randomized seeded fault schedules against a
//! [`SwitchFleet`] with a warm standby.
//!
//! Each schedule is fully determined by its seed: a [`SplitMix64`]
//! stream picks every event (traffic slices, standby syncs, kills,
//! promotions, revivals, and control-plane reconfigurations, some
//! through armed [`FaultPlan`]s) and every packet. After *every* event
//! the harness asserts the robustness invariants:
//!
//! 1. **Audit clean** — every switch, dead or alive, reconciles its
//!    shadow state against its data plane with zero divergences (this
//!    covers balanced refcounts and leaked partitions).
//! 2. **Ledger conserved** — `fed == represented + lost + dropped`
//!    ([`PacketLedger::balanced`]).
//! 3. **Loss window bound** — the merged estimate of a sentinel flow
//!    plus the explicit loss bound covers every sentinel packet ever
//!    fed: `estimate + loss_bound >= true_count`.
//! 4. **No panic** — [`run_soak`] converts a panicking schedule into a
//!    reported violation instead of tearing down the harness.
//! 5. **Batch-boundary checkpoints restore identically** — a private
//!    probe switch replays every traffic slice through the stage-major
//!    batched datapath ([`FlyMon::process_batch`]) and, at each slice
//!    boundary, a full checkpoint of it must restore to bit-identical
//!    registers (guards the batched SALU path's dirty-watermark
//!    bookkeeping without perturbing the fleet's own sync barriers).
//!
//! Violations carry the seed, the event index and what went wrong, so
//! any soak failure replays exactly with `run_schedule(seed, &cfg)`.
//!
//! A second harness ([`run_ingest_schedule`] / [`run_ingest_soak`])
//! soaks the streaming runtime instead of the bare fleet: seeded
//! ingestion faults — queue stalls, slow consumers, worker panics, and
//! 10× input bursts — against the conserved stream ledger
//! `fed == represented + shed + lost + dropped (+ in_flight)`, the
//! sentinel watch bound across epoch rotations, and per-switch audits.

use std::panic::{catch_unwind, AssertUnwindSafe};

use flymon::prelude::*;
use flymon_packet::{Packet, SplitMix64};

use crate::channel::{ChannelConfig, ControlChannel};
use crate::fleet::SwitchFleet;
use crate::ingest::{ChunkSource, IngestConfig, IngestFault, RuntimeHealth, StreamingRuntime};

/// Shape of one chaos schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fleet size.
    pub switches: usize,
    /// Events per schedule.
    pub events: usize,
    /// Packets per traffic slice.
    pub slice_packets: usize,
    /// Switch geometry.
    pub config: FlyMonConfig,
    /// When set, a lossy control channel (seeded off the schedule seed)
    /// is attached to the fleet and the event table widens with channel
    /// faults: partitions, heals, link flaps, duplicate/reorder storms
    /// and split-brain probes. `None` keeps the PR-6 schedule exactly.
    pub channel: Option<ChannelConfig>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            switches: 4,
            events: 40,
            slice_packets: 2_000,
            config: FlyMonConfig {
                groups: 2,
                buckets_per_cmu: 16384,
                ..FlyMonConfig::default()
            },
            channel: None,
        }
    }
}

/// A [`ChannelConfig`] for partition soaks: lossy enough to exercise
/// every retry path, tame enough that commands still complete within
/// the retry budget when the link is not partitioned.
pub fn soak_channel_config() -> ChannelConfig {
    ChannelConfig {
        drop_rate: 0.10,
        dup_rate: 0.10,
        reorder_rate: 0.10,
        ..ChannelConfig::default()
    }
}

/// One event drawn from the seeded schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Feed a slice of generated traffic.
    Traffic {
        /// Packets in the slice.
        packets: usize,
    },
    /// Ship checkpoints to the warm standby.
    Sync,
    /// Fail a switch.
    Kill(usize),
    /// Promote the standby in place of a dead switch.
    Promote(usize),
    /// Revive a dead switch (clearing its registers).
    Revive(usize),
    /// Deploy an ephemeral task fleet-wide ([`SwitchFleet::deploy_task`])
    /// — sometimes with a fault plan armed on the named switch,
    /// sometimes left deployed — then usually remove it
    /// ([`SwitchFleet::remove_task`]). A fleet with a dead switch
    /// refuses the deploy.
    Reconfigure(usize),
    /// Partition a switch's control link (channel schedules only).
    Partition(usize),
    /// Heal every partition and re-announce the fencing term.
    Heal,
    /// Flap a link: partition it, push a standby sync into the hole
    /// (commands to the flapped switch time out), then heal it.
    Flap(usize),
    /// Temporarily crank duplication + reordering to storm levels and
    /// drive a sync plus a deploy/remove cycle through the storm.
    DupStorm,
    /// Simulate a partitioned stale primary: rewind the controller's
    /// fencing term, issue a fleet-wide command, and require every
    /// switch to reject it with zero state change.
    SplitBrainProbe,
}

/// An invariant that failed after an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the event in the schedule (usize::MAX for a panic).
    pub event_index: usize,
    /// The event that was applied (or a description of the panic).
    pub event: String,
    /// What broke.
    pub detail: String,
}

/// Outcome of one seeded schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// The schedule's seed.
    pub seed: u64,
    /// Events applied.
    pub events: usize,
    /// Kills applied.
    pub kills: usize,
    /// Successful standby promotions.
    pub promotes: usize,
    /// Revivals applied.
    pub revives: usize,
    /// Reconfiguration attempts (including faulted ones).
    pub reconfigs: usize,
    /// Packets fed across all traffic slices.
    pub packets: u64,
    /// Packets explicitly lost by the end of the schedule.
    pub lost: u64,
    /// Control operations abandoned on a channel timeout (the command
    /// never applied; tolerated, not a violation).
    pub failed_ops: usize,
    /// Stale-term commands the switches fenced off (every one audited
    /// in the channel event log, none silently dropped).
    pub stale_rejects: u64,
    /// The control channel's full event log — empty without a channel;
    /// the determinism guard diffs two runs of the same seed over it.
    pub channel_events: Vec<String>,
    /// Every invariant failure, in schedule order.
    pub violations: Vec<Violation>,
}

impl ChaosReport {
    /// True when the schedule completed with zero violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The sentinel heavy flow whose true count anchors invariant 3.
fn sentinel() -> Packet {
    Packet::tcp(0x0a00_00fe, 0x0a00_0001, 443, 50_000)
}

/// Deterministic traffic slice: ~25% sentinel packets, the rest spread
/// over a seeded flow population.
fn gen_slice(rng: &mut SplitMix64, packets: usize, true_sentinel: &mut u64) -> Vec<Packet> {
    let mut out = Vec::with_capacity(packets);
    for _ in 0..packets {
        if rng.next_u64().is_multiple_of(4) {
            *true_sentinel += 1;
            out.push(sentinel());
        } else {
            let src = 0xc0a8_0000 | (rng.next_u32() & 0x3ff);
            out.push(Packet::udp(src, 0x0a00_0001, rng.next_u16(), 53));
        }
    }
    out
}

fn ephemeral_def(tag: u64) -> TaskDefinition {
    let line = format!("chaos-ephemeral-{tag} key=N/A attr=existence param=5tuple mem=1024");
    line.parse().expect("the ephemeral task's line is well formed")
}

/// Indices matching a liveness predicate.
fn pick(fleet: &SwitchFleet, rng: &mut SplitMix64, want_alive: bool) -> Option<usize> {
    let candidates: Vec<usize> = (0..fleet.len())
        .filter(|&i| fleet.is_alive(i) == want_alive)
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[(rng.next_u64() % candidates.len() as u64) as usize])
    }
}

/// Invariant 5: a checkpoint captured at a batch boundary must restore
/// to bit-identical registers. The probe is private to the harness, so
/// moving its snapshot barrier here cannot disturb the fleet's
/// standby-sync deltas. Draws no randomness — schedule determinism is
/// untouched.
fn batch_boundary_restore_divergence(probe: &mut FlyMon) -> Option<String> {
    let chk = probe.checkpoint(CaptureMode::Full);
    let restored = match FlyMon::restore(&chk) {
        Ok(fm) => fm,
        Err(e) => return Some(format!("batch-boundary checkpoint failed to restore: {e}")),
    };
    for (g, (ga, gb)) in probe.groups().iter().zip(restored.groups()).enumerate() {
        for (c, (ca, cb)) in ga.cmus().iter().zip(gb.cmus()).enumerate() {
            let len = ca.register().len();
            let a = ca.register().read_range(0, len).expect("full range reads");
            let b = cb.register().read_range(0, len).expect("full range reads");
            if a != b {
                return Some(format!(
                    "batch-boundary restore diverged: group {g} cmu {c} registers differ"
                ));
            }
        }
    }
    None
}

/// One invariant failure after (or inside) `event`.
fn violation(event_index: usize, event: &dyn std::fmt::Debug, detail: String) -> Violation {
    Violation {
        event_index,
        event: format!("{event:?}"),
        detail,
    }
}

/// A panicking schedule as the one violation its report carries.
fn panic_violation(panic: Box<dyn std::any::Any + Send>) -> Violation {
    let detail = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    Violation {
        event_index: usize::MAX,
        event: "panic".into(),
        detail,
    }
}

/// Invariant 1: every switch, dead or alive, audits clean.
fn check_audits(fleet: &SwitchFleet, mut fail: impl FnMut(String)) {
    for i in 0..fleet.len() {
        let divergences = fleet.switch(i).0.audit();
        if !divergences.is_empty() {
            fail(format!(
                "switch {i} audit found {} divergence(s): {:?}",
                divergences.len(),
                divergences[0]
            ));
        }
    }
}

/// Per-switch task counts — what exactly-once application is checked by.
fn task_counts(fleet: &SwitchFleet) -> Vec<usize> {
    (0..fleet.len())
        .map(|s| fleet.switch(s).0.task_count())
        .collect()
}

/// The fleet's control channel, inside an event whose guard saw one.
fn attached(fleet: &mut SwitchFleet) -> &mut ControlChannel {
    fleet.channel_mut().expect("channel checked above")
}

/// Deploys `def` fleet-wide, then (unless `keep`) removes it, proving
/// exactly-once application through the channel — a duplicated commit
/// that applied twice would leave the per-switch task counts off by
/// one. A channel timeout abandons the cycle (counted in `failed_ops`:
/// the command never applied). Returns what broke, if anything did.
fn exactly_once_cycle(
    fleet: &mut SwitchFleet,
    def: &TaskDefinition,
    keep: bool,
    failed_ops: &mut usize,
) -> Option<String> {
    let before = task_counts(fleet);
    let removed = match fleet.deploy_task(def) {
        Ok(t) if !keep => fleet.remove_task(t),
        Ok(_) => return None,
        Err(FlymonError::ChannelTimeout { .. }) => {
            *failed_ops += 1;
            return None;
        }
        // Any other failure rolled back (the invariant check proves it
        // left no trace) — kept ephemerals can legitimately starve
        // capacity.
        Err(_) => return None,
    };
    match removed {
        Ok(()) => {
            let after = task_counts(fleet);
            (after != before).then(|| {
                format!(
                    "exactly-once broken: task counts {before:?} -> {after:?} after a \
                     deploy/remove cycle"
                )
            })
        }
        Err(FlymonError::ChannelTimeout { .. }) => {
            *failed_ops += 1;
            None
        }
        Err(e) => Some(format!("channel-routed remove failed: {e}")),
    }
}

fn check_invariants(
    fleet: &SwitchFleet,
    true_sentinel: u64,
    event_index: usize,
    event: &ChaosEvent,
    violations: &mut Vec<Violation>,
) {
    let mut fail = |detail: String| violations.push(violation(event_index, event, detail));
    check_audits(fleet, &mut fail);
    let ledger = fleet.ledger();
    if !ledger.balanced() {
        fail(format!("packet ledger out of balance: {ledger:?}"));
    }
    if fleet.alive_count() > 0 {
        match fleet.merged_frequency_bounded(&sentinel()) {
            Ok(b) if b.estimate + b.loss_bound < true_sentinel => fail(format!(
                "loss window bound broken: estimate {} + bound {} < true count {}",
                b.estimate, b.loss_bound, true_sentinel
            )),
            Ok(_) => {}
            Err(e) => fail(format!("merged readout failed with survivors alive: {e}")),
        }
    }
}

/// Runs one seeded schedule to completion and reports every violation.
/// Identical `(seed, cfg)` always produces the identical schedule,
/// traffic and report.
pub fn run_schedule(seed: u64, cfg: &ChaosConfig) -> ChaosReport {
    let mut rng = SplitMix64::new(seed);
    let def: TaskDefinition = "chaos-main key=SrcIP attr=frequency mem=8192 alg=cms d=2"
        .parse()
        .expect("the chaos task's line is well formed");
    let mut fleet = SwitchFleet::deploy(cfg.switches, cfg.config, &def)
        .expect("chaos fleet deploys cleanly");
    fleet.enable_standby();
    if let Some(ch) = &cfg.channel {
        // The channel's rng stream is derived from (not equal to) the
        // schedule seed, so channel rolls never perturb event rolls.
        fleet
            .attach_channel(seed ^ 0xC4A7_7E1C_0DE5_EED5, *ch)
            .expect("chaos channel config validates");
    }
    // Invariant 5's private probe: sees every traffic slice through the
    // batched datapath, checkpointed at each slice boundary.
    let mut probe = FlyMon::new(cfg.config);
    probe.deploy(&def).expect("chaos probe deploys cleanly");

    let mut report = ChaosReport {
        seed,
        ..ChaosReport::default()
    };
    let mut true_sentinel = 0u64;

    for event_index in 0..cfg.events {
        // Without a channel the roll table is byte-identical to the
        // pre-channel harness; with one, five channel-fault ranges are
        // appended (the 0..=99 core keeps its exact boundaries).
        let table = if cfg.channel.is_some() { 130 } else { 100 };
        let roll = rng.next_u64() % table;
        let event = match roll {
            0..=34 => {
                // A retired choice (serial or threaded replay) drew one
                // value here; drawing it still keeps every same-seed
                // schedule, and the golden event logs, byte-identical.
                rng.next_u64();
                ChaosEvent::Traffic {
                    packets: cfg.slice_packets,
                }
            }
            35..=49 => ChaosEvent::Sync,
            50..=64 => match pick(&fleet, &mut rng, true) {
                Some(i) => ChaosEvent::Kill(i),
                None => ChaosEvent::Sync,
            },
            65..=79 => match pick(&fleet, &mut rng, false) {
                Some(i) => ChaosEvent::Promote(i),
                None => ChaosEvent::Sync,
            },
            80..=89 => match pick(&fleet, &mut rng, false) {
                Some(i) => ChaosEvent::Revive(i),
                None => ChaosEvent::Sync,
            },
            90..=99 => match pick(&fleet, &mut rng, true) {
                Some(i) => ChaosEvent::Reconfigure(i),
                None => ChaosEvent::Sync,
            },
            100..=106 => ChaosEvent::Partition((rng.next_u64() % cfg.switches as u64) as usize),
            107..=112 => ChaosEvent::Heal,
            113..=118 => ChaosEvent::Flap((rng.next_u64() % cfg.switches as u64) as usize),
            119..=124 => ChaosEvent::DupStorm,
            _ => ChaosEvent::SplitBrainProbe,
        };

        let mut fail =
            |detail: String| report.violations.push(violation(event_index, &event, detail));
        match &event {
            ChaosEvent::Traffic { packets } => {
                let slice = gen_slice(&mut rng, *packets, &mut true_sentinel);
                report.packets += slice.len() as u64;
                fleet.process_trace(&slice);
                probe.process_batch(&slice);
                if let Some(detail) = batch_boundary_restore_divergence(&mut probe) {
                    fail(detail);
                }
            }
            ChaosEvent::Sync => {
                fleet.sync_standby();
            }
            ChaosEvent::Kill(i) => {
                fleet.fail_switch(*i).expect("picked switches are in the fleet");
                report.kills += 1;
            }
            ChaosEvent::Promote(i) => match fleet.promote_standby(*i) {
                Ok(_) => report.promotes += 1,
                // A promote command swallowed by a partitioned or lossy
                // channel never applied: the switch stays dead, the
                // schedule moves on — tolerated, not a violation.
                Err(FlymonError::ChannelTimeout { .. }) => report.failed_ops += 1,
                Err(e) => fail(format!("promotion of a synced switch failed: {e}")),
            },
            ChaosEvent::Revive(i) => match fleet.revive_switch(*i) {
                Ok(()) => report.revives += 1,
                Err(FlymonError::ChannelTimeout { .. }) => report.failed_ops += 1,
                Err(e) => fail(format!("revival of a deployed switch failed: {e}")),
            },
            ChaosEvent::Reconfigure(i) => {
                report.reconfigs += 1;
                if fleet.channel().is_some() && fleet.fully_alive() {
                    // Channel-routed: deploy fleet-wide, then (usually)
                    // remove.
                    let keep = rng.next_u64().is_multiple_of(4);
                    let def = ephemeral_def(rng.next_u64() % 1_000_000);
                    if let Some(detail) =
                        exactly_once_cycle(&mut fleet, &def, keep, &mut report.failed_ops)
                    {
                        fail(detail);
                    }
                } else {
                    let faulted = rng.next_u64().is_multiple_of(3);
                    let keep = rng.next_u64().is_multiple_of(4);
                    let def = ephemeral_def(rng.next_u64() % 1_000_000);
                    if faulted {
                        let plan = FaultPlan::new(rng.next_u64()).fail_probability(0.5);
                        fleet.set_faults(*i, Some(plan)).expect("picked switches are in the fleet");
                    }
                    let deployed = fleet.deploy_task(&def);
                    fleet.set_faults(*i, None).expect("picked switches are in the fleet");
                    if let Ok(t) = deployed {
                        if !keep {
                            let _ = fleet.remove_task(t);
                        }
                    }
                    // A refused deploy (faulted, capacity-starved, or
                    // around a dead switch) unwound; the invariant check
                    // below proves it left no trace.
                }
            }
            ChaosEvent::Partition(i) => {
                if let Some(ch) = fleet.channel_mut() {
                    ch.set_partitioned(*i, true)
                        .expect("scheduled switches are in the fleet");
                }
            }
            ChaosEvent::Heal => {
                if let Some(ch) = fleet.channel_mut() {
                    ch.heal_all();
                    // Reconnect handshake: re-announce the fencing term
                    // so a switch that missed a promotion's broadcast
                    // while partitioned cannot be captured by a stale
                    // primary (the lazy-propagation loophole).
                    ch.broadcast_term();
                }
            }
            ChaosEvent::Flap(i) => {
                if let Some(ch) = fleet.channel_mut() {
                    ch.set_partitioned(*i, true)
                        .expect("scheduled switches are in the fleet");
                }
                // Push a sync into the hole: commands to the flapped
                // switch burn their retry budget and time out; every
                // other switch ships normally.
                fleet.sync_standby();
                if let Some(ch) = fleet.channel_mut() {
                    ch.set_partitioned(*i, false)
                        .expect("scheduled switches are in the fleet");
                    ch.broadcast_term();
                }
            }
            ChaosEvent::DupStorm => {
                let base = fleet.channel().map(|c| *c.config());
                if let Some(base) = base {
                    attached(&mut fleet)
                        .set_rates(base.drop_rate, 0.5, 0.5)
                        .expect("storm rates validate");
                    fleet.sync_standby();
                    if fleet.fully_alive() {
                        let def = ephemeral_def(rng.next_u64() % 1_000_000);
                        if let Some(detail) =
                            exactly_once_cycle(&mut fleet, &def, false, &mut report.failed_ops)
                        {
                            fail(format!("dup storm: {detail}"));
                        }
                    }
                    attached(&mut fleet)
                        .set_rates(base.drop_rate, base.dup_rate, base.reorder_rate)
                        .expect("base rates validated at attach");
                }
            }
            ChaosEvent::SplitBrainProbe => {
                if fleet.channel().is_some() && fleet.fully_alive() {
                    // Make every switch current first: heal partitions
                    // and announce the term (minting one if no
                    // promotion has happened yet), so the rewound
                    // command below tests fencing, not propagation lag.
                    let ch = attached(&mut fleet);
                    ch.heal_all();
                    if ch.term() == 0 {
                        ch.mint_term();
                    }
                    ch.broadcast_term();
                    let term = ch.term();
                    let before = task_counts(&fleet);
                    // The stale primary writes: rewind the controller's
                    // term and issue a fleet-wide deploy.
                    attached(&mut fleet).force_term(term - 1);
                    let def = ephemeral_def(rng.next_u64() % 1_000_000);
                    let outcome = fleet.deploy_task(&def);
                    attached(&mut fleet).force_term(term);
                    let after = task_counts(&fleet);
                    match outcome {
                        Err(FlymonError::Fenced { .. }) => {
                            if after != before {
                                fail(format!(
                                    "fenced command still mutated state: task counts \
                                     {before:?} -> {after:?}"
                                ));
                            }
                        }
                        Ok(_) => fail("stale-term command was accepted: split brain".into()),
                        // All-attempts-dropped is astronomically rare
                        // but possible; the command still never applied.
                        Err(FlymonError::ChannelTimeout { .. }) => report.failed_ops += 1,
                        Err(e) => fail(format!("split-brain probe failed unexpectedly: {e}")),
                    }
                }
            }
        }

        check_invariants(
            &fleet,
            true_sentinel,
            event_index,
            &event,
            &mut report.violations,
        );
        report.events += 1;
    }

    // Settle: heal the control plane first (a schedule must not end
    // judged through a partition it injected itself), then one final
    // sync + promotion sweep over the dead, then a last full check so
    // no schedule ends in an unexamined state.
    if let Some(ch) = fleet.channel_mut() {
        ch.heal_all();
        ch.broadcast_term();
    }
    fleet.sync_standby();
    for i in 0..fleet.len() {
        if !fleet.is_alive(i) && fleet.promote_standby(i).is_ok() {
            report.promotes += 1;
        }
    }
    check_invariants(
        &fleet,
        true_sentinel,
        cfg.events,
        &ChaosEvent::Sync,
        &mut report.violations,
    );
    report.lost = fleet.lost_packets();
    if let Some(ch) = fleet.channel() {
        report.stale_rejects = ch.stats().stale_rejects;
        report.channel_events = ch.event_log();
    }
    report
}

/// Runs many seeded schedules, converting panics into violations (a
/// panicking schedule is a bug, not a reason to stop soaking).
pub fn run_soak(seeds: impl IntoIterator<Item = u64>, cfg: &ChaosConfig) -> Vec<ChaosReport> {
    seeds
        .into_iter()
        .map(|seed| {
            catch_unwind(AssertUnwindSafe(|| run_schedule(seed, cfg))).unwrap_or_else(|panic| {
                ChaosReport {
                    seed,
                    violations: vec![panic_violation(panic)],
                    ..ChaosReport::default()
                }
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ingestion chaos: fault schedules against the streaming runtime.
// ---------------------------------------------------------------------------

/// Shape of one ingestion chaos schedule (see [`run_ingest_schedule`]).
#[derive(Debug, Clone)]
pub struct IngestChaosConfig {
    /// Fleet size under the streaming runtime.
    pub switches: usize,
    /// Chunks the source offers per schedule.
    pub chunks: usize,
    /// Packets per chunk at the baseline rate.
    pub base_chunk: usize,
    /// Ingress queue capacity.
    pub queue_capacity: usize,
    /// Worker drain budget per step.
    pub drain_chunk: usize,
    /// Switch geometry.
    pub config: FlyMonConfig,
}

impl Default for IngestChaosConfig {
    fn default() -> Self {
        IngestChaosConfig {
            switches: 3,
            chunks: 30,
            base_chunk: 1_024,
            queue_capacity: 4_096,
            drain_chunk: 1_024,
            config: FlyMonConfig {
                groups: 2,
                buckets_per_cmu: 16384,
                ..FlyMonConfig::default()
            },
        }
    }
}

/// Outcome of one seeded ingestion schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestChaosReport {
    /// The schedule's seed.
    pub seed: u64,
    /// Steps the runtime executed.
    pub steps: u64,
    /// Packets the source offered.
    pub offered: u64,
    /// Packets shed across all ladder rungs.
    pub shed: u64,
    /// Worker panics caught and supervised.
    pub recovered_panics: u64,
    /// Epoch rotations performed mid-stream.
    pub epochs: u64,
    /// The faults injected, rendered for replay diagnostics.
    pub faults: Vec<String>,
    /// Every invariant failure, in step order.
    pub violations: Vec<Violation>,
}

impl IngestChaosReport {
    /// True when the schedule completed with zero violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A chunked source with a burst window: chunks inside the window carry
/// `burst_factor`× the baseline packets — the input-burst ingestion
/// fault (the other faults are injected into the runtime itself).
/// Sentinel packets are woven in as in [`gen_slice`].
struct BurstChunks {
    rng: SplitMix64,
    chunks: usize,
    emitted: usize,
    base: usize,
    burst_from: usize,
    burst_len: usize,
    burst_factor: usize,
    true_sentinel: u64,
}

impl ChunkSource for BurstChunks {
    fn next_chunk(&mut self) -> Option<Vec<Packet>> {
        if self.emitted >= self.chunks {
            return None;
        }
        let in_burst =
            self.emitted >= self.burst_from && self.emitted < self.burst_from + self.burst_len;
        let size = if in_burst {
            self.base * self.burst_factor
        } else {
            self.base
        };
        self.emitted += 1;
        Some(gen_slice(&mut self.rng, size, &mut self.true_sentinel))
    }
}

/// Runs one seeded ingestion schedule: a bursty sentinel-bearing stream
/// through a [`StreamingRuntime`] over a fresh fleet, with a seeded
/// subset of ingestion faults (queue stall, slow consumer, worker
/// panic) layered on top of a guaranteed 10× input burst. After every
/// step the harness asserts:
///
/// 1. **Stream ledger conserved** —
///    `fed == represented + shed + lost + dropped + in_flight`
///    ([`crate::ingest::StreamLedger::conserved`]).
/// 2. **Watch bound** — the sentinel flow's archived + live estimate
///    plus the explicit loss bound covers every sentinel packet the
///    worker has processed, across epoch rotations.
/// 3. **Audit clean** — every switch reconciles shadow state against
///    its data plane, including a replica respawned after a panic.
///
/// At quiescence the ledger must additionally collapse to the exact
/// form `fed == represented + shed + lost + dropped` (`in_flight == 0`)
/// and the runtime must settle back to `Healthy`.
pub fn run_ingest_schedule(seed: u64, cfg: &IngestChaosConfig) -> IngestChaosReport {
    let mut rng = SplitMix64::new(seed);
    let def: TaskDefinition = "ingest-chaos key=SrcIP attr=frequency mem=8192 alg=cms d=2"
        .parse()
        .expect("the chaos task's line is well formed");
    let fleet = SwitchFleet::deploy(cfg.switches, cfg.config, &def)
        .expect("ingest chaos fleet deploys cleanly");

    let mut rt = StreamingRuntime::new(
        fleet,
        IngestConfig {
            queue_capacity: cfg.queue_capacity,
            drain_chunk: cfg.drain_chunk,
            backlog_limit: cfg.queue_capacity * 4,
            epoch_packets: cfg.base_chunk as u64 * (2 + rng.next_u64() % 6),
            sync_every_steps: 1,
            max_idle_steps: 64,
            seed: rng.next_u64(),
            ..IngestConfig::default()
        },
    );
    rt.watch(sentinel());

    let mut report = IngestChaosReport {
        seed,
        ..IngestChaosReport::default()
    };

    // The guaranteed burst: 10× the baseline chunk for a few chunks.
    let mut src = BurstChunks {
        rng: SplitMix64::new(rng.next_u64()),
        chunks: cfg.chunks,
        emitted: 0,
        base: cfg.base_chunk,
        burst_from: 2 + (rng.next_u64() % 8) as usize,
        burst_len: 2 + (rng.next_u64() % 4) as usize,
        burst_factor: 10,
        true_sentinel: 0,
    };
    report.faults.push(format!(
        "InputBurst {{ from_chunk: {}, chunks: {}, factor: 10 }}",
        src.burst_from, src.burst_len
    ));

    // A seeded subset of the runtime-side faults.
    if rng.chance(0.7) {
        let f = IngestFault::QueueStall {
            from_step: 2 + rng.next_u64() % 20,
            steps: 2 + rng.next_u64() % 6,
        };
        report.faults.push(format!("{f:?}"));
        rt.inject(f);
    }
    if rng.chance(0.7) {
        let f = IngestFault::SlowConsumer {
            from_step: 2 + rng.next_u64() % 25,
            steps: 2 + rng.next_u64() % 6,
            factor: 2 + (rng.next_u64() % 8) as usize,
        };
        report.faults.push(format!("{f:?}"));
        rt.inject(f);
    }
    if rng.chance(0.7) {
        let f = IngestFault::WorkerPanic {
            at_step: 2 + rng.next_u64() % 30,
            switch: (rng.next_u64() % cfg.switches as u64) as usize,
        };
        report.faults.push(format!("{f:?}"));
        rt.inject(f);
    }

    let mut step_index = 0usize;
    loop {
        let out = match rt.step(&mut src) {
            Ok(out) => out,
            Err(e) => {
                let detail = format!("streaming step failed: {e}");
                report.violations.push(violation(step_index, &format_args!("step"), detail));
                break;
            }
        };
        let mut fail =
            |detail: String| report.violations.push(violation(step_index, &out, detail));
        let ledger = rt.ledger();
        if !ledger.conserved() {
            fail(format!("stream ledger out of balance: {ledger:?}"));
        }
        if let Some((estimate, bound, processed)) = rt.watch_bound() {
            if estimate + bound < processed {
                fail(format!(
                    "watch bound broken: estimate {estimate} + bound {bound} < processed {processed}"
                ));
            }
        }
        check_audits(rt.fleet(), &mut fail);
        step_index += 1;
        if out.source_dry && rt.ledger().in_flight == 0 {
            break;
        }
    }

    // Settle (final sync clears any pending recovery) and check the
    // quiescent invariants.
    let _ = rt.run(&mut src);
    let ledger = rt.ledger();
    let mut unsettled =
        |detail: String| report.violations.push(violation(step_index, &format_args!("settle"), detail));
    if ledger.in_flight != 0 || !ledger.conserved() {
        unsettled(format!("quiescent ledger not conserved: {ledger:?}"));
    }
    if rt.health() != RuntimeHealth::Healthy {
        unsettled(format!("runtime did not settle to Healthy: {:?}", rt.health()));
    }

    let stats = rt.stats();
    report.steps = stats.steps;
    report.offered = stats.offered;
    report.shed = stats.shed();
    report.recovered_panics = stats.panics_recovered;
    report.epochs = stats.epochs_rotated;
    report
}

/// Runs many seeded ingestion schedules, converting panics into
/// violations — the streaming mirror of [`run_soak`].
pub fn run_ingest_soak(
    seeds: impl IntoIterator<Item = u64>,
    cfg: &IngestChaosConfig,
) -> Vec<IngestChaosReport> {
    seeds
        .into_iter()
        .map(|seed| {
            catch_unwind(AssertUnwindSafe(|| run_ingest_schedule(seed, cfg))).unwrap_or_else(
                |panic| IngestChaosReport {
                    seed,
                    violations: vec![panic_violation(panic)],
                    ..IngestChaosReport::default()
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ChaosConfig {
        ChaosConfig {
            switches: 3,
            events: 15,
            slice_packets: 500,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn single_schedule_is_clean_and_eventful() {
        let report = run_schedule(0xC0FFEE, &quick());
        assert!(report.is_clean(), "{:#?}", report.violations);
        assert_eq!(report.events, 15);
        assert!(report.packets > 0, "schedule fed no traffic");
    }

    #[test]
    fn same_seed_same_report() {
        let a = run_schedule(7, &quick());
        let b = run_schedule(7, &quick());
        assert_eq!(a, b, "chaos schedules must be seed-deterministic");
    }

    #[test]
    fn soak_over_several_seeds_is_clean() {
        let reports = run_soak(1..=4u64, &quick());
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.is_clean(), "seed {}: {:#?}", r.seed, r.violations);
        }
        // Across a few seeds the soak must actually exercise failover.
        let kills: usize = reports.iter().map(|r| r.kills).sum();
        let promotes: usize = reports.iter().map(|r| r.promotes).sum();
        assert!(kills > 0, "no schedule killed a switch");
        assert!(promotes > 0, "no schedule promoted the standby");
    }

    fn quick_channel() -> ChaosConfig {
        ChaosConfig {
            switches: 3,
            events: 20,
            slice_packets: 500,
            channel: Some(soak_channel_config()),
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn channel_schedule_is_clean_and_exercises_the_channel() {
        let report = run_schedule(0xFEED, &quick_channel());
        assert!(report.is_clean(), "{:#?}", report.violations);
        assert!(
            !report.channel_events.is_empty(),
            "a channel schedule must log channel traffic"
        );
    }

    #[test]
    fn channel_schedule_is_seed_deterministic_including_event_log() {
        let a = run_schedule(42, &quick_channel());
        let b = run_schedule(42, &quick_channel());
        assert_eq!(a, b, "channel schedules must be seed-deterministic");
        assert_eq!(a.channel_events, b.channel_events);
    }

    #[test]
    fn channel_soak_exercises_partitions_and_fencing() {
        let reports = run_soak(1..=6u64, &quick_channel());
        for r in &reports {
            assert!(r.is_clean(), "seed {}: {:#?}", r.seed, r.violations);
        }
        let stale: u64 = reports.iter().map(|r| r.stale_rejects).sum();
        assert!(
            stale > 0,
            "six channel seeds must hit at least one split-brain probe"
        );
        let partitioned = reports
            .iter()
            .any(|r| r.channel_events.iter().any(|e| e.contains("partition")));
        assert!(partitioned, "no schedule partitioned a link");
    }

    fn quick_ingest() -> IngestChaosConfig {
        IngestChaosConfig {
            switches: 3,
            chunks: 16,
            base_chunk: 512,
            queue_capacity: 2_048,
            drain_chunk: 512,
            ..IngestChaosConfig::default()
        }
    }

    #[test]
    fn ingest_schedule_is_clean_and_sheds_under_burst() {
        let report = run_ingest_schedule(0xBEEF, &quick_ingest());
        assert!(report.is_clean(), "{:#?}", report.violations);
        assert!(report.offered > 0);
        assert!(
            report.shed > 0,
            "a 10x burst over a small queue must shed: {report:?}"
        );
    }

    #[test]
    fn ingest_schedule_is_seed_deterministic() {
        let a = run_ingest_schedule(21, &quick_ingest());
        let b = run_ingest_schedule(21, &quick_ingest());
        assert_eq!(a, b, "ingestion schedules must be seed-deterministic");
    }

    #[test]
    fn ingest_soak_over_several_seeds_is_clean() {
        let reports = run_ingest_soak(1..=4u64, &quick_ingest());
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.is_clean(), "seed {}: {:#?}", r.seed, r.violations);
        }
        // Across a few seeds the soak must exercise supervision.
        let panics: u64 = reports.iter().map(|r| r.recovered_panics).sum();
        let epochs: u64 = reports.iter().map(|r| r.epochs).sum();
        assert!(panics > 0, "no schedule injected a worker panic");
        assert!(epochs > 0, "no schedule rotated an epoch");
    }
}
