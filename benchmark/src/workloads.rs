//! The five workloads: their frozen shapes, their inputs, and the
//! closed loop each one runs.
//!
//! Everything here is frozen: changing a count, a task or a config
//! below changes what the numbers mean, so it is a benchmark change and
//! the baseline must be measured again. Every value is recorded in each
//! result file (`counts`).
//!
//! The loops call only the functions listed in the README's allowed-API
//! table, with library defaults: no tuning setters, no per-packet
//! interpreter, no legacy rotation.

use std::time::Instant;

use flymon::prelude::*;
use flymon_netsim::{
    ChannelConfig, ChunkSource, IngestConfig, RuntimeHealth, StreamingRuntime, SwitchFleet,
};
use flymon_packet::{KeySpec, Packet, TaskFilter};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};
use flymon_traffic::GroundTruth;

use crate::json::{obj, Json};
use crate::tracer::span;

/// Packets per `process_batch` / `process_trace` call, per chunk pulled
/// by the streaming runtime, and per drain.
pub const BLOCK: usize = 4096;
/// Packets fed between two control ops of `reconfig_churn`.
pub const CHURN_FEED: usize = 256;
/// `reconfig_churn` runs standby sync, WAL maintenance and event-log
/// trimming every this many cycles (outside the op timings).
pub const CHURN_MAINTENANCE_EVERY: u64 = 64;
/// Per-leg drop, duplicate and reorder rate of the churn channel.
pub const CHURN_CHANNEL_RATE: f64 = 0.01;
/// Packets per epoch of `readout_epoch`: short enough that the readout
/// is about a quarter of the loop's time.
pub const READOUT_EPOCH: usize = 32_768;
/// `merged_frequency` queries per epoch readout. Each one merges every
/// row of the task afresh, so a handful is already a third of a readout.
pub const READOUT_QUERIES: usize = 4;
/// Buckets per CMU of `readout_epoch`: with 16-bit registers, three rows
/// and two switches that is 768 KB, inside the 2 MB private L2 of the
/// reference host. Anything larger reads the L3 the host's neighbours
/// share, and its timings follow them, not the code (README).
pub const READOUT_BUCKETS: usize = 1 << 16;
/// Buckets per CMU of the ladder's `wide.*` rungs: 12 MB of registers
/// on two switches, beyond every private cache.
pub const WIDE_BUCKETS: usize = 1 << 20;
/// Streaming runtime shape of `stream_fleet`.
pub const STREAM_QUEUE: usize = 16_384;
pub const STREAM_EPOCH_PACKETS: u64 = 65_536;
/// Heaviest flows kept beside the ground truth for accuracy checks and
/// readout queries.
pub const TOP_FLOWS: usize = 100;
/// `--smoke` divides packet and flow counts by this.
pub const SMOKE_DIVISOR: u64 = 50;

/// Which closed loop a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Replay,
    Stream,
    Churn,
    Readout,
}

/// Shape of a workload's trace (`TraceGenerator::wide_like`).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub packets: u64,
    pub flows: usize,
    pub zipf_alpha: f64,
}

/// One workload, fully specified.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub config: FlyMonConfig,
    pub switches: usize,
    /// Tasks resident for the whole run; task 0 is always a CMS on
    /// `SRC_IP`, which is what the accuracy checks read.
    pub resident: Vec<TaskDefinition>,
    /// The task deployed and removed on the fly (churn loop, control
    /// rungs of the ladder).
    pub extra: TaskDefinition,
    pub shape: Shape,
    /// The tail percentile `op_tail_us` reports: the highest that keeps
    /// ten samples beyond it at this workload's op rate.
    pub tail_pct: f64,
    /// Committed ceiling on the top-flow average relative error of
    /// task 0 after one pass over the trace.
    pub are_ceiling: f64,
}

pub fn cms3(memory: usize) -> TaskDefinition {
    TaskDefinition::builder("cms3")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 3 })
        .memory(memory)
        .build()
}

fn cms2_light() -> TaskDefinition {
    TaskDefinition::builder("cms2")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(8192)
        .build()
}

fn beaucoup3() -> TaskDefinition {
    TaskDefinition::builder("beaucoup3")
        .key(KeySpec::DST_IP)
        .attribute(Attribute::Distinct(KeySpec::SRC_IP))
        .algorithm(Algorithm::BeauCoup { d: 3 })
        .memory(8192)
        .build()
}

fn hll() -> TaskDefinition {
    TaskDefinition::builder("hll")
        .key(KeySpec::NONE)
        .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
        .algorithm(Algorithm::Hll)
        .memory(8192)
        .build()
}

fn bloom2() -> TaskDefinition {
    TaskDefinition::builder("bloom2")
        .filter(TaskFilter::src(10 << 24, 8))
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::SRC_IP))
        .algorithm(Algorithm::Bloom {
            d: 2,
            bit_optimized: true,
        })
        .memory(8192)
        .build()
}

fn sumaxmax2() -> TaskDefinition {
    TaskDefinition::builder("sumaxmax2")
        .key(KeySpec::DST_IP)
        .attribute(Attribute::Max(MaxParam::QueueLen))
        .algorithm(Algorithm::SuMaxMax { d: 2 })
        .memory(8192)
        .build()
}

fn cms2_sampled(name: &str) -> TaskDefinition {
    TaskDefinition::builder(name)
        .key(KeySpec::IP_PAIR)
        .attribute(Attribute::frequency_bytes())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(4096)
        .probability_log2(3)
        .build()
}

/// The paper-style six-task mix, in deployment order. Filters, a
/// sampling coin, four distinct keys and 13 CMUs.
pub fn mix_tasks() -> Vec<TaskDefinition> {
    vec![
        cms3(8192),
        beaucoup3(),
        hll(),
        bloom2(),
        sumaxmax2(),
        cms2_sampled("cms2_sampled"),
    ]
}

/// The switch the mix runs on.
pub fn mix_config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 6,
        buckets_per_cmu: 16_384,
        ..FlyMonConfig::default()
    }
}

/// A switch of two groups; `cms3(buckets)` fills every bucket of one.
pub fn two_groups(buckets: usize) -> FlyMonConfig {
    FlyMonConfig {
        groups: 2,
        buckets_per_cmu: buckets,
        ..FlyMonConfig::default()
    }
}

/// The frozen spec of workload `name`, or `None` for an unknown name.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let small = two_groups(16_384);
    let backbone = Shape {
        packets: 1_500_000,
        flows: 50_000,
        zipf_alpha: 1.1,
    };
    let extra = cms2_sampled("extra");
    let mut spec = match name {
        "replay_single" => Spec {
            name: "replay_single",
            kind: Kind::Replay,
            config: small,
            switches: 1,
            resident: vec![cms3(8192)],
            extra,
            shape: backbone,
            tail_pct: 99.0,
            are_ceiling: 0.05,
        },
        "replay_mix" => Spec {
            name: "replay_mix",
            kind: Kind::Replay,
            config: mix_config(),
            switches: 1,
            resident: mix_tasks(),
            extra,
            shape: backbone,
            tail_pct: 99.0,
            are_ceiling: 0.05,
        },
        "stream_fleet" => Spec {
            name: "stream_fleet",
            kind: Kind::Stream,
            config: small,
            switches: 3,
            resident: vec![cms2_light()],
            extra,
            shape: backbone,
            tail_pct: 99.0,
            are_ceiling: 0.10,
        },
        "reconfig_churn" => {
            let mut resident = mix_tasks();
            resident.pop(); // the sampled CMS is the task that comes and goes
            Spec {
                name: "reconfig_churn",
                kind: Kind::Churn,
                config: mix_config(),
                switches: 3,
                resident,
                extra,
                shape: backbone,
                tail_pct: 99.0,
                are_ceiling: 0.05,
            }
        }
        "readout_epoch" => Spec {
            name: "readout_epoch",
            kind: Kind::Readout,
            // Group 0 holds the task, every bucket of its CMUs; group 1
            // stays free so that the control rungs have room to deploy.
            config: two_groups(READOUT_BUCKETS),
            switches: 2,
            resident: vec![cms3(READOUT_BUCKETS)],
            extra,
            // Many flows of nearly equal weight: every bucket is as hot
            // as any other, so the working set is the whole task.
            shape: Shape {
                packets: 2_000_000,
                flows: 700_000,
                zipf_alpha: 0.6,
            },
            tail_pct: 95.0,
            are_ceiling: 0.10,
        },
        _ => return None,
    };
    if smoke {
        spec.shape.packets /= SMOKE_DIVISOR;
        spec.shape.flows /= SMOKE_DIVISOR as usize;
    }
    Some(spec)
}

impl Spec {
    /// Row count of each resident task (one row per CMU for every
    /// algorithm used here).
    pub fn rows_of(def: &TaskDefinition) -> usize {
        def.effective_algorithm().cmus_used()
    }

    /// Closed-loop cycles of the untimed warm-up pass. Fixed per
    /// workload, so the state the golden digest covers is reproducible.
    pub fn warm_cycles(&self, trace_len: usize) -> u64 {
        match self.kind {
            // One pass over the trace.
            Kind::Replay | Kind::Stream => trace_len.div_ceil(BLOCK) as u64,
            // 64 deploy → reallocate → remove rounds, three maintenance passes.
            Kind::Churn => 3 * CHURN_MAINTENANCE_EVERY,
            // The three epochs whose rotation readout is cross-checked.
            Kind::Readout => 3,
        }
    }

    /// The frozen counts, for the result file.
    pub fn counts(&self) -> Json {
        obj([
            ("trace_packets", Json::from(self.shape.packets)),
            ("trace_flows", Json::from(self.shape.flows)),
            ("zipf_alpha", Json::from(self.shape.zipf_alpha)),
            ("switches", Json::from(self.switches)),
            ("groups", Json::from(self.config.groups)),
            ("buckets_per_cmu", Json::from(self.config.buckets_per_cmu)),
            ("resident_tasks", Json::from(self.resident.len())),
            ("block", Json::from(BLOCK)),
            ("churn_feed", Json::from(CHURN_FEED)),
            (
                "churn_maintenance_every",
                Json::from(CHURN_MAINTENANCE_EVERY),
            ),
            ("churn_channel_rate", Json::from(CHURN_CHANNEL_RATE)),
            ("readout_epoch", Json::from(READOUT_EPOCH)),
            ("readout_queries", Json::from(READOUT_QUERIES)),
            ("wide_buckets", Json::from(WIDE_BUCKETS)),
            ("stream_queue", Json::from(STREAM_QUEUE)),
            ("stream_epoch_packets", Json::from(STREAM_EPOCH_PACKETS)),
            ("tail_pct", Json::from(self.tail_pct)),
        ])
    }
}

/// What a workload is fed: generated from the seed alone.
pub struct Inputs {
    pub trace: Vec<Packet>,
    /// Exact packet counts per `SRC_IP`.
    pub truth: GroundTruth,
    /// One packet of each of the [`TOP_FLOWS`] heaviest sources with
    /// its exact count, heaviest first.
    pub top: Vec<(Packet, u64)>,
}

pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let trace = {
        let _s = span("traffic.wide_like");
        TraceGenerator::new(seed).wide_like(&TraceConfig {
            flows: spec.shape.flows,
            packets: spec.shape.packets,
            zipf_alpha: spec.shape.zipf_alpha,
            seed,
            ..TraceConfig::default()
        })
    };
    let truth = {
        let _s = span("traffic.packet_counts");
        GroundTruth::packet_counts(&trace, KeySpec::SRC_IP)
    };
    // The map iterates in a different order every run: sort on the
    // count, then on the key bytes, so the selection repeats exactly.
    let mut ranked: Vec<_> = truth.frequency.iter().map(|(k, &c)| (*k, c)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.as_bytes().cmp(b.0.as_bytes())));
    ranked.truncate(TOP_FLOWS);
    let mut top: Vec<Option<Packet>> = vec![None; ranked.len()];
    let mut missing = ranked.len();
    for p in &trace {
        if missing == 0 {
            break;
        }
        let key = KeySpec::SRC_IP.extract(p);
        if let Some(i) = ranked.iter().position(|(k, _)| *k == key) {
            if top[i].is_none() {
                top[i] = Some(*p);
                missing -= 1;
            }
        }
    }
    let top = top
        .into_iter()
        .zip(&ranked)
        .map(|(p, &(_, count))| (p.expect("every ranked key occurs in the trace"), count))
        .collect();
    Inputs { trace, truth, top }
}

/// A single switch with `tasks` deployed in order.
pub fn switch_with(
    config: FlyMonConfig,
    tasks: &[TaskDefinition],
    wal: bool,
) -> Result<(FlyMon, Vec<TaskHandle>), String> {
    let mut fm = FlyMon::new(config);
    if wal {
        fm.attach_wal(WriteAheadLog::new());
    }
    let mut handles = Vec::with_capacity(tasks.len());
    for def in tasks {
        handles.push(
            fm.deploy(def)
                .map_err(|e| format!("deploying '{}': {e}", def.name))?,
        );
    }
    Ok((fm, handles))
}

/// An `n`-switch fleet with `tasks` deployed fleet-wide in order.
pub fn fleet_with(
    n: usize,
    config: FlyMonConfig,
    tasks: &[TaskDefinition],
) -> Result<SwitchFleet, String> {
    let mut fleet = SwitchFleet::deploy(n, config, &tasks[0])
        .map_err(|e| format!("deploying '{}' fleet-wide: {e}", tasks[0].name))?;
    for def in &tasks[1..] {
        fleet
            .deploy_task(def)
            .map_err(|e| format!("deploying '{}' fleet-wide: {e}", def.name))?;
    }
    Ok(fleet)
}

/// 64-bit FNV-1a over register words (one multiply per word).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds one row in, length first so that row boundaries count.
    pub fn row(&mut self, row: &[u32]) {
        self.word(row.len() as u64);
        for &v in row {
            self.word(u64::from(v));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of every row of every task of one switch, via `read_row_into`.
pub fn switch_digest(
    fm: &FlyMon,
    handles: &[TaskHandle],
    tasks: &[TaskDefinition],
) -> Result<u64, String> {
    let mut d = Digest::default();
    let mut buf = Vec::new();
    for (h, def) in handles.iter().zip(tasks) {
        for row in 0..Spec::rows_of(def) {
            fm.read_row_into(*h, row, &mut buf)
                .map_err(|e| format!("reading '{}' row {row}: {e}", def.name))?;
            d.row(&buf);
        }
    }
    Ok(d.value())
}

/// Digest of every *merged* row of every fleet task — never per-switch
/// rows, so a routing change that preserves merged readouts passes.
pub fn fleet_digest(
    fleet: &SwitchFleet,
    tasks: &[TaskDefinition],
    scratch: &mut ReadoutScratch,
) -> Result<u64, String> {
    let mut d = Digest::default();
    for (ti, def) in tasks.iter().enumerate() {
        for row in 0..Spec::rows_of(def) {
            fleet
                .merged_task_row_into(ti, row, scratch)
                .map_err(|e| format!("merging '{}' row {row}: {e}", def.name))?;
            d.row(&scratch.acc);
        }
    }
    Ok(d.value())
}

fn audits_clean(fleet: &SwitchFleet, n: usize, resident: usize) -> Result<(), String> {
    for i in 0..n {
        let (fm, _) = fleet.switch(i);
        let divergences = fm.audit();
        if !divergences.is_empty() {
            return Err(format!("switch {i} audit: {divergences:?}"));
        }
        if fm.task_count() != resident {
            return Err(format!(
                "switch {i} hosts {} tasks, expected {resident}",
                fm.task_count()
            ));
        }
    }
    let ledger = fleet.ledger();
    if !ledger.balanced() {
        return Err(format!("fleet ledger out of balance: {ledger:?}"));
    }
    Ok(())
}

/// What the closed loop did, accumulated across cycles.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Packets processed.
    pub packets: u64,
    /// Operations attempted: packets offered, control ops issued,
    /// readouts requested.
    pub attempted: u64,
    /// Operations failed: packets shed, dropped or lost; ops and
    /// readouts that returned `Err` (a `ChannelTimeout` included).
    pub failed: u64,
    /// Wall time of each of the workload's unit operations.
    pub op_ns: Vec<u64>,
}

impl Recorder {
    pub fn with_capacity(ops: usize) -> Self {
        Recorder {
            op_ns: Vec::with_capacity(ops),
            ..Recorder::default()
        }
    }
}

/// One workload's closed loop. Each `cycle` is a fixed amount of work
/// and contains exactly one timed unit operation.
pub trait Driver {
    fn cycle(&mut self, rec: &mut Recorder) -> Result<(), String>;
    /// Digest of the state the golden file covers; called once, after
    /// the warm-up pass.
    fn digest(&mut self) -> Result<u64, String>;
    /// End-of-run invariants; called once, after the timed region.
    fn finish(&mut self) -> Result<(), String>;
}

/// Walks a trace in blocks, forever.
struct Cursor {
    pos: usize,
}

impl Cursor {
    /// The next up-to-`n` packets; a block never wraps, so the last one
    /// of a pass may be short.
    fn next<'a>(&mut self, trace: &'a [Packet], n: usize) -> &'a [Packet] {
        let end = (self.pos + n).min(trace.len());
        let block = &trace[self.pos..end];
        self.pos = end % trace.len();
        block
    }
}

/// `replay_*`: the trace cycled through `FlyMon::process_batch`.
struct ReplayDriver<'a> {
    spec: &'a Spec,
    trace: &'a [Packet],
    cursor: Cursor,
    fm: FlyMon,
    handles: Vec<TaskHandle>,
}

impl Driver for ReplayDriver<'_> {
    fn cycle(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let block = self.cursor.next(self.trace, BLOCK);
        let begun = Instant::now();
        let stats = {
            let _s = span("core.control.process_batch");
            self.fm.process_batch(block)
        };
        rec.op_ns.push(begun.elapsed().as_nanos() as u64);
        rec.packets += stats.packets;
        rec.attempted += block.len() as u64;
        rec.failed += block.len() as u64 - stats.packets;
        Ok(())
    }

    fn digest(&mut self) -> Result<u64, String> {
        switch_digest(&self.fm, &self.handles, &self.spec.resident)
    }

    fn finish(&mut self) -> Result<(), String> {
        let divergences = self.fm.audit();
        if !divergences.is_empty() {
            return Err(format!("audit: {divergences:?}"));
        }
        if self.fm.task_count() != self.spec.resident.len() {
            return Err(format!("{} tasks resident", self.fm.task_count()));
        }
        Ok(())
    }
}

/// The benchmark's own chunk source: the trace, cycled, in full chunks.
pub struct CyclingChunks<'a> {
    trace: &'a [Packet],
    pos: usize,
    chunk: usize,
}

impl<'a> CyclingChunks<'a> {
    pub fn new(trace: &'a [Packet], chunk: usize) -> Self {
        assert!(!trace.is_empty() && chunk > 0);
        CyclingChunks {
            trace,
            pos: 0,
            chunk,
        }
    }
}

impl ChunkSource for CyclingChunks<'_> {
    /// Always a full chunk: a chunk that reaches the end of the trace
    /// continues from its start.
    fn next_chunk(&mut self) -> Option<Vec<Packet>> {
        let _s = span("netsim.ingest.source.next_chunk");
        let mut out = Vec::with_capacity(self.chunk);
        while out.len() < self.chunk {
            let take = (self.chunk - out.len()).min(self.trace.len() - self.pos);
            out.extend_from_slice(&self.trace[self.pos..self.pos + take]);
            self.pos = (self.pos + take) % self.trace.len();
        }
        Some(out)
    }
}

pub fn stream_config(epoch_packets: u64) -> IngestConfig {
    IngestConfig {
        queue_capacity: STREAM_QUEUE,
        drain_chunk: BLOCK,
        sync_every_steps: 1,
        epoch_packets,
        ..IngestConfig::default()
    }
}

/// `stream_fleet`: the trace cycled through `StreamingRuntime::step`.
struct StreamDriver<'a> {
    spec: &'a Spec,
    source: CyclingChunks<'a>,
    runtime: StreamingRuntime,
    scratch: ReadoutScratch,
}

impl Driver for StreamDriver<'_> {
    fn cycle(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let begun = Instant::now();
        let out = {
            let _s = span("netsim.ingest.step");
            self.runtime.step(&mut self.source)
        };
        rec.op_ns.push(begun.elapsed().as_nanos() as u64);
        let out = out.map_err(|e| format!("step: {e}"))?;
        rec.packets += out.drained as u64;
        rec.attempted += out.pulled as u64;
        rec.failed += out.shed as u64;
        Ok(())
    }

    fn digest(&mut self) -> Result<u64, String> {
        fleet_digest(self.runtime.fleet(), &self.spec.resident, &mut self.scratch)
    }

    fn finish(&mut self) -> Result<(), String> {
        let report = self.runtime.report();
        if !report.ledger.conserved() {
            return Err(format!("stream ledger not conserved: {:?}", report.ledger));
        }
        if report.stats.shed() != 0 || report.ledger.lost != 0 || report.ledger.dropped != 0 {
            return Err(format!(
                "steady stream shed {} lost {} dropped {}",
                report.stats.shed(),
                report.ledger.lost,
                report.ledger.dropped
            ));
        }
        if report.health != RuntimeHealth::Healthy {
            return Err(format!("runtime ended {:?}", report.health));
        }
        audits_clean(
            self.runtime.fleet(),
            self.spec.switches,
            self.spec.resident.len(),
        )
    }
}

/// The control op a churn cycle issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnOp {
    Deploy,
    Reallocate,
    Remove,
}

/// `reconfig_churn`: packets keep flowing while one task comes and goes
/// and another is resized, every op through WAL, standby bookkeeping
/// and a lossy control channel.
struct ChurnDriver<'a> {
    spec: &'a Spec,
    trace: &'a [Packet],
    cursor: Cursor,
    fleet: SwitchFleet,
    cycles: u64,
    next: ChurnOp,
    /// Fleet index of the extra task while it is deployed.
    extra_at: Option<usize>,
    shrunk: bool,
    scratch: ReadoutScratch,
}

impl ChurnDriver<'_> {
    fn control_op(&mut self) -> Result<(), FlymonError> {
        match self.next {
            ChurnOp::Deploy => {
                self.next = ChurnOp::Reallocate;
                let _s = span("netsim.fleet.deploy_task");
                self.extra_at = Some(self.fleet.deploy_task(&self.spec.extra)?);
            }
            ChurnOp::Reallocate => {
                self.next = ChurnOp::Remove;
                let memory = self.spec.resident[0].memory;
                let target = if self.shrunk { memory } else { memory / 2 };
                let _s = span("netsim.fleet.reallocate_task");
                self.fleet.reallocate_task(0, target)?;
                self.shrunk = !self.shrunk;
            }
            ChurnOp::Remove => {
                self.next = ChurnOp::Deploy;
                // Nothing to remove if the deploy of this round failed.
                if let Some(at) = self.extra_at {
                    let _s = span("netsim.fleet.remove_task");
                    self.fleet.remove_task(at)?;
                    self.extra_at = None;
                }
            }
        }
        Ok(())
    }
}

impl Driver for ChurnDriver<'_> {
    fn cycle(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let feed = self.cursor.next(self.trace, CHURN_FEED);
        {
            let _s = span("netsim.fleet.process_trace");
            self.fleet.process_trace(feed);
        }
        rec.packets += feed.len() as u64;
        rec.attempted += feed.len() as u64 + 1;
        let begun = Instant::now();
        let outcome = self.control_op();
        rec.op_ns.push(begun.elapsed().as_nanos() as u64);
        if outcome.is_err() {
            rec.failed += 1;
        }
        self.cycles += 1;
        if self.cycles.is_multiple_of(CHURN_MAINTENANCE_EVERY) {
            {
                let _s = span("netsim.fleet.sync_standby");
                self.fleet.sync_standby();
            }
            {
                let _s = span("netsim.fleet.maintain_wals");
                self.fleet.maintain_wals(256);
            }
            let _s = span("netsim.channel.clear_event_log");
            if let Some(channel) = self.fleet.channel_mut() {
                channel.clear_event_log();
            }
        }
        Ok(())
    }

    fn digest(&mut self) -> Result<u64, String> {
        fleet_digest(&self.fleet, &self.spec.resident, &mut self.scratch)
    }

    fn finish(&mut self) -> Result<(), String> {
        if let Some(at) = self.extra_at.take() {
            self.fleet
                .remove_task(at)
                .map_err(|e| format!("removing the extra task at the end: {e}"))?;
        }
        let ledger = self.fleet.ledger();
        if ledger.lost != 0 || ledger.dropped != 0 {
            return Err(format!("churn lost packets: {ledger:?}"));
        }
        audits_clean(&self.fleet, self.spec.switches, self.spec.resident.len())
    }
}

/// `readout_epoch`: a full epoch readout beside the writes, every
/// 32 768 packets.
struct ReadoutDriver<'a> {
    spec: &'a Spec,
    trace: &'a [Packet],
    cursor: Cursor,
    fleet: SwitchFleet,
    queries: Vec<Packet>,
    scratch: ReadoutScratch,
    epochs: u64,
    /// Epochs (from the start) whose rotation readout is compared with
    /// a scalar merge of the per-switch rows read just before it; the
    /// same epochs feed the golden digest.
    verify_epochs: u64,
    verified: Digest,
}

impl ReadoutDriver<'_> {
    /// Per-switch rows of task 0, merged bucket by bucket with the
    /// CMS law (saturating sum), the slow way.
    fn scalar_merge(&self) -> Result<Vec<Vec<u32>>, String> {
        let rows = Spec::rows_of(&self.spec.resident[0]);
        let cap = (1u64 << self.spec.config.bucket_bits) - 1;
        let mut merged: Vec<Vec<u32>> = Vec::with_capacity(rows);
        for row in 0..rows {
            let mut acc: Vec<u64> = Vec::new();
            for i in 0..self.spec.switches {
                let (fm, h) = self.fleet.switch(i);
                let h = h.ok_or_else(|| format!("switch {i} lost the task"))?;
                let part = fm.read_row(h, row).map_err(|e| format!("read_row: {e}"))?;
                acc.resize(part.len(), 0);
                for (a, v) in acc.iter_mut().zip(&part) {
                    *a = (*a + u64::from(*v)).min(cap);
                }
            }
            merged.push(acc.into_iter().map(|v| v as u32).collect());
        }
        Ok(merged)
    }

    fn readout(&mut self, expect: Option<&[Vec<u32>]>) -> Result<(), String> {
        let rows = Spec::rows_of(&self.spec.resident[0]);
        for row in 0..rows {
            let _s = span("netsim.fleet.merged_task_row_into");
            self.fleet
                .merged_task_row_into(0, row, &mut self.scratch)
                .map_err(|e| format!("merged row {row}: {e}"))?;
            std::hint::black_box(&self.scratch.acc);
        }
        for q in &self.queries {
            let _s = span("netsim.fleet.merged_frequency");
            let est = self
                .fleet
                .merged_frequency(q)
                .map_err(|e| format!("merged_frequency: {e}"))?;
            std::hint::black_box(est);
        }
        let epoch = {
            let _s = span("netsim.fleet.rotate_epoch_all");
            self.fleet
                .rotate_epoch_all()
                .map_err(|e| format!("rotate_epoch_all: {e}"))?
        };
        if let Some(expect) = expect {
            if epoch.tasks[0].rows.as_slice() != expect {
                return Err(format!(
                    "epoch {}: rotation readout differs from the scalar merge of the \
                     rows read just before it",
                    self.epochs
                ));
            }
            for row in &epoch.tasks[0].rows {
                self.verified.row(row);
            }
        }
        let _s = span("netsim.fleet.sync_standby");
        self.fleet.sync_standby();
        Ok(())
    }
}

impl Driver for ReadoutDriver<'_> {
    fn cycle(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let mut fed = 0;
        while fed < READOUT_EPOCH {
            let block = self.cursor.next(self.trace, BLOCK.min(READOUT_EPOCH - fed));
            let _s = span("netsim.fleet.process_trace");
            self.fleet.process_trace(block);
            fed += block.len();
        }
        rec.packets += fed as u64;
        rec.attempted += fed as u64 + 1;
        // The cross-check reads every row once more, outside the timing.
        let expect = if self.epochs < self.verify_epochs {
            Some(self.scalar_merge()?)
        } else {
            None
        };
        let begun = Instant::now();
        let outcome = self.readout(expect.as_deref());
        rec.op_ns.push(begun.elapsed().as_nanos() as u64);
        self.epochs += 1;
        if let Err(e) = outcome {
            rec.failed += 1;
            return Err(e);
        }
        Ok(())
    }

    fn digest(&mut self) -> Result<u64, String> {
        if self.epochs < self.verify_epochs {
            return Err("digest asked before the verified epochs ran".into());
        }
        Ok(self.verified.value())
    }

    fn finish(&mut self) -> Result<(), String> {
        let ledger = self.fleet.ledger();
        if ledger.lost != 0 || ledger.dropped != 0 {
            return Err(format!("readout lost packets: {ledger:?}"));
        }
        audits_clean(&self.fleet, self.spec.switches, self.spec.resident.len())
    }
}

/// Builds the workload's system under test, cold.
pub fn build<'a>(
    spec: &'a Spec,
    inputs: &'a Inputs,
    seed: u64,
) -> Result<Box<dyn Driver + 'a>, String> {
    let trace = inputs.trace.as_slice();
    Ok(match spec.kind {
        Kind::Replay => {
            let (fm, handles) = switch_with(spec.config, &spec.resident, false)?;
            Box::new(ReplayDriver {
                spec,
                trace,
                cursor: Cursor { pos: 0 },
                fm,
                handles,
            })
        }
        Kind::Stream => {
            let fleet = fleet_with(spec.switches, spec.config, &spec.resident)?;
            Box::new(StreamDriver {
                spec,
                source: CyclingChunks::new(trace, BLOCK),
                runtime: StreamingRuntime::new(fleet, stream_config(STREAM_EPOCH_PACKETS)),
                scratch: ReadoutScratch::default(),
            })
        }
        Kind::Churn => {
            let mut fleet = fleet_with(spec.switches, spec.config, &spec.resident)?;
            fleet.enable_standby();
            fleet
                .attach_channel(seed, churn_channel())
                .map_err(|e| format!("attach_channel: {e}"))?;
            Box::new(ChurnDriver {
                spec,
                trace,
                cursor: Cursor { pos: 0 },
                fleet,
                cycles: 0,
                next: ChurnOp::Deploy,
                extra_at: None,
                shrunk: false,
                scratch: ReadoutScratch::default(),
            })
        }
        Kind::Readout => {
            let mut fleet = fleet_with(spec.switches, spec.config, &spec.resident)?;
            fleet.enable_standby();
            let stride = (inputs.top.len() / READOUT_QUERIES).max(1);
            Box::new(ReadoutDriver {
                spec,
                trace,
                cursor: Cursor { pos: 0 },
                fleet,
                queries: inputs
                    .top
                    .iter()
                    .step_by(stride)
                    .take(READOUT_QUERIES)
                    .map(|(p, _)| *p)
                    .collect(),
                scratch: ReadoutScratch::default(),
                epochs: 0,
                verify_epochs: 3,
                verified: Digest::default(),
            })
        }
    })
}

/// The churn workload's lossy channel: 1 % drop, duplicate and reorder.
pub fn churn_channel() -> ChannelConfig {
    ChannelConfig {
        drop_rate: CHURN_CHANNEL_RATE,
        dup_rate: CHURN_CHANNEL_RATE,
        reorder_rate: CHURN_CHANNEL_RATE,
        ..ChannelConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycling_chunks_conserve_packets() {
        // Ten distinguishable packets in chunks of 4: every chunk is
        // full, order is the trace's, and after 15 chunks (60 packets)
        // every packet has been emitted exactly six times.
        let trace: Vec<Packet> = (0..10u32).map(|i| Packet::udp(i, 0, 1, 1)).collect();
        let mut source = CyclingChunks::new(&trace, 4);
        let mut emitted = Vec::new();
        for _ in 0..15 {
            let chunk = source.next_chunk().expect("a cycling source never ends");
            assert_eq!(chunk.len(), 4);
            emitted.extend(chunk);
        }
        let expected: Vec<Packet> = trace.iter().cycle().take(60).copied().collect();
        assert_eq!(emitted, expected);
        for p in &trace {
            assert_eq!(emitted.iter().filter(|e| *e == p).count(), 6);
        }
        // A chunk larger than the trace wraps more than once.
        let mut wide = CyclingChunks::new(&trace, 25);
        let chunk = wide.next_chunk().unwrap();
        assert_eq!(chunk.len(), 25);
        assert_eq!(chunk[24], trace[4]);
    }

    #[test]
    fn cursor_blocks_cover_each_pass_exactly() {
        let trace: Vec<Packet> = (0..10u32).map(|i| Packet::udp(i, 0, 1, 1)).collect();
        let mut cursor = Cursor { pos: 0 };
        let sizes: Vec<usize> = (0..6).map(|_| cursor.next(&trace, 4).len()).collect();
        assert_eq!(sizes, [4, 4, 2, 4, 4, 2]);
    }

    #[test]
    fn every_workload_has_a_spec_and_smoke_is_a_fiftieth() {
        for name in crate::spec::WORKLOADS.map(|w| w.name) {
            let full = spec(name, false).expect(name);
            let smoke = spec(name, true).expect(name);
            assert_eq!(full.name, name);
            assert_eq!(smoke.shape.packets * SMOKE_DIVISOR, full.shape.packets);
            assert!(matches!(
                full.resident[0].effective_algorithm(),
                Algorithm::Cms { .. }
            ));
            assert_eq!(full.resident[0].key, KeySpec::SRC_IP);
        }
        assert!(spec("nope", false).is_none());
    }
}
