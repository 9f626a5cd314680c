//! Seeded switch-level op sequences against the per-packet oracle.
//!
//! A script of ops is built from a seed and run on twin switches: twin A
//! takes packets through `process_batch`, twin B through `flymon::oracle`.
//! Every op — deploys from a palette covering all 13 `alg=`, removals,
//! reallocations, resets, bank rotations, image syncs, checkpoints with
//! restore, WAL recovery and packet slices — runs on both, a third of the
//! steps of a faulted script under a probabilistic fault plan armed on
//! both. After every step the twins must agree on every outcome and on
//! all state, the audit must be clean with every bucket accounted for, an
//! op on one task must leave every other task bit-identical (§3.3), a
//! refused op must leave no trace, a rotation must zero every row, an
//! image must restore to the live switch, and a recovery must land on the
//! live switch's tasks and placements. A failing script is shrunk one op
//! at a time and printed as task lines and op names.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use flymon::control::BATCH_SIZE;
use flymon::oracle::PerPacket;
use flymon::prelude::*;
use flymon::task::TaskId;
use flymon_packet::{KeySpec, Packet, SplitMix64};
use flymon_rmt::register::Buckets;

/// Deployable task lines: every `alg=`, with filters, `prob=` and a
/// task big enough to force the capacity-tight reallocation fallback.
const PALETTE: [&str; 15] = [
    "cms key=SrcIP attr=frequency mem=128 alg=cms d=2 filter=10.0.0.0/8",
    "bytes key=DstIP attr=bytes mem=256 alg=sumax d=2 filter=20.0.0.0/8",
    "mrac key=5tuple attr=frequency mem=64 alg=mrac filter=30.0.0.0/8 prob=1/2^1",
    "tower key=SrcIP attr=frequency mem=256 alg=tower d=2",
    "braids key=SrcIP/24 attr=frequency mem=128 alg=braids filter=10.0.0.0/8",
    "hll key=none attr=distinct param=5tuple mem=64 alg=hll filter=20.0.0.0/8->10.0.0.0/8",
    "lc key=none attr=distinct param=SrcIP mem=128 alg=lc prob=1/2^2",
    "ddos key=DstIP attr=distinct param=SrcIP mem=128 alg=beaucoup d=2 threshold=64",
    "bloom key=none attr=existence mem=256 alg=bloom d=2 filter=30.0.0.0/8",
    "plain key=none attr=existence param=SrcIP mem=64 alg=bloom-plain d=1 filter=10.0.0.0/8",
    "queue key=DstIP attr=maxqueue mem=128 alg=sumaxmax d=2 filter=20.0.0.0/8",
    "odd key=none attr=distinct param=SrcIP mem=128 alg=oddsketch filter=30.0.0.0/8",
    "gap key=5tuple attr=maxinterval mem=64 alg=maxinterval d=1 filter=10.0.0.0/8",
    "delay key=SrcIP attr=maxdelay mem=512 alg=sumaxmax d=1 filter=*->20.0.0.0/8 prob=1/2^1",
    "big key=SrcIP attr=frequency mem=1024 alg=cms d=3",
];

/// Packet slice lengths: empty, single, around an 8-lane group and
/// around one stage-major chunk.
const SLICES: [usize; 8] = [0, 1, 63, 64, 65, BATCH_SIZE - 1, BATCH_SIZE, BATCH_SIZE + 1];

/// One op. A `usize` target indexes the live tasks in id order, modulo
/// their count, so a shrunk script stays runnable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Deploy(usize),
    Remove(usize),
    Reallocate(usize, usize),
    Reset(usize),
    Rotate { retire: bool },
    Sync,
    Checkpoint(CaptureMode),
    Recover,
    Packets(usize, u64),
}

impl Op {
    /// The op's kind: its variant's name.
    fn kind(self) -> String {
        format!("{self:?}").split(['(', ' ']).next().unwrap_or_default().to_string()
    }
}

/// One step: an op, and the seed of the fault plan armed around it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    op: Op,
    faults: Option<u64>,
}

fn script(seed: u64, steps: usize, faulted: bool) -> Vec<Step> {
    let mut r = SplitMix64::new(seed);
    let mut step = || {
        let op = match r.range_u64(0, 100) {
            // Empty, single, around a lane group, around one chunk;
            // one in eight is around a long run of chunks.
            0..=29 => Op::Packets(
                match r.range_usize(0, 8) {
                    0 => 4096 + r.range_usize(0, 2),
                    _ => SLICES[r.range_usize(0, SLICES.len())],
                },
                r.next_u64(),
            ),
            30..=49 => Op::Deploy(r.range_usize(0, PALETTE.len())),
            50..=56 => Op::Remove(r.range_usize(0, 64)),
            57..=66 => Op::Reallocate(r.range_usize(0, 64), 64 << r.range_u64(0, 5)),
            67..=73 => Op::Reset(r.range_usize(0, 64)),
            74..=78 => Op::Rotate { retire: r.chance(0.5) },
            79..=85 => Op::Sync,
            86..=92 => Op::Checkpoint([CaptureMode::Full, CaptureMode::Delta][r.range_usize(0, 2)]),
            _ => Op::Recover,
        };
        Step { op, faults: (faulted && r.range_u64(0, 3) == 0).then(|| r.next_u64()) }
    };
    (0..steps).map(|_| step()).collect()
}

/// A script as task lines and op names, one step a line.
fn print(script: &[Step]) -> String {
    let line = |(i, s): (usize, &Step)| {
        let op = match s.op {
            Op::Deploy(p) => format!("deploy {}", PALETTE[p]),
            op => format!("{op:?}"),
        };
        let faults = s.faults.map(|seed| format!("  [faults p=0.3 seed={seed:#x}]"));
        format!("{i:3} {op}{}\n", faults.unwrap_or_default())
    };
    script.iter().enumerate().map(line).collect()
}

fn packets(n: usize, seed: u64) -> Vec<Packet> {
    let mut r = SplitMix64::new(seed);
    let mut ts = r.range_u64(0, 1 << 40);
    let host =
        |r: &mut SplitMix64| (10 * r.range_u64(1, 5) as u32) << 24 | r.range_u64(0, 48) as u32;
    let mut packet = || {
        let mut p = Packet::tcp(host(&mut r), host(&mut r), r.next_u16() % 8, 80);
        ts += r.range_u64(1, 5_000);
        (p.len, p.ts_ns) = (64 + r.next_u16() % 1400, ts);
        (p.queue_len, p.queue_delay_ns) = (r.next_u32() % 4096, r.next_u32() % 1_000_000);
        p
    };
    (0..n).map(|_| packet()).collect()
}

/// One task as the checks see it: its line, placement, hits and rows.
#[derive(Debug, Clone, PartialEq)]
struct Task {
    id: TaskId,
    line: String,
    rows: Vec<[usize; 4]>,
    hits: u64,
    cells: Vec<Vec<u32>>,
}

/// Everything observable of a switch but the buckets outside every
/// partition, which the audit holds at zero.
#[derive(Debug, Clone, PartialEq)]
struct View {
    tasks: Vec<Task>,
    task_count: usize,
    free_buckets: usize,
    masks: Vec<Option<KeySpec>>,
    bindings: Vec<Vec<(TaskId, u64)>>,
    packets: [u64; 2],
}

impl View {
    /// The control plane alone — what a recovery restores.
    fn control(&self) -> View {
        let tasks = self.tasks.iter().map(|t| Task { hits: 0, cells: Vec::new(), ..t.clone() });
        let bindings = self.bindings.iter().map(|c| c.iter().map(|&(id, _)| (id, 0)).collect());
        View {
            tasks: tasks.collect(),
            bindings: bindings.collect(),
            packets: [0; 2],
            ..self.clone()
        }
    }
}

/// Live tasks in id order, found through the installed bindings (the
/// audit holds bindings and task records to each other).
fn live(fm: &FlyMon) -> Vec<TaskHandle> {
    let cmus = fm.groups().iter().flat_map(|g| g.cmus());
    let mut ids: Vec<TaskId> = cmus.flat_map(|c| c.bindings().iter().map(|b| b.task)).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(TaskHandle).collect()
}

/// Every register's buckets, in its own cells.
fn registers(fm: &FlyMon) -> Vec<Buckets<'_>> {
    let cmus = fm.groups().iter().flat_map(|g| g.cmus());
    cmus.map(|c| c.register().read_range(0, c.register().len()).unwrap()).collect()
}

fn view(fm: &FlyMon) -> View {
    let task = |h: TaskHandle| {
        let t = fm.task(h).unwrap();
        Task {
            id: h.0,
            line: t.def.to_string(),
            rows: t.rows.iter().map(|r| [r.group, r.cmu, r.offset, r.size]).collect(),
            hits: fm.task_hits(h).unwrap(),
            cells: (0..t.rows.len()).map(|row| fm.read_row(h, row).unwrap()).collect(),
        }
    };
    let units = fm.groups().iter().flat_map(|g| g.units());
    let cmus = fm.groups().iter().flat_map(|g| g.cmus());
    View {
        tasks: live(fm).into_iter().map(task).collect(),
        task_count: fm.task_count(),
        free_buckets: fm.free_buckets(),
        masks: units.map(|u| u.mask().copied()).collect(),
        bindings: cmus
            .map(|c| c.bindings().iter().enumerate().map(|(i, b)| (b.task, c.hits(i))).collect())
            .collect(),
        packets: [fm.packets_processed(), fm.recirculated_packets()],
    }
}

/// What a script exercised: per op kind (and per path a seed set must
/// also take), how often it ran and how often an armed fault refused it.
type Coverage = BTreeMap<String, [usize; 2]>;

/// Counts a run (`n[0]`) and a fault refusal (`n[1]`) of `kind`, each where true.
fn count(coverage: &mut Coverage, kind: &str, n: [bool; 2]) {
    let at = coverage.entry(kind.to_string()).or_default();
    *at = [at[0] + usize::from(n[0]), at[1] + usize::from(n[1])];
}

/// Counts a batched packet step by the row sets its programs swept: a
/// 2-row and a 3-row set, and two consecutive CMUs that hold rows of one
/// task but stand in different sets — a binding one of them lacks, or
/// one a set cannot hold, split them.
fn count_sets(fm: &FlyMon, packets: usize, coverage: &mut Coverage) {
    let mut ran = [false; 3];
    for group in fm.groups() {
        let sets = &group.program().sets;
        let tasks = |c: usize| group.cmus()[c].bindings().iter().map(|b| b.task);
        ran[0] |= sets.iter().any(|s| s.len() == 2);
        ran[1] |= sets.iter().any(|s| s.len() == 3);
        ran[2] |= sets.windows(2).any(|w| {
            let (last, next) = (w[0].end - 1, w[1].start);
            next == last + 1 && tasks(last).any(|t| tasks(next).any(|u| u == t))
        });
    }
    for (kind, ran) in SET_PATHS.iter().zip(ran) {
        count(coverage, kind, [packets > 0 && ran, false]);
    }
}

/// The row-set paths [`count_sets`] counts.
const SET_PATHS: [&str; 3] = [
    "Packets through a 2-row set",
    "Packets through a 3-row set",
    "Packets through a set split by a differing binding",
];

macro_rules! check {
    ($cond:expr, $($why:tt)+) => {
        if !$cond {
            return Err(format!($($why)+));
        }
    };
}

/// A twin: a switch, its standby image, how it takes packets, and
/// whether packets arrived since the image's barrier (the loss window).
struct Twin {
    fm: FlyMon,
    image: SwitchCheckpoint,
    batched: bool,
    lossy: bool,
}

impl Twin {
    fn new(config: FlyMonConfig, batched: bool) -> Twin {
        let mut fm = FlyMon::new(config);
        fm.attach_wal(WriteAheadLog::new());
        let image = fm.checkpoint(CaptureMode::Full);
        Twin { fm, image, batched, lossy: false }
    }

    /// Runs `op`; the outcome is what the twins must agree on.
    fn apply(&mut self, op: Op, coverage: &mut Coverage) -> Result<String, String> {
        let fm = &mut self.fm;
        let target = |fm: &FlyMon, k: usize| {
            let live = live(fm);
            live.get(k % live.len().max(1)).copied()
        };
        Ok(match op {
            Op::Deploy(p) => format!("{:?}", fm.deploy(&PALETTE[p].parse().unwrap())),
            Op::Remove(k) => format!("{:?}", target(fm, k).map(|h| fm.remove(h))),
            Op::Reallocate(k, mem) => {
                format!("{:?}", target(fm, k).map(|h| fm.reallocate_memory(h, mem)))
            }
            Op::Reset(k) => format!("{:?}", target(fm, k).map(|h| fm.reset_task(h))),
            Op::Rotate { retire } => {
                let rotated = fm.rotate_banks();
                if retire {
                    fm.retire_epoch_banks();
                }
                format!("{rotated:?}")
            }
            // A sync in place on twin A, a shipped delta on twin B.
            Op::Sync => {
                let generation = self.image.generation;
                let payload = if self.batched {
                    let payload =
                        fm.sync_into(&mut self.image).map_err(|e| format!("sync: {e}"))?;
                    count(
                        coverage,
                        "Sync at the image's generation",
                        [self.image.generation == generation, false],
                    );
                    payload
                } else {
                    let delta = fm.checkpoint(CaptureMode::Delta);
                    let payload = delta.payload_buckets();
                    self.image.overlay(delta).map_err(|e| format!("overlay: {e}"))?;
                    payload
                };
                self.anchor()?;
                format!("{payload} buckets")
            }
            Op::Checkpoint(mode) => {
                let capture = fm.checkpoint(mode);
                match mode {
                    CaptureMode::Full => self.image = capture,
                    CaptureMode::Delta => {
                        self.image.overlay(capture).map_err(|e| format!("overlay: {e}"))?
                    }
                }
                self.anchor()?;
                self.replace(FlyMon::restore(&self.image).map_err(|e| format!("restore: {e}"))?);
                String::new()
            }
            Op::Recover => {
                let wal = fm.wal().unwrap();
                let replays = wal.committed_after(self.image.wal_seq).next().is_some();
                count(coverage, "Recover replaying a WAL suffix", [self.batched && replays, false]);
                let recovered =
                    FlyMon::recover(wal, &self.image).map_err(|e| format!("recover: {e}"))?;
                let (back, live) = (view(&recovered), view(fm));
                let (control, live_control) = (back.control(), live.control());
                check!(
                    control == live_control,
                    "recovered {:?}\n     live {:?}",
                    control.tasks,
                    live_control.tasks
                );
                // Outside the loss window the recovery is the live switch.
                check!(self.lossy || back == live, "a recovery with no loss window differs");
                self.replace(recovered);
                self.lossy = false;
                String::new()
            }
            Op::Packets(n, seed) => {
                let pkts = packets(n, seed);
                self.lossy |= n > 0;
                if self.batched {
                    fm.process_batch(&pkts);
                    count_sets(fm, n, coverage);
                } else {
                    pkts.iter().for_each(|p| fm.process(p));
                }
                String::new()
            }
        })
    }

    /// Hands the live switch's WAL to `next`, which takes its place.
    fn replace(&mut self, mut next: FlyMon) {
        next.attach_wal(self.fm.detach_wal().unwrap());
        self.fm = next;
    }

    /// The image just moved: it must restore to the live switch, and the
    /// WAL drops what it shadows.
    fn anchor(&mut self) -> Result<(), String> {
        let restored = FlyMon::restore(&self.image).map_err(|e| format!("restore: {e}"))?;
        check!(view(&restored) == view(&self.fm), "the image does not restore to the live switch");
        let mut wal = self.fm.detach_wal().unwrap();
        wal.compact(self.image.wal_seq);
        self.fm.attach_wal(wal);
        self.lossy = false;
        Ok(())
    }
}

/// Runs `script` on a batched and an oracle twin at `bucket_bits`,
/// checking after every step, then drains the switch.
fn run(script: &[Step], bucket_bits: u8) -> Result<Coverage, String> {
    let config =
        FlyMonConfig { groups: 3, buckets_per_cmu: 1024, bucket_bits, ..Default::default() };
    let total = config.groups * config.cmus_per_group * config.buckets_per_cmu;
    let mut twins = [Twin::new(config, true), Twin::new(config, false)];
    let mut coverage = Coverage::default();
    let mut before = view(&twins[0].fm);
    for (i, step) in script.iter().enumerate() {
        let target = match step.op {
            Op::Remove(k) | Op::Reallocate(k, _) | Op::Reset(k) => {
                before.tasks.get(k % before.tasks.len().max(1)).map(|t| t.id)
            }
            _ => None,
        };
        let mut outcomes = Vec::new();
        for twin in &mut twins {
            if let Some(seed) = step.faults {
                twin.fm.arm_faults(FaultPlan::new(seed).fail_probability(0.3));
            }
            outcomes
                .push(twin.apply(step.op, &mut coverage).map_err(|e| format!("step {i}: {e}"))?);
            twin.fm.disarm_faults();
        }
        let outcome = &outcomes[0];
        check!(*outcome == outcomes[1], "step {i}: outcomes differ: {outcomes:?}");
        let after = view(&twins[0].fm);
        check!(after == view(&twins[1].fm), "step {i}: the batched and the oracle twin differ");
        check!(
            registers(&twins[0].fm) == registers(&twins[1].fm),
            "step {i}: the twins' registers differ"
        );
        let divergences = twins[0].fm.audit();
        check!(divergences.is_empty(), "step {i}: audit: {divergences:?}");
        let used: usize = after.tasks.iter().flat_map(|t| &t.rows).map(|r| r[3]).sum();
        check!(
            after.free_buckets == total - used,
            "step {i}: {} free, {used} used",
            after.free_buckets
        );
        check!(
            after.task_count == after.tasks.len(),
            "step {i}: task_count is not the bound tasks"
        );
        if matches!(step.op, Op::Sync | Op::Checkpoint(_)) {
            let image =
                |t: &Twin| format!("{:?}", SwitchCheckpoint { generation: 0, ..t.image.clone() });
            check!(image(&twins[0]) == image(&twins[1]), "step {i}: the twins' images differ");
        }

        let refused = outcome.contains("Err(");
        let ran = target.is_some()
            || !matches!(step.op, Op::Remove(_) | Op::Reallocate(..) | Op::Reset(_));
        count(&mut coverage, &step.op.kind(), [ran, outcome.contains("Err(Install(")]);
        if step.faults.is_none()
            && matches!(step.op, Op::Remove(_) | Op::Reset(_) | Op::Rotate { .. })
        {
            check!(!refused, "step {i}: refused with no fault armed: {outcome}");
        }
        // (S3) A refused op leaves no trace, but for a reallocation that
        // reverted, or that a fault left unable to deploy its task again.
        let gone = target.is_some_and(|id| after.tasks.iter().all(|t| t.id != id));
        let gave_up = outcome.contains("ReallocationReverted") || (step.faults.is_some() && gone);
        if refused && !(matches!(step.op, Op::Reallocate(..)) && gave_up) {
            check!(after == before, "step {i}: a refused op left a trace: {outcome}");
        }
        // A reallocation that succeeded moved its task to the new size.
        if let (Op::Reallocate(_, mem), Some(_), false) = (step.op, target, refused) {
            let size = after.tasks.last().map(|t| t.rows[0][3]);
            let moved = gone && after.tasks.len() == before.tasks.len() && size == Some(mem);
            check!(moved, "step {i}: {outcome} did not move the task to {mem} buckets");
        }
        // (S1) An op on one task leaves every other task bit-identical.
        if matches!(step.op, Op::Deploy(_) | Op::Remove(_) | Op::Reallocate(..) | Op::Reset(_)) {
            for t in before.tasks.iter().filter(|t| Some(t.id) != target) {
                check!(
                    after.tasks.contains(t),
                    "step {i}: {outcome} disturbed task {:?} ({})",
                    t.id,
                    t.line
                );
            }
        }
        if matches!(step.op, Op::Rotate { .. }) && !refused {
            let zero = after.tasks.iter().flat_map(|t| &t.cells).flatten().all(|&v| v == 0);
            check!(zero, "step {i}: a rotation left a nonzero row");
        }
        before = after;
    }
    // Draining the switch gives every bucket back.
    for twin in &mut twins {
        for h in live(&twin.fm) {
            twin.fm.remove(h).map_err(|e| format!("drain: {e}"))?;
        }
        check!(twin.fm.free_buckets() == total && twin.fm.task_count() == 0, "drain left tasks");
        check!(twin.fm.audit().is_empty(), "drain: audit {:?}", twin.fm.audit());
    }
    Ok(coverage)
}

/// [`run`], with a panic anywhere in the switch reported as a failure.
fn try_run(script: &[Step], bucket_bits: u8) -> Result<Coverage, String> {
    catch_unwind(AssertUnwindSafe(|| run(script, bucket_bits)))
        .unwrap_or_else(|panic| Err(format!("panicked: {:?}", panic.downcast_ref::<String>())))
}

/// Drops one element at a time while `fails` still holds, until no
/// single drop keeps it failing.
fn shrink<T: Clone>(mut script: Vec<T>, fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    loop {
        let len = script.len();
        let mut i = 0;
        while i < script.len() {
            let mut candidate = script.clone();
            candidate.remove(i);
            if fails(&candidate) {
                script = candidate;
            } else {
                i += 1;
            }
        }
        if script.len() == len {
            return script;
        }
    }
}

/// Runs every seed unfaulted and faulted at `bucket_bits`, shrinking and
/// printing the first failure, and checks that every op kind ran and
/// that a fault refused every kind it can refuse.
fn sweep(seeds: std::ops::Range<u64>, bucket_bits: u8) {
    let mut total = Coverage::default();
    for (seed, faulted) in seeds.flat_map(|seed| [(seed, false), (seed, true)]) {
        let steps = script(seed, 60, faulted);
        let coverage = try_run(&steps, bucket_bits).unwrap_or_else(|first| {
            let shrunk = shrink(steps, |s| try_run(s, bucket_bits).is_err());
            let why = try_run(&shrunk, bucket_bits).err().unwrap_or(first);
            panic!("seed {seed}, {bucket_bits} bits, faulted {faulted}: {why}\n{}", print(&shrunk))
        });
        for (kind, [ran, refused]) in coverage {
            let at = total.entry(kind).or_default();
            *at = [at[0] + ran, at[1] + refused];
        }
    }
    let refusable = ["Deploy", "Remove", "Reallocate", "Reset", "Rotate"];
    let paths = ["Recover replaying a WAL suffix", "Sync at the image's generation"];
    let kinds = ["Sync", "Checkpoint", "Recover", "Packets"];
    for kind in refusable.iter().chain(&kinds).chain(&paths).chain(&SET_PATHS) {
        let [ran, refused] = total.get(*kind).copied().unwrap_or_default();
        assert!(ran > 0, "no {kind} ran: {total:?}");
        assert!(
            refused > 0 || !refusable.contains(kind),
            "no {kind} was refused by a fault: {total:?}"
        );
    }
}

#[test]
fn op_sequences_hold_at_16_bits() {
    sweep(0..6, 16);
}

#[test]
fn op_sequences_hold_at_32_bits() {
    sweep(0..6, 32);
}

/// The larger fixed seed set CI runs in release.
#[test]
#[ignore]
fn op_sequences_hold_over_300_seeds() {
    sweep(1_000..1_300, 16);
    sweep(1_000..1_300, 32);
}

#[test]
fn shrinking_keeps_only_the_ops_a_failure_needs() {
    // Fails iff a reallocation is followed, at any distance, by a
    // recovery: the shrunk script is exactly that pair.
    let fails = |s: &[Step]| {
        let realloc = s.iter().position(|st| matches!(st.op, Op::Reallocate(..)));
        realloc.is_some_and(|i| s[i..].iter().any(|st| st.op == Op::Recover))
    };
    let long = script(7, 60, true);
    assert!(fails(&long));
    let shrunk = shrink(long, fails);
    assert_eq!(shrunk.len(), 2, "{}", print(&shrunk));
    assert!(matches!(shrunk[0].op, Op::Reallocate(..)) && shrunk[1].op == Op::Recover);
}
