//! Seeded fleet op sequences against a per-packet twin fleet, and seeded
//! stream scripts against the streaming runtime's own books.
//!
//! A fleet script is built from a seed and run on twin fleets of three
//! switches with a warm standby: fleet A takes every packet slice through
//! `process_trace`, fleet B packet by packet through
//! `process(shard_of(p, n), p)`, the per-packet oracle (`PerPacketFleet`).
//! Every op — packet slices, fail, revive, sync, promote, epoch
//! rotation, deploy, remove, reallocate, split, arming a fault plan,
//! partition, heal, WAL maintenance, link flaps, duplicate storms and
//! split-brain probes — runs on both, each seed once with direct calls and once over a lossy
//! control channel. After every step:
//!
//! - the twins agree on the outcome, the ledger and every register;
//! - the ledger balances and every switch, dead or alive, audits clean;
//! - the primary task's row-0 mass, summed over switches, is what the
//!   ledger says the registers hold (`represented − rotated_packets`),
//!   and the dead switches' share of it is `unavailable`;
//! - the five heaviest sources' true counts since the last rotation are
//!   covered by `estimate + loss_bound`;
//! - a rotation's archived primary row holds exactly `FleetEpoch::packets`;
//! - each switch's task count moves only by the ops that succeeded, and a
//!   fenced stale-term command changes nothing;
//! - nothing panics.
//!
//! A stream script drives a `StreamingRuntime` one step per op — chunks
//! of a base size or ten times it, queue stalls, slow consumers and
//! worker panics — and checks the stream ledger, the watched flow's bound
//! and every audit after each step, then that the drained runtime holds
//! nothing in flight and settles `Healthy`.
//!
//! A failing script of either kind is shrunk one op at a time and printed
//! (`common`). A checkpoint taken at a batch boundary restoring
//! bit-identically is `sequences.rs`' check, at every step of its scripts.

#[macro_use]
mod common;

use std::collections::HashMap;

use common::{count, kind, live, merge, registers, run_or_shrink, Coverage};
use flymon::prelude::*;
use flymon_netsim::datapath::shard_of;
use flymon_netsim::oracle::PerPacketFleet;
use flymon_netsim::{
    ChannelConfig, ChunkSource, FleetEpoch, IngestConfig, IngestFault, RuntimeHealth,
    StreamingRuntime, SwitchFleet,
};
use flymon_packet::{KeySpec, Packet, SplitMix64};

/// The primary task: unfiltered, so every packet lands in its row 0 once.
const PRIMARY: &str = "primary key=SrcIP attr=frequency mem=2048 alg=cms d=2";

/// Deployable tasks. Each filters on a destination pool the generated
/// traffic uses and [`QUERY_DST`] is outside of, so a source's merged
/// estimate always routes to the primary (or to the half a split left
/// for that source).
const PALETTE: [&str; 4] = [
    "dst key=DstIP attr=frequency mem=1024 alg=cms d=2 filter=*->20.0.0.0/8",
    "hll key=none attr=distinct param=5tuple mem=512 alg=hll filter=*->10.0.0.0/8",
    "bloom key=none attr=existence mem=1024 alg=bloom d=2 filter=*->30.0.0.0/8",
    "queue key=DstIP attr=maxqueue mem=512 alg=sumaxmax d=2 filter=*->40.0.0.0/8",
];

/// The destination a source's count is read at.
const QUERY_DST: u32 = 0x0100_0001;

/// Packet slice lengths: empty, single, around an 8-lane group, odd, and
/// around a long run of stage-major chunks.
const SLICES: [usize; 8] = [0, 1, 63, 64, 65, 777, 4096, 4097];

const SWITCHES: usize = 3;

fn config() -> FlyMonConfig {
    FlyMonConfig { groups: 3, buckets_per_cmu: 4096, bucket_bits: 32, ..Default::default() }
}

/// One fleet op. A `usize` target indexes the fleet's tasks, or its
/// switches (the dead ones first, for a revival or a promotion), modulo
/// their count, so a shrunk script stays runnable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Packets(usize, u64),
    Fail(usize),
    Revive(usize),
    Sync,
    Promote(usize),
    Rotate,
    Deploy(usize),
    Remove(usize),
    Reallocate(usize, usize),
    Split(usize),
    /// Arms a fault plan (p 0.3) of this seed on a switch, or disarms it.
    Faults(usize, Option<u64>),
    Partition(usize),
    Heal,
    MaintainWals(usize),
    /// Partitions a link, pushes a standby sync into the hole, heals it.
    Flap(usize),
    /// Duplication and reordering at 0.5 around a sync and a palette
    /// task's deploy and removal.
    DupStorm(usize),
    /// A stale primary: the term rewound, a palette deploy must be fenced.
    SplitBrain(usize),
}

fn script(seed: u64, steps: usize) -> Vec<Op> {
    let mut r = SplitMix64::new(seed);
    let mut op = || match r.range_u64(0, 100) {
        0..=23 => Op::Packets(SLICES[r.range_usize(0, SLICES.len())], r.next_u64()),
        24..=31 => Op::Fail(r.range_usize(0, 64)),
        32..=39 => Op::Revive(r.range_usize(0, 64)),
        40..=44 => Op::Sync,
        45..=50 => Op::Promote(r.range_usize(0, 64)),
        51..=57 => Op::Rotate,
        58..=66 => Op::Deploy(r.range_usize(0, PALETTE.len())),
        67..=72 => Op::Remove(r.range_usize(0, 64)),
        73..=76 => Op::Reallocate(r.range_usize(0, 64), 512 << r.range_u64(0, 4)),
        77..=79 => Op::Split(r.range_usize(0, 64)),
        80..=86 => Op::Faults(r.range_usize(0, 64), r.chance(0.6).then(|| r.next_u64())),
        87..=88 => Op::Partition(r.range_usize(0, 64)),
        89 => Op::Heal,
        90..=91 => Op::MaintainWals(r.range_usize(0, 16)),
        92..=93 => Op::Flap(r.range_usize(0, 64)),
        94..=95 => Op::DupStorm(r.range_usize(0, PALETTE.len())),
        _ => Op::SplitBrain(r.range_usize(0, PALETTE.len())),
    };
    (0..steps).map(|_| op()).collect()
}

/// A fleet script as op names, palette tasks as their lines.
fn print(script: &[Op]) -> String {
    let line = |(i, op): (usize, &Op)| match *op {
        Op::Deploy(p) => format!("{i:3} deploy {}\n", PALETTE[p]),
        op => format!("{i:3} {op:?}\n"),
    };
    script.iter().enumerate().map(line).collect()
}

/// Seeded traffic: sources skewed towards low host numbers in four /8s
/// on both sides of every /1 and /2 boundary (so a split primary sees
/// traffic in each half), destinations in the palette's four pools.
fn packets(n: usize, seed: u64) -> Vec<Packet> {
    let mut r = SplitMix64::new(seed);
    let mut ts = r.range_u64(0, 1 << 40);
    let mut packet = || {
        let src = [10u32, 100, 150, 230][r.range_usize(0, 4)] << 24
            | (r.range_u64(0, 48) * r.range_u64(0, 48) / 48) as u32;
        let dst = (10 * r.range_u64(1, 5) as u32) << 24 | r.range_u64(0, 48) as u32;
        let mut p = Packet::tcp(src, dst, r.next_u16() % 8, 80);
        ts += r.range_u64(1, 5_000);
        (p.len, p.ts_ns) = (64 + r.next_u16() % 1400, ts);
        (p.queue_len, p.queue_delay_ns) = (r.next_u32() % 4096, r.next_u32() % 1_000_000);
        p
    };
    (0..n).map(|_| packet()).collect()
}

fn is_primary(name: &str) -> bool {
    name.starts_with("primary")
}

/// Row 0's mass of the primary and of every task a split made of it.
fn primary_mass(fm: &FlyMon) -> u64 {
    let primary = live(fm).into_iter().filter(|&h| is_primary(&fm.task(h).unwrap().def.name));
    primary.map(|h| fm.read_row(h, 0).unwrap().iter().map(|&c| u64::from(c)).sum::<u64>()).sum()
}

fn task_counts(fleet: &SwitchFleet) -> Vec<usize> {
    (0..fleet.len()).map(|s| fleet.switch(s).0.task_count()).collect()
}

/// What an op did: the twins must agree on all of it.
#[derive(Debug, PartialEq)]
struct Outcome {
    text: String,
    /// False when the op did not act: a channel op on a direct fleet, a
    /// probe on a fleet with a dead switch, the resize of a primary under
    /// a fault plan or after a refused rotation.
    ran: bool,
    refused: bool,
    /// The archive of a rotation the op made.
    epoch: Option<FleetEpoch>,
}

impl Outcome {
    fn of<T: std::fmt::Debug>(r: Result<T, FlymonError>) -> Outcome {
        Outcome { text: format!("{r:?}"), ran: true, refused: r.is_err(), epoch: None }
    }

    fn text(text: String) -> Outcome {
        Outcome { text, ran: true, refused: false, epoch: None }
    }

    fn skipped(text: String) -> Outcome {
        Outcome { ran: false, ..Outcome::text(text) }
    }
}

/// Runs `op` on one fleet, whose switches `armed` holds a fault plan;
/// `batched` picks `process_trace` over the per-packet `process`.
fn apply(
    fleet: &mut SwitchFleet,
    armed: &mut [bool],
    op: Op,
    batched: bool,
) -> Result<Outcome, String> {
    let n = fleet.len();
    let tasks = fleet.task_infos();
    let task = |k: usize| k % tasks.len();
    let dead: Vec<usize> = (0..n).filter(|&s| !fleet.is_alive(s)).collect();
    let down = |k: usize| dead.get(k % dead.len().max(1)).copied().unwrap_or(k % n);
    let palette = |p: usize| PALETTE[p].parse::<TaskDefinition>().unwrap();
    Ok(match op {
        Op::Packets(len, seed) => {
            let pkts = packets(len, seed);
            if batched {
                fleet.process_trace(&pkts);
            } else {
                pkts.iter().for_each(|p| fleet.process(shard_of(p, n), p));
            }
            Outcome::text(String::new())
        }
        Op::Fail(k) => Outcome::of(fleet.fail_switch(k % n)),
        Op::Revive(k) => Outcome::of(fleet.revive_switch(down(k))),
        Op::Sync => Outcome::text(format!("{} buckets", fleet.sync_standby())),
        Op::Promote(k) => {
            let promoted = fleet.promote_standby(down(k));
            // The recovered switch takes the dead one's place, plan and all.
            armed[down(k)] &= promoted.is_err();
            Outcome::of(promoted)
        }
        Op::Rotate => {
            let rotated = fleet.rotate_epoch_all();
            let mut out = Outcome::of(rotated.as_ref().map(|e| e.packets).map_err(Clone::clone));
            out.epoch = rotated.ok();
            out
        }
        Op::Deploy(p) => Outcome::of(fleet.deploy_task(&palette(p))),
        // The primary's halves stay: a packet a removed half would have
        // taken lands in no primary row, though the ledger holds it.
        Op::Remove(k) => {
            let others: Vec<usize> =
                (0..tasks.len()).filter(|&t| !is_primary(&tasks[t].name)).collect();
            Outcome::of(
                fleet.remove_task(others.get(k % others.len().max(1)).copied().unwrap_or(0)),
            )
        }
        Op::Reallocate(k, _) | Op::Split(k) => {
            // ROADMAP item 3: a resize or a split drops the task's rows,
            // and nothing accounts that per task — the ledger still counts
            // the dropped packets as represented. So the primary is
            // resized or split only right after a rotation archived its
            // rows, the contract `reallocate_task` and `split_task` state.
            // Once item 3 lands, this rotation goes and the checks below
            // hold the primary's mass across an unrotated resize too.
            // Nor is it resized under a fault plan: a plan that refuses an
            // unwind's inverse leaves that switch diverged (`sweep`'s
            // best effort), hosting no primary at all.
            let mut epoch = None;
            if is_primary(&tasks[task(k)].name) {
                if armed.contains(&true) {
                    return Ok(Outcome::skipped("a fault plan is armed".into()));
                }
                match fleet.rotate_epoch_all() {
                    Ok(e) => epoch = Some(e),
                    Err(e) => return Ok(Outcome::skipped(format!("rotation refused: {e:?}"))),
                }
            }
            let mut out = match op {
                Op::Reallocate(_, mem) => Outcome::of(fleet.reallocate_task(task(k), mem)),
                _ => Outcome::of(fleet.split_task(task(k))),
            };
            out.epoch = epoch;
            out
        }
        Op::Faults(k, seed) => {
            let plan = seed.map(|seed| FaultPlan::new(seed).fail_probability(0.3));
            armed[k % n] = seed.is_some();
            Outcome::of(fleet.set_faults(k % n, plan).map(|_| ()))
        }
        Op::MaintainWals(threshold) => {
            Outcome::text(format!("{} pruned", fleet.maintain_wals(threshold)))
        }
        _ if fleet.channel().is_none() => Outcome::skipped(String::new()),
        Op::Partition(k) => Outcome::of(fleet.channel_mut().unwrap().set_partitioned(k % n, true)),
        Op::Heal => {
            let ch = fleet.channel_mut().unwrap();
            Outcome::text(format!("{} healed, {} told", ch.heal_all(), ch.broadcast_term()))
        }
        Op::Flap(k) => {
            fleet.channel_mut().unwrap().set_partitioned(k % n, true).unwrap();
            let shipped = fleet.sync_standby();
            let ch = fleet.channel_mut().unwrap();
            ch.set_partitioned(k % n, false).unwrap();
            ch.broadcast_term();
            Outcome::text(format!("{shipped} buckets"))
        }
        Op::DupStorm(p) => {
            let base = *fleet.channel().unwrap().config();
            fleet.channel_mut().unwrap().set_rates(base.drop_rate, 0.5, 0.5).unwrap();
            let shipped = fleet.sync_standby();
            let before = task_counts(fleet);
            let deployed = fleet.deploy_task(&palette(p));
            let removed = deployed.as_ref().map(|&t| fleet.remove_task(t));
            if let Ok(Ok(())) = removed {
                let after = task_counts(fleet);
                check!(
                    after == before,
                    "exactly-once: a storm's deploy and removal moved {before:?} to {after:?}"
                );
            }
            fleet
                .channel_mut()
                .unwrap()
                .set_rates(base.drop_rate, base.dup_rate, base.reorder_rate)
                .unwrap();
            Outcome::text(format!("{shipped} buckets, {deployed:?}, {removed:?}"))
        }
        Op::SplitBrain(p) => {
            if !fleet.fully_alive() {
                return Ok(Outcome::skipped("a switch is dead".into()));
            }
            // Every switch current first, so the rewound command tests
            // fencing and not a term that never reached a switch.
            let ch = fleet.channel_mut().unwrap();
            ch.heal_all();
            if ch.term() == 0 {
                ch.mint_term();
            }
            ch.broadcast_term();
            let term = ch.term();
            let before = task_counts(fleet);
            fleet.channel_mut().unwrap().force_term(term - 1);
            let stale = fleet.deploy_task(&palette(p));
            fleet.channel_mut().unwrap().force_term(term);
            let after = task_counts(fleet);
            check!(
                matches!(
                    stale,
                    Err(FlymonError::Fenced { .. } | FlymonError::ChannelTimeout { .. })
                ),
                "split brain: a stale-term deploy returned {stale:?}"
            );
            check!(
                after == before,
                "a fenced command moved the task counts {before:?} to {after:?}"
            );
            Outcome::of(stale)
        }
    })
}

/// How each switch's task count may move under `op`: exactly by what it
/// adds when it succeeded; not at all when refused, but for a removal,
/// which rolls forward over the switches it reaches — so a switch an
/// earlier refused removal of the same task swept has none left to drop.
fn moves(op: Op, refused: bool) -> &'static [isize] {
    match (op, refused) {
        (Op::Deploy(_) | Op::Split(_), false) => &[1],
        (Op::Remove(_), _) => &[-1, 0],
        // A storm's removal may stop at a partitioned switch.
        (Op::DupStorm(_), _) => &[0, 1],
        _ => &[0],
    }
}

/// Runs `script` on a batched fleet and its per-packet twin, over a lossy
/// channel seeded `channel` when there is one, checking after every step.
/// Returns the coverage and the batched fleet's channel event log.
fn run_fleet(script: &[Op], channel: Option<u64>) -> Result<(Coverage, Vec<String>), String> {
    let primary: TaskDefinition = PRIMARY.parse().unwrap();
    let mut twins = [(); 2].map(|_| SwitchFleet::deploy(SWITCHES, config(), &primary).unwrap());
    for fleet in &mut twins {
        fleet.enable_standby();
        if let Some(seed) = channel {
            let lossy = ChannelConfig {
                drop_rate: 0.15,
                dup_rate: 0.05,
                reorder_rate: 0.05,
                ..Default::default()
            };
            fleet.attach_channel(seed, lossy).unwrap();
        }
    }
    // The switches of each twin holding a fault plan.
    let mut armed = [[false; SWITCHES]; 2];
    let mut coverage = Coverage::default();
    // Each source's packets since the last rotation that archived them.
    let mut truth: HashMap<u32, u64> = HashMap::new();
    for (i, &op) in script.iter().enumerate() {
        let before = task_counts(&twins[0]);
        let faulted = armed[0].contains(&true);
        let [a, b] = &mut armed;
        let outcomes = [
            apply(&mut twins[0], a, op, true).map_err(|e| format!("step {i}: {e}"))?,
            apply(&mut twins[1], b, op, false).map_err(|e| format!("step {i}: {e}"))?,
        ];
        let [fleet, twin] = &twins;
        let out = &outcomes[0];
        check!(*out == outcomes[1], "step {i}: the twins' outcomes differ: {outcomes:?}");
        count(&mut coverage, &kind(&op), [out.ran, out.ran && out.refused]);
        let ledger = fleet.ledger();
        check!(ledger == twin.ledger(), "step {i}: ledgers differ: {ledger:?} {:?}", twin.ledger());
        for s in 0..SWITCHES {
            let (a, b) = (fleet.switch(s).0, twin.switch(s).0);
            check!(
                registers(a) == registers(b),
                "step {i}: switch {s}'s registers differ from its twin's"
            );
            let divergences = a.audit();
            check!(divergences.is_empty(), "step {i}: switch {s} audit: {divergences:?}");
            // Every resolution, rollback and abort reframes its record.
            for (side, sw) in [("", a), (" (twin)", b)] {
                let frames = sw.wal().map_or(Ok(()), |wal| wal.verify_frames_after(0));
                check!(
                    !fleet.is_alive(s) || frames.is_ok(),
                    "step {i}: switch {s}{side}'s WAL frame {frames:?} does not verify"
                );
            }
        }
        check!(ledger.balanced(), "step {i}: the ledger does not balance: {ledger:?}");

        let mass: Vec<u64> = (0..SWITCHES).map(|s| primary_mass(fleet.switch(s).0)).collect();
        let held = ledger.represented - fleet.rotated_packets();
        check!(
            mass.iter().sum::<u64>() == held,
            "step {i}: the primary's row 0 holds {mass:?}, the ledger {held} ({ledger:?})"
        );
        let dead: u64 = (0..SWITCHES).filter(|&s| !fleet.is_alive(s)).map(|s| mass[s]).sum();
        check!(
            dead == ledger.unavailable,
            "step {i}: dead switches hold {dead}, unavailable {}",
            ledger.unavailable
        );

        if let Some(epoch) = &out.epoch {
            let archived: u64 = epoch
                .tasks
                .iter()
                .filter(|t| is_primary(&t.name))
                .flat_map(|t| &t.rows[0])
                .map(|&c| u64::from(c))
                .sum();
            check!(
                archived == epoch.packets,
                "step {i}: archived row 0 holds {archived}, the epoch {}",
                epoch.packets
            );
            truth.clear();
        }
        if let Op::Packets(len, seed) = op {
            for p in packets(len, seed) {
                *truth.entry(p.src_ip).or_default() += 1;
            }
        }
        if fleet.alive_count() > 0 {
            let mut heavy: Vec<(u32, u64)> = truth.iter().map(|(&src, &n)| (src, n)).collect();
            heavy.sort_unstable_by_key(|&(src, n)| (std::cmp::Reverse(n), src));
            for &(src, n) in heavy.iter().take(5) {
                let bounded = fleet.merged_frequency_bounded(&Packet::tcp(src, QUERY_DST, 0, 0));
                let b = bounded
                    .map_err(|e| format!("step {i}: the readout of {src:#x} failed: {e}"))?;
                check!(
                    n <= b.estimate + b.loss_bound,
                    "step {i}: source {src:#x} sent {n}, estimate {} + bound {}",
                    b.estimate,
                    b.loss_bound
                );
            }
        }

        // Under a fault plan a refused op's unwind is best effort: a
        // switch whose plan refuses an inverse keeps what it completed.
        let after = task_counts(fleet);
        let allowed = moves(op, out.refused || !out.ran);
        for (s, (&was, &is)) in before.iter().zip(&after).enumerate() {
            check!(
                (faulted && out.refused) || allowed.contains(&(is as isize - was as isize)),
                "step {i}: exactly-once: {} moved switch {s}'s tasks {was} -> {is}",
                out.text
            );
        }
    }
    let log = twins[0].channel().map(|ch| ch.event_log()).unwrap_or_default();
    if let Some(ch) = twins[0].channel() {
        let stats = ch.stats();
        count(&mut coverage, "a stale-term reject", [stats.stale_rejects > 0, false]);
        count(&mut coverage, "a channel timeout", [stats.timeouts > 0, false]);
        count(&mut coverage, "a dedup suppression", [stats.dup_suppressed > 0, false]);
        count(&mut coverage, "a partition", [log.iter().any(|l| l.contains("partitioned")), false]);
    }
    Ok((coverage, log))
}

/// The channel seed of a lossy run of script `seed`.
fn channel_seed(seed: u64) -> u64 {
    seed ^ 0xC4A7_7E1C_0DE5_EED5
}

const FLEET_STEPS: usize = 80;

/// Runs every seed direct and over a lossy channel, shrinking and
/// printing the first failure, and checks that every op kind ran, that
/// each refusable kind was refused, and that the lossy runs met every
/// channel path.
fn fleet_sweep(seeds: std::ops::Range<u64>) {
    let mut total = Coverage::default();
    for (seed, lossy) in seeds.flat_map(|seed| [(seed, false), (seed, true)]) {
        let label =
            format!("fleet seed {seed}, {}", if lossy { "lossy channel" } else { "direct" });
        let channel = lossy.then(|| channel_seed(seed));
        let run = |s: &[Op]| run_fleet(s, channel).map(|(coverage, _)| coverage);
        merge(&mut total, run_or_shrink(&label, script(seed, FLEET_STEPS), run, print));
    }
    let refusable = ["Rotate", "Revive", "Deploy", "Reallocate", "Split", "Promote"];
    let kinds = [
        "Packets",
        "Fail",
        "Sync",
        "Remove",
        "Faults",
        "Partition",
        "Heal",
        "MaintainWals",
        "Flap",
        "DupStorm",
        "SplitBrain",
    ];
    let paths = ["a stale-term reject", "a channel timeout", "a dedup suppression", "a partition"];
    for kind in refusable.iter().chain(&kinds).chain(&paths) {
        let [ran, refused] = total.get(*kind).copied().unwrap_or_default();
        assert!(ran > 0, "no {kind} ran: {total:?}");
        assert!(refused > 0 || !refusable.contains(kind), "no {kind} was refused: {total:?}");
    }
}

/// One stream op: one runtime step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StreamOp {
    /// A chunk of the base size, or of ten times it.
    Chunk { burst: bool, seed: u64 },
    /// The consumer drains nothing for this many steps from this one.
    Stall(u64),
    /// The consumer's budget divided by the factor for this many steps.
    Slow(u64, usize),
    /// The worker dies on this switch at this step.
    Panic(usize),
}

const BASE_CHUNK: usize = 256;
const DRAIN: usize = 512;

fn stream_script(seed: u64, steps: usize) -> Vec<StreamOp> {
    let mut r = SplitMix64::new(seed);
    let mut op = || match r.range_u64(0, 100) {
        0..=59 => StreamOp::Chunk { burst: false, seed: r.next_u64() },
        60..=74 => StreamOp::Chunk { burst: true, seed: r.next_u64() },
        75..=84 => StreamOp::Stall(r.range_u64(1, 6)),
        85..=94 => StreamOp::Slow(r.range_u64(1, 6), r.range_usize(2, 10)),
        _ => StreamOp::Panic(r.range_usize(0, SWITCHES)),
    };
    (0..steps).map(|_| op()).collect()
}

fn print_stream(script: &[StreamOp]) -> String {
    script.iter().enumerate().map(|(i, op)| format!("{i:3} {op:?}\n")).collect()
}

/// The flow the runtime watches: one packet in four of every chunk.
fn sentinel() -> Packet {
    Packet::tcp(0x0a00_00fe, QUERY_DST, 443, 50_000)
}

/// The next chunk a step pulls, if its op offers one.
struct Feed(Option<Vec<Packet>>);

impl ChunkSource for Feed {
    fn next_chunk(&mut self) -> Option<Vec<Packet>> {
        self.0.take()
    }
}

/// Runs `script` through a streaming runtime over a fresh fleet, checking
/// after every step, then drains it.
fn run_stream(script: &[StreamOp]) -> Result<Coverage, String> {
    let primary: TaskDefinition = PRIMARY.parse().unwrap();
    let fleet = SwitchFleet::deploy(SWITCHES, config(), &primary).unwrap();
    let cfg = IngestConfig {
        queue_capacity: 2_048,
        drain_chunk: DRAIN,
        backlog_limit: 4_096,
        epoch_packets: 1_500,
        ..IngestConfig::default()
    };
    let mut rt = StreamingRuntime::new(fleet, cfg);
    rt.watch(sentinel());
    let mut coverage = Coverage::default();
    // The step each throttle ends before, and the budget it leaves.
    let (mut stalled_until, mut slow) = (0, (0, DRAIN));
    for (i, &op) in script.iter().enumerate() {
        let step = rt.stats().steps + 1;
        let mut feed = Feed(None);
        match op {
            StreamOp::Chunk { burst, seed } => {
                let mut chunk = packets(BASE_CHUNK * if burst { 10 } else { 1 }, seed);
                chunk.iter_mut().step_by(4).for_each(|p| *p = sentinel());
                feed.0 = Some(chunk);
            }
            StreamOp::Stall(steps) => {
                rt.inject(IngestFault::QueueStall { from_step: step, steps });
                stalled_until = stalled_until.max(step + steps);
            }
            StreamOp::Slow(steps, factor) => {
                rt.inject(IngestFault::SlowConsumer { from_step: step, steps, factor });
                slow = (step + steps, DRAIN / factor);
            }
            StreamOp::Panic(switch) => {
                rt.inject(IngestFault::WorkerPanic { at_step: step, switch })
            }
        }
        let out = rt.step(&mut feed).map_err(|e| format!("step {i}: {e}"))?;
        let ledger = rt.ledger();
        check!(ledger.conserved(), "step {i}: the stream ledger does not conserve: {ledger:?}");
        if let Some((estimate, bound, processed)) = rt.watch_bound() {
            check!(
                processed <= estimate + bound,
                "step {i}: the watched flow drained {processed}, estimate {estimate} + bound {bound}"
            );
        }
        for s in 0..SWITCHES {
            let divergences = rt.fleet().switch(s).0.audit();
            check!(divergences.is_empty(), "step {i}: switch {s} audit: {divergences:?}");
        }
        let waiting = ledger.in_flight > 0 && out.health != RuntimeHealth::Recovering;
        count(&mut coverage, &kind(&op), [true, false]);
        count(&mut coverage, "a shed", [out.shed > 0, false]);
        count(&mut coverage, "a worker panic recovered", [out.recovered, false]);
        count(&mut coverage, "an epoch rotated", [out.rotated, false]);
        count(
            &mut coverage,
            "a stall fired",
            [step < stalled_until && waiting && out.drained == 0, false],
        );
        let throttled = out.drained > 0 && out.drained <= slow.1;
        count(
            &mut coverage,
            "a slow consumer fired",
            [step < slow.0 && waiting && throttled, false],
        );
    }
    let report = rt.run(&mut Feed(None)).map_err(|e| format!("drain: {e}"))?;
    check!(report.ledger.in_flight == 0, "drain left {} in flight", report.ledger.in_flight);
    check!(
        report.ledger.conserved(),
        "drain: the stream ledger does not conserve: {:?}",
        report.ledger
    );
    check!(report.health == RuntimeHealth::Healthy, "drain settled {:?}", report.health);
    Ok(coverage)
}

/// Runs every stream seed, shrinking and printing the first failure, and
/// checks that the seed set shed, recovered a panic, rotated an epoch,
/// and met a stall and a slow consumer with packets waiting.
fn stream_sweep(seeds: std::ops::Range<u64>) {
    let mut total = Coverage::default();
    for seed in seeds {
        let label = format!("stream seed {seed}");
        merge(&mut total, run_or_shrink(&label, stream_script(seed, 40), run_stream, print_stream));
    }
    let paths = [
        "Chunk",
        "Stall",
        "Slow",
        "Panic",
        "a shed",
        "a worker panic recovered",
        "an epoch rotated",
        "a stall fired",
        "a slow consumer fired",
    ];
    for path in paths {
        assert!(total.get(path).is_some_and(|n| n[0] > 0), "no {path}: {total:?}");
    }
}

#[test]
fn fleet_sequences_hold() {
    fleet_sweep(0..8);
}

#[test]
fn stream_sequences_hold() {
    stream_sweep(0..12);
}

/// The larger fixed seed sets CI runs in release.
#[test]
#[ignore]
fn fleet_sequences_hold_over_300_seeds() {
    fleet_sweep(1_000..1_300);
}

#[test]
#[ignore]
fn stream_sequences_hold_over_100_seeds() {
    stream_sweep(1_000..1_100);
}

/// The lossy seed-7 script's channel event log: two runs render it byte
/// for byte alike, and it equals the checked-in text, which pins every
/// command, retry, timeout and term the script's fleet ops send.
#[test]
fn lossy_seed_7_event_log_is_deterministic_and_matches_the_golden() {
    let render = || {
        let (_, log) = run_fleet(&script(7, FLEET_STEPS), Some(channel_seed(7))).unwrap();
        log.iter().map(|line| format!("{line}\n")).collect::<String>()
    };
    let rendered = render();
    assert_eq!(rendered, render(), "the same script rendered two different event logs");
    assert_eq!(
        rendered,
        include_str!("golden/fleet_sequences_seed7.log"),
        "the seed-7 event log drifted from tests/golden/fleet_sequences_seed7.log"
    );
}

#[test]
fn fault_plans_agree_across_deploy_call_sites() {
    // The same seeded plan must produce the same verdict stream whether
    // it is armed directly on a FlyMon or on a fleet member through
    // SwitchFleet::set_faults — the op sequence of a deploy is
    // identical, so the outcomes and op counts must be too. The sweep
    // stops at the first refusal, so switch 1 sees the deploy only
    // when switch 0 accepted it.
    let config = FlyMonConfig { groups: 2, buckets_per_cmu: 16384, ..FlyMonConfig::default() };
    let task = |name: &str| {
        TaskDefinition::builder(name)
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(8192)
            .build()
    };
    let (anchor, def) = (task("anchor"), task("freq"));

    for seed in [5u64, 6, 7, 8] {
        let plan = FaultPlan::new(seed).fail_probability(0.2);

        let mut direct = FlyMon::new(config);
        direct.deploy(&anchor).unwrap();
        direct.arm_faults(plan.clone());
        let direct_ok = direct.deploy(&def).is_ok();
        let direct_plan = direct.disarm_faults().unwrap();

        let mut fleet = SwitchFleet::deploy(2, config, &anchor).unwrap();
        for i in 0..2 {
            fleet.set_faults(i, Some(plan.clone())).unwrap();
        }
        assert_eq!(
            fleet.deploy_task(&def).is_ok(),
            direct_ok,
            "seed {seed}: the fleet disagrees with the direct deploy"
        );
        let ops: Vec<u64> =
            (0..2).map(|i| fleet.set_faults(i, None).unwrap().unwrap().ops_seen()).collect();
        let expected = [direct_plan.ops_seen(), if direct_ok { direct_plan.ops_seen() } else { 0 }];
        assert_eq!(ops, expected, "seed {seed}: op streams diverged between call sites");
    }
}
