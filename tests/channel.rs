//! Lossy control channel, end to end: the exhaustive interleaving
//! sweep (every drop/duplicate/reorder schedule of commit and abort
//! deliveries applies exactly once), split-brain fencing (a stale
//! primary's late writes are rejected with zero state divergence),
//! a lossy soak where every control cycle completes through retries,
//! and the modeled cost of loss (latency grows with the drop rate, 10 %
//! drop retries but never times out).

use flymon::prelude::*;
use flymon_netsim::channel::{ChannelConfig, ControlChannel, ScriptStep, TxnResult};
use flymon_netsim::SwitchFleet;
use flymon_packet::{KeySpec, Packet};
use flymon_rmt::fault::RetryPolicy;
use flymon_traffic::gen::{TraceConfig, TraceGenerator};

fn config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 16384,
        ..FlyMonConfig::default()
    }
}

fn cms_def(d: usize) -> TaskDefinition {
    TaskDefinition::builder("freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d })
        .memory(8192)
        .build()
}

fn bloom_def(name: &str) -> TaskDefinition {
    TaskDefinition::builder(name)
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(1024)
        .build()
}

fn trace(seed: u64, packets: u64) -> Vec<Packet> {
    TraceGenerator::new(seed).wide_like(&TraceConfig {
        flows: 2_000,
        packets,
        zipf_alpha: 1.1,
        duration_ns: 1_000_000_000,
        seed,
    })
}

/// Every register bucket of every CMU, in canonical order.
fn all_registers(fm: &FlyMon) -> Vec<Vec<u32>> {
    let total = fm.config().buckets_per_cmu;
    fm.groups()
        .iter()
        .flat_map(|g| {
            g.cmus()
                .iter()
                .map(move |c| c.register().read_range(0, total).unwrap().to_vec())
        })
        .collect()
}

/// All 4^1 + 4^2 + 4^3 = 84 attempt-fate scripts of length 1..=3.
fn all_scripts() -> Vec<Vec<ScriptStep>> {
    use ScriptStep::*;
    let steps = [Deliver, DropRequest, DropReply, DuplicateDeliver];
    let mut out = Vec::new();
    for len in 1..=3u32 {
        for code in 0..4usize.pow(len) {
            let mut c = code;
            let mut script = Vec::with_capacity(len as usize);
            for _ in 0..len {
                script.push(steps[c % 4]);
                c /= 4;
            }
            out.push(script);
        }
    }
    out
}

/// Channel whose retry budget exactly covers the script, so the
/// script alone decides the command's fate.
fn scripted_channel(script: &[ScriptStep], seed: u64) -> ControlChannel {
    let cfg = ChannelConfig {
        retry: RetryPolicy::with_attempts(script.len() as u32),
        ..ChannelConfig::default()
    };
    let mut ch = ControlChannel::new(1, seed, cfg).unwrap();
    ch.push_script(script.iter().copied());
    ch
}

/// The exhaustive small-scale sweep: every delivery schedule over
/// {deliver, drop-request, drop-reply, duplicate} of lengths 1..=3 is
/// run against a real switch, for a deploy (commit) and then a remove,
/// and the effect must land exactly once no matter the interleaving.
///
/// The outcome classes are fully determined by the script:
/// - any `Deliver`/`DuplicateDeliver` step ⇒ `Ok` via a surviving reply;
/// - otherwise any `DropReply` step ⇒ applied, every reply lost, and
///   the outcome probe reconciles to `Ok`;
/// - all `DropRequest` ⇒ `Err(ChannelTimeout)` and *nothing* applied,
///   so a retry on a healthy channel completes the command cleanly.
#[test]
fn exhaustive_interleaving_sweep_applies_exactly_once() {
    use ScriptStep::*;
    let def = cms_def(2);
    for (idx, script) in all_scripts().iter().enumerate() {
        let ok_via_reply = script.iter().any(|s| matches!(s, Deliver | DuplicateDeliver));
        let reconciles = !ok_via_reply && script.contains(&DropReply);
        let applies_expected = ok_via_reply || reconciles;

        let mut fm = FlyMon::new(config());
        fm.attach_wal(WriteAheadLog::new());

        // Commit path: deploy under the scripted schedule.
        let mut ch = scripted_channel(script, 0xC0DE + idx as u64);
        let mut applies = 0u32;
        let deployed = ch.invoke(0, "deploy", || {
            applies += 1;
            fm.deploy(&def).map(TxnResult::Handle)
        });
        ch.advance(60.0); // deliver any late duplicate copies
        assert_eq!(
            applies,
            applies_expected as u32,
            "script {script:?}: deploy applied {applies} times"
        );
        assert_eq!(ch.stats().timeouts, (!applies_expected) as u64, "script {script:?}");
        assert_eq!(ch.stats().reconciled, reconciles as u64, "script {script:?}");
        let handle = match deployed {
            Ok(r) => r.handle(),
            Err(FlymonError::ChannelTimeout { .. }) => {
                assert!(!applies_expected, "script {script:?}: spurious timeout");
                assert_eq!(fm.task_count(), 0, "script {script:?}: timeout yet deployed");
                // Outcome determinacy: never applied, so a plain retry
                // over a healthy channel is safe and completes.
                let mut retry = ControlChannel::new(1, 1, ChannelConfig::default()).unwrap();
                retry
                    .invoke(0, "deploy", || fm.deploy(&def).map(TxnResult::Handle))
                    .unwrap()
                    .handle()
            }
            Err(e) => panic!("script {script:?}: unexpected deploy error {e:?}"),
        };
        assert_eq!(fm.task_count(), 1, "script {script:?}: deploy not exactly-once");

        // Abort path: remove the task under the same schedule.
        let mut ch = scripted_channel(script, 0xDEC0 + idx as u64);
        let mut removes = 0u32;
        let removed = ch.invoke(0, "remove", || {
            removes += 1;
            fm.remove(handle).map(|_| TxnResult::Unit)
        });
        ch.advance(60.0);
        assert_eq!(
            removes,
            applies_expected as u32,
            "script {script:?}: remove applied {removes} times"
        );
        match removed {
            Ok(TxnResult::Unit) => {}
            Ok(r) => panic!("script {script:?}: remove returned {r:?}"),
            Err(FlymonError::ChannelTimeout { .. }) => {
                assert_eq!(fm.task_count(), 1, "script {script:?}: timeout yet removed");
                let mut retry = ControlChannel::new(1, 2, ChannelConfig::default()).unwrap();
                retry
                    .invoke(0, "remove", || fm.remove(handle).map(|_| TxnResult::Unit))
                    .unwrap();
            }
            Err(e) => panic!("script {script:?}: unexpected remove error {e:?}"),
        }
        assert_eq!(fm.task_count(), 0, "script {script:?}: remove not exactly-once");
        assert!(fm.audit().is_empty(), "script {script:?}: {:?}", fm.audit());

        // The WAL is the ground truth for exactly-once: however many
        // copies of each command arrived, exactly one committed record
        // per logical command (deploys + removes, including retries
        // after a timeout) may exist.
        let wal = fm.detach_wal().unwrap();
        let committed = wal.committed_after(0).count();
        assert_eq!(committed, 2, "script {script:?}: {committed} committed WAL records");
    }
}

/// A logical apply *error* (a rejected command) is an outcome like any
/// other: cached in the dedup window and replayed to retransmissions,
/// never re-applied — the abort is delivered exactly once too.
#[test]
fn cached_apply_errors_replay_to_retransmissions_without_reapplying() {
    use ScriptStep::*;
    let mut ch = scripted_channel(&[DropReply, DropReply, Deliver], 7);
    let mut applies = 0u32;
    let err = ch
        .invoke(0, "doomed-op", || {
            applies += 1;
            Err::<TxnResult, _>(FlymonError::InvalidPolicy("rejected by the switch"))
        })
        .unwrap_err();
    assert!(matches!(err, FlymonError::InvalidPolicy(_)), "{err:?}");
    assert_eq!(applies, 1, "the failing apply ran more than once");
    assert_eq!(ch.stats().dup_suppressed, 2, "retransmissions must hit the cache");
    assert_eq!(ch.stats().timeouts, 0);
}

/// The dedicated split-brain drill: after a standby promotion mints a
/// new fencing term, a stale primary (old term) issuing deploys,
/// reallocations, splits and epoch resets is rejected on every link
/// with `Fenced`, every reject is counted and audited, and the fleet's
/// registers and task sets are bit-identical to before the attack —
/// zero divergence. The real primary's term keeps working throughout.
#[test]
fn stale_primary_is_fenced_with_zero_divergence() {
    let def = cms_def(2);
    let mut fleet = SwitchFleet::deploy(3, config(), &def).unwrap();
    fleet.attach_channel(0xB1A5_ED5E, ChannelConfig::default()).unwrap();
    let t = trace(11, 20_000);
    fleet.process_trace(&t[..10_000]);
    assert!(fleet.enable_standby() > 0);
    fleet.sync_standby();
    fleet.process_trace(&t[10_000..]);

    fleet.fail_switch(1).unwrap();
    fleet.promote_standby(1).unwrap();
    let term = fleet.channel().unwrap().term();
    assert!(term >= 1, "promotion must mint a fencing term");

    let before_regs: Vec<Vec<Vec<u32>>> =
        (0..3).map(|i| all_registers(fleet.switch(i).0)).collect();
    let before_tasks: Vec<usize> = (0..3).map(|i| fleet.switch(i).0.task_count()).collect();
    let rejects_before = fleet.channel().unwrap().stats().stale_rejects;

    // The partitioned old primary wakes up still believing in term-1
    // and replays its queued reconfigurations. Every class of command
    // must bounce off the fence on the first link it reaches.
    fleet.channel_mut().unwrap().force_term(term - 1);
    let stale_ops: Vec<Result<(), FlymonError>> = vec![
        fleet.deploy_task(&bloom_def("late-writer")).map(|_| ()),
        fleet.reallocate_task(0, 4096),
        fleet.split_task(0).map(|_| ()),
        fleet.rotate_epoch_all().map(|_| ()),
    ];
    for (k, op) in stale_ops.iter().enumerate() {
        assert!(
            matches!(op, Err(FlymonError::Fenced { .. })),
            "stale op {k} was not fenced: {op:?}"
        );
    }

    // Zero divergence: nothing the stale primary sent touched a switch.
    for i in 0..3 {
        assert_eq!(
            all_registers(fleet.switch(i).0),
            before_regs[i],
            "switch {i} registers diverged under a fenced command"
        );
        assert_eq!(fleet.switch(i).0.task_count(), before_tasks[i], "switch {i}");
        assert!(fleet.switch(i).0.audit().is_empty(), "switch {i}: {:?}", fleet.switch(i).0.audit());
    }
    let stats = *fleet.channel().unwrap().stats();
    assert_eq!(
        stats.stale_rejects - rejects_before,
        stale_ops.len() as u64,
        "every stale command must be counted, none silently dropped"
    );
    assert!(
        fleet
            .channel()
            .unwrap()
            .event_log()
            .iter()
            .any(|l| l.contains("REJECTED")),
        "stale rejects must be audited in the event log"
    );

    // The real primary (current term) is unaffected by the stale storm.
    fleet.channel_mut().unwrap().force_term(term);
    let idx = fleet.deploy_task(&bloom_def("post-storm")).unwrap();
    fleet.remove_task(idx).unwrap();
    fleet.rotate_epoch_all().unwrap();
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}

/// Runs `op` until it returns something other than a channel timeout,
/// counting the timeouts. Retrying is safe: a timed-out deploy never
/// applied (or was rolled back), a timed-out remove leaves its swept
/// switches cleared and the retry skips them.
fn until_delivered<T>(
    timeouts: &mut u32,
    what: &str,
    mut op: impl FnMut() -> Result<T, FlymonError>,
) -> T {
    loop {
        match op() {
            Ok(v) => return v,
            Err(FlymonError::ChannelTimeout { .. }) => *timeouts += 1,
            Err(e) => panic!("{what} failed {e:?}"),
        }
        assert!(*timeouts < 100, "{what}: the channel never converges");
    }
}

/// One control cycle — deploy an extra task, reallocate the anchor,
/// rotate the fleet epoch, remove the extra task — each a fleet-level
/// operation fanning out one command per switch.
fn control_cycle(fleet: &mut SwitchFleet, cycle: usize, timeouts: &mut u32) {
    let extra = bloom_def("cycle-extra");
    let what = format!("cycle {cycle}");
    let idx = until_delivered(timeouts, &what, || fleet.deploy_task(&extra));
    let buckets = if cycle.is_multiple_of(2) { 4096 } else { 8192 };
    until_delivered(timeouts, &what, || fleet.reallocate_task(0, buckets));
    until_delivered(timeouts, &what, || fleet.rotate_epoch_all());
    until_delivered(timeouts, &what, || fleet.remove_task(idx));
}

/// Every switch ends a run of control cycles holding exactly the
/// anchor task, with a clean audit.
fn assert_only_the_anchor_remains(fleet: &SwitchFleet) {
    for i in 0..fleet.len() {
        let fm = fleet.switch(i).0;
        assert_eq!(fm.task_count(), 1, "switch {i} did not end with exactly the anchor task");
        assert!(fm.audit().is_empty(), "switch {i}: {:?}", fm.audit());
    }
}

/// Lossy soak: at 30% per-leg drop, 20% duplication and 20% reordering,
/// a dozen control cycles across the fleet all complete — the
/// retry/dedup machinery absorbs every fault, the switches end with
/// exactly the anchor task, and the channel counters prove the faults
/// actually fired.
#[test]
fn lossy_channel_soak_completes_every_cycle_with_retries() {
    let def = cms_def(2);
    let mut fleet = SwitchFleet::deploy(2, config(), &def).unwrap();
    let lossy = ChannelConfig {
        drop_rate: 0.3,
        dup_rate: 0.2,
        reorder_rate: 0.2,
        ..ChannelConfig::default()
    };
    fleet.attach_channel(0xA55E_77E1, lossy).unwrap();
    fleet.process_trace(&trace(3, 10_000));

    let mut timeout_retries = 0u32;
    for cycle in 0..12 {
        control_cycle(&mut fleet, cycle, &mut timeout_retries);
    }

    assert_only_the_anchor_remains(&fleet);
    let stats = *fleet.channel().unwrap().stats();
    assert!(stats.retries > 0, "a 30% drop rate must force retries: {stats:?}");
    assert!(stats.request_drops > 0 && stats.reply_drops > 0, "{stats:?}");
    assert!(stats.duplicates > 0, "duplication never fired: {stats:?}");
    assert!(stats.dup_suppressed > 0, "dedup never engaged: {stats:?}");
    assert!(stats.reordered > 0, "reordering never fired: {stats:?}");
    assert_eq!(stats.stale_rejects, 0, "no promotion ran, nothing may be fenced");
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}

/// Loss is paid in modeled latency, never in correctness: the same 200
/// control cycles at 0, 1 % and 10 % per-leg drop (with matching
/// duplication and reordering) cost strictly more virtual time per
/// cycle as the loss grows, 10 % forces retries yet times nothing out,
/// and every switch ends clean. The clock is the channel's seeded
/// model, so the figures repeat exactly.
#[test]
fn modeled_latency_grows_with_the_drop_rate_and_ten_percent_times_nothing_out() {
    let mut mean_cycle_ms = Vec::new();
    for rate in [0.0, 0.01, 0.10] {
        let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(2)).unwrap();
        let cfg = ChannelConfig {
            drop_rate: rate,
            dup_rate: rate,
            reorder_rate: rate,
            ..ChannelConfig::default()
        };
        fleet.attach_channel(0xBE4C_0DE5 ^ (rate * 1e4) as u64, cfg).unwrap();
        let mut timeouts = 0u32;
        for cycle in 0..200 {
            control_cycle(&mut fleet, cycle, &mut timeouts);
        }
        assert_only_the_anchor_remains(&fleet);
        let channel = fleet.channel().unwrap();
        if rate == 0.10 {
            assert!(channel.stats().retries > 0, "a 10% drop rate must force retries");
            assert_eq!(
                (timeouts, channel.stats().timeouts),
                (0, 0),
                "10% drop timed a command out"
            );
        }
        mean_cycle_ms.push(channel.now_ms() / 200.0);
    }
    assert!(
        mean_cycle_ms.windows(2).all(|w| w[0] < w[1]),
        "latency must grow monotonically with the drop rate: {mean_cycle_ms:?}"
    );
}

/// A scripted scenario that makes the channel write every kind of
/// event-log line at least once, followed by a seeded lossy stretch so
/// the dice's draw order is in the text too. Returns the rendered log.
fn every_line_kind_scenario() -> Vec<String> {
    use ScriptStep::*;
    let cfg = ChannelConfig {
        retry: RetryPolicy::with_attempts(3).with_jitter(0.5),
        ..ChannelConfig::default()
    };
    let mut ch = ControlChannel::new(3, 0x60_1D, cfg).unwrap();
    let unit = || Ok(TxnResult::Unit);
    // ok; request lost then ok; reply lost then retransmission suppressed.
    ch.invoke(0, "deploy", unit).unwrap();
    ch.push_script([DropRequest, Deliver]);
    ch.invoke(1, "remove", unit).unwrap();
    ch.push_script([DropReply, Deliver]);
    ch.invoke(2, "reallocate", unit).unwrap();
    // A logical apply error is an outcome like any other.
    ch.push_script([Deliver]);
    ch.invoke(0, "deploy", || {
        Err::<TxnResult, _>(FlymonError::InvalidPolicy("rejected by the switch"))
    })
    .unwrap_err();
    // Duplicate scheduled, then delivered late and suppressed.
    ch.push_script([DuplicateDeliver]);
    ch.invoke(0, "sync", unit).unwrap();
    ch.advance(10.0);
    // A late copy that dies with a partition; the partitioned link then
    // times a command out, and heals.
    ch.push_script([DuplicateDeliver]);
    ch.invoke(1, "reset", unit).unwrap();
    ch.set_partitioned(1, true).unwrap();
    ch.advance(10.0);
    ch.invoke(1, "reset", unit).unwrap_err();
    assert_eq!(ch.heal_all(), 1);
    // Applied, every reply lost: reconciled by the outcome probe.
    ch.push_script([DropReply, DropReply, DropReply]);
    ch.invoke(2, "promote", unit).unwrap();
    // A late copy overtaken by a promotion is fenced; so is a stale
    // primary's next command.
    ch.push_script([DuplicateDeliver]);
    ch.invoke(0, "sync", unit).unwrap();
    let term = ch.mint_term();
    ch.invoke(0, "term-sync", unit).unwrap();
    ch.advance(10.0);
    ch.force_term(term - 1);
    ch.invoke(0, "deploy", unit).unwrap_err();
    ch.force_term(term);
    assert_eq!(ch.broadcast_term(), 3);
    // Seeded dice from here on.
    ch.set_rates(0.3, 0.2, 0.2).unwrap();
    for i in 0..40usize {
        let _ = ch.invoke(i % 3, ["deploy", "reallocate", "remove"][i % 3], unit);
    }
    ch.advance(10.0);
    ch.event_log().to_vec()
}

/// The event log is a contract on its *text*: the rendered lines of the
/// scenario above are checked in, so a change to the line format, the
/// virtual clock or the order of the dice shows up as a diff against
/// the file and not only as run-against-run disagreement.
#[test]
fn event_log_text_matches_the_checked_in_golden() {
    let mut rendered = every_line_kind_scenario().join("\n");
    rendered.push('\n');
    for kind in [
        "request lost (attempt",
        "reply lost (attempt",
        " ok (attempt",
        " apply-error (attempt",
        "retransmission suppressed, cached outcome",
        "duplicate copy scheduled",
        "late duplicate suppressed by dedup window",
        "late copy fenced (term",
        "late copy lost to partition",
        "REJECTED: stale term",
        "reconciled via outcome probe",
        "TIMEOUT after 3 attempts (never applied)",
        "term minted -> 1",
        "sw1 partitioned",
        "sw1 healed",
    ] {
        assert!(rendered.contains(kind), "the scenario never logged {kind:?}");
    }
    let golden = include_str!("golden/channel_events.log");
    assert_eq!(
        rendered, golden,
        "the rendered event log drifted from tests/golden/channel_events.log"
    );
}

/// The four fleet-wide reconfiguration ops, as the refusal table below
/// drives them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FleetOp {
    Deploy,
    Reallocate,
    Split,
    Remove,
}

impl FleetOp {
    fn apply(self, fleet: &mut SwitchFleet) -> Result<(), FlymonError> {
        match self {
            FleetOp::Deploy => fleet.deploy_task(&bloom_def("late")).map(drop),
            FleetOp::Reallocate => fleet.reallocate_task(0, 4096),
            FleetOp::Split => fleet.split_task(0).map(drop),
            FleetOp::Remove => fleet.remove_task(1),
        }
    }
}

/// How one switch is made to refuse its part of a sweep.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    /// Its control link is partitioned: commands time out, never applied.
    Partition(usize),
    /// Its install ops fail: commands arrive and are refused.
    InstallFault(usize),
}

/// Three switches behind a clean channel, carrying traffic, with the
/// extra task `FleetOp::Remove` removes already deployed.
fn reconfig_fleet(op: FleetOp) -> SwitchFleet {
    let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(2)).unwrap();
    fleet.attach_channel(0x5EED_0F0F, ChannelConfig::default()).unwrap();
    if op == FleetOp::Remove {
        assert_eq!(fleet.deploy_task(&bloom_def("doomed")).unwrap(), 1);
    }
    fleet.process_trace(&trace(21, 6_000));
    fleet
}

/// Every binding on every CMU with its task id blanked: a switch's task
/// set and per-row geometry, comparable across switches (and fleets)
/// whose handles differ.
fn layout(fm: &FlyMon) -> Vec<String> {
    let mut rows = Vec::new();
    for (g, group) in fm.groups().iter().enumerate() {
        for (c, cmu) in group.cmus().iter().enumerate() {
            for binding in cmu.bindings() {
                let mut binding = binding.clone();
                binding.task = flymon::task::TaskId(0);
                rows.push(format!("group {g} cmu {c}: {binding:?}"));
            }
        }
    }
    rows.sort();
    rows
}

/// The primary task's count-min estimate computed the slow way: every
/// switch locates the flow's bucket in its *own* layout, the buckets add
/// up (clamped at the register ceiling), rows take the minimum.
fn scalar_merged_frequency(fleet: &SwitchFleet, pkt: &Packet) -> u64 {
    let mut scratch = flymon_rmt::hash::HashScratch::default();
    let (fm0, h0) = fleet.switch(0);
    let rows = &fm0.task(h0.unwrap()).unwrap().rows;
    (0..rows.len())
        .map(|row| {
            let sum: u64 = (0..fleet.len())
                .map(|i| {
                    let (fm, h) = fleet.switch(i);
                    u64::from(fm.row_value_with(h.unwrap(), row, pkt, &mut scratch).unwrap())
                })
                .sum();
            sum.min(u64::from(rows[row].bucket_max))
        })
        .min()
        .unwrap()
}

/// What must hold of a fleet whatever its ops went through: clean
/// audits, a balanced ledger, and merged readouts that mean what a
/// scalar sum over the switches means.
fn assert_fleet_is_sound(fleet: &SwitchFleet, probes: &[Packet], row: &str) {
    for i in 0..fleet.len() {
        let fm = fleet.switch(i).0;
        assert!(fm.audit().is_empty(), "{row}: switch {i}: {:?}", fm.audit());
    }
    assert!(fleet.ledger().balanced(), "{row}: {:?}", fleet.ledger());
    // (After a split the primary task answers for its own prefix only.)
    let primary = fleet.task_infos()[0].filter;
    for p in probes.iter().filter(|p| primary.matches(p)) {
        assert_eq!(
            fleet.merged_frequency(p).unwrap(),
            scalar_merged_frequency(fleet, p),
            "{row}: merged estimate is not the sum of the per-switch buckets"
        );
    }
}

/// Every switch hosts the same task set at the same per-row geometry,
/// and the fleet's task list describes what switch 0 actually holds.
fn assert_fleet_is_uniform(fleet: &SwitchFleet, row: &str) {
    for i in 1..fleet.len() {
        assert_eq!(
            layout(fleet.switch(i).0),
            layout(fleet.switch(0).0),
            "{row}: switch {i} hosts something other than switch 0"
        );
    }
    let (fm, h) = fleet.switch(0);
    let infos = fleet.task_infos();
    assert_eq!(infos.len(), fm.task_count(), "{row}: {infos:?}");
    let primary = fm.task(h.unwrap()).unwrap();
    assert_eq!(infos[0].requested_buckets, primary.def.memory, "{row}");
    let cfg = fm.config();
    let placed = cfg.groups * cfg.cmus_per_group * cfg.buckets_per_cmu - fm.free_buckets();
    assert_eq!(
        infos.iter().map(|t| t.allocated_buckets).sum::<usize>(),
        placed,
        "{row}: the task list's buckets are not the buckets switch 0 placed"
    );
}

/// The failure paths of the one fleet transaction, as a table: each of
/// {deploy, reallocate, split, remove} is refused mid-sweep at each
/// switch index (a partitioned link, and an install fault on the middle
/// switch) and must return `Err` with the fleet as it found it — or, for
/// remove, rolled forward as documented. Healed, the fleet rotates; the
/// op retried, it succeeds and ends bit-identical to a twin fleet that
/// never saw the failure. (Before the sweep unwound reallocations, the
/// reallocate rows left 4096/4096/8192 buckets per row behind and the
/// next rotation panicked in the row merge.)
#[test]
fn a_refused_sweep_leaves_the_fleet_as_it_found_it_and_the_retry_matches_a_twin() {
    let t = trace(22, 12_000);
    let probes = &t[..40];
    let refusals = [
        Refusal::Partition(0),
        Refusal::Partition(1),
        Refusal::Partition(2),
        Refusal::InstallFault(1),
    ];
    for op in [FleetOp::Deploy, FleetOp::Reallocate, FleetOp::Split, FleetOp::Remove] {
        for refusal in refusals {
            let row = format!("{op:?} x {refusal:?}");
            let mut fleet = reconfig_fleet(op);
            let before: Vec<_> = (0..3).map(|i| layout(fleet.switch(i).0)).collect();
            let infos_before = fleet.task_infos();

            match refusal {
                Refusal::Partition(s) => fleet.channel_mut().unwrap().set_partitioned(s, true).unwrap(),
                Refusal::InstallFault(s) => {
                    let plan = FaultPlan::new(9).fail_probability(1.0);
                    assert!(fleet.set_faults(s, Some(plan)).unwrap().is_none(), "{row}");
                }
            }
            let refused = op.apply(&mut fleet).unwrap_err();
            match refusal {
                Refusal::Partition(s) => {
                    assert!(matches!(refused, FlymonError::ChannelTimeout { .. }), "{row}: {refused:?}");
                    assert_eq!(fleet.channel_mut().unwrap().heal_all(), 1, "{row}: link {s}");
                }
                Refusal::InstallFault(s) => {
                    assert!(matches!(refused, FlymonError::Install(_)), "{row}: {refused:?}");
                    assert!(fleet.set_faults(s, None).unwrap().is_some(), "{row}");
                }
            }

            // The task list never moves on an `Err`, and (remove aside)
            // neither has any switch.
            assert_eq!(fleet.task_infos(), infos_before, "{row}");
            if op == FleetOp::Remove {
                // Rolled forward: the switches before the refusing one
                // are cleared, the rest still host the task.
                let (Refusal::Partition(s) | Refusal::InstallFault(s)) = refusal;
                for i in 0..3 {
                    let hosted = fleet.switch(i).0.task_count();
                    assert_eq!(hosted, if i < s { 1 } else { 2 }, "{row}: switch {i}");
                }
            } else {
                for (i, was) in before.iter().enumerate() {
                    assert_eq!(&layout(fleet.switch(i).0), was, "{row}: switch {i} moved");
                }
                assert_fleet_is_uniform(&fleet, &row);
            }
            fleet.process_trace(&t[..4_000]);
            assert_fleet_is_sound(&fleet, probes, &row);
            fleet.rotate_epoch_all().unwrap_or_else(|e| panic!("{row}: rotation refused: {e}"));

            // Retried, the op lands — exactly where it lands on a fleet
            // that was never refused.
            op.apply(&mut fleet).unwrap_or_else(|e| panic!("{row}: retry failed: {e}"));
            let mut twin = reconfig_fleet(op);
            twin.process_trace(&t[..4_000]);
            twin.rotate_epoch_all().unwrap();
            op.apply(&mut twin).unwrap();
            for f in [&mut fleet, &mut twin] {
                f.process_trace(&t[4_000..]);
            }
            assert_fleet_is_uniform(&fleet, &row);
            assert_fleet_is_sound(&fleet, probes, &row);
            assert_eq!(fleet.task_infos(), twin.task_infos(), "{row}");
            for i in 0..3 {
                assert_eq!(layout(fleet.switch(i).0), layout(twin.switch(i).0), "{row}: switch {i}");
                assert_eq!(
                    all_registers(fleet.switch(i).0),
                    all_registers(twin.switch(i).0),
                    "{row}: switch {i} registers differ from the twin's"
                );
            }
            for p in probes {
                assert_eq!(fleet.merged_frequency(p).unwrap(), twin.merged_frequency(p).unwrap(), "{row}");
            }
            fleet.rotate_epoch_all().unwrap();
        }
    }
}

/// A fleet reallocation under seeded probabilistic install faults on
/// one switch: whatever it returns, every switch hosts exactly the task
/// its column names — none lost, none leaked beside it — so the
/// rotation after it goes through.
#[test]
fn a_faulted_fleet_reallocation_leaves_no_column_naming_a_dead_handle() {
    let t = trace(23, 4_000);
    for p in [0.3, 0.5] {
        for seed in 0..40u64 {
            let row = format!("p {p} seed {seed}");
            let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(2)).unwrap();
            fleet.process_trace(&t);
            let s = (seed % 3) as usize;
            fleet.set_faults(s, Some(FaultPlan::new(seed).fail_probability(p))).unwrap();
            let resized = fleet.reallocate_task(0, 4096);
            fleet.set_faults(s, None).unwrap();
            let size = if resized.is_ok() { 4096 } else { 8192 };
            for i in 0..3 {
                let (sw, h) = fleet.switch(i);
                let task = h.and_then(|h| sw.task(h).ok());
                let task = task.unwrap_or_else(|| panic!("{row}: switch {i}'s column is dead"));
                assert_eq!(task.rows[0].size, size, "{row}: switch {i} ({resized:?})");
                assert_eq!(sw.task_count(), 1, "{row}: switch {i} hosts a task beside it");
            }
            fleet.rotate_epoch_all().unwrap_or_else(|e| panic!("{row}: rotation refused: {e}"));
        }
    }
}

/// The unwind crosses the channel it is unwinding for, so it can fail
/// too. A switch that cannot be taken back is left *diverged* — its
/// handle slots `None` — which the fleet must refuse to rotate over,
/// not panic on: here switch 0 is resized, switch 1's command is lost,
/// and so is the command that would have resized switch 0 back.
#[test]
fn an_unwind_that_cannot_reach_a_switch_leaves_it_diverged_not_panicking() {
    use ScriptStep::*;
    let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(2)).unwrap();
    let cfg = ChannelConfig {
        retry: RetryPolicy::with_attempts(2),
        ..ChannelConfig::default()
    };
    fleet.attach_channel(0xD1FE, cfg).unwrap();
    fleet.process_trace(&trace(23, 3_000));
    fleet
        .channel_mut()
        .unwrap()
        .push_script([Deliver, DropRequest, DropRequest, DropRequest, DropRequest]);
    let err = fleet.reallocate_task(0, 4096).unwrap_err();
    assert!(matches!(err, FlymonError::ChannelTimeout { .. }), "{err:?}");

    assert!(fleet.switch(0).1.is_none(), "switch 0 kept a handle it could not take back");
    assert_eq!(fleet.task_infos()[0].requested_buckets, 8192);
    // Readouts skip the diverged switch; nothing panics, rotation says no.
    let probe = trace(23, 3_000)[0];
    fleet.merged_frequency(&probe).unwrap();
    assert!(matches!(fleet.rotate_epoch_all(), Err(FlymonError::BadTask(_))));
    assert!(matches!(fleet.reallocate_task(0, 4096), Err(FlymonError::NoSuchTask)));
    for i in 0..3 {
        assert!(fleet.switch(i).0.audit().is_empty(), "switch {i}");
    }
    // The fleet holds no handle there, so it cannot reset the switch to
    // revive it.
    fleet.fail_switch(0).unwrap();
    assert!(matches!(fleet.revive_switch(0), Err(FlymonError::NoSuchTask)));
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}
