//! Integration tests for the epoch-merge law matrix and the closed-loop
//! adaptive controller.
//!
//! The merge-law matrix pins [`SwitchFleet::rotate_epoch_all`]'s routing
//! through the canonical [`MergeLaw`] table for every algorithm family
//! the fleet hosts — the regression here is the old special-case code
//! that summed everything it did not recognize, silently inflating
//! max-law readouts across epoch boundaries.

use flymon::oracle::PerPacket;
use flymon::prelude::*;
use flymon_netsim::oracle::PerPacketFleet;
use flymon_netsim::{
    AdaptiveController, ControllerConfig, FleetEpoch, IngestConfig, RuntimeHealth,
    StreamingRuntime, SwitchFleet, TaskEpoch,
};
use flymon_packet::{KeySpec, Packet};
use flymon_traffic::gen::{ShiftPhase, ShiftingConfig, ShiftingSource, TraceConfig, TraceGenerator};

fn config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 16384,
        ..FlyMonConfig::default()
    }
}

fn trace(packets: u64) -> Vec<Packet> {
    TraceGenerator::new(71).wide_like(&TraceConfig {
        flows: 2_000,
        packets,
        zipf_alpha: 1.1,
        duration_ns: 1_000_000_000,
        seed: 71,
    })
}

// ---------------------------------------------------------------------
// Merge-law matrix: fleet epoch rotation vs a freshly-fed reference.
// ---------------------------------------------------------------------

/// Rotates a 3-switch fleet and a single switch fed the identical trace,
/// returning `(fleet rows, union-reference rows)`.
fn rotate_pair(def: &TaskDefinition) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let t = trace(40_000);
    let mut fleet = SwitchFleet::deploy(3, config(), def).unwrap();
    fleet.process_trace(&t);
    let fleet_rows = fleet.rotate_epoch_all().unwrap().tasks.remove(0).rows;

    let mut single = FlyMon::new(config());
    let h = single.deploy(def).unwrap();
    single.process_batch(&t);
    let union_rows = single.rotate_epoch(h).unwrap();
    (fleet_rows, union_rows)
}

#[test]
fn rotate_epoch_cms_sum_merge_matches_union() {
    let def = TaskDefinition::builder("m-cms")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 3 })
        .memory(4096)
        .build();
    let (fleet, union) = rotate_pair(&def);
    assert_eq!(fleet, union, "CMS registers are linear: sum-merge is exact");
}

#[test]
fn rotate_epoch_hll_max_merge_matches_union() {
    let def = TaskDefinition::builder("m-hll")
        .key(KeySpec::NONE)
        .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
        .algorithm(Algorithm::Hll)
        .memory(2048)
        .build();
    let (fleet, union) = rotate_pair(&def);
    assert_eq!(fleet, union, "HLL registers merge by per-bucket max");
}

#[test]
fn rotate_epoch_bloom_or_merge_matches_union() {
    let def = TaskDefinition::builder("m-bloom")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(8192)
        .build();
    let (fleet, union) = rotate_pair(&def);
    assert_eq!(fleet, union, "Bloom filters merge by per-bucket OR");
}

#[test]
fn rotate_epoch_sumax_max_merges_by_max_not_sum() {
    // The regression this PR fixes: the old rotate path summed SuMax-Max
    // registers, so a maximum seen by two switches came back doubled.
    let def = TaskDefinition::builder("m-sumax-max")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::Max(MaxParam::QueueLen))
        .algorithm(Algorithm::SuMaxMax { d: 3 })
        .memory(2048)
        .build();
    let (fleet, union) = rotate_pair(&def);
    assert_eq!(
        fleet, union,
        "a per-flow maximum is the max over switches, never the sum"
    );
    // And the readout is meaningfully bounded: no register exceeds the
    // largest queue length any single packet carried.
    let top = trace(40_000).iter().map(|p| p.queue_len).max().unwrap();
    let seen = fleet.iter().flatten().copied().max().unwrap();
    assert!(seen <= top, "merged max {seen} exceeds the true max {top}");
}

#[test]
fn rotate_epoch_sumax_sum_merges_by_clamped_row_sum() {
    // SuMax-Sum's conservative update is non-linear, so the fleet merge
    // is *not* bit-identical to a single switch fed the union — the
    // correct reference is the per-switch rows independently merged by
    // the Sum law (clamped at the register ceiling).
    let def = TaskDefinition::builder("m-sumax-sum")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::SuMaxSum { d: 2 })
        .memory(4096)
        .build();
    let t = trace(40_000);
    let mut fleet = SwitchFleet::deploy(3, config(), &def).unwrap();
    fleet.process_trace(&t);

    // Build the reference by hand before the rotation clears anything.
    let mut reference: Vec<Vec<u32>> = Vec::new();
    for i in 0..3 {
        let (fm, h) = fleet.switch(i);
        let h = h.unwrap();
        let caps: Vec<u32> = fm.task(h).unwrap().rows.iter().map(|r| r.bucket_max).collect();
        for (row, &cap) in caps.iter().enumerate() {
            let vals = fm.read_row(h, row).unwrap();
            if reference.len() <= row {
                reference.push(vals);
            } else {
                for (a, v) in reference[row].iter_mut().zip(vals) {
                    *a = (u64::from(*a) + u64::from(v)).min(u64::from(cap)) as u32;
                }
            }
        }
    }

    let rotated = fleet.rotate_epoch_all().unwrap().tasks.remove(0).rows;
    assert_eq!(rotated, reference, "Sum law: per-bucket clamped sums");
}

#[test]
fn rotate_epoch_clears_registers_for_the_next_epoch() {
    // Rotation must hand back a clean slate: a second epoch fed the same
    // trace rotates to the same readout as the first.
    let def = TaskDefinition::builder("m-refeed")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(4096)
        .build();
    let t = trace(20_000);
    let mut fleet = SwitchFleet::deploy(2, config(), &def).unwrap();
    fleet.process_trace(&t);
    let first = fleet.rotate_epoch_all().unwrap();
    fleet.process_trace(&t);
    let second = fleet.rotate_epoch_all().unwrap();
    assert_eq!(first.tasks[0].rows, second.tasks[0].rows, "identical epochs rotate identically");
    assert_eq!(first.packets, second.packets);
}

// ---------------------------------------------------------------------
// Closed-loop controller.
// ---------------------------------------------------------------------

fn freq_def(name: &str, buckets: usize) -> TaskDefinition {
    TaskDefinition::builder(name)
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(buckets)
        .build()
}

fn policy() -> ControllerConfig {
    ControllerConfig {
        min_buckets: 256,
        max_buckets: 8192,
        cooldown_epochs: 2,
        epoch_budget: 1,
        ..ControllerConfig::default()
    }
}

#[test]
fn controller_grows_under_pressure_with_cooldown_spacing() {
    let mut fleet = SwitchFleet::deploy(2, config(), &freq_def("adapt", 1024)).unwrap();
    let mut ctl = AdaptiveController::new(policy());
    let t = trace(30_000); // ~2000 flows into 1024 buckets: saturating fill
    for _ in 0..8 {
        fleet.process_trace(&t);
        let epoch = fleet.rotate_epoch_all().unwrap();
        ctl.on_epoch(&mut fleet, &epoch, false).unwrap();
    }
    let report = ctl.report();
    assert!(report.grows >= 2, "sustained pressure must grow the task: {report:?}");
    assert_eq!(report.shrinks, 0);
    let grown = fleet.task_infos()[0].requested_buckets;
    assert!(grown > 1024, "requested buckets should have increased, got {grown}");
    // Hysteresis: decisions on the same task are spaced by the cooldown.
    let epochs: Vec<u64> = report.decisions.iter().map(|d| d.epoch).collect();
    for w in epochs.windows(2) {
        assert!(
            w[1] - w[0] > ctl.config().cooldown_epochs,
            "decisions at epochs {epochs:?} violate the cooldown"
        );
    }
    // Every decision carries a usable audit anchor.
    assert!(report.decisions.iter().all(|d| d.wal_seq > 0));
}

#[test]
fn controller_shrinks_idle_tasks_only_after_a_stable_baseline() {
    let mut fleet = SwitchFleet::deploy(2, config(), &freq_def("idle", 8192)).unwrap();
    let mut ctl = AdaptiveController::new(policy());
    // A tiny, fixed flow set: fill stays far under the shrink threshold
    // and the heavy-bucket set is identical every epoch (churn 0).
    let quiet: Vec<Packet> = (0..40u32).map(|i| Packet::tcp(i, 99, 1000, 80)).collect();
    for e in 0..4 {
        for p in &quiet {
            fleet.process(0, p);
        }
        let epoch = fleet.rotate_epoch_all().unwrap();
        let taken = ctl.on_epoch(&mut fleet, &epoch, false).unwrap();
        if e == 0 {
            // First observation has no churn baseline: must hold.
            assert!(taken.is_empty(), "shrink fired without a churn baseline");
        }
    }
    let report = ctl.report();
    assert!(report.shrinks >= 1, "an idle task must eventually shrink: {report:?}");
    assert!(fleet.task_infos()[0].requested_buckets < 8192);
    // Never below the floor.
    assert!(fleet.task_infos()[0].requested_buckets >= 256);
}

#[test]
fn controller_budget_caps_reconfigurations_per_epoch() {
    let mut fleet = SwitchFleet::deploy(2, config(), &freq_def("budget", 1024)).unwrap();
    // Two tasks (split by hand), both under pressure, budget of one.
    fleet.split_task(0).unwrap();
    let mut ctl = AdaptiveController::new(policy());
    let t = trace(30_000);
    fleet.process_trace(&t);
    let epoch = fleet.rotate_epoch_all().unwrap();
    assert_eq!(epoch.tasks.len(), 2);
    let taken = ctl.on_epoch(&mut fleet, &epoch, false).unwrap();
    assert_eq!(taken.len(), 1, "budget 1 allows exactly one action");
    assert!(ctl.report().skipped_budget >= 1, "{:?}", ctl.report());
}

#[test]
fn controller_splits_a_task_saturating_at_the_ceiling() {
    let cfg = ControllerConfig {
        min_buckets: 256,
        max_buckets: 1024, // the deployed size IS the ceiling
        cooldown_epochs: 0,
        ..policy()
    };
    let mut fleet = SwitchFleet::deploy(2, config(), &freq_def("hot", 1024)).unwrap();
    let mut ctl = AdaptiveController::new(cfg);
    let t = trace(30_000);
    fleet.process_trace(&t);
    let epoch = fleet.rotate_epoch_all().unwrap();
    let taken = ctl.on_epoch(&mut fleet, &epoch, false).unwrap();
    assert_eq!(taken.len(), 1);
    assert_eq!(ctl.report().splits, 1, "{:?}", ctl.report());
    let infos = fleet.task_infos();
    assert_eq!(infos.len(), 2);
    assert_eq!(infos[0].name, "hot/0");
    assert_eq!(infos[1].name, "hot/1");
    assert!(!infos[0].filter.intersects(&infos[1].filter));
    // The fleet still answers queries, routed through the children.
    fleet.process_trace(&t);
    for p in t.iter().take(50) {
        fleet.merged_frequency(p).unwrap();
    }
}

#[test]
fn controller_pauses_on_degradation_and_dead_switches() {
    let mut fleet = SwitchFleet::deploy(2, config(), &freq_def("paused", 1024)).unwrap();
    let mut ctl = AdaptiveController::new(policy());
    let t = trace(30_000);

    // Caller-requested pause (the runtime's health machine): no action.
    fleet.process_trace(&t);
    let epoch = fleet.rotate_epoch_all().unwrap();
    assert!(ctl.on_epoch(&mut fleet, &epoch, true).unwrap().is_empty());

    // A dead switch pauses adaptation even when the caller says go.
    fleet.fail_switch(1).unwrap();
    fleet.process_trace(&t);
    let epoch = fleet.rotate_epoch_all().unwrap();
    assert!(ctl.on_epoch(&mut fleet, &epoch, false).unwrap().is_empty());
    assert_eq!(ctl.report().paused_epochs, 2, "{:?}", ctl.report());
    assert_eq!(ctl.report().actions(), 0);

    // Healed fleet: adaptation resumes.
    fleet.revive_switch(1).unwrap();
    fleet.process_trace(&t);
    let epoch = fleet.rotate_epoch_all().unwrap();
    assert_eq!(ctl.on_epoch(&mut fleet, &epoch, false).unwrap().len(), 1);
}

#[test]
fn controller_decisions_replay_through_the_wal_on_promotion() {
    // The audit-trail property: a standby promotion replays the WAL
    // suffix, which includes every reconfiguration the controller
    // issued — so the recovered switch comes back in the *adapted*
    // shape, bit-identical to its peers.
    let mut fleet = SwitchFleet::deploy(2, config(), &freq_def("replay", 1024)).unwrap();
    fleet.enable_standby();
    let mut ctl = AdaptiveController::new(policy());
    let t = trace(30_000);
    fleet.process_trace(&t);
    let epoch = fleet.rotate_epoch_all().unwrap();
    let taken = ctl.on_epoch(&mut fleet, &epoch, false).unwrap();
    assert_eq!(taken.len(), 1, "pressure must reconfigure: {taken:?}");

    // Kill and recover switch 0 from image + WAL suffix.
    fleet.fail_switch(0).unwrap();
    fleet.promote_standby(0).unwrap();
    assert!(fleet.switch(0).0.audit().is_empty(), "recovery must be audit-clean");

    // The recovered switch hosts the grown task with the same geometry
    // as the survivor.
    let geom = |i: usize| {
        let (fm, h) = fleet.switch(i);
        let rec = fm.task(h.unwrap()).unwrap();
        (rec.def.memory, rec.rows.iter().map(|r| r.size).collect::<Vec<_>>())
    };
    assert_eq!(geom(0), geom(1), "promoted switch diverged from its peer");
    assert!(geom(0).0 > 1024, "the grown allocation survived recovery");

    // And it keeps measuring: identical feeds produce identical rows.
    fleet.process_trace(&t);
    let after = fleet.rotate_epoch_all().unwrap();
    assert_eq!(after.tasks.len(), 1);
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}

#[test]
fn streaming_runtime_adapts_under_shifting_load() {
    let fleet = SwitchFleet::deploy(2, config(), &freq_def("stream", 1024)).unwrap();
    let mut rt = StreamingRuntime::new(
        fleet,
        IngestConfig {
            queue_capacity: 16_384,
            drain_chunk: 8_192,
            epoch_packets: 20_000,
            ..IngestConfig::default()
        },
    );
    rt.attach_controller(AdaptiveController::new(policy()));
    let mut source = ShiftingSource::new(ShiftingConfig {
        flows: 3_000,
        base_chunk: 4_096,
        phases: vec![
            ShiftPhase { chunks: 10, rate: 1.0, zipf_alpha: 1.2, attack: None },
            ShiftPhase { chunks: 10, rate: 2.0, zipf_alpha: 1.0, attack: None },
        ],
        ..ShiftingConfig::default()
    });
    let report = rt.run(&mut source).unwrap();
    assert!(report.stats.epochs_rotated >= 3, "{:?}", report.stats);
    assert_eq!(report.health, RuntimeHealth::Healthy);
    assert!(report.ledger.conserved(), "{:?}", report.ledger);
    let ctl = rt.controller_report().unwrap();
    assert_eq!(ctl.epochs_seen, report.stats.epochs_rotated);
    assert!(
        ctl.actions() >= 1,
        "a 1024-bucket task under 3k flows must grow: {ctl:?}"
    );
    // Bounded reconfiguration rate: never more than the budget per epoch,
    // and the audit trail matches the counters.
    assert!(ctl.actions() <= ctl.epochs_seen);
    assert_eq!(ctl.decisions.len() as u64, ctl.actions());
    for i in 0..rt.fleet().len() {
        assert!(rt.fleet().switch(i).0.audit().is_empty(), "switch {i} diverged");
    }
}

/// A grow that times out must not cost the next epoch: the controller
/// abandons the action with one link partitioned (the reallocation had
/// already resized the switches before it), counts the timeout, rests
/// the task — and the fleet it hands back still rotates under the
/// streaming runtime, which then keeps adapting. (Before reallocations
/// unwound, that rotation merged a 2048-bucket row with a 1024-bucket
/// one and panicked.)
#[test]
fn controller_survives_a_grow_that_times_out() {
    let mut fleet = SwitchFleet::deploy(3, config(), &freq_def("flaky", 1024)).unwrap();
    fleet.attach_channel(0x71AE, flymon_netsim::ChannelConfig::default()).unwrap();
    let mut ctl = AdaptiveController::new(policy());
    // A readout with every bucket taken, handed over with no traffic
    // behind it: the runtime below wants a fleet whose ledger is empty.
    let info = fleet.task_infos().remove(0);
    let epoch = FleetEpoch {
        tasks: vec![TaskEpoch {
            name: info.name,
            filter: info.filter,
            algorithm: info.algorithm,
            rows: vec![vec![1; 1024]; 2],
            row_caps: vec![u32::from(u16::MAX); 2],
            occupancy: Vec::new(),
        }],
        packets: 2048,
    };

    fleet.channel_mut().unwrap().set_partitioned(2, true).unwrap();
    let taken = ctl.on_epoch(&mut fleet, &epoch, false).unwrap();
    fleet.channel_mut().unwrap().heal_all();
    assert!(taken.is_empty(), "the timed-out grow is not a decision: {taken:?}");
    assert_eq!(ctl.report().channel_timeouts, 1, "{:?}", ctl.report());
    assert_eq!(fleet.task_infos()[0].requested_buckets, 1024);
    for i in 0..3 {
        let (fm, h) = fleet.switch(i);
        assert_eq!(fm.task(h.unwrap()).unwrap().rows[0].size, 1024, "switch {i} kept the grow");
    }

    let mut rt = StreamingRuntime::new(
        fleet,
        IngestConfig {
            queue_capacity: 16_384,
            drain_chunk: 8_192,
            epoch_packets: 20_000,
            ..IngestConfig::default()
        },
    );
    rt.attach_controller(ctl);
    let mut source = flymon_netsim::TraceChunks::new(trace(120_000), 4_096);
    let report = rt.run(&mut source).unwrap();
    assert!(report.stats.epochs_rotated >= 4, "{:?}", report.stats);
    assert_eq!(report.health, RuntimeHealth::Healthy);
    let ctl = rt.controller_report().unwrap();
    assert_eq!(ctl.channel_timeouts, 1);
    assert!(ctl.grows >= 1, "the rested task must grow once its cooldown ends: {ctl:?}");
    assert!(rt.fleet().task_infos()[0].requested_buckets > 1024);
}
