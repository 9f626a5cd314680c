//! Chaos soak: ≥ 20 seeded fault schedules with zero violations, plus
//! determinism of the schedules themselves and of fault plans across
//! call sites.

use flymon::prelude::*;
use flymon_netsim::chaos::{run_schedule, run_soak, soak_channel_config, ChaosConfig};
use flymon_netsim::SwitchFleet;
use flymon_packet::KeySpec;

fn soak_config() -> ChaosConfig {
    ChaosConfig {
        switches: 4,
        events: 25,
        slice_packets: 1_000,
        ..ChaosConfig::default()
    }
}

#[test]
fn twenty_seeded_schedules_run_clean() {
    let reports = run_soak(1..=20u64, &soak_config());
    assert_eq!(reports.len(), 20);
    for r in &reports {
        assert!(
            r.is_clean(),
            "seed {} violated invariants: {:#?}",
            r.seed,
            r.violations
        );
        assert_eq!(r.events, 25, "seed {} ended early", r.seed);
    }
    // The soak must actually exercise the machinery it claims to test.
    let kills: usize = reports.iter().map(|r| r.kills).sum();
    let promotes: usize = reports.iter().map(|r| r.promotes).sum();
    let revives: usize = reports.iter().map(|r| r.revives).sum();
    let reconfigs: usize = reports.iter().map(|r| r.reconfigs).sum();
    let packets: u64 = reports.iter().map(|r| r.packets).sum();
    assert!(kills >= 20, "only {kills} kills across 20 seeds");
    assert!(promotes > 0, "no promotion ever ran");
    assert!(revives > 0, "no revival ever ran");
    assert!(reconfigs > 0, "no reconfiguration ever ran");
    assert!(packets > 100_000, "only {packets} packets fed");
}

#[test]
fn chaos_schedules_are_seed_deterministic() {
    let cfg = ChaosConfig {
        switches: 3,
        events: 18,
        slice_packets: 600,
        ..ChaosConfig::default()
    };
    for seed in [3u64, 0xDEAD, 91] {
        assert_eq!(
            run_schedule(seed, &cfg),
            run_schedule(seed, &cfg),
            "seed {seed} replayed differently"
        );
    }
    assert_ne!(
        run_schedule(3, &cfg).packets,
        0,
        "schedules must do real work"
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
    let config = FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 16384,
        ..FlyMonConfig::default()
    };
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
        let ops: Vec<u64> = (0..2)
            .map(|i| fleet.set_faults(i, None).unwrap().unwrap().ops_seen())
            .collect();
        let expected = [direct_plan.ops_seen(), if direct_ok { direct_plan.ops_seen() } else { 0 }];
        assert_eq!(ops, expected, "seed {seed}: op streams diverged between call sites");
    }
}

fn channel_soak_config() -> ChaosConfig {
    ChaosConfig {
        switches: 3,
        events: 25,
        slice_packets: 800,
        channel: Some(soak_channel_config()),
        ..ChaosConfig::default()
    }
}

#[test]
fn twenty_lossy_channel_schedules_run_clean() {
    // Every control-plane operation in these schedules crosses a
    // channel that drops, duplicates and reorders 10% of its legs, on
    // top of scheduled partitions, flaps, dup-storms and split-brain
    // probes — and every invariant must still hold on every seed.
    let reports = run_soak(101..=120u64, &channel_soak_config());
    assert_eq!(reports.len(), 20);
    for r in &reports {
        assert!(
            r.is_clean(),
            "seed {} violated invariants: {:#?}",
            r.seed,
            r.violations
        );
        assert_eq!(r.events, 25, "seed {} ended early", r.seed);
    }
    // The soak must actually exercise the lossy-channel machinery.
    let stale: u64 = reports.iter().map(|r| r.stale_rejects).sum();
    assert!(stale > 0, "no split-brain probe was ever fenced");
    let failed: usize = reports.iter().map(|r| r.failed_ops).sum();
    assert!(
        failed > 0,
        "partitions must cost timed-out operations somewhere in 20 seeds"
    );
    assert!(
        reports
            .iter()
            .any(|r| r.channel_events.iter().any(|l| l.contains("partitioned"))),
        "no schedule ever partitioned a link"
    );
    assert!(
        reports
            .iter()
            .any(|r| r.channel_events.iter().any(|l| l.contains("suppressed"))),
        "dedup never engaged across 20 lossy seeds"
    );
}

/// `chaos_soak --smoke --partition --seed 7 --event-log` is checked in:
/// the same schedule rendered here must equal it byte for byte, so the
/// determinism CI diffs run against run is also pinned to the text.
#[test]
fn partition_soak_seed_7_event_log_matches_the_checked_in_golden() {
    let cfg = ChaosConfig {
        channel: Some(soak_channel_config()),
        ..soak_config()
    };
    let report = run_schedule(7, &cfg);
    assert!(report.is_clean(), "{:#?}", report.violations);
    let rendered: String = report
        .channel_events
        .iter()
        .map(|line| format!("seed=7 {line}\n"))
        .collect();
    assert_eq!(
        rendered,
        include_str!("golden/chaos_soak_partition_seed7.log"),
        "the soak's event log drifted from tests/golden/chaos_soak_partition_seed7.log"
    );
}

#[test]
fn lossy_channel_schedules_are_seed_deterministic_with_event_logs() {
    // The channel's virtual clock and seeded dice make the whole
    // fault schedule replayable: same seed, byte-identical report —
    // including the channel event log CI diffs as a determinism guard.
    let cfg = channel_soak_config();
    for seed in [7u64, 0xAB, 55] {
        let a = run_schedule(seed, &cfg);
        let b = run_schedule(seed, &cfg);
        assert_eq!(a, b, "seed {seed} replayed differently over a lossy channel");
        assert!(
            !a.channel_events.is_empty(),
            "seed {seed} produced no channel event log"
        );
    }
}
