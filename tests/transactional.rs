//! Transactional reconfiguration under injected faults.
//!
//! These tests drive the control plane's two-phase deploy/remove through
//! a deterministic [`FaultPlan`] and verify — with full data-plane
//! snapshots plus the state auditor — that every failed operation rolls
//! back to the exact pre-call state: no leaked hash-unit references, no
//! orphaned partitions, no stray bindings, no dirty registers.

use flymon::oracle::PerPacket;
use flymon::control::DeployedTask;
use flymon::prelude::*;
use flymon_packet::{KeySpec, Packet, TaskFilter};
use flymon_rmt::rules::RuleKind;

/// A complete, publicly observable image of a switch's data plane:
/// hash masks, installed bindings (task ids), and full register
/// contents, plus the control plane's aggregate accounting. Two equal
/// snapshots + two empty audits ⇒ identical system state.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    task_count: usize,
    free_buckets: usize,
    masks: Vec<Vec<Option<KeySpec>>>,
    bindings: Vec<Vec<Vec<flymon::task::TaskId>>>,
    registers: Vec<Vec<Vec<u32>>>,
}

fn snapshot(fm: &FlyMon) -> Snapshot {
    let total = fm.config().buckets_per_cmu;
    Snapshot {
        task_count: fm.task_count(),
        free_buckets: fm.free_buckets(),
        masks: fm
            .groups()
            .iter()
            .map(|g| g.units().iter().map(|u| u.mask().copied()).collect())
            .collect(),
        bindings: fm
            .groups()
            .iter()
            .map(|g| {
                g.cmus()
                    .iter()
                    .map(|c| c.bindings().iter().map(|b| b.task).collect())
                    .collect()
            })
            .collect(),
        registers: fm
            .groups()
            .iter()
            .map(|g| {
                g.cmus()
                    .iter()
                    .map(|c| c.register().read_range(0, total).unwrap().to_vec())
                    .collect()
            })
            .collect(),
    }
}

fn small() -> FlyMon {
    FlyMon::new(FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 1024,
        ..FlyMonConfig::default()
    })
}

fn cms(name: &str, d: usize, mem: usize) -> TaskDefinition {
    TaskDefinition::builder(name)
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d })
        .memory(mem)
        .build()
}

fn assert_clean(fm: &FlyMon) {
    let divergences = fm.audit();
    assert!(divergences.is_empty(), "audit: {divergences:?}");
}

/// The acceptance sweep: fail the install at EVERY possible op position
/// of a multi-row deploy and verify, position by position, that the
/// rollback restores the exact pre-deploy state — zero divergences,
/// zero leaked refcounts or partitions, registers bit-for-bit equal.
#[test]
fn every_nth_op_failure_rolls_back_to_pristine_state() {
    // A co-tenant makes the pre-state non-trivial (occupied partitions,
    // live counters) so a sloppy rollback has something to corrupt.
    let mut fm = small();
    let mut tenant_def = cms("tenant", 1, 128);
    tenant_def.filter = TaskFilter::src(0x14000000, 8);
    let tenant = fm.deploy(&tenant_def).unwrap();
    for _ in 0..9 {
        fm.process(&Packet::tcp(0x14000001, 2, 3, 4));
    }
    let pre = snapshot(&fm);
    assert_clean(&fm);

    // The deployment under test: 3 rows + a fresh hash mask + a fresh
    // param-free key — at least 1 HashMask + 3 BuddyWrite + 3 TableEntry
    // ops, every one of which gets its turn to fail.
    let def = cms("victim", 3, 64);
    let mut failures = 0u64;
    let handle = loop {
        let n = failures + 1;
        fm.arm_faults(FaultPlan::new(0).fail_nth(n));
        match fm.deploy(&def) {
            Err(FlymonError::Install(e)) => {
                assert_eq!(e.op_index, n, "the Nth op must be the one that failed");
                assert_eq!(snapshot(&fm), pre, "rollback of op #{n} left residue");
                assert_clean(&fm);
                for (g, group) in fm.groups().iter().enumerate() {
                    assert_eq!(
                        group.program(),
                        &group.reference_program(),
                        "rollback of op #{n} left group {g} a stale program"
                    );
                }
                failures += 1;
            }
            Err(other) => panic!("unexpected error at op {n}: {other}"),
            Ok(h) => break h, // n exceeded the op count: deploy landed
        }
    };
    // CMS d=3 on a fresh group: 1 hash-mask + 3 buddy + 3 table ops.
    assert_eq!(failures, 7, "expected to sweep exactly 7 install ops");
    fm.disarm_faults();
    assert_clean(&fm);

    // The eventual success is fully functional, and the tenant's counts
    // survived every one of the failed attempts.
    for _ in 0..5 {
        fm.process(&Packet::tcp(0x0a000001, 2, 3, 4));
    }
    assert_eq!(fm.query_frequency(handle, &Packet::tcp(0x0a000001, 9, 9, 9)), 5);
    assert_eq!(fm.query_frequency(tenant, &Packet::tcp(0x14000001, 9, 9, 9)), 9);
}

/// A deploy installs each group's rows in one call, and a remove sweeps
/// only the groups its rows are on: each moves `program_version` by
/// exactly one on every group in the task's rows and leaves every other
/// group's alone — for a one-group task and for a chain across groups.
#[test]
fn deploy_and_remove_refresh_each_touched_group_once() {
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 5,
        buckets_per_cmu: 1024,
        ..FlyMonConfig::default()
    });
    // A bystander on group 0, the first group every placement tries.
    let bystander = fm.deploy(&cms("bystander", 3, 256)).unwrap();
    let versions = |fm: &FlyMon| -> Vec<u64> {
        fm.groups().iter().map(|g| g.program_version()).collect()
    };
    let chain = TaskDefinition::builder("chain")
        .key(KeySpec::DST_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::SuMaxSum { d: 3 })
        .memory(128)
        .build();
    for def in [cms("rows", 3, 128), chain] {
        let before = versions(&fm);
        let h = fm.deploy(&def).unwrap();
        let mut touched: Vec<usize> = fm.task(h).unwrap().rows.iter().map(|r| r.group).collect();
        touched.dedup();
        assert!(!touched.contains(&fm.task(bystander).unwrap().rows[0].group), "{}", def.name);
        let expect = |before: &[u64]| -> Vec<u64> {
            let bump = |g| u64::from(touched.contains(&g));
            before.iter().enumerate().map(|(g, v)| v + bump(g)).collect()
        };
        assert_eq!(versions(&fm), expect(&before), "deploy of {}", def.name);
        let before = versions(&fm);
        fm.remove(h).unwrap();
        assert_eq!(versions(&fm), expect(&before), "remove of {}", def.name);
        for group in fm.groups() {
            assert_eq!(group.program(), &group.reference_program());
        }
        assert_clean(&fm);
    }
}

/// Regression for the historical partial-failure leak: a key source
/// acquired for `key` stayed refcounted forever when the subsequent
/// `param` acquisition failed. With fault injection the second hash-mask
/// install is made to fail after the first succeeded.
#[test]
fn param_failure_after_key_acquisition_leaks_nothing() {
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 1,
        buckets_per_cmu: 1024,
        ..FlyMonConfig::default()
    });
    let pre = snapshot(&fm);

    // key = SrcIP (fresh mask, HashMask op #1), param = DstIP (fresh
    // mask, HashMask op #2 — the one that fails).
    let def = TaskDefinition::builder("distinct")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::Distinct(KeySpec::DST_IP))
        .algorithm(Algorithm::BeauCoup { d: 1 })
        .memory(256)
        .build();
    fm.arm_faults(FaultPlan::new(0).fail_nth(2));
    let err = fm.deploy(&def).unwrap_err();
    assert!(matches!(err, FlymonError::Install(_)), "{err}");

    // Pre-fix, the SrcIP unit kept a phantom reference and its mask.
    assert_eq!(snapshot(&fm), pre, "key acquisition leaked through the failure");
    assert_clean(&fm);

    // With faults gone the same definition deploys and removes cleanly.
    fm.disarm_faults();
    let h = fm.deploy(&def).unwrap();
    assert_clean(&fm);
    fm.remove(h).unwrap();
    assert_eq!(snapshot(&fm), pre);
    assert_clean(&fm);
}

/// Any set of successful deploys followed by removes — in any order —
/// restores auditor-verified pristine state. Sweeps every removal
/// permutation of three heterogeneous tasks.
#[test]
fn deploys_then_removes_in_any_order_restore_pristine_state() {
    let defs = [
        cms("a", 2, 128),
        {
            let mut d = cms("b", 1, 64);
            d.filter = TaskFilter::src(0x14000000, 8);
            d.key = KeySpec::DST_IP;
            d
        },
        {
            let mut d = cms("c", 1, 256);
            d.filter = TaskFilter::src(0x28000000, 8);
            d
        },
    ];
    let orders: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let mut fm = small();
        let pre = snapshot(&fm);
        let handles: Vec<TaskHandle> = defs.iter().map(|d| {
            let h = fm.deploy(d).unwrap();
            assert_clean(&fm);
            h
        }).collect();
        // Traffic dirties the registers; removal must scrub them.
        for i in 0..20u32 {
            fm.process(&Packet::tcp((10 << 24) | i, 1, 2, 3));
            fm.process(&Packet::tcp((20 << 24) | i, 1, 2, 3));
        }
        for &i in &order {
            fm.remove(handles[i]).unwrap();
            assert_clean(&fm);
        }
        assert_eq!(snapshot(&fm), pre, "removal order {order:?} left residue");
    }
}

/// A faulted removal restores the cleared partitions bit-for-bit and
/// leaves the task deployed and queryable.
#[test]
fn failed_remove_restores_registers_and_keeps_task() {
    let mut fm = small();
    let h = fm.deploy(&cms("t", 2, 128)).unwrap();
    for _ in 0..6 {
        fm.process(&Packet::tcp(0x0a000001, 2, 3, 4));
    }
    let pre = snapshot(&fm);

    // The second register-write op fails: row 0 is already cleared and
    // must be restored from its snapshot.
    fm.arm_faults(FaultPlan::new(0).fail_nth(2));
    assert!(matches!(fm.remove(h), Err(FlymonError::Install(_))));
    assert_eq!(snapshot(&fm), pre, "failed remove corrupted registers");
    assert_clean(&fm);
    assert_eq!(fm.query_frequency(h, &Packet::tcp(0x0a000001, 9, 9, 9)), 6);

    // Disarmed, the removal completes and scrubs everything.
    fm.disarm_faults();
    fm.remove(h).unwrap();
    assert_eq!(fm.task_count(), 0);
    assert_clean(&fm);
}

/// Remove and reset copy a partition aside only while a fault plan is
/// armed. Armed, a refusal at any op of the transaction — the second
/// row's register write (row 0 already cleared), the last row's, or,
/// for remove, a rule deletion after every row was cleared — must put
/// every bucket back exactly; unarmed, nothing can refuse and the same
/// calls simply complete.
#[test]
fn refused_remove_and_reset_restore_every_row_bit_for_bit() {
    type Op = fn(&mut FlyMon, TaskHandle) -> Result<(), FlymonError>;
    let ops: [(&str, Op, std::ops::RangeInclusive<u64>); 2] = [
        // Three register writes, then three rule deletions.
        ("remove", |fm, h| fm.remove(h), 2..=6),
        ("reset", |fm, h| fm.reset_task(h), 2..=3),
    ];
    for (name, op, refusals) in ops {
        let mut fm = small();
        let bystander = fm.deploy(&cms("bystander", 1, 128)).unwrap();
        let h = fm.deploy(&cms("t", 3, 256)).unwrap();
        for i in 0..4_000u32 {
            fm.process(&Packet::tcp(0x0a00_0000 | ((i * 7919) % 1_000), i, 3, 4));
        }
        let pre = snapshot(&fm);
        assert!(
            (0..3).all(|row| fm.read_row(h, row).unwrap().iter().any(|&v| v > 1)),
            "every row must hold counts worth restoring"
        );

        for nth in refusals {
            fm.arm_faults(FaultPlan::new(0).fail_nth(nth));
            let refused = op(&mut fm, h);
            assert!(matches!(refused, Err(FlymonError::Install(_))), "{name} op {nth}: {refused:?}");
            fm.disarm_faults();
            assert_eq!(snapshot(&fm), pre, "{name} refused at op {nth} left registers changed");
            assert_clean(&fm);
        }

        // Unarmed: no snapshot is taken and none is needed.
        op(&mut fm, h).unwrap();
        if name == "reset" {
            for row in 0..3 {
                assert!(fm.read_row(h, row).unwrap().iter().all(|&v| v == 0), "row {row}");
            }
            assert_eq!(fm.task_count(), 2);
        } else {
            assert_eq!(fm.task_count(), 1);
        }
        assert_eq!(
            fm.read_row(bystander, 0).unwrap(),
            {
                let r = fm.task(bystander).unwrap().rows[0].clone();
                pre.registers[r.group][r.cmu][r.offset..r.offset + r.size].to_vec()
            },
            "{name} touched a bystander's partition"
        );
        assert_clean(&fm);
    }
}

/// A reallocation deploys the new instance, then removes the old one,
/// and a fault at *any* op of either refuses it whole: the old task
/// keeps its handle, its rows and its counts, nothing else moves, and
/// the id the move finally gets is the one a twin that never failed
/// hands out.
#[test]
fn every_nth_op_failure_of_a_reallocation_leaves_the_old_task_untouched() {
    // Three groups: the bystander's, the task's, and a free one the new
    // instance fits in beside the old.
    let roomy = || {
        FlyMon::new(FlyMonConfig {
            groups: 3,
            buckets_per_cmu: 1024,
            ..FlyMonConfig::default()
        })
    };
    let (mut fm, mut twin) = (roomy(), roomy());
    let mut handles = Vec::new();
    for sw in [&mut fm, &mut twin] {
        sw.deploy(&cms("bystander", 1, 128)).unwrap();
        handles.push(sw.deploy(&cms("t", 3, 256)).unwrap());
        for i in 0..4_000u32 {
            sw.process(&Packet::tcp(0x0a00_0000 | ((i * 7919) % 1_000), i, 3, 4));
        }
    }
    let h = handles[0];
    assert_eq!(handles[1], h);
    let pre = snapshot(&fm);
    let rows: Vec<Vec<u32>> = (0..3).map(|r| fm.read_row(h, r).unwrap()).collect();

    let mut failures = 0u64;
    let moved = loop {
        let n = failures + 1;
        fm.arm_faults(FaultPlan::new(0).fail_nth(n));
        match fm.reallocate_memory(h, 512) {
            Err(FlymonError::Install(e)) => {
                assert_eq!(e.op_index, n, "the Nth op must be the one that failed");
                assert_eq!(snapshot(&fm), pre, "a reallocation refused at op #{n} left residue");
                let kept: Vec<Vec<u32>> = (0..3).map(|r| fm.read_row(h, r).unwrap()).collect();
                assert_eq!(kept, rows, "op #{n}: the old task lost its counts");
                assert_clean(&fm);
                for (g, group) in fm.groups().iter().enumerate() {
                    assert_eq!(
                        group.program(),
                        &group.reference_program(),
                        "op #{n} left group {g} a stale program"
                    );
                }
                failures += 1;
            }
            Err(other) => panic!("unexpected error at op {n}: {other}"),
            Ok(moved) => break moved,
        }
    };
    // The deploy on a fresh group: 1 hash mask + 3 buddy writes + 3
    // table entries; the removal: 3 register clears + 3 rule deletions.
    assert_eq!(failures, 13, "expected to sweep exactly 13 ops");
    fm.disarm_faults();
    assert_eq!(moved, twin.reallocate_memory(h, 512).unwrap(), "a refusal spent a task id");
    assert_eq!(snapshot(&fm), snapshot(&twin));
    assert_clean(&fm);
}

/// The same under seeded probabilistic plans, with room to spare: a
/// reallocation either moves the task or leaves the switch exactly as
/// it was — it never loses the task, leaks an instance, or reverts.
#[test]
fn probabilistic_faults_never_lose_or_leak_a_reallocated_task() {
    for p in [0.3, 0.5] {
        for seed in 0..200 {
            let mut fm = small();
            let h = fm.deploy(&cms("t", 3, 256)).unwrap();
            for i in 0..500u32 {
                fm.process(&Packet::tcp(0x0a00_0000 | (i % 97), i, 3, 4));
            }
            let pre = snapshot(&fm);
            fm.arm_faults(FaultPlan::new(seed).fail_probability(p));
            let moved = fm.reallocate_memory(h, 512);
            fm.disarm_faults();
            match moved {
                Ok(new) => {
                    assert_eq!(fm.task_count(), 1, "p {p} seed {seed}");
                    assert!(fm.task(h).is_err(), "p {p} seed {seed}: the old task stayed");
                    assert_eq!(fm.task(new).unwrap().rows[0].size, 512);
                }
                Err(e) => {
                    assert!(matches!(e, FlymonError::Install(_)), "p {p} seed {seed}: {e}");
                    assert_eq!(snapshot(&fm), pre, "p {p} seed {seed}: a refusal left residue");
                    assert!(fm.task(h).is_ok());
                }
            }
            assert_clean(&fm);
        }
    }
}

/// Transient faults are absorbed by retry-with-backoff: the deploy
/// succeeds, and the modeled backoff shows up in the install latency.
#[test]
fn transient_faults_are_retried_with_modeled_backoff() {
    let mut fm = small();
    fm.set_retry_policy(RetryPolicy {
        max_attempts: 3,
        backoff_ms: 1.0,
        multiplier: 2.0,
        ..RetryPolicy::default()
    })
    .unwrap();
    // Every op fails its first attempt, succeeds on the second (one
    // 1 ms backoff per op).
    fm.arm_faults(FaultPlan::new(0).transient(1));
    let h = fm.deploy(&cms("t", 3, 64)).unwrap();
    assert_clean(&fm);
    let install = fm.task(h).unwrap().install;
    assert_eq!(install.retried_ops, 7, "all 7 ops needed a retry");
    assert!((install.retry_backoff_ms - 7.0).abs() < 1e-9);
    // Backoff is part of the modeled deployment latency.
    let base = install.latency_ms() - install.retry_backoff_ms;
    assert!(base > 0.0);
    assert!((fm.total_install_ms() - install.latency_ms()).abs() < 1e-9);

    // With retries exhausted by a deeper transient, the deploy fails
    // and rolls back.
    let pre = snapshot(&fm);
    fm.arm_faults(FaultPlan::new(0).transient(3));
    let err = fm.deploy(&cms("u", 1, 64)).unwrap_err();
    match err {
        FlymonError::Install(e) => assert_eq!(e.attempts, 3),
        other => panic!("expected install error, got {other}"),
    }
    assert_eq!(snapshot(&fm), pre);
    assert_clean(&fm);
}

/// A dead CMU group refuses every install touching it; the deployment
/// rolls back and the system stays clean. Reviving the group heals it.
#[test]
fn dead_group_fails_deploys_until_revived() {
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 1,
        buckets_per_cmu: 1024,
        ..FlyMonConfig::default()
    });
    let pre = snapshot(&fm);
    fm.arm_faults(FaultPlan::new(0).kill_group(0));
    let err = fm.deploy(&cms("t", 2, 128)).unwrap_err();
    assert!(matches!(err, FlymonError::Install(_)), "{err}");
    assert_eq!(snapshot(&fm), pre);
    assert_clean(&fm);

    fm.fault_plan_mut().unwrap().revive_group(0);
    let h = fm.deploy(&cms("t", 2, 128)).unwrap();
    assert_clean(&fm);
    fm.remove(h).unwrap();
    assert_eq!(snapshot(&fm), pre);
}

/// Failing every rule of one kind hits exactly the expected op class:
/// hash-mask faults block only deployments that need a fresh mask.
#[test]
fn hash_mask_faults_spare_mask_reusing_deployments() {
    let mut fm = small();
    // First deployment installs the SrcIP mask fault-free.
    let mut first = cms("first", 1, 64);
    first.filter = TaskFilter::src(0x0a000000, 8);
    fm.deploy(&first).unwrap();

    fm.arm_faults(FaultPlan::new(0).fail_kind(InstallOpKind::Rule(RuleKind::HashMask)));
    // Reusing the standing mask: no HashMask op, so it sails through.
    let mut reuse = cms("reuse", 1, 64);
    reuse.filter = TaskFilter::src(0x14000000, 8);
    fm.deploy(&reuse).unwrap();
    assert_clean(&fm);

    // Needing a fresh DstIP mask: blocked by the armed fault.
    let pre = snapshot(&fm);
    let mut fresh = cms("fresh", 1, 64);
    fresh.key = KeySpec::DST_IP;
    fresh.filter = TaskFilter::src(0x28000000, 8);
    let err = fm.deploy(&fresh).unwrap_err();
    assert!(matches!(err, FlymonError::Install(_)), "{err}");
    assert_eq!(snapshot(&fm), pre);
    assert_clean(&fm);
}

/// `DeployedTask::memory_bytes` on a rows-less record returns zero
/// instead of panicking (regression for the unchecked `rows[0]`).
#[test]
fn memory_bytes_handles_empty_rows() {
    let mut fm = small();
    let h = fm.deploy(&cms("t", 2, 128)).unwrap();
    let t = fm.task(h).unwrap();
    assert_eq!(t.memory_bytes(16), 2 * 128 * 16 / 8);
    let empty = DeployedTask {
        def: t.def.clone(),
        algorithm: t.algorithm,
        rows: Vec::new(),
        bindings: Vec::new(),
        install: t.install,
        unit_refs: Vec::new(),
    };
    assert_eq!(empty.memory_bytes(16), 0);
}

/// The fault plan's op counter persists across calls while armed, so a
/// later call's ops keep advancing toward the Nth-op trigger.
#[test]
fn op_counter_spans_operations_while_armed() {
    let mut fm = small();
    // 7 ops for the first deploy; op #9 is the second deploy's 2nd op.
    fm.arm_faults(FaultPlan::new(0).fail_nth(9));
    fm.deploy(&cms("a", 3, 64)).unwrap();
    let pre = snapshot(&fm);
    let mut b = cms("b", 3, 64);
    b.filter = TaskFilter::src(0x14000000, 8);
    let err = fm.deploy(&b).unwrap_err();
    match err {
        FlymonError::Install(e) => assert_eq!(e.op_index, 9),
        other => panic!("expected install error, got {other}"),
    }
    assert_eq!(snapshot(&fm), pre);
    assert_clean(&fm);
    let plan = fm.disarm_faults().unwrap();
    assert!(plan.ops_seen() >= 9);
}

/// Same seed ⇒ identical probabilistic fault schedule: the exact same
/// sequence of deploy/remove outcomes (including which op index failed)
/// and the same op count, across fresh reruns.
#[test]
fn probabilistic_fault_schedule_is_identical_across_reruns() {
    let run = |seed: u64| -> (Vec<Result<(), u64>>, u64) {
        let mut fm = small();
        fm.set_retry_policy(RetryPolicy::with_attempts(2)).unwrap();
        fm.arm_faults(FaultPlan::new(seed).fail_probability(0.2));
        let mut outcomes = Vec::new();
        for k in 0..6u32 {
            let mut def = cms(&format!("t{k}"), 1, 64);
            def.filter = TaskFilter::src(0x0a000000 + (k << 8), 24);
            match fm.deploy(&def) {
                Ok(h) => {
                    outcomes.push(Ok(()));
                    match fm.remove(h) {
                        Ok(()) => outcomes.push(Ok(())),
                        Err(FlymonError::Install(e)) => outcomes.push(Err(e.op_index)),
                        Err(other) => panic!("unexpected: {other}"),
                    }
                }
                Err(FlymonError::Install(e)) => outcomes.push(Err(e.op_index)),
                Err(other) => panic!("unexpected: {other}"),
            }
            assert_clean(&fm);
        }
        (outcomes, fm.disarm_faults().unwrap().ops_seen())
    };
    assert_eq!(run(21), run(21), "same seed must replay identically");
    assert_ne!(run(21).0, run(22).0, "different seeds should diverge");
}

/// Transient faults are deterministic too: the retry policy absorbs
/// exactly the same number of attempts on every rerun, so the modeled
/// install latency (which folds in backoff) reproduces to the bit.
#[test]
fn transient_fault_schedule_is_deterministic_and_absorbed_by_retries() {
    let run = |attempts: u32| -> (bool, f64, u64) {
        let mut fm = small();
        fm.set_retry_policy(RetryPolicy::with_attempts(attempts))
            .unwrap();
        fm.arm_faults(FaultPlan::new(5).transient(1));
        let ok = fm.deploy(&cms("t", 2, 128)).is_ok();
        assert_clean(&fm);
        (ok, fm.total_install_ms(), fm.disarm_faults().unwrap().ops_seen())
    };
    // One attempt: the first op's transient fault is fatal (rolled back).
    let (ok, _, _) = run(1);
    assert!(!ok, "transient(1) must kill a no-retry deploy");
    // Two attempts: every op fails once, retries once, succeeds.
    let (ok, ms_a, ops_a) = run(2);
    assert!(ok, "one retry must absorb transient(1)");
    let (ok_b, ms_b, ops_b) = run(2);
    assert!(ok_b);
    assert_eq!(ops_a, ops_b, "op streams must match across reruns");
    assert!((ms_a - ms_b).abs() < 1e-12, "modeled latency must reproduce");
    assert!(ms_a > 0.0, "retries must have cost modeled backoff");
}

/// Degenerate retry policies are rejected at the API boundary instead
/// of surfacing later as a zero-attempt "retry" that can never run or a
/// NaN backoff that poisons the modeled latency.
#[test]
fn degenerate_retry_policies_are_rejected_at_the_boundary() {
    let mut fm = small();
    fm.set_retry_policy(RetryPolicy::with_attempts(2)).unwrap();
    assert!(matches!(
        fm.set_retry_policy(RetryPolicy {
            max_attempts: 0,
            backoff_ms: 1.0,
            multiplier: 2.0,
            ..RetryPolicy::default()
        }),
        Err(FlymonError::InvalidPolicy(_))
    ));
    assert!(matches!(
        fm.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            backoff_ms: f64::NAN,
            multiplier: 2.0,
            ..RetryPolicy::default()
        }),
        Err(FlymonError::InvalidPolicy(_))
    ));
    // The rejected policies left the previously installed policy in
    // place: a transient fault is still absorbed by its one retry.
    fm.arm_faults(FaultPlan::new(5).transient(1));
    assert!(fm.deploy(&cms("t", 2, 128)).is_ok());
    assert_clean(&fm);
}
