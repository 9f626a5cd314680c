//! Checkpoint/WAL recovery and warm-standby failover, end to end.
//!
//! The acceptance bar: kill → promote → recover must hand back a switch
//! whose registers are *bit-identical* to an unfailed replica at the
//! checkpoint epoch, whose audit is clean, and whose merged estimates
//! stay within the documented loss-window bound.

use flymon::oracle::PerPacket;
use flymon::prelude::*;
use flymon::wal::WalIntent;
use flymon_netsim::SwitchFleet;
use flymon_packet::{KeySpec, Packet};
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

#[test]
fn promoted_standby_is_bit_identical_to_unfailed_replica_at_checkpoint_epoch() {
    let def = cms_def(2);
    let t1 = trace(0xA11CE, 30_000);
    let t2 = trace(0xB0B, 10_000);

    // A single-switch fleet and an unfailed replica see the same t1, in
    // the same order (one switch means no sharding ambiguity).
    let mut fleet = SwitchFleet::deploy(1, config(), &def).unwrap();
    let mut replica = FlyMon::new(config());
    let rh = replica.deploy(&def).unwrap();
    fleet.process_trace(&t1);
    replica.process_batch(&t1);

    // Checkpoint epoch: the standby ingests a full image here.
    fleet.enable_standby();

    // The loss window: t2 reaches only the doomed switch.
    fleet.process_trace(&t2);
    fleet.fail_switch(0).unwrap();
    let loss = fleet.promote_standby(0).unwrap();
    assert_eq!(loss, t2.len() as u64, "the whole post-barrier slice is the loss window");

    // The promoted instance is the replica at the checkpoint epoch,
    // register file for register file.
    let (promoted, handle) = fleet.switch(0);
    assert_eq!(
        all_registers(promoted),
        all_registers(&replica),
        "promoted registers diverge from the unfailed replica"
    );
    assert!(promoted.audit().is_empty(), "{:?}", promoted.audit());
    assert_eq!(handle.unwrap(), rh, "recovery must preserve the task handle");

    // Estimates: bit-identical registers mean identical queries at the
    // checkpoint epoch, and the loss window bounds what t2 took away.
    let mut seen = std::collections::HashSet::new();
    for p in t1.iter().step_by(509) {
        if !seen.insert(KeySpec::SRC_IP.extract(p)) {
            continue;
        }
        assert_eq!(
            fleet.merged_frequency(p).unwrap(),
            replica.query_frequency(rh, p)
        );
    }
    let heavy = &t1[0];
    let true_count = t1
        .iter()
        .chain(&t2)
        .filter(|p| KeySpec::SRC_IP.extract(p) == KeySpec::SRC_IP.extract(heavy))
        .count() as u64;
    let bounded = fleet.merged_frequency_bounded(heavy).unwrap();
    assert!(
        bounded.estimate + bounded.loss_bound >= true_count,
        "bound {bounded:?} fails to cover true count {true_count}"
    );
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}

#[test]
fn recovery_replays_control_plane_operations_after_the_checkpoint() {
    let def = cms_def(2);
    let mut fleet = SwitchFleet::deploy(2, config(), &def).unwrap();
    fleet.enable_standby();

    // Post-checkpoint control-plane history: an extra task deployed
    // (and kept). Recovery must replay it from the WAL.
    let extra = TaskDefinition::builder("post-chk-bloom")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(1024)
        .build();
    fleet.deploy_task(&extra).unwrap();
    let marked = Packet::tcp(1, 2, 3, 4);
    fleet.process(0, &marked);
    // Deployments are deterministic: a lone switch deploying the same
    // two tasks mints switch 0's handle for the extra one.
    let mut twin = FlyMon::new(config());
    twin.deploy(&def).unwrap();
    let eh = twin.deploy(&extra).unwrap();
    assert!(fleet.switch(0).0.query_exists(eh, &marked));

    fleet.fail_switch(0).unwrap();
    fleet.promote_standby(0).unwrap();

    let (promoted, _) = fleet.switch(0);
    assert_eq!(promoted.task_count(), 2, "replayed deploy is missing");
    assert!(promoted.audit().is_empty(), "{:?}", promoted.audit());
    // Same handle resolves on the recovered switch; its *registers* are
    // from the checkpoint epoch (the insert was in the loss window).
    assert!(promoted.task(eh).is_ok());
    assert!(!promoted.query_exists(eh, &marked), "loss-window insert must not survive");
    assert_eq!(fleet.lost_packets(), 1);
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}

#[test]
fn multi_switch_failover_round_trip_stays_within_loss_bound() {
    let def = cms_def(3);
    let t = trace(0xF1EE7, 60_000);
    let mut fleet = SwitchFleet::deploy(4, config(), &def).unwrap();
    fleet.enable_standby();

    fleet.process_trace(&t[..30_000]);
    fleet.sync_standby();
    fleet.process_trace(&t[30_000..]);

    fleet.fail_switch(1).unwrap();
    fleet.promote_standby(1).unwrap();
    fleet.fail_switch(3).unwrap();
    fleet.revive_switch(3).unwrap();

    assert_eq!(fleet.alive_count(), 4);
    for i in 0..4 {
        assert!(fleet.switch(i).0.audit().is_empty(), "switch {i}");
    }
    let ledger = fleet.ledger();
    assert!(ledger.balanced(), "{ledger:?}");
    assert_eq!(ledger.fed, t.len() as u64);
    assert!(ledger.lost > 0, "failover must have cost something");

    // Spot-check heavy flows against ground truth: the documented bound
    // `true <= estimate + loss_bound` holds for every flow.
    let mut counts = std::collections::HashMap::new();
    for p in &t {
        *counts.entry(KeySpec::SRC_IP.extract(p)).or_insert(0u64) += 1;
    }
    let mut seen = std::collections::HashSet::new();
    for p in t.iter().step_by(251) {
        let key = KeySpec::SRC_IP.extract(p);
        if !seen.insert(key) {
            continue;
        }
        let b = fleet.merged_frequency_bounded(p).unwrap();
        assert!(
            b.estimate + b.loss_bound >= counts[&key],
            "flow {key:?}: {b:?} fails to cover {}",
            counts[&key]
        );
    }
}

/// Edge case: a switch with zero tasks checkpoints and restores to a
/// bit-identical (and recoverable) pristine state — the degenerate
/// image must not confuse the capture or replay paths.
#[test]
fn zero_task_switch_checkpoints_and_recovers() {
    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    let chk = fm.checkpoint(CaptureMode::Full);

    let restored = FlyMon::restore(&chk).unwrap();
    assert_eq!(restored.task_count(), 0);
    assert!(restored.audit().is_empty(), "{:?}", restored.audit());
    assert_eq!(all_registers(&restored), all_registers(&fm));

    let recovered = FlyMon::recover(fm.wal().unwrap(), &chk).unwrap();
    assert_eq!(recovered.task_count(), 0);
    assert!(recovered.audit().is_empty());
    // The recovered empty switch is fully functional.
    let mut recovered = recovered;
    let h = recovered.deploy(&cms_def(1)).unwrap();
    recovered.process(&Packet::tcp(1, 2, 3, 4));
    assert_eq!(recovered.query_frequency(h, &Packet::tcp(1, 9, 9, 9)), 1);
}

/// Edge case: a deployed task whose registers are entirely empty (no
/// traffic yet) round-trips through checkpoint/restore — all-zero rows
/// must survive capture, not be confused with "nothing to capture".
#[test]
fn empty_register_rows_round_trip_through_checkpoint() {
    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    let h = fm.deploy(&cms_def(2)).unwrap();

    let chk = fm.checkpoint(CaptureMode::Full);
    let restored = FlyMon::restore(&chk).unwrap();
    assert_eq!(restored.task_count(), 1);
    assert!(restored.audit().is_empty(), "{:?}", restored.audit());
    assert_eq!(all_registers(&restored), all_registers(&fm));
    // The restored task answers (with zeros) under the original handle.
    assert_eq!(restored.query_frequency(h, &Packet::tcp(5, 5, 5, 5)), 0);
    // A delta against the untouched registers ships nothing but still
    // composes.
    let delta = fm.checkpoint(CaptureMode::Delta);
    assert_eq!(delta.payload_buckets(), 0, "no dirty buckets to ship");
}

/// Edge case: recovery across a WAL whose newest record is a
/// *rolled-back* deploy. The aborted record must be skipped — the
/// recovered switch matches the pre-attempt state exactly and stays
/// fully functional.
#[test]
fn recovery_immediately_after_rolled_back_deploy_skips_the_aborted_record() {
    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    let h = fm.deploy(&cms_def(2)).unwrap();
    for _ in 0..7 {
        fm.process(&Packet::tcp(0x0a00_0001, 2, 3, 4));
    }
    let chk = fm.checkpoint(CaptureMode::Full);

    // The deploy fails on its first install op and rolls back, leaving
    // an aborted record as the WAL's replay-suffix tail.
    fm.arm_faults(FaultPlan::new(3).fail_nth(1));
    assert!(fm.deploy(&cms_def(1)).is_err());
    fm.disarm_faults();
    assert!(fm.audit().is_empty(), "rollback left residue");

    let recovered = FlyMon::recover(fm.wal().unwrap(), &chk).unwrap();
    assert_eq!(recovered.task_count(), 1, "aborted deploy must not replay");
    assert!(recovered.audit().is_empty(), "{:?}", recovered.audit());
    assert_eq!(all_registers(&recovered), all_registers(&fm));
    assert_eq!(recovered.query_frequency(h, &Packet::tcp(0x0a00_0001, 9, 9, 9)), 7);
}

/// A call refused because its handle names no task changed nothing, so
/// its record aborts. A reallocation's record resolves by diffing the
/// task set, and "absent afterwards" used to read as "this call removed
/// it": the refusal was committed as the removal of a task the switch
/// never hosted, and recovery died replaying it.
#[test]
fn recovery_skips_a_reallocation_refused_for_an_unknown_handle() {
    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    let h = fm.deploy(&cms_def(2)).unwrap();
    let chk = fm.checkpoint(CaptureMode::Full);
    let stale = fm.reallocate_memory(h, 4096).unwrap();
    assert!(matches!(fm.reallocate_memory(h, 8192), Err(FlymonError::NoSuchTask)));
    assert!(matches!(fm.remove(h), Err(FlymonError::NoSuchTask)));

    let wal = fm.wal().unwrap();
    assert_eq!(wal.committed_after(chk.wal_seq).count(), 1, "{:?}", wal.records());
    let recovered = FlyMon::recover(wal, &chk).unwrap();
    assert_eq!(recovered.task(stale).unwrap().rows[0].size, 4096);
}

/// Off-barrier WAL compaction (aborted-record pruning) must not change
/// what recovery produces: two fleets share an identical history heavy
/// with rolled-back deploys; one prunes mid-stream, and both promote to
/// bit-identical registers with identical loss accounting.
#[test]
fn wal_compaction_leaves_recovery_unaffected() {
    let run = |prune: bool| -> (Vec<Vec<u32>>, u64, usize) {
        let def = cms_def(2);
        let t = trace(0x5EED, 8_000);
        let mut fleet = SwitchFleet::deploy(2, config(), &def).unwrap();
        fleet.enable_standby();
        fleet.process_trace(&t[..4_000]);
        fleet.sync_standby();

        // A fault-heavy stretch: thirty rejected reconfigurations leave
        // thirty aborted records in switch 0's log — unbounded growth
        // if never pruned, since barriers only move on sync.
        for k in 0..30 {
            fleet.set_faults(0, Some(FaultPlan::new(k).fail_nth(1))).unwrap();
            assert!(fleet.deploy_task(&cms_def(1)).is_err(), "fail_nth(1) must reject");
            fleet.set_faults(0, None).unwrap();
        }
        let wal_before = fleet.switch(0).0.wal().unwrap().len();
        assert!(wal_before >= 30, "aborted records must have accumulated");
        if prune {
            let pruned = fleet.maintain_wals(10);
            assert!(pruned >= 30, "oversized log must be pruned, got {pruned}");
            assert!(
                fleet.switch(0).0.wal().unwrap().len() <= 10,
                "log stayed oversized after maintenance"
            );
        }

        fleet.process_trace(&t[4_000..]);
        fleet.fail_switch(0).unwrap();
        fleet.promote_standby(0).unwrap();
        assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
        (
            all_registers(fleet.switch(0).0),
            fleet.lost_packets(),
            fleet.switch(0).0.task_count(),
        )
    };
    assert_eq!(
        run(false),
        run(true),
        "pruning aborted records changed the recovered state"
    );
}

/// A corrupted (torn) record in the WAL's replay suffix must fail
/// recovery loudly with [`FlymonError::RecoveryDivergence`] naming the
/// bad record — never replay garbage — while corruption *behind* the
/// checkpoint anchor sits outside the replay suffix and is harmless.
#[test]
fn corrupted_wal_suffix_fails_recovery_and_pre_anchor_corruption_does_not() {
    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    fm.deploy(&cms_def(2)).unwrap();
    let chk = fm.checkpoint(CaptureMode::Full);
    let anchor = chk.wal_seq;
    assert!(anchor >= 1, "the first deploy is logged before the anchor");

    // Post-checkpoint history — the replay suffix recovery depends on.
    let extra = TaskDefinition::builder("post-chk-bloom")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(1024)
        .build();
    fm.deploy(&extra).unwrap();

    let mut wal = fm.detach_wal().unwrap();
    let suffix_seq = wal
        .records()
        .iter()
        .find(|r| r.seq > anchor)
        .expect("post-checkpoint deploy left a suffix record")
        .seq;
    assert!(wal.corrupt_frame(suffix_seq), "corruption hook missed");
    match FlyMon::recover(&wal, &chk) {
        Err(FlymonError::RecoveryDivergence { seq, .. }) => {
            assert_eq!(seq, suffix_seq, "divergence must name the torn record")
        }
        other => panic!("corrupted suffix must fail recovery, got {other:?}"),
    }

    // The hook XORs the stored frame, so applying it twice restores it.
    assert!(wal.corrupt_frame(suffix_seq));
    let recovered = FlyMon::recover(&wal, &chk).unwrap();
    assert_eq!(recovered.task_count(), 2, "restored frame replays cleanly");

    // Pre-anchor corruption: the record is covered by the checkpoint
    // image, never replayed, so recovery must not even look at it.
    assert!(wal.corrupt_frame(anchor));
    let recovered = FlyMon::recover(&wal, &chk).unwrap();
    assert_eq!(recovered.task_count(), 2);
    assert!(recovered.audit().is_empty(), "{:?}", recovered.audit());
}

/// A deployed definition is shared by its task record and the WAL
/// intent that logged it, so a reallocation must deploy a new one, never
/// edit the shared one: after two reallocations the first intent still
/// says what was first deployed, the live record says what runs now,
/// and replaying the log from a checkpoint taken before either one
/// lands on the live switch row for row.
#[test]
fn reallocation_deploys_a_new_definition_and_replays_from_the_old() {
    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    let named = |name: &str, d| TaskDefinition {
        name: name.into(),
        ..cms_def(d)
    };
    let moved = fm.deploy(&named("moved", 1)).unwrap();
    fm.deploy(&named("kept", 2)).unwrap();
    let gone = fm.deploy(&named("gone", 1)).unwrap();
    fm.process_batch(&trace(0x5EED, 20_000));
    let chk = fm.checkpoint(CaptureMode::Full);

    let moved = fm.reallocate_memory(moved, 4096).unwrap();
    let moved = fm.reallocate_memory(moved, 2048).unwrap();
    fm.remove(gone).unwrap();

    let wal = fm.wal().unwrap();
    let WalIntent::Deploy(first) = &wal.records()[0].intent else {
        panic!("the first record is the first deploy: {:?}", wal.records()[0]);
    };
    assert_eq!((first.name.as_str(), first.memory), ("moved", 8192));
    assert_eq!(fm.task(moved).unwrap().def.memory, 2048);

    let recovered = FlyMon::recover(wal, &chk).unwrap();
    assert_eq!(recovered.task_count(), fm.task_count());
    // Ids are handed out in order from 1: three deploys, two moves.
    for t in 1..=5 {
        let h = TaskHandle(flymon::task::TaskId(t));
        let (Ok(live), Ok(back)) = (fm.task(h), recovered.task(h)) else {
            assert_eq!(fm.task(h).is_ok(), recovered.task(h).is_ok(), "task {t}");
            continue;
        };
        assert_eq!(live.def, back.def, "task {t}");
        assert_eq!(live.rows.len(), back.rows.len(), "task {t}");
        for (row, (a, b)) in live.rows.iter().zip(&back.rows).enumerate() {
            assert_eq!(a.size, b.size, "task {t} row {row}");
            assert_eq!(fm.read_row(h, row).unwrap(), recovered.read_row(h, row).unwrap());
        }
    }
    assert!(recovered.audit().is_empty(), "{:?}", recovered.audit());
}

/// A reallocation refused after its new instance deployed — the old
/// one's removal failed — takes the new instance back without spending
/// its task id. Recovery then replays the deploy that follows under the
/// id the live switch gave it, and lands where the live switch is.
#[test]
fn a_refused_reallocation_spends_no_id_and_recovery_replays_past_it() {
    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    let h = fm.deploy(&cms_def(1)).unwrap();
    fm.process_batch(&trace(0x5EED, 5_000));
    let chk = fm.checkpoint(CaptureMode::Full);

    // CMS d=1 on the default config's other group: a hash mask, a buddy
    // write and a table entry deploy it; op 4 is the old row's clear.
    fm.arm_faults(FaultPlan::new(0).fail_nth(4));
    assert!(matches!(fm.reallocate_memory(h, 4096), Err(FlymonError::Install(_))));
    fm.disarm_faults();
    assert_eq!(fm.task_count(), 1);
    let next = fm.deploy(&cms_def(2)).unwrap();
    assert_eq!(next, TaskHandle(flymon::task::TaskId(2)), "the refusal spent an id");

    let recovered = FlyMon::recover(fm.wal().unwrap(), &chk).unwrap();
    assert_eq!(recovered.task_count(), 2);
    assert_eq!(all_registers(&recovered), all_registers(&fm));
    assert!(recovered.audit().is_empty(), "{:?}", recovered.audit());
}

/// A reallocation with room to spare deploys the new geometry before it
/// removes the old one, so the new rows land beside the old; replay
/// must take the same order and land there too. (The op-sequence
/// generator's shrunk script: deploy, reallocate, recover.)
#[test]
fn recovery_replays_a_reallocation_in_its_live_order() {
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 3,
        buckets_per_cmu: 1024,
        ..FlyMonConfig::default()
    });
    fm.attach_wal(WriteAheadLog::new());
    let def: TaskDefinition =
        "cms key=SrcIP attr=frequency mem=128 alg=cms d=2 filter=10.0.0.0/8".parse().unwrap();
    let h = fm.deploy(&def).unwrap();
    let chk = fm.checkpoint(CaptureMode::Full);
    let moved = fm.reallocate_memory(h, 128).unwrap();

    let recovered = FlyMon::recover(fm.wal().unwrap(), &chk).unwrap();
    let rows = |fm: &FlyMon| {
        let rows = &fm.task(moved).unwrap().rows;
        rows.iter().map(|r| (r.group, r.cmu, r.offset, r.size)).collect::<Vec<_>>()
    };
    assert_eq!(rows(&recovered), rows(&fm));
    assert_eq!(recovered.free_buckets(), fm.free_buckets());
}
