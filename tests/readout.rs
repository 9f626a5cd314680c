//! The O(dirty) readout plane, end to end.
//!
//! Seven claims are pinned here:
//!
//! 1. the vectorized merge kernels ([`MergeLaw::combine_rows`], and
//!    [`MergeLaw::combine_rows_scan`] with its fused occupancy) are
//!    bit-identical to the per-element law across laws, cap
//!    boundaries, densities and ragged row lengths;
//! 2. dirty-row elision is invisible: a member row skipped because its
//!    epoch watermark proves it untouched contributes exactly what
//!    merging its zeros would have;
//! 3. the double-buffered rotation (bank swap + post-stall merge that
//!    drains the archive behind itself) returns epochs bit-identical to
//!    the scalar merge of the live registers taken just before the
//!    rotation, leaves every shadow bank all-zero, refuses — changing
//!    nothing — a switch an unwind left carrying a task the fleet does
//!    not track or a task no single law merges, and survives a 20-seed
//!    fault soak with the packet ledger conserved;
//! 4. the fused merge+stats signals (occupancy) equal what a separate
//!    scan of the merged rows would report, and
//!    a standby promotion after bank rotations recovers registers
//!    bit-identical to an unfailed twin at the sync barrier;
//! 5. a point-read `merged_frequency` answers what merging whole rows
//!    and indexing the result answered;
//! 6. a delta checkpoint ships the zeros a rotation left as lengths,
//!    and still composes onto its base into the full image;
//! 7. all of the standing invariants hold on both sides of the `u16`
//!    cell cutoff (15, 16, 17 and 32-bit registers);
//! 8. a refused rotation or revival leaves every packet somewhere the
//!    ledger can see it: a rotation refused mid-sweep books what it
//!    already archived as lost, a rotation with nothing alive to merge
//!    a task from refuses before any bank swap, and a revival resets
//!    the whole switch or nothing.

use flymon::oracle::PerPacket;
use flymon::prelude::*;
use flymon::task::TaskId;
use flymon_netsim::oracle::PerPacketFleet;
use flymon_netsim::{ChannelConfig, MergeLaw, RowOccupancy, SwitchFleet};
use flymon_packet::{KeySpec, Packet, SplitMix64, TaskFilter};
use flymon_rmt::checkpoint::{DirtySpan, SnapshotData};
use flymon_rmt::register::Buckets;
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

/// The scalar pre-PR merge: per-element law application over every
/// alive member's live rows — the reference every vectorized/elided/
/// double-buffered path must reproduce bit for bit.
fn scalar_merged_rows(fleet: &SwitchFleet) -> Vec<Vec<u32>> {
    scalar_merged_rows_of(fleet, |i| fleet.switch(i).1)
}

/// [`scalar_merged_rows`] of whichever task `handle_on` names on each
/// switch.
fn scalar_merged_rows_of(
    fleet: &SwitchFleet,
    handle_on: impl Fn(usize) -> Option<TaskHandle>,
) -> Vec<Vec<u32>> {
    let mut law = None;
    let mut merged: Vec<Vec<u32>> = Vec::new();
    let mut caps: Vec<u32> = Vec::new();
    for i in 0..fleet.len() {
        if !fleet.is_alive(i) {
            continue;
        }
        let fm = fleet.switch(i).0;
        let Some(h) = handle_on(i) else { continue };
        let law = *law.get_or_insert_with(|| MergeLaw::of(fm.task(h).unwrap().algorithm).unwrap());
        if merged.is_empty() {
            caps = fm.task(h).unwrap().rows.iter().map(|r| r.bucket_max).collect();
        }
        for (row, &bucket_max) in caps.iter().enumerate() {
            let cap = match law {
                MergeLaw::Sum => bucket_max,
                MergeLaw::Max | MergeLaw::Or => u32::MAX,
            };
            let vals = fm.read_row(h, row).unwrap();
            if merged.len() <= row {
                merged.push(vals);
            } else {
                for (a, v) in merged[row].iter_mut().zip(vals) {
                    *a = law.combine(*a, v, cap);
                }
            }
        }
    }
    merged
}

fn first_alive(fleet: &SwitchFleet) -> (&FlyMon, TaskHandle) {
    (0..fleet.len())
        .filter(|&i| fleet.is_alive(i))
        .find_map(|i| {
            let (fm, h) = fleet.switch(i);
            h.map(|h| (fm, h))
        })
        .expect("an alive member")
}

/// Occupancy of `row` counted the obvious way.
fn naive_occupancy(row: &[u32], cap: u32) -> RowOccupancy {
    RowOccupancy {
        nonzero: row.iter().filter(|&&v| v > 0).count(),
        saturated: row.iter().filter(|&&v| v >= cap).count(),
    }
}

// ---------------------------------------------------------------------
// 1. Vectorized merge kernels vs the per-element law.
// ---------------------------------------------------------------------

#[test]
fn merge_kernels_bit_identical_across_laws_caps_lengths_and_densities() {
    let mut rng = SplitMix64::new(0x1234_5678_9abc_def0);
    // Empty, sub-block, ragged and whole-row lengths: 1..=17 around the
    // 4-lane width, 31..=65 around the 8-lane main loop and its
    // unrolled remainder, 1 023..=1 025 and 2 049 around the kernel's
    // 1 024-bucket blocks, 65 536 across many of them.
    let lengths = (0usize..=17).chain([31, 32, 33, 63, 64, 65, 1_023, 1_024, 1_025, 2_049, 65_536]);
    for len in lengths {
        for law in [MergeLaw::Sum, MergeLaw::Max, MergeLaw::Or] {
            // Under caps 0 and 1 every nonzero sum is clamped.
            for cap in [0u32, 1, 255, 65_535, u32::MAX] {
                // Share of nonzero buckets per input row: none, about
                // 40 % once merged, all.
                for percent in [0u64, 23, 100] {
                    // Zeros by density; otherwise small counts, values
                    // at and just under the cap, and values just under
                    // `u32::MAX`, so `a + s` overflows `u32` whatever
                    // the cap.
                    let mut pick = || {
                        let r = rng.next_u64();
                        if r % 100 >= percent {
                            return 0;
                        }
                        match (r >> 8) % 5 {
                            0 => 1 + ((r >> 16) % 7) as u32,
                            1 => cap.saturating_sub(((r >> 16) % 3) as u32).max(1),
                            2 => cap,
                            3 => u32::MAX - ((r >> 16) % 3) as u32,
                            _ => 1 + (r >> 32) as u32 % cap.max(1),
                        }
                    };
                    let acc0: Vec<u32> = (0..len).map(|_| pick()).collect();
                    let src: Vec<u32> = (0..len).map(|_| pick()).collect();
                    let case = format!("{law:?} cap={cap} len={len} density={percent}%");
                    let expected: Vec<u32> = acc0
                        .iter()
                        .zip(&src)
                        .map(|(&a, &b)| law.combine(a, b, cap))
                        .collect();
                    let occupancy = naive_occupancy(&expected, cap);

                    let mut acc = acc0.clone();
                    law.combine_rows(&mut acc, &src, cap);
                    assert_eq!(acc, expected, "{case}: fold diverged from the scalar law");

                    let mut acc = acc0.clone();
                    let occ = law.combine_rows_scan(&mut acc, &src, cap, cap);
                    assert_eq!(acc, expected, "{case}: fused fold diverged");
                    assert_eq!(occ, occupancy, "{case}: fused occupancy");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Dirty-row elision: skipped rows behave like merged zeros.
// ---------------------------------------------------------------------

#[test]
fn untouched_members_elide_without_changing_the_merge() {
    // A single flow shards to exactly one switch, leaving the other
    // two provably untouched — the elision case.
    let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(2)).unwrap();
    let one_flow: Vec<Packet> = vec![Packet::tcp(0x0a00_0001, 2, 3, 4); 500];
    fleet.process_trace(&one_flow);

    let untouched: usize = (0..3)
        .filter(|&i| {
            let (fm, h) = fleet.switch(i);
            let h = h.unwrap();
            (0..2).all(|row| fm.row_untouched(h, row).unwrap())
        })
        .count();
    assert_eq!(untouched, 2, "one flow must land on exactly one switch");

    // The rotation (which elides the untouched members) must equal the
    // scalar merge over *all* members, zeros included.
    let expected = scalar_merged_rows(&fleet);
    assert!(expected.iter().flatten().any(|&v| v > 0));
    let epoch = fleet.rotate_epoch_all().unwrap();
    assert_eq!(epoch.tasks[0].rows, expected);

    // After the rotation everything is untouched; a second (fully
    // elided) rotation must return the same shape, all zero, with
    // empty fused stats.
    let idle = fleet.rotate_epoch_all().unwrap();
    assert_eq!(idle.tasks[0].rows.len(), expected.len());
    for (row, exp) in idle.tasks[0].rows.iter().zip(&expected) {
        assert_eq!(row.len(), exp.len());
        assert!(row.iter().all(|&v| v == 0), "idle epoch must be all-zero");
    }
    assert!(idle.tasks[0]
        .occupancy
        .iter()
        .all(|o| o.nonzero == 0 && o.saturated == 0));
}

// ---------------------------------------------------------------------
// 3. Double-buffered rotation vs the scalar path, and fused stats.
// ---------------------------------------------------------------------

#[test]
fn bank_rotation_epoch_is_bit_identical_to_scalar_merge() {
    for def in [
        cms_def(2),
        TaskDefinition::builder("card")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .algorithm(Algorithm::Hll)
            .memory(2048)
            .build(),
        TaskDefinition::builder("seen")
            .key(KeySpec::NONE)
            .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
            .memory(8192)
            .build(),
    ] {
        let mut fleet = SwitchFleet::deploy(3, config(), &def).unwrap();
        fleet.process_trace(&trace(0xD1CE, 20_000));
        let expected = scalar_merged_rows(&fleet);
        let epoch = fleet.rotate_epoch_all().unwrap();
        let te = &epoch.tasks[0];
        assert_eq!(te.rows, expected, "{}: bank path diverged", def.name);

        // Fused stats must equal a separate scan of the merged rows.
        assert_eq!(te.occupancy.len(), te.rows.len());
        for ((row, &cap), occ) in te.rows.iter().zip(&te.row_caps).zip(&te.occupancy) {
            assert_eq!(*occ, naive_occupancy(row, cap));
        }
    }
}

/// Everything a refused rotation must leave alone: every register of
/// every switch (and whether it holds an archive), the ledger, the
/// archived-packet count and the stall bookkeeping.
fn rotation_state(fleet: &SwitchFleet) -> impl PartialEq + std::fmt::Debug {
    let registers: Vec<_> = (0..fleet.len()).map(|i| all_registers(fleet.switch(i).0)).collect();
    let archives: Vec<bool> = (0..fleet.len())
        .flat_map(|i| fleet.switch(i).0.groups().iter().flat_map(|g| g.cmus()))
        .map(|c| c.register().has_archive())
        .collect();
    (
        registers,
        archives,
        fleet.ledger(),
        fleet.rotated_packets(),
        fleet.rotation_stall_totals(),
        fleet.last_rotation_stall(),
    )
}

/// The bank swap clears whole registers, so a switch carrying a task
/// the fleet does not track refuses the rotation — before any bank is
/// swapped or any ledger field moves. Such a task is what a refused
/// sweep leaves behind when its unwind cannot take a deploy back: here
/// a partition refuses a deploy at switch 2, and switch 0's rollback
/// remove fails on an armed register-write fault.
#[test]
fn rotation_refuses_a_switch_an_unwind_left_diverged_and_changes_nothing() {
    let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(2)).unwrap();
    fleet.attach_channel(0xD1FE, ChannelConfig::default()).unwrap();
    fleet.process_trace(&trace(0xD1CE, 20_000));
    let stray = TaskDefinition::builder("stray")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(1024)
        .build();
    // A deploy writes no register; the remove that unwinds it does.
    let no_register_writes = FaultPlan::new(5).fail_kind(InstallOpKind::RegisterWrite);
    fleet.set_faults(0, Some(no_register_writes)).unwrap();
    fleet.channel_mut().unwrap().set_partitioned(2, true).unwrap();
    let err = fleet.deploy_task(&stray).unwrap_err();
    assert!(matches!(err, FlymonError::ChannelTimeout { .. }), "{err:?}");
    let hosted: Vec<usize> = (0..3).map(|i| fleet.switch(i).0.task_count()).collect();
    assert_eq!(hosted, [2, 1, 1], "only switch 0 kept the stray");
    assert_eq!(fleet.task_infos().len(), 1, "the fleet does not list it");

    // Healed and disarmed, so the untracked task is all that is wrong.
    fleet.channel_mut().unwrap().heal_all();
    fleet.set_faults(0, None).unwrap();
    let before = rotation_state(&fleet);
    let err = fleet.rotate_epoch_all().unwrap_err();
    assert!(
        matches!(&err, FlymonError::BadTask(why) if why.contains("switch 0")),
        "{err:?}"
    );
    assert_eq!(before, rotation_state(&fleet), "a refused rotation moved state");
}

/// A task whose rows have no single merge law (`deploy_task` accepts an
/// Odd Sketch) cannot be rotated — and must say so before anybody's
/// epoch is archived, not after every bank was swapped and the merge
/// then gave up on the lot.
#[test]
fn rotation_refuses_an_unmergeable_task_and_keeps_everyones_epoch() {
    let mut fleet = SwitchFleet::deploy(2, config(), &cms_def(2)).unwrap();
    let odd = TaskDefinition::builder("odd")
        .filter(TaskFilter::src(0x8000_0000, 1))
        .key(KeySpec::NONE)
        .attribute(Attribute::Distinct(KeySpec::SRC_IP))
        .algorithm(Algorithm::OddSketch)
        .memory(2048)
        .build();
    let odd_at = fleet.deploy_task(&odd).unwrap();
    let fed = trace(0xD1CE, 20_000);
    fleet.process_trace(&fed);

    let before = rotation_state(&fleet);
    let err = fleet.rotate_epoch_all().unwrap_err();
    assert!(
        matches!(&err, FlymonError::BadTask(why) if why.contains("OddSketch")),
        "{err:?}"
    );
    assert_eq!(before, rotation_state(&fleet), "a refused rotation moved state");

    // Without the offender the next rotation returns the whole epoch.
    fleet.remove_task(odd_at).unwrap();
    let expected = scalar_merged_rows(&fleet);
    let epoch = fleet.rotate_epoch_all().unwrap();
    assert_eq!(epoch.packets, fed.len() as u64);
    assert_eq!(epoch.tasks.len(), 1);
    assert_eq!(epoch.tasks[0].rows, expected);
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}

#[test]
fn scratch_readout_through_shared_scratch_matches_scalar_merge() {
    let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(2)).unwrap();
    fleet.process_trace(&trace(0xFEED, 15_000));
    let expected = scalar_merged_rows(&fleet);
    let mut scratch = ReadoutScratch::default();
    for (row, exp) in expected.iter().enumerate() {
        let occ = fleet.merged_task_row_into(0, row, &mut scratch).unwrap();
        assert_eq!(&scratch.acc, exp, "row {row} diverged through the scratch");
        let cap = {
            let (fm, h) = first_alive(&fleet);
            fm.task(h).unwrap().rows[row].bucket_max
        };
        assert_eq!(occ, naive_occupancy(exp, cap));
    }
}

/// Every shadow bank of every switch is back to all-zero and owes
/// nothing: swapping a copy of the register shows the bank.
fn assert_shadow_banks_clean(fleet: &SwitchFleet, stage: &str) {
    for i in 0..fleet.len() {
        for (g, group) in fleet.switch(i).0.groups().iter().enumerate() {
            for (c, cmu) in group.cmus().iter().enumerate() {
                let mut reg = cmu.register().clone();
                assert!(!reg.has_archive(), "{stage}: switch {i} register {g}/{c} kept an archive");
                reg.swap_epoch_bank();
                assert!(
                    reg.read_range(0, reg.len()).unwrap().iter().all(|v| v == 0),
                    "{stage}: switch {i} register {g}/{c} has a stale shadow bank"
                );
            }
        }
    }
}

/// The archive is zeroed chunk by chunk inside the merge, and
/// retirement zeroes only what the merge did not drain — so a chunk
/// either of them missed would sit in the recycled bank and resurface
/// as counts two epochs later. Six epochs on a fleet built to miss
/// one: two tasks sharing registers at different offsets, an idle
/// task, a reallocation and a failed switch on the way.
#[test]
fn fused_retire_leaves_clean_banks_across_epochs_tasks_and_failures() {
    let cms = |name: &str, dst: u32, memory: usize| {
        TaskDefinition::builder(name)
            .filter(TaskFilter::dst(dst << 24, 8))
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(memory)
            .build()
    };
    // The generator's destinations are 10/47/88/140/192/203 `/8`s.
    let names = ["ten", "rest", "idle"];
    let mut fleet = SwitchFleet::deploy(3, config(), &cms(names[0], 10, 8192)).unwrap();
    let rest = fleet
        .deploy_task(
            &TaskDefinition::builder(names[1])
                .filter(TaskFilter::dst(128 << 24, 1))
                .key(KeySpec::SRC_IP)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 2 })
                .memory(4096)
                .build(),
        )
        .unwrap();
    fleet.deploy_task(&cms(names[2], 20, 2048)).unwrap();
    let placement = |fleet: &SwitchFleet, name: &str| -> Vec<(usize, usize, usize)> {
        let fm = fleet.switch(0).0;
        let task = fm.task(handle_by_name(fm, name).unwrap()).unwrap();
        task.rows.iter().map(|r| (r.group, r.cmu, r.offset)).collect()
    };
    let (ten, others) = (placement(&fleet, names[0]), placement(&fleet, names[1]));
    assert!(
        ten.iter()
            .any(|&(g, c, at)| others.iter().any(|&(og, oc, oat)| (g, c) == (og, oc) && at != oat)),
        "the tasks must share a register at different offsets: {ten:?} {others:?}"
    );

    for epoch in 0..6u64 {
        let stage = format!("epoch {epoch}");
        fleet.process_trace(&trace(0xFA57 + epoch, 12_000));
        match epoch {
            2 => fleet.reallocate_task(rest, 2048).unwrap(),
            3 => fleet.fail_switch(2).unwrap(),
            _ => {}
        }
        let expected: Vec<Vec<Vec<u32>>> = names
            .iter()
            .map(|name| scalar_merged_rows_of(&fleet, |i| handle_by_name(fleet.switch(i).0, name)))
            .collect();
        // The reallocation redeployed its task empty just now.
        let busy = |rows: &[Vec<u32>]| rows.iter().flatten().any(|&v| v > 0);
        assert!(busy(&expected[0]), "{stage}");
        assert_eq!(busy(&expected[1]), epoch != 2, "{stage}");
        assert!(!busy(&expected[2]), "{stage}: the idle task saw traffic");

        let rotated = fleet.rotate_epoch_all().unwrap();
        for ((te, name), rows) in rotated.tasks.iter().zip(names).zip(&expected) {
            assert_eq!(te.name, name);
            assert_eq!(&te.rows, rows, "{stage}: task {name} diverged from the scalar merge");
            for ((row, &cap), occ) in te.rows.iter().zip(&te.row_caps).zip(&te.occupancy) {
                assert_eq!(*occ, naive_occupancy(row, cap), "{stage}: task {name}");
            }
        }
        assert_shadow_banks_clean(&fleet, &stage);
        assert!(fleet.ledger().balanced(), "{stage}: {:?}", fleet.ledger());
    }
}

// ---------------------------------------------------------------------
// 4. Rotation under chaos, and promotion across bank rotations.
// ---------------------------------------------------------------------

#[test]
fn bank_rotation_survives_twenty_seed_fault_soak() {
    let mut rotations = 0u64;
    let mut kills = 0u64;
    let mut settles = 0u64;
    for seed in 1..=20u64 {
        let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(2)).unwrap();
        fleet.enable_standby();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..30 {
            match next() % 8 {
                0..=2 => {
                    fleet.process_trace(&trace(seed * 100 + step, 400));
                }
                3 | 4 => {
                    // Every rotation is checked against the scalar
                    // merge of the live registers taken just before.
                    let expected = scalar_merged_rows(&fleet);
                    let epoch = fleet.rotate_epoch_all().unwrap();
                    assert_eq!(
                        epoch.tasks[0].rows, expected,
                        "seed {seed} step {step}: rotation diverged"
                    );
                    rotations += 1;
                }
                5 => {
                    fleet.sync_standby();
                }
                6 => {
                    if fleet.alive_count() > 1 {
                        let dead = (next() % 3) as usize;
                        if fleet.is_alive(dead) {
                            fleet.fail_switch(dead).unwrap();
                            kills += 1;
                        }
                    }
                }
                _ => {
                    if let Some(dead) = (0..3).find(|&i| !fleet.is_alive(i)) {
                        if next().is_multiple_of(2) {
                            fleet.promote_standby(dead).unwrap();
                        } else {
                            fleet.revive_switch(dead).unwrap();
                        }
                        settles += 1;
                    }
                }
            }
            assert!(
                fleet.ledger().balanced(),
                "seed {seed} step {step}: ledger unbalanced: {:?}",
                fleet.ledger()
            );
        }
    }
    assert!(rotations >= 40, "only {rotations} rotations across 20 seeds");
    assert!(kills > 0, "the soak never killed a switch");
    assert!(settles > 0, "the soak never promoted or revived");
}

#[test]
fn promotion_after_bank_rotation_matches_unfailed_twin_at_barrier() {
    // The delta checkpoint after a bank swap must ship the swapped
    // ranges as zeros (the swap never ran the clear_range sweep the
    // dirty watermark would have seen) — otherwise the promoted switch
    // resurrects pre-rotation counts.
    let def = cms_def(2);
    let t1 = trace(0xA11CE, 20_000);
    let t2 = trace(0xB0B, 8_000);

    let mut fleet = SwitchFleet::deploy(1, config(), &def).unwrap();
    let mut twin = SwitchFleet::deploy(1, config(), &def).unwrap();
    fleet.process_trace(&t1);
    twin.process_trace(&t1);
    fleet.enable_standby();

    let a = fleet.rotate_epoch_all().unwrap();
    let b = twin.rotate_epoch_all().unwrap();
    assert_eq!(a.tasks[0].rows, b.tasks[0].rows);

    fleet.process_trace(&t2);
    twin.process_trace(&t2);
    // Sync barrier after the rotation: the delta must carry both the
    // rotation's zeros and t2's writes.
    fleet.sync_standby();
    fleet.fail_switch(0).unwrap();
    fleet.promote_standby(0).unwrap();
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());

    let (promoted, ph) = fleet.switch(0);
    let (reference, rh) = twin.switch(0);
    let (ph, rh) = (ph.unwrap(), rh.unwrap());
    for row in 0..2 {
        assert_eq!(
            promoted.read_row(ph, row).unwrap(),
            reference.read_row(rh, row).unwrap(),
            "row {row}: promoted switch diverged from the unfailed twin"
        );
    }
}

// ---------------------------------------------------------------------
// 5. Point-read queries vs the row-merge oracle.
// ---------------------------------------------------------------------

/// The handle `fm` gave the task named `name` (task ids are small).
fn handle_by_name(fm: &FlyMon, name: &str) -> Option<TaskHandle> {
    (0..64)
        .map(|id| TaskHandle(TaskId(id)))
        .find(|h| fm.task(*h).is_ok_and(|t| t.def.name == name))
}

/// `merged_frequency` as it used to be computed: every row of the task
/// whose filter admits `pkt` merged whole across the alive fleet, the
/// flow's bucket read out of each merged row, the minimum taken.
fn row_merge_frequency(fleet: &SwitchFleet, pkt: &Packet) -> u64 {
    let info = fleet
        .task_infos()
        .into_iter()
        .find(|t| t.filter.matches(pkt))
        .expect("a task admits the packet");
    let merged = scalar_merged_rows_of(fleet, |i| handle_by_name(fleet.switch(i).0, &info.name));
    let locator = (0..fleet.len())
        .find(|&i| fleet.is_alive(i))
        .map(|i| fleet.switch(i).0)
        .expect("an alive member");
    let h = handle_by_name(locator, &info.name).unwrap();
    (0..merged.len())
        .map(|row| u64::from(merged[row][locator.locate(h, row, pkt).unwrap()]))
        .min()
        .unwrap()
}

#[test]
fn point_read_frequency_matches_the_row_merge_oracle() {
    let d = 3;
    let mut fleet = SwitchFleet::deploy(3, config(), &cms_def(d)).unwrap();

    // One flow entering at two ingresses, 40 000 packets each: every
    // row's bucket stays under the 16-bit ceiling on either switch and
    // passes it once merged, so the clamp is the merge's, not
    // Cond-ADD's, and it decides the estimate.
    let heavy = Packet::tcp(0x0a00_0001, 1, 1, 1);
    let traffic = trace(0x90_1D, 20_000);
    let feed = |fleet: &mut SwitchFleet| {
        fleet.process_trace(&traffic);
        for _ in 0..40_000 {
            fleet.process(0, &heavy);
            fleet.process(2, &heavy);
        }
    };

    // 200 probes: flows of the trace, the heavy flow, and sources the
    // fleet never saw (both halves of the address space, so after the
    // split both children answer).
    let mut rng = SplitMix64::new(0xF10E);
    let mut probes = vec![heavy];
    while probes.len() < 200 {
        let r = rng.next_u64();
        probes.push(if r.is_multiple_of(4) {
            Packet::udp((r >> 32) as u32, 9, 9, 9)
        } else {
            traffic[(r >> 8) as usize % traffic.len()]
        });
    }
    let check = |fleet: &SwitchFleet, stage: &str| {
        for p in &probes {
            assert_eq!(
                fleet.merged_frequency(p).unwrap(),
                row_merge_frequency(fleet, p),
                "{stage}: src {:#x}",
                p.src_ip
            );
        }
    };

    feed(&mut fleet);
    assert_eq!(fleet.merged_frequency(&heavy).unwrap(), 65_535);
    for i in [0, 2] {
        let (fm, h) = fleet.switch(i);
        assert!(fm.query_frequency(h.unwrap(), &heavy) < 65_535);
    }
    check(&fleet, "all alive");

    fleet.fail_switch(2).unwrap();
    assert!(fleet.merged_frequency(&heavy).unwrap() < 65_535);
    check(&fleet, "switch 2 failed");

    fleet.revive_switch(2).unwrap();
    let (lo, hi) = fleet.split_task(0).unwrap();
    feed(&mut fleet);
    assert_eq!(fleet.merged_frequency(&heavy).unwrap(), 65_535);
    let names: Vec<String> = fleet.task_infos().into_iter().map(|t| t.name).collect();
    assert_eq!((names[lo].as_str(), names[hi].as_str()), ("freq/0", "freq/1"));
    assert!(probes.iter().any(|p| p.src_ip >> 31 == 0));
    assert!(probes.iter().any(|p| p.src_ip >> 31 == 1));
    check(&fleet, "after split_task");
}

// ---------------------------------------------------------------------
// 6. Zero-span standby deltas.
// ---------------------------------------------------------------------

/// Spans of every register snapshot of a delta checkpoint.
fn delta_spans(delta: &SwitchCheckpoint) -> Vec<&[DirtySpan]> {
    delta
        .registers
        .snapshots
        .iter()
        .map(|s| match &s.data {
            SnapshotData::Delta(spans) => spans.as_slice(),
            SnapshotData::Full(_) => panic!("a delta capture produced a full image"),
        })
        .collect()
}

/// One switch's side of a fleet rotation: the bank swap, then the
/// archive retired (what the merge and retirement leave behind).
fn rotate(fm: &mut FlyMon) {
    fm.rotate_banks().unwrap();
    fm.retire_epoch_banks();
}

#[test]
fn delta_after_rotation_ships_zero_spans_and_composes_to_the_full_image() {
    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    let h = fm.deploy(&cms_def(2)).unwrap();
    fm.process_batch(&trace(0x5EED, 20_000));
    let mut base = fm.checkpoint(CaptureMode::Full);
    fm.process_batch(&trace(0x5EEE, 5_000));

    // Straight after a rotation every swapped register is dirty and
    // untouched: its whole dirty range is one zero span, no payload.
    rotate(&mut fm);
    let delta = fm.checkpoint(CaptureMode::Delta);
    assert_eq!(delta.payload_buckets(), 0);
    let swapped: Vec<&[DirtySpan]> = delta_spans(&delta)
        .into_iter()
        .filter(|spans| !spans.is_empty())
        .collect();
    assert_eq!(swapped.len(), 2, "one register per CMS row was swapped");
    for spans in swapped {
        assert!(
            matches!(spans, [DirtySpan::Zeros { len, .. }] if *len >= 8192),
            "{spans:?}"
        );
    }
    base.overlay(delta).unwrap();
    let full = fm.checkpoint(CaptureMode::Full);
    assert_eq!(base.registers, full.registers);

    // Packets between the rotation and the sync: the touched hull (one
    // flow, one bucket per row) lies inside the dirty range the
    // rotation left, so each row is a value span flanked by zero spans.
    fm.process_batch(&trace(0x5EEF, 5_000));
    rotate(&mut fm);
    fm.process_batch(&vec![Packet::tcp(0x0a00_0001, 2, 3, 4); 9]);
    let delta = fm.checkpoint(CaptureMode::Delta);
    assert_eq!(delta.payload_buckets(), 2, "one bucket per row");
    for spans in delta_spans(&delta).into_iter().filter(|s| !s.is_empty()) {
        match spans {
            [DirtySpan::Zeros { start, len }, DirtySpan::Values { start: at, data }, DirtySpan::Zeros { start: after, .. }] =>
            {
                assert_eq!(start + len, *at);
                assert_eq!(data.as_slice(), [9]);
                assert_eq!(at + 1, *after);
            }
            other => panic!("expected zeros, values, zeros: {other:?}"),
        }
    }
    base.overlay(delta).unwrap();
    let full = fm.checkpoint(CaptureMode::Full);
    assert_eq!(base.registers, full.registers);
    let restored = FlyMon::restore(&base).unwrap();
    for row in 0..2 {
        assert_eq!(
            restored.read_row(h, row).unwrap(),
            fm.read_row(h, row).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// 7. The standing invariants at both cell widths.
// ---------------------------------------------------------------------

/// Every register bucket of every CMU, widened.
fn all_registers(fm: &FlyMon) -> Vec<Vec<u32>> {
    fm.groups()
        .iter()
        .flat_map(|g| g.cmus().iter())
        .map(|c| c.register().read_range(0, c.register().len()).unwrap().to_vec())
        .collect()
}

/// Per-binding hit counters of every CMU, in pipeline order.
fn all_hits(fm: &FlyMon) -> Vec<Vec<u64>> {
    fm.groups()
        .iter()
        .flat_map(|g| g.cmus().iter())
        .map(|c| (0..c.bindings().len()).map(|i| c.hits(i)).collect())
        .collect()
}

fn freq_bytes(name: &str, d: usize, memory: usize) -> TaskDefinition {
    TaskDefinition::builder(name)
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_bytes())
        .algorithm(Algorithm::Cms { d })
        .memory(memory)
        .build()
}

/// Rows that saturate (Cond-ADD by packets), wrap (Cond-ADD by bytes,
/// masked to the width), take maxima (HLL), read upstream rows'
/// forwarded outputs (SuMax(Sum)'s `ChainMin`, the braid's carry) and —
/// on a register wide enough for its one-hot bits — set bits.
fn width_mix(bucket_bits: u8) -> Vec<TaskDefinition> {
    let mut defs = vec![
        TaskDefinition { memory: 1024, ..cms_def(2) },
        freq_bytes("bytes", 1, 256),
        TaskDefinition::builder("hll")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .algorithm(Algorithm::Hll)
            .memory(1024)
            .build(),
        TaskDefinition::builder("sumax")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::frequency_bytes())
            .algorithm(Algorithm::SuMaxSum { d: 2 })
            .memory(1024)
            .build(),
        TaskDefinition::builder("braids")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::CounterBraids)
            .memory(1024)
            .build(),
    ];
    if bucket_bits >= flymon::compiler::ONE_HOT_BITS {
        defs.push(
            TaskDefinition::builder("bloom")
                .key(KeySpec::NONE)
                .attribute(Attribute::Existence(KeySpec::SRC_IP))
                .algorithm(Algorithm::Bloom { d: 2, bit_optimized: true })
                .memory(1024)
                .build(),
        );
    }
    defs
}

/// `fm` restored from a hand-edited full image holding `value(i)` in
/// bucket `i` of every register (masked to the width on the way in).
fn with_every_bucket(fm: &mut FlyMon, value: impl Fn(usize) -> u32) -> FlyMon {
    let mut image = fm.checkpoint(CaptureMode::Full);
    for snap in &mut image.registers.snapshots {
        let SnapshotData::Full(data) = &mut snap.data else { unreachable!("a full capture") };
        for (i, v) in data.iter_mut().enumerate() {
            *v = value(i);
        }
        snap.hull = Some((0, data.len()));
    }
    FlyMon::restore(&image).unwrap()
}

#[test]
fn standing_invariants_hold_at_both_cell_widths() {
    // 15 and 16 bits store u16 cells, 17 and 32 store u32: the boundary
    // on each side of the cutoff, and the widest register.
    let t = trace(0xCE11, 6_000);
    let (before, after) = t.split_at(t.len() / 2);
    for bits in [15u8, 16, 17, 32] {
        let config = FlyMonConfig {
            groups: 8,
            buckets_per_cmu: 2048,
            bucket_bits: bits,
            ..FlyMonConfig::default()
        };
        let max = if bits == 32 { u32::MAX } else { (1u32 << bits) - 1 };
        let deployed = || {
            let mut fm = FlyMon::new(config);
            fm.attach_wal(WriteAheadLog::new());
            let handles: Vec<TaskHandle> = width_mix(bits)
                .iter()
                .map(|d| fm.deploy(d).unwrap_or_else(|e| panic!("{bits} bits, {}: {e}", d.name)))
                .collect();
            (fm, handles)
        };

        // Batch ≡ per-packet, from every bucket a few counts below the
        // ceiling (a hand-edited full image), so the trace drives each
        // counter past it: Cond-ADD saturates, byte counts wrap.
        let (mut fm, handles) = deployed();
        let mut reference = with_every_bucket(&mut fm, |i| max - (i % 8) as u32);
        for p in &t {
            reference.process(p);
        }
        let mut batched = with_every_bucket(&mut fm, |i| max - (i % 8) as u32);
        for slice in t.chunks(65) {
            batched.process_batch(slice);
        }
        let case = format!("{bits} bits");
        assert_eq!(all_registers(&batched), all_registers(&reference), "{case}: registers");
        assert_eq!(all_hits(&batched), all_hits(&reference), "{case}: hit counters");
        assert_eq!(batched.recirculated_packets(), reference.recirculated_packets(), "{case}");
        let row = |h, row| batched.read_row(h, row).unwrap();
        assert!(row(handles[0], 0).contains(&max), "{case}: no packet counter saturated");
        assert!(row(handles[1], 0).iter().any(|&v| v < max - 8), "{case}: no byte counter wrapped");

        // `read_row_into` is the typed view, widened.
        let mut buf = Vec::new();
        for &h in &handles {
            for r in 0..batched.task(h).unwrap().rows.len() {
                batched.read_row_into(h, r, &mut buf).unwrap();
                let view = batched.row_view(h, r).unwrap();
                assert_eq!(buf, view.iter().collect::<Vec<u32>>(), "{case}: row {r}");
                assert_eq!(matches!(view, Buckets::U16(_)), bits <= 16, "{case}: cell width");
            }
        }

        // Full + delta → restore, and WAL recovery, ≡ the unfailed twin.
        let mut live = fm;
        live.process_batch(before);
        let mut base = live.checkpoint(CaptureMode::Full);
        live.process_batch(after);
        base.overlay(live.checkpoint(CaptureMode::Delta)).unwrap();
        assert_eq!(all_registers(&FlyMon::restore(&base).unwrap()), all_registers(&live), "{case}");
        let barrier = live.checkpoint(CaptureMode::Full);
        live.reset_task(handles[0]).unwrap();
        live.remove(handles[2]).unwrap();
        let recovered = FlyMon::recover(live.wal().unwrap(), &barrier).unwrap();
        assert_eq!(all_registers(&recovered), all_registers(&live), "{case}: recovery");
        // Bank rotation ≡ the scalar merge at these widths, from seeded
        // buckets whose sums clamp, is `fleet.rs`'s
        // `rotation_clamps_summed_rows_at_both_cell_widths`: only the
        // fleet reaches its members' registers.
    }
}

// ---------------------------------------------------------------------
// 8. Refused rotations and revivals keep the ledger honest.
// ---------------------------------------------------------------------

/// A 3-switch fleet of small groups running `cms_def(2)` plus, when
/// `second`, a DST_IP count-min beside it, fed 30 000 packets.
fn fed_fleet(second: bool) -> (SwitchFleet, u64) {
    let cfg = FlyMonConfig {
        groups: 3,
        buckets_per_cmu: 4096,
        ..FlyMonConfig::default()
    };
    let primary = TaskDefinition { memory: 4096, ..cms_def(2) };
    let mut fleet = SwitchFleet::deploy(3, cfg, &primary).unwrap();
    if second {
        let dst = TaskDefinition::builder("dst")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(2048)
            .build();
        fleet.deploy_task(&dst).unwrap();
    }
    let fed = trace(3, 30_000);
    fleet.process_trace(&fed);
    (fleet, fed.len() as u64)
}

/// Packets counted by every row of every task `fm` hosts — each row is
/// an unfiltered packet count, so each sums to what the switch absorbed.
fn row_masses(fm: &FlyMon) -> Vec<u64> {
    (0..64)
        .map(|id| TaskHandle(TaskId(id)))
        .filter_map(|h| fm.task(h).ok().map(|t| (h, t.rows.len())))
        .flat_map(|(h, rows)| (0..rows).map(move |r| (h, r)))
        .map(|(h, r)| fm.read_row(h, r).unwrap().iter().map(|&v| u64::from(v)).sum())
        .collect()
}

/// Primary-row mass summed over every switch.
fn primary_mass(fleet: &SwitchFleet) -> u64 {
    (0..fleet.len())
        .map(|i| {
            let (fm, h) = fleet.switch(i);
            fm.read_row(h.unwrap(), 0).unwrap().iter().map(|&v| u64::from(v)).sum::<u64>()
        })
        .sum()
}

/// A rotation whose bank swap one switch refuses has already swapped
/// the banks before it; those archives are retired unread, so no epoch
/// carries their packets and they are booked as lost, not as rotated.
#[test]
fn a_rotation_refused_mid_sweep_books_the_discarded_archives_as_lost() {
    let (mut fleet, fed) = fed_fleet(false);
    fleet.attach_channel(1, ChannelConfig::default()).unwrap();
    fleet.channel_mut().unwrap().set_partitioned(1, true).unwrap();
    let err = fleet.rotate_epoch_all().unwrap_err();
    assert!(
        matches!(err, FlymonError::ChannelTimeout { op: "epoch-reset", switch: 1, .. }),
        "{err:?}"
    );
    let ledger = fleet.ledger();
    assert!(ledger.balanced(), "{ledger:?}");
    assert_eq!(fleet.rotated_packets(), 0, "no epoch was returned");
    let mass = primary_mass(&fleet);
    assert!(fleet.lost_packets() > 0, "switch 0 rotated before switch 1 refused");
    assert_eq!(mass + fleet.lost_packets(), fed, "every packet is in a register or lost");
    assert_eq!(mass, ledger.represented - fleet.rotated_packets());

    // Healed, the next rotation archives exactly what the registers hold.
    fleet.channel_mut().unwrap().heal_all();
    let epoch = fleet.rotate_epoch_all().unwrap();
    assert_eq!(epoch.packets, mass);
    assert_eq!(fleet.rotated_packets(), mass);
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}

/// A removal rolls forward, so a refused one can leave a task listed
/// with its only handle on a switch that then fails. The rotation has
/// no member to merge that task from: it refuses before any bank swap
/// (it used to panic in the merge), and once the switch is revived and
/// the removal retried it rotates again.
#[test]
fn a_rotation_with_a_task_on_no_alive_switch_refuses_and_changes_nothing() {
    let (mut fleet, fed) = fed_fleet(true);
    fleet.attach_channel(2, ChannelConfig::default()).unwrap();
    fleet.channel_mut().unwrap().set_partitioned(2, true).unwrap();
    let err = fleet.remove_task(1).unwrap_err();
    assert!(matches!(err, FlymonError::ChannelTimeout { switch: 2, .. }), "{err:?}");
    fleet.channel_mut().unwrap().heal_all();
    fleet.fail_switch(2).unwrap();

    let before = rotation_state(&fleet);
    let err = fleet.rotate_epoch_all().unwrap_err();
    assert!(
        matches!(&err, FlymonError::BadTask(why) if why.contains("dst")),
        "{err:?}"
    );
    assert_eq!(before, rotation_state(&fleet), "a refused rotation moved state");

    fleet.revive_switch(2).unwrap();
    fleet.remove_task(1).unwrap();
    let represented = fleet.ledger().represented;
    let epoch = fleet.rotate_epoch_all().unwrap();
    assert_eq!(epoch.packets, represented);
    let ledger = fleet.ledger();
    assert!(ledger.balanced(), "{ledger:?}");
    assert_eq!(ledger.represented + ledger.lost, fed);
}

/// A revival resets every task on the switch or none: a fault on the
/// third register write either refuses the whole reset, leaving every
/// row holding what the switch absorbed, or lets it all through.
#[test]
fn a_refused_revival_resets_nothing() {
    let (mut fleet, _) = fed_fleet(true);
    fleet.fail_switch(2).unwrap();
    let held = fleet.unavailable_packets();
    assert!(held > 0);
    assert_eq!(row_masses(fleet.switch(2).0), [held; 4]);
    fleet.set_faults(2, Some(FaultPlan::new(9).fail_nth(3))).unwrap();
    match fleet.revive_switch(2) {
        Err(e) => {
            assert!(matches!(e, FlymonError::Install(_)), "{e:?}");
            assert!(!fleet.is_alive(2));
            assert_eq!(fleet.unavailable_packets(), held);
            assert_eq!(fleet.lost_packets(), 0);
            assert_eq!(row_masses(fleet.switch(2).0), [held; 4], "a refused revival cleared rows");
        }
        Ok(()) => {
            assert!(fleet.is_alive(2));
            assert_eq!(fleet.lost_packets(), held);
            assert_eq!(row_masses(fleet.switch(2).0), [0; 4]);
        }
    }
    assert!(fleet.ledger().balanced(), "{:?}", fleet.ledger());
}
