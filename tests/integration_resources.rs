//! Resource-management behaviors: the §5.2 capacity story end-to-end.

use flymon::oracle::PerPacket;
use flymon::compiler::{cmu_group_footprint, phv_limited_cmus};
use flymon::group::GroupConfig;
use flymon::prelude::*;
use flymon_packet::{KeySpec, TaskFilter};
use flymon_rmt::resources::TofinoModel;
use flymon_rmt::stacking::Placement;

#[test]
fn paper_scale_pipeline_capacity() {
    // 9 groups × 3 CMUs = 27 CMUs in one 12-stage pipeline (§3.2).
    let placement = Placement::plan(12, false);
    assert_eq!(placement.cmus(), 27);

    let fm = FlyMon::new(FlyMonConfig::default());
    let cmus: usize = fm.groups().iter().map(|g| g.cmus().len()).sum();
    assert_eq!(cmus, 27);
    assert_eq!(fm.free_cmus(), 27);
}

#[test]
fn group_footprint_and_stacking_agree_with_model() {
    let model = TofinoModel::default();
    let fp = cmu_group_footprint(&GroupConfig::default(), &model);
    // Nine groups must fit a dedicated pipeline (no switch.p4).
    assert!(fp.scale(9).fits(&model), "9 groups must fit a pipeline");
    // PHV: compression keeps 27 CMUs viable even at IPv6-scale keys.
    assert_eq!(phv_limited_cmus(360, true), 27);
}

#[test]
fn pipeline_plan_agrees_with_compiler_footprint() {
    // rmt::pipeline's tests use a hard-coded copy of the default group
    // footprint; this cross-crate check keeps them in sync.
    use flymon_rmt::pipeline::PipelinePlan;
    let model = TofinoModel::default();
    let fp = cmu_group_footprint(&GroupConfig::default(), &model);
    assert_eq!(fp.hash_units, 6);
    assert_eq!(fp.salus, 3);
    assert_eq!(fp.vliw_slots, 20);
    assert_eq!(fp.tcam_slots, 5120);
    assert_eq!(fp.sram_bits, 3 * 65536 * 16);
    assert_eq!(fp.table_ids, 6);
    assert_eq!(fp.phv_bits, 432);
    // And the plan-level results hold with the real footprint.
    assert!(PipelinePlan::new(9, model, false, &fp).is_ok());
    assert!(PipelinePlan::new(3, model, true, &fp).is_ok());
    assert!(PipelinePlan::new(9, model, true, &fp).is_err());
}

#[test]
fn resource_utilization_scales_with_groups() {
    let model = TofinoModel::default();
    let small = FlyMon::new(FlyMonConfig {
        groups: 1,
        ..FlyMonConfig::default()
    });
    let big = FlyMon::new(FlyMonConfig {
        groups: 9,
        ..FlyMonConfig::default()
    });
    let hash_frac = |fm: &FlyMon| {
        fm.resource_utilization(&model)
            .into_iter()
            .find(|(k, _)| matches!(k, flymon_rmt::resources::ResourceKind::HashUnit))
            .unwrap()
            .1
    };
    assert!((hash_frac(&small) - 6.0 / 72.0).abs() < 1e-9);
    assert!((hash_frac(&big) - 54.0 / 72.0).abs() < 1e-9);
}

#[test]
fn hash_unit_exhaustion_is_reported_cleanly() {
    // One group has 3 units; unit 0 carries the standing 5-tuple key.
    // Demanding 3 more distinct prefixes must exhaust them.
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 1,
        buckets_per_cmu: 4096,
        ..FlyMonConfig::default()
    });
    let mut deployed = 0;
    let mut failed = None;
    for (i, bits) in [(0u32, 9u8), (1, 10), (2, 11), (3, 12)].into_iter() {
        let def = TaskDefinition::builder(format!("k{i}"))
            .key(KeySpec::src_ip_slash(bits))
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .filter(TaskFilter::src(i << 28, 4))
            .memory(128)
            .build();
        match fm.deploy(&def) {
            Ok(_) => deployed += 1,
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    assert_eq!(deployed, 2, "two free units -> two new prefix keys");
    assert!(matches!(failed, Some(FlymonError::NoCapacity(_))));
}

#[test]
fn appendix_e_recirculation_counts_spliced_bandwidth() {
    // Two groups, the second spliced: tasks landing there cost the
    // mirror+recirculate bandwidth; tasks on group 0 do not.
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 1024,
        spliced_groups: 1,
        ..FlyMonConfig::default()
    });
    // Task A takes all of group 0 (all-traffic filter occupies every
    // CMU), forcing task B onto the spliced group 1.
    let a = fm
        .deploy(
            &TaskDefinition::builder("front")
                .key(KeySpec::SRC_IP)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 3 })
                .memory(256)
                .build(),
        )
        .unwrap();
    assert_eq!(fm.task(a).unwrap().rows[0].group, 0);
    let b = fm
        .deploy(
            &TaskDefinition::builder("tail")
                .key(KeySpec::SRC_IP)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 3 })
                .filter(TaskFilter::src(0x14000000, 8))
                .memory(256)
                .build(),
        )
        .unwrap();
    assert_eq!(fm.task(b).unwrap().rows[0].group, 1, "B must be spliced");

    for i in 0..100u32 {
        // Matches only task A (front group): no mirroring.
        fm.process(&flymon_packet::Packet::tcp(0x0a000000 | i, 1, 2, 3));
    }
    assert_eq!(fm.recirculated_packets(), 0);
    for i in 0..100u32 {
        // Matches task B on the spliced group: mirrored once each.
        fm.process(&flymon_packet::Packet::tcp(0x14000000 | i, 1, 2, 3));
    }
    assert_eq!(fm.recirculated_packets(), 100);
    assert_eq!(fm.packets_processed(), 200);
}

#[test]
fn efficient_mode_squeezes_more_tasks_than_accurate() {
    let deploy_many = |mode| {
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 4096,
            alloc_mode: mode,
            ..FlyMonConfig::default()
        });
        let mut n = 0u32;
        loop {
            // 160 rounds to 256 accurate, 128 efficient.
            let def = TaskDefinition::builder(format!("t{n}"))
                .key(KeySpec::SRC_IP)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 1 })
                .filter(TaskFilter::src((10 << 24) | (n << 12), 20))
                .memory(160)
                .build();
            if fm.deploy(&def).is_err() {
                break;
            }
            n += 1;
            if n > 200 {
                break;
            }
        }
        n
    };
    let accurate = deploy_many(flymon::alloc::AllocMode::Accurate);
    let efficient = deploy_many(flymon::alloc::AllocMode::Efficient);
    assert!(
        efficient >= accurate * 3 / 2,
        "efficient ({efficient}) should beat accurate ({accurate})"
    );
}

#[test]
fn partitions_of_concurrent_tasks_never_overlap() {
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 4096,
        ..FlyMonConfig::default()
    });
    let mut handles = Vec::new();
    for i in 0..24u32 {
        let def = TaskDefinition::builder(format!("t{i}"))
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .filter(TaskFilter::src((10 << 24) | (i << 16), 16))
            .memory(if i % 3 == 0 { 512 } else { 128 })
            .build();
        handles.push(fm.deploy(&def).unwrap());
    }
    // Collect (group, cmu, offset, size) of every row; check disjointness.
    let mut spans: Vec<(usize, usize, usize, usize)> = Vec::new();
    for &h in &handles {
        for row in &fm.task(h).unwrap().rows {
            for &(g, c, o, s) in &spans {
                if g == row.group && c == row.cmu {
                    let disjoint = o + s <= row.offset || row.offset + row.size <= o;
                    assert!(disjoint, "overlap on group {g} cmu {c}");
                }
            }
            spans.push((row.group, row.cmu, row.offset, row.size));
        }
    }
}

#[test]
fn greedy_placement_prefers_groups_with_the_key() {
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 4,
        buckets_per_cmu: 4096,
        ..FlyMonConfig::default()
    });
    // Seed group with a DstIP key.
    let first = fm
        .deploy(
            &TaskDefinition::builder("seed")
                .key(KeySpec::DST_IP)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 1 })
                .filter(TaskFilter::src(0x0a000000, 8))
                .memory(128)
                .build(),
        )
        .unwrap();
    let seeded_group = fm.task(first).unwrap().rows[0].group;
    // A second DstIP task with a disjoint filter must land in the same
    // group and reuse the mask.
    let second = fm
        .deploy(
            &TaskDefinition::builder("follow")
                .key(KeySpec::DST_IP)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 1 })
                .filter(TaskFilter::src(0x14000000, 8))
                .memory(128)
                .build(),
        )
        .unwrap();
    let t = fm.task(second).unwrap();
    assert_eq!(t.rows[0].group, seeded_group);
    assert_eq!(t.install.hash_mask_rules, 0);
}

#[test]
fn install_latency_model_tracks_rule_inventory() {
    let mut fm = FlyMon::new(FlyMonConfig::default());
    // BeauCoup emits coupon-mapping TCAM entries; its plan must be
    // heavier than CMS's.
    let cms = fm
        .deploy(
            &TaskDefinition::builder("cms")
                .key(KeySpec::SRC_IP)
                .algorithm(Algorithm::Cms { d: 3 })
                .memory(4096)
                .build(),
        )
        .unwrap();
    let mut fm2 = FlyMon::new(FlyMonConfig::default());
    let bc = fm2
        .deploy(
            &TaskDefinition::builder("bc")
                .key(KeySpec::DST_IP)
                .attribute(Attribute::Distinct(KeySpec::SRC_IP))
                .algorithm(Algorithm::BeauCoup { d: 3 })
                .memory(4096)
                .build(),
        )
        .unwrap();
    let cms_ms = fm.task(cms).unwrap().install.latency_ms();
    let bc_ms = fm2.task(bc).unwrap().install.latency_ms();
    assert!(bc_ms > cms_ms, "BeauCoup ({bc_ms}) should cost more than CMS ({cms_ms})");
}
