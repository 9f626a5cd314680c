//! On-the-fly reconfiguration: the system behaviors §5.1 demonstrates.

use flymon::oracle::PerPacket;
use flymon::prelude::*;
use flymon_packet::{KeySpec, Packet, TaskFilter};

fn switch(groups: usize) -> FlyMon {
    FlyMon::new(FlyMonConfig {
        groups,
        buckets_per_cmu: 4096,
        ..FlyMonConfig::default()
    })
}

fn cms1(name: &str, filter: TaskFilter, mem: usize) -> TaskDefinition {
    TaskDefinition::builder(name)
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 1 })
        .filter(filter)
        .memory(mem)
        .build()
}

#[test]
fn deploy_remove_churn_never_leaks() {
    let mut fm = switch(2);
    let total_buckets = 2 * 3 * 4096;
    for round in 0..50 {
        let h = fm
            .deploy(&cms1("churn", TaskFilter::ANY, 1024))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        fm.process(&Packet::tcp(round, 1, 2, 3));
        fm.remove(h).unwrap();
        assert_eq!(fm.free_buckets(), total_buckets, "leak at round {round}");
    }
    assert_eq!(fm.task_count(), 0);
}

#[test]
fn task_churn_does_not_disturb_neighbors() {
    let mut fm = switch(2);
    let stable = fm
        .deploy(&cms1("stable", TaskFilter::src(0x0a000000, 8), 1024))
        .unwrap();
    let pkt = Packet::tcp(0x0a000001, 1, 2, 3);
    for _ in 0..10 {
        fm.process(&pkt);
    }
    // Churn other tasks around it.
    for i in 0..10u32 {
        let h = fm
            .deploy(&cms1(
                "churn",
                TaskFilter::src(0x14000000 | (i << 16), 16),
                256,
            ))
            .unwrap();
        fm.process(&pkt);
        fm.remove(h).unwrap();
    }
    assert_eq!(fm.query_frequency(stable, &pkt), 20);
}

#[test]
fn reallocation_preserves_siblings_and_changes_partition() {
    let mut fm = switch(2);
    let a = fm
        .deploy(&cms1("a", TaskFilter::src(0x0a000000, 8), 256))
        .unwrap();
    let b = fm
        .deploy(&cms1("b", TaskFilter::src(0x14000000, 8), 256))
        .unwrap();
    let pa = Packet::tcp(0x0a000001, 1, 2, 3);
    let pb = Packet::tcp(0x14000001, 1, 2, 3);
    for _ in 0..6 {
        fm.process(&pa);
        fm.process(&pb);
    }
    let a2 = fm.reallocate_memory(a, 2048).unwrap();
    assert_eq!(fm.task(a2).unwrap().rows[0].size, 2048);
    // Sibling unaffected; reallocated task restarts cleanly.
    assert_eq!(fm.query_frequency(b, &pb), 6);
    assert_eq!(fm.query_frequency(a2, &pa), 0);
    for _ in 0..3 {
        fm.process(&pa);
    }
    assert_eq!(fm.query_frequency(a2, &pa), 3);
}

#[test]
fn grow_then_shrink_round_trips_memory_accounting() {
    let mut fm = switch(2);
    let free0 = fm.free_buckets();
    let mut h = fm.deploy(&cms1("t", TaskFilter::ANY, 128)).unwrap();
    let used_small = free0 - fm.free_buckets();
    h = fm.reallocate_memory(h, 4096).unwrap();
    let used_large = free0 - fm.free_buckets();
    assert!(used_large > used_small);
    h = fm.reallocate_memory(h, 128).unwrap();
    assert_eq!(free0 - fm.free_buckets(), used_small);
    fm.remove(h).unwrap();
    assert_eq!(fm.free_buckets(), free0);
}

#[test]
fn sampled_tasks_time_share_a_cmu() {
    // Two all-traffic tasks with p=1/2 each on one single-CMU switch.
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 1,
        cmus_per_group: 1,
        buckets_per_cmu: 4096,
        ..FlyMonConfig::default()
    });
    let mut def_a = cms1("a", TaskFilter::ANY, 1024);
    def_a.prob_log2 = 1;
    let mut def_b = cms1("b", TaskFilter::ANY, 1024);
    def_b.key = KeySpec::DST_IP;
    def_b.prob_log2 = 1;
    let a = fm.deploy(&def_a).unwrap();
    let b = fm.deploy(&def_b).unwrap();

    let n = 4_000u32;
    for i in 0..n {
        fm.process(
            &flymon_packet::PacketBuilder::new()
                .src_ip(1)
                .dst_ip(2)
                .ts_ns(u64::from(i))
                .build(),
        );
    }
    let ca = fm.query_frequency(a, &Packet::tcp(1, 2, 0, 0));
    let cb = fm.query_frequency(b, &Packet::tcp(1, 2, 0, 0));
    // Task A (first match) gets ~n/2; task B gets the half A declined,
    // further halved by its own coin: ~n/4.
    assert!(
        (f64::from(n) / 2.0 - ca as f64).abs() < f64::from(n) * 0.05,
        "task A sampled count {ca}"
    );
    assert!(
        (f64::from(n) / 4.0 - cb as f64).abs() < f64::from(n) * 0.05,
        "task B sampled count {cb}"
    );
}

#[test]
fn removing_unknown_handle_is_an_error_not_a_panic() {
    let mut fm = switch(1);
    let h = fm.deploy(&cms1("t", TaskFilter::ANY, 256)).unwrap();
    fm.remove(h).unwrap();
    assert!(matches!(fm.remove(h), Err(FlymonError::NoSuchTask)));
    assert!(matches!(fm.reset_task(h), Err(FlymonError::NoSuchTask)));
    assert!(matches!(
        fm.reallocate_memory(h, 512),
        Err(FlymonError::NoSuchTask)
    ));
}

#[test]
fn hash_units_are_reference_counted_across_tasks() {
    let mut fm = switch(1);
    // Two tasks sharing the SrcIP compressed key.
    let a = fm
        .deploy(&cms1("a", TaskFilter::src(0x0a000000, 8), 256))
        .unwrap();
    let b = fm
        .deploy(&cms1("b", TaskFilter::src(0x14000000, 8), 256))
        .unwrap();
    assert_eq!(fm.task(b).unwrap().install.hash_mask_rules, 0);
    // Removing one must keep the key alive for the other.
    fm.remove(a).unwrap();
    let pkt = Packet::tcp(0x14000001, 1, 2, 3);
    fm.process(&pkt);
    assert_eq!(fm.query_frequency(b, &pkt), 1);
    // A third task still reuses it without a new mask.
    let c = fm
        .deploy(&cms1("c", TaskFilter::src(0x1e000000, 8), 256))
        .unwrap();
    assert_eq!(fm.task(c).unwrap().install.hash_mask_rules, 0);
}

#[test]
fn task_hit_counters_track_matched_traffic() {
    let mut fm = switch(1);
    let a = fm
        .deploy(&cms1("a", TaskFilter::src(0x0a000000, 8), 256))
        .unwrap();
    let b = fm
        .deploy(&cms1("b", TaskFilter::src(0x14000000, 8), 256))
        .unwrap();
    for i in 0..30u32 {
        fm.process(&Packet::tcp(0x0a000000 | i, 1, 2, 3));
    }
    for i in 0..12u32 {
        fm.process(&Packet::tcp(0x14000000 | i, 1, 2, 3));
    }
    fm.process(&Packet::tcp(0x63000001, 1, 2, 3)); // matches neither
    assert_eq!(fm.task_hits(a).unwrap(), 30);
    assert_eq!(fm.task_hits(b).unwrap(), 12);
    // Sampled tasks count only admitted packets.
    let mut def_c = cms1("c", TaskFilter::src(0x1e000000, 8), 256);
    def_c.prob_log2 = 1;
    let c = fm.deploy(&def_c).unwrap();
    for i in 0..2_000u32 {
        fm.process(
            &flymon_packet::PacketBuilder::new()
                .src_ip(0x1e000000 | i)
                .ts_ns(u64::from(i))
                .build(),
        );
    }
    let hits = fm.task_hits(c).unwrap();
    assert!(
        (900..1100).contains(&hits),
        "sampled hits {hits} should be ~1000"
    );
}

#[test]
fn epoch_reset_supports_continuous_operation() {
    let mut fm = switch(1);
    let h = fm.deploy(&cms1("t", TaskFilter::ANY, 1024)).unwrap();
    let pkt = Packet::tcp(7, 8, 9, 10);
    for epoch in 1..=5u64 {
        for _ in 0..epoch * 10 {
            fm.process(&pkt);
        }
        assert_eq!(fm.query_frequency(h, &pkt), epoch * 10);
        fm.reset_task(h).unwrap();
        assert_eq!(fm.query_frequency(h, &pkt), 0);
    }
}
