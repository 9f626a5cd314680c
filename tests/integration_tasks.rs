//! End-to-end task lifecycle: every built-in algorithm deploys, measures
//! and answers queries through the public API.

use flymon::oracle::PerPacket;
use flymon::prelude::*;
use flymon_packet::{KeySpec, Packet, PacketBuilder, TaskFilter};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};

fn switch(groups: usize, buckets: usize) -> FlyMon {
    FlyMon::new(FlyMonConfig {
        groups,
        buckets_per_cmu: buckets,
        ..FlyMonConfig::default()
    })
}

fn small_trace(seed: u64) -> Vec<Packet> {
    TraceGenerator::new(seed).wide_like(&TraceConfig {
        flows: 2_000,
        packets: 60_000,
        zipf_alpha: 1.1,
        duration_ns: 1_000_000_000,
        seed,
    })
}

#[test]
fn every_frequency_algorithm_counts() {
    let trace = small_trace(1);
    let truth =
        flymon_traffic::ground_truth::GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
    let (top_key, &top_count) = truth.frequency.iter().max_by_key(|&(_, c)| c).unwrap();
    let rep = trace
        .iter()
        .find(|p| &KeySpec::SRC_IP.extract(p) == top_key)
        .unwrap();
    for alg in [
        Algorithm::Cms { d: 3 },
        Algorithm::Cms { d: 1 },
        Algorithm::SuMaxSum { d: 3 },
        Algorithm::Mrac,
        Algorithm::Tower { d: 3 },
        Algorithm::CounterBraids,
    ] {
        let mut fm = switch(3, 65536);
        let def = TaskDefinition::builder("frequency")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(alg)
            .memory(16384)
            .build();
        let h = fm.deploy(&def).unwrap_or_else(|e| panic!("{alg:?}: {e}"));
        fm.process_batch(&trace);
        // The heaviest source must be counted to within 2x by every
        // frequency algorithm at this (generous) memory.
        let est = fm.query_frequency(h, rep);
        assert!(
            est >= top_count / 2 && est <= top_count * 2,
            "{alg:?}: top flow {top_count}, estimated {est}"
        );
    }
}

#[test]
fn max_attribute_tracks_queue_metadata() {
    let mut fm = switch(1, 4096);
    let def = TaskDefinition::builder("congestion")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::Max(MaxParam::QueueLen))
        .algorithm(Algorithm::SuMaxMax { d: 3 })
        .memory(1024)
        .build();
    let h = fm.deploy(&def).unwrap();
    for q in [5u32, 90, 17, 60] {
        fm.process(
            &PacketBuilder::new()
                .src_ip(0x0a000001)
                .queue_len(q)
                .build(),
        );
    }
    assert_eq!(fm.query_max(h, &Packet::tcp(0x0a000001, 0, 0, 0)), 90);
    assert_eq!(fm.query_max(h, &Packet::tcp(0x0b000001, 0, 0, 0)), 0);
}

#[test]
fn max_interval_end_to_end() {
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 3,
        buckets_per_cmu: 65536,
        bucket_bits: 32,
        ..FlyMonConfig::default()
    });
    let def = TaskDefinition::builder("interval")
        .key(KeySpec::FIVE_TUPLE)
        .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
        .algorithm(Algorithm::MaxInterval { d: 1 })
        .memory(16384)
        .build();
    let h = fm.deploy(&def).unwrap();
    // Flow with arrivals at 0, 100, 400, 450 µs: max interval 300 µs.
    for us in [0u64, 100, 400, 450] {
        fm.process(
            &PacketBuilder::new()
                .src_ip(1)
                .dst_ip(2)
                .src_port(3)
                .dst_port(4)
                .ts_ns(us * 1_000)
                .build(),
        );
    }
    let est = fm.query_max(h, &Packet::tcp(1, 2, 3, 4));
    assert_eq!(est, 300, "max inter-arrival should be 300 µs");
    // A never-seen flow reports 0.
    assert_eq!(fm.query_max(h, &Packet::tcp(9, 9, 9, 9)), 0);
}

#[test]
fn max_interval_requires_32bit_registers() {
    let mut fm = switch(3, 65536); // 16-bit registers
    let def = TaskDefinition::builder("interval")
        .key(KeySpec::FIVE_TUPLE)
        .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
        .memory(1024)
        .build();
    assert!(matches!(fm.deploy(&def), Err(FlymonError::BadTask(_))));
}

#[test]
fn one_hot_rows_are_refused_on_registers_narrower_than_their_bits() {
    // Each sets one bit of 16 per bucket (BeauCoup: one of 16 coupons).
    // On a narrower register the SALU masks the high bits away, and a
    // Bloom filter reads inserted keys as absent.
    let distinct = |name: &str, key, alg| {
        TaskDefinition::builder(name)
            .key(key)
            .attribute(Attribute::Distinct(KeySpec::SRC_IP))
            .algorithm(alg)
            .memory(1024)
            .build()
    };
    let defs = [
        TaskDefinition::builder("bloom")
            .key(KeySpec::NONE)
            .attribute(Attribute::Existence(KeySpec::SRC_IP))
            .algorithm(Algorithm::Bloom { d: 2, bit_optimized: true })
            .memory(1024)
            .build(),
        distinct("lc", KeySpec::NONE, Algorithm::LinearCounting),
        distinct("odd", KeySpec::NONE, Algorithm::OddSketch),
        distinct("bc", KeySpec::DST_IP, Algorithm::BeauCoup { d: 2 }),
    ];
    let key = |i: u32| Packet::tcp(i.wrapping_mul(0x9e37_79b9), 1, 2, 3);
    for bits in [8u8, 12, 16, 32] {
        for def in &defs {
            let mut fm = FlyMon::new(FlyMonConfig {
                groups: 2,
                buckets_per_cmu: 4096,
                bucket_bits: bits,
                ..FlyMonConfig::default()
            });
            let case = format!("{} at {bits} bits", def.name);
            match fm.deploy(def) {
                Err(FlymonError::BadTask(msg)) if bits < 16 => {
                    assert!(msg.contains("needs 16-bit registers"), "{case}: {msg}");
                    assert_eq!(fm.task_count(), 0, "{case}: a refused deploy leaves nothing");
                    assert!(fm.audit().is_empty(), "{case}");
                }
                Ok(h) if bits >= 16 => {
                    for i in 0..500 {
                        fm.process(&key(i));
                    }
                    if def.name == "bloom" {
                        let absent = (0..500).filter(|&i| !fm.query_exists(h, &key(i))).count();
                        assert_eq!(absent, 0, "{case}: inserted keys read absent");
                    }
                }
                other => panic!("{case}: {other:?}"),
            }
        }
    }
}

#[test]
fn existence_check_has_no_false_negatives() {
    let mut fm = switch(1, 65536);
    let def = TaskDefinition::builder("blacklist")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(8192)
        .build();
    let h = fm.deploy(&def).unwrap();
    for i in 0..3_000u32 {
        fm.process(&Packet::tcp(i, 1, 2, 3));
    }
    for i in 0..3_000u32 {
        assert!(fm.query_exists(h, &Packet::tcp(i, 1, 2, 3)));
    }
    // Absent keys mostly miss at this load.
    let fps = (3_000..13_000u32)
        .filter(|&i| fm.query_exists(h, &Packet::tcp(i, 1, 2, 3)))
        .count();
    assert!(fps < 1_000, "FP rate too high: {fps}/10000");
}

#[test]
fn task_filters_isolate_traffic_end_to_end() {
    let mut fm = switch(2, 4096);
    let mk = |name: &str, net: u32| {
        TaskDefinition::builder(name)
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .filter(TaskFilter::src(net, 8))
            .memory(512)
            .build()
    };
    let a = fm.deploy(&mk("a", 0x0a000000)).unwrap();
    let b = fm.deploy(&mk("b", 0x14000000)).unwrap();
    for i in 0..50u32 {
        fm.process(&Packet::tcp(0x0a000000 | i, 1, 1, 1));
    }
    // Task B saw nothing.
    assert_eq!(fm.query_frequency(b, &Packet::tcp(0x14000001, 1, 1, 1)), 0);
    assert_eq!(fm.query_frequency(a, &Packet::tcp(0x0a000001, 1, 1, 1)), 1);
}

#[test]
fn task_split_reduces_per_subtask_load() {
    // §3.1.1: split a heavy task's filter into disjoint halves hosted on
    // different CMUs.
    let parent = TaskFilter::src(0x0a000000, 8);
    let (lo, hi) = parent.split().unwrap();
    let mut fm = switch(1, 4096);
    let mk = |name: &str, f: TaskFilter| {
        TaskDefinition::builder(name)
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .filter(f)
            .memory(1024)
            .build()
    };
    let h_lo = fm.deploy(&mk("lo", lo)).unwrap();
    let h_hi = fm.deploy(&mk("hi", hi)).unwrap();
    let p_lo = Packet::tcp(0x0a000001, 1, 1, 1); // 10.0.0.1 -> low half
    let p_hi = Packet::tcp(0x0a800001, 1, 1, 1); // 10.128.0.1 -> high half
    for _ in 0..7 {
        fm.process(&p_lo);
        fm.process(&p_hi);
    }
    assert_eq!(fm.query_frequency(h_lo, &p_lo), 7);
    assert_eq!(fm.query_frequency(h_hi, &p_hi), 7);
    assert_eq!(fm.query_frequency(h_lo, &p_hi), 0);
}

#[test]
fn xor_composition_measures_ip_pairs_correctly() {
    let mut fm = switch(1, 4096);
    // Configure SrcIP and DstIP singles first (each on its own CMU).
    let mk = |name: &str, key: KeySpec, filter: TaskFilter| {
        TaskDefinition::builder(name)
            .key(key)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .filter(filter)
            .memory(512)
            .build()
    };
    fm.deploy(&mk("src", KeySpec::SRC_IP, TaskFilter::src(0x0a000000, 8)))
        .unwrap();
    fm.deploy(&mk("dst", KeySpec::DST_IP, TaskFilter::src(0x14000000, 8)))
        .unwrap();
    // The IP-pair task must now XOR-compose without a new hash mask.
    let pair = fm
        .deploy(&mk("pair", KeySpec::IP_PAIR, TaskFilter::src(0x1e000000, 8)))
        .unwrap();
    let t = fm.task(pair).unwrap();
    assert_eq!(t.install.hash_mask_rules, 0, "expected XOR composition");

    // And it must actually distinguish pairs.
    let p1 = Packet::tcp(0x1e000001, 0xc0a80001, 1, 1);
    let p2 = Packet::tcp(0x1e000001, 0xc0a80002, 1, 1);
    for _ in 0..5 {
        fm.process(&p1);
    }
    fm.process(&p2);
    assert_eq!(fm.query_frequency(pair, &p1), 5);
    assert_eq!(fm.query_frequency(pair, &p2), 1);
}

#[test]
fn all_table3_algorithms_deploy_under_100ms() {
    let defs: Vec<TaskDefinition> = vec![
        TaskDefinition::builder("cms")
            .key(KeySpec::SRC_IP)
            .algorithm(Algorithm::Cms { d: 3 })
            .memory(4096)
            .build(),
        TaskDefinition::builder("bc")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::Distinct(KeySpec::SRC_IP))
            .algorithm(Algorithm::BeauCoup { d: 3 })
            .memory(4096)
            .build(),
        TaskDefinition::builder("bloom")
            .key(KeySpec::NONE)
            .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
            .memory(4096)
            .build(),
        TaskDefinition::builder("sumax-max")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::Max(MaxParam::QueueLen))
            .memory(4096)
            .build(),
        TaskDefinition::builder("hll")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .algorithm(Algorithm::Hll)
            .memory(4096)
            .build(),
        TaskDefinition::builder("sumax-sum")
            .key(KeySpec::SRC_IP)
            .algorithm(Algorithm::SuMaxSum { d: 3 })
            .memory(4096)
            .build(),
        TaskDefinition::builder("mrac")
            .key(KeySpec::FIVE_TUPLE)
            .algorithm(Algorithm::Mrac)
            .memory(4096)
            .build(),
    ];
    for def in &defs {
        let mut fm = FlyMon::new(FlyMonConfig::default());
        let h = fm
            .deploy(def)
            .unwrap_or_else(|e| panic!("{}: {e}", def.name));
        let ms = fm.task(h).unwrap().install.latency_ms();
        assert!(
            ms > 0.0 && ms < 100.0,
            "{}: deployment delay {ms} ms out of the paper's envelope",
            def.name
        );
    }
}

#[test]
fn pcap_capture_drives_the_switch_end_to_end() {
    // Write a synthetic capture as real pcap, read it back, measure it.
    use flymon_traffic::pcap::{read_pcap, write_pcap};
    let trace = small_trace(41);
    let mut buf = Vec::new();
    write_pcap(&mut buf, &trace).unwrap();
    let replay = read_pcap(buf.as_slice()).unwrap();
    assert_eq!(replay.len(), trace.len());

    let mut fm = switch(1, 65536);
    let h = fm
        .deploy(
            &TaskDefinition::builder("from-pcap")
                .key(KeySpec::SRC_IP)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 3 })
                .memory(16384)
                .build(),
        )
        .unwrap();
    fm.process_batch(&replay);
    // Counts agree with ground truth computed on the original trace
    // (header fields round-trip bit-exact through pcap).
    let truth =
        flymon_traffic::ground_truth::GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
    let (top_key, &top_count) = truth.frequency.iter().max_by_key(|&(_, c)| c).unwrap();
    let rep = trace
        .iter()
        .find(|p| &KeySpec::SRC_IP.extract(p) == top_key)
        .unwrap();
    let est = fm.query_frequency(h, rep);
    assert!(
        est >= top_count && est <= top_count + top_count / 10,
        "top flow {top_count}, estimated {est} from pcap replay"
    );
}

#[test]
fn figure10_three_tasks_on_one_cmu_group() {
    // Figure 10's control-plane abstraction: one CMU Group concurrently
    // running (per-SrcIP) flow size estimation, DDoS victim detection
    // and congestion detection, with disjoint filters and partitioned
    // memory (16384*3 + 16384*3 + 32768*1 buckets on 65536-bucket CMUs).
    let mut fm = switch(1, 65536);

    let size = TaskDefinition::builder("flow-size")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 3 })
        .filter(TaskFilter::src(0x0a000000, 8)) // 10.0.0.0/8
        .memory(16384)
        .build();
    let ddos = TaskDefinition::builder("ddos-victims")
        .key(KeySpec::DST_IP)
        .attribute(Attribute::Distinct(KeySpec::SRC_IP))
        .algorithm(Algorithm::BeauCoup { d: 3 })
        .distinct_threshold(256)
        // Fig. 10 filters on dst 192.168.0.0/24; our control plane's
        // §3.3 check is *static*, so the source side must also be
        // disjoint from the other tasks' filters (the paper assumes the
        // actual traffic is disjoint).
        .filter(TaskFilter {
            src: flymon_packet::PrefixFilter::new(0x14000000, 8),
            dst: flymon_packet::PrefixFilter::new(0xc0a80000, 24),
        })
        .memory(16384)
        .build();
    let congestion = TaskDefinition::builder("congestion")
        .key(KeySpec::IP_PAIR)
        .attribute(Attribute::Max(MaxParam::QueueLen))
        .algorithm(Algorithm::SuMaxMax { d: 1 })
        .filter(TaskFilter::src(0xac0a0000, 16)) // 172.10.0.0/16
        .memory(32768)
        .build();

    let h_size = fm.deploy(&size).unwrap();
    let h_ddos = fm.deploy(&ddos).unwrap();
    let h_cong = fm.deploy(&congestion).unwrap();
    // All three landed on the single group.
    for h in [h_size, h_ddos, h_cong] {
        for row in &fm.task(h).unwrap().rows {
            assert_eq!(row.group, 0);
        }
    }

    // Traffic for all three tasks, interleaved.
    for i in 0..600u32 {
        fm.process(&Packet::tcp(0x0a000001, 1, 1, 1)); // task 1's flow
        fm.process(&Packet::tcp(0x14000000 | i, 0xc0a80007, 1, 80)); // attack
        fm.process(
            &flymon_packet::PacketBuilder::new()
                .src_ip(0xac0a0001)
                .dst_ip(9)
                .queue_len(i % 50)
                .build(),
        );
    }
    assert_eq!(fm.query_frequency(h_size, &Packet::tcp(0x0a000001, 1, 1, 1)), 600);
    assert!(fm.beaucoup_reports(h_ddos, &Packet::tcp(0x14000001, 0xc0a80007, 0, 0)));
    assert_eq!(fm.query_max(h_cong, &Packet::tcp(0xac0a0001, 9, 0, 0)), 49);
}

#[test]
fn table1_port_scan_detection() {
    // Table 1: Port Scan — key = IP pair, attribute = Distinct(DstPort).
    let mut fm = switch(1, 65536);
    let def = TaskDefinition::builder("portscan")
        .key(KeySpec::IP_PAIR)
        .attribute(Attribute::Distinct(KeySpec {
            dst_port: true,
            ..KeySpec::NONE
        }))
        .algorithm(Algorithm::BeauCoup { d: 3 })
        .distinct_threshold(200)
        .memory(16384)
        .build();
    let h = fm.deploy(&def).unwrap();
    let scanner = 0xc633_6401u32; // 198.51.100.1
    let target = 0x0a00_0001u32;
    for port in 0..1_500u16 {
        fm.process(&Packet::tcp(scanner, target, 40_000, port));
    }
    // A normal client touches 3 ports, heavily.
    for i in 0..1_500u32 {
        fm.process(&Packet::tcp(7, target, 1234, (i % 3) as u16));
    }
    assert!(fm.beaucoup_reports(h, &Packet::tcp(scanner, target, 0, 0)));
    assert!(!fm.beaucoup_reports(h, &Packet::tcp(7, target, 0, 0)));
}

#[test]
fn table1_worm_detection() {
    // Table 1: Worm — key = SrcIP, attribute = Distinct(DstIP): a worm
    // scans many destinations from one source.
    let mut fm = switch(1, 65536);
    let def = TaskDefinition::builder("worm")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::Distinct(KeySpec::DST_IP))
        .algorithm(Algorithm::BeauCoup { d: 3 })
        .distinct_threshold(300)
        .memory(16384)
        .build();
    let h = fm.deploy(&def).unwrap();
    let worm = 0xdead_0001u32;
    for dst in 0..2_000u32 {
        fm.process(&Packet::tcp(worm, dst, 1, 445));
    }
    for _ in 0..2_000u32 {
        fm.process(&Packet::tcp(0xbeef_0001, 42, 1, 445)); // one peer
    }
    assert!(fm.beaucoup_reports(h, &Packet::tcp(worm, 0, 0, 0)));
    assert!(!fm.beaucoup_reports(h, &Packet::tcp(0xbeef_0001, 0, 0, 0)));
}

#[test]
fn mrac_flow_size_distribution_wmre() {
    // Table 1: per-flow size distribution (MRAC) scored with WMRE.
    use flymon_traffic::metrics::wmre;
    let trace = small_trace(31);
    let truth = flymon_traffic::ground_truth::GroundTruth::packet_counts(
        &trace,
        KeySpec::FIVE_TUPLE,
    );
    let truth_dist: Vec<f64> = truth
        .size_distribution()
        .into_iter()
        .map(|c| c as f64)
        .collect();

    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 1,
        buckets_per_cmu: 65536,
        bucket_bits: 32,
        ..FlyMonConfig::default()
    });
    let h = fm
        .deploy(
            &TaskDefinition::builder("dist")
                .key(KeySpec::FIVE_TUPLE)
                .algorithm(Algorithm::Mrac)
                .memory(16384)
                .build(),
        )
        .unwrap();
    fm.process_batch(&trace);
    let est = fm.flow_size_distribution(h, 10);
    let score = wmre(&truth_dist, &est);
    assert!(score < 0.5, "flow-size distribution WMRE {score:.3}");
}

#[test]
fn beaucoup_frequency_proxy_counts_distinct_timestamps() {
    // §5.3: heavy hitters via distinct-timestamp counting.
    let mut fm = switch(1, 65536);
    let def = TaskDefinition::builder("hh-bc")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::Distinct(KeySpec {
            timestamp: true,
            ..KeySpec::NONE
        }))
        .algorithm(Algorithm::BeauCoup { d: 3 })
        .distinct_threshold(1000)
        .memory(16384)
        .build();
    let h = fm.deploy(&def).unwrap();
    // A source sending 5000 packets at distinct µs timestamps reports;
    // one sending 50 does not.
    for i in 0..5_000u64 {
        fm.process(&PacketBuilder::new().src_ip(1).ts_ns(i * 1_000).build());
    }
    for i in 0..50u64 {
        fm.process(&PacketBuilder::new().src_ip(2).ts_ns(i * 1_000).build());
    }
    assert!(fm.beaucoup_reports(h, &Packet::tcp(1, 0, 0, 0)));
    assert!(!fm.beaucoup_reports(h, &Packet::tcp(2, 0, 0, 0)));
}
