//! Cross-crate accuracy checks: CMU-hosted algorithms versus exact
//! ground truth and versus their software reference implementations.

use flymon::oracle::PerPacket;
use flymon::prelude::*;
use flymon_packet::{KeySpec, Packet};
use flymon_traffic::gen::{DdosConfig, TraceConfig, TraceGenerator};
use flymon_traffic::ground_truth::{distinct_counts, GroundTruth};
use flymon_traffic::metrics::{average_relative_error, f1_score, relative_error};

fn switch(buckets: usize) -> FlyMon {
    FlyMon::new(FlyMonConfig {
        groups: 3,
        buckets_per_cmu: buckets,
        max_partitions_log2: 10,
        ..FlyMonConfig::default()
    })
}

fn trace(seed: u64, flows: usize, packets: u64) -> Vec<Packet> {
    TraceGenerator::new(seed).wide_like(&TraceConfig {
        flows,
        packets,
        zipf_alpha: 1.1,
        duration_ns: 2_000_000_000,
        seed,
    })
}

fn reps(
    trace: &[Packet],
    key: KeySpec,
) -> std::collections::HashMap<flymon_packet::FlowKeyBytes, Packet> {
    let mut m = std::collections::HashMap::new();
    for p in trace {
        m.entry(key.extract(p)).or_insert(*p);
    }
    m
}

#[test]
fn hll_cardinality_tracks_truth() {
    for &n in &[500u32, 2_000, 20_000] {
        let mut fm = switch(4096);
        let task = TaskDefinition::builder("card")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .algorithm(Algorithm::Hll)
            .memory(1024)
            .build();
        let h = fm.deploy(&task).unwrap();
        for i in 0..n {
            fm.process(&Packet::udp(i, 7, (i % 50_000) as u16, 53));
        }
        let est = fm.cardinality(h);
        let err = (est - f64::from(n)).abs() / f64::from(n);
        assert!(err < 0.12, "n={n}: estimate {est:.0}, relative error {err:.3}");
    }
}

#[test]
fn linear_counting_cardinality_tracks_truth() {
    let mut fm = switch(4096);
    let task = TaskDefinition::builder("card-lc")
        .key(KeySpec::NONE)
        .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
        .algorithm(Algorithm::LinearCounting)
        .memory(1024) // 1024 buckets x 16 bits = 16384 filter bits
        .build();
    let h = fm.deploy(&task).unwrap();
    let n = 4_000u32;
    for i in 0..n {
        fm.process(&Packet::udp(i, 7, 1, 53));
    }
    let est = fm.cardinality(h);
    let err = (est - f64::from(n)).abs() / f64::from(n);
    assert!(err < 0.1, "LC estimate {est:.0} for {n} (err {err:.3})");
}

#[test]
fn cmu_cms_matches_software_cms_accuracy() {
    let t = trace(11, 5_000, 100_000);
    let truth = GroundTruth::packet_counts(&t, KeySpec::SRC_IP);
    let r = reps(&t, KeySpec::SRC_IP);

    // CMU-hosted CMS: 3 x 2048 buckets.
    let mut fm = switch(65536);
    let h = fm
        .deploy(
            &TaskDefinition::builder("cms")
                .key(KeySpec::SRC_IP)
                .algorithm(Algorithm::Cms { d: 3 })
                .memory(2048)
                .build(),
        )
        .unwrap();
    fm.process_batch(&t);
    let cmu_are = average_relative_error(truth.frequency.iter().map(|(k, &v)| (*k, v)), |k| {
        fm.query_frequency(h, &r[k]) as f64
    });

    // Software CMS at the same geometry.
    let mut sw = flymon_sketches::CountMinSketch::new(3, 2048);
    for p in &t {
        sw.update(KeySpec::SRC_IP.extract(p).as_bytes(), 1);
    }
    let sw_are = average_relative_error(truth.frequency.iter().map(|(k, &v)| (*k, v)), |k| {
        sw.query(k.as_bytes()) as f64
    });

    // The CMU version shares one 32-bit digest across its rows
    // (bit-slice trick, §3.2); the paper claims negligible impact.
    assert!(
        cmu_are < sw_are * 1.5 + 0.05,
        "CMU CMS ARE {cmu_are:.4} vs software {sw_are:.4}"
    );
}

#[test]
fn sumax_beats_cms_at_equal_memory() {
    let t = trace(13, 8_000, 150_000);
    let truth = GroundTruth::packet_counts(&t, KeySpec::SRC_IP);
    let r = reps(&t, KeySpec::SRC_IP);
    let are_of = |alg: Algorithm| {
        let mut fm = switch(65536);
        let h = fm
            .deploy(
                &TaskDefinition::builder("f")
                    .key(KeySpec::SRC_IP)
                    .algorithm(alg)
                    .memory(1024)
                    .build(),
            )
            .unwrap();
        fm.process_batch(&t);
        average_relative_error(truth.frequency.iter().map(|(k, &v)| (*k, v)), |k| {
            fm.query_frequency(h, &r[k]) as f64
        })
    };
    let cms = are_of(Algorithm::Cms { d: 3 });
    let sumax = are_of(Algorithm::SuMaxSum { d: 3 });
    assert!(
        sumax < cms,
        "conservative update should win: SuMax {sumax:.4} vs CMS {cms:.4}"
    );
}

#[test]
fn mrac_entropy_close_to_truth() {
    let t = trace(17, 10_000, 150_000);
    let truth = GroundTruth::packet_counts(&t, KeySpec::FIVE_TUPLE).entropy();
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 1,
        buckets_per_cmu: 65536,
        bucket_bits: 32,
        ..FlyMonConfig::default()
    });
    let h = fm
        .deploy(
            &TaskDefinition::builder("mrac")
                .key(KeySpec::FIVE_TUPLE)
                .algorithm(Algorithm::Mrac)
                .memory(65536)
                .build(),
        )
        .unwrap();
    fm.process_batch(&t);
    let est = fm.entropy(h, 10);
    let re = relative_error(truth, est);
    assert!(re < 0.1, "entropy RE {re:.4} (est {est:.3}, truth {truth:.3})");
}

#[test]
fn beaucoup_ddos_detection_f1_high_at_adequate_memory() {
    let cfg = DdosConfig {
        background: TraceConfig {
            flows: 8_000,
            packets: 150_000,
            zipf_alpha: 1.1,
            duration_ns: 2_000_000_000,
            seed: 19,
        },
        victims: 8,
        sources_per_victim: 1_500,
        packets_per_source: 1,
    };
    let (t, _) = TraceGenerator::new(19).ddos(&cfg);
    let truth_counts = distinct_counts(&t, KeySpec::DST_IP, KeySpec::SRC_IP);
    let truth: std::collections::HashSet<_> = truth_counts
        .iter()
        .filter(|&(_, &c)| c >= 512)
        .map(|(k, _)| *k)
        .collect();
    let r = reps(&t, KeySpec::DST_IP);

    let mut fm = switch(65536);
    let h = fm
        .deploy(
            &TaskDefinition::builder("ddos")
                .key(KeySpec::DST_IP)
                .attribute(Attribute::Distinct(KeySpec::SRC_IP))
                .algorithm(Algorithm::BeauCoup { d: 3 })
                .distinct_threshold(512)
                .memory(16384)
                .build(),
        )
        .unwrap();
    fm.process_batch(&t);
    let reported: std::collections::HashSet<_> = r
        .iter()
        .filter(|(_, p)| fm.beaucoup_reports(h, p))
        .map(|(k, _)| *k)
        .collect();
    let score = f1_score(&reported, &truth);
    assert!(
        score.f1 > 0.9,
        "DDoS F1 {:.3} (precision {:.3}, recall {:.3})",
        score.f1,
        score.precision,
        score.recall
    );
}

#[test]
fn tower_and_braids_exact_in_sparse_regime() {
    // With far more buckets than flows, Appendix D's two multi-width
    // recipes must count exactly like the software references.
    let t = trace(23, 300, 5_000);
    let truth = GroundTruth::packet_counts(&t, KeySpec::SRC_IP);
    let r = reps(&t, KeySpec::SRC_IP);
    for alg in [Algorithm::Tower { d: 3 }, Algorithm::CounterBraids] {
        let mut fm = switch(65536);
        let h = fm
            .deploy(
                &TaskDefinition::builder("sparse")
                    .key(KeySpec::SRC_IP)
                    .algorithm(alg)
                    .memory(65536)
                    .build(),
            )
            .unwrap();
        fm.process_batch(&t);
        let mut exact = 0usize;
        for (k, &v) in &truth.frequency {
            if fm.query_frequency(h, &r[k]) == v {
                exact += 1;
            }
        }
        let frac = exact as f64 / truth.frequency.len() as f64;
        assert!(
            frac > 0.97,
            "{alg:?}: only {frac:.3} of sparse flows counted exactly"
        );
    }
}

#[test]
fn tower_saturates_gracefully_on_elephants() {
    let mut fm = switch(65536);
    let h = fm
        .deploy(
            &TaskDefinition::builder("tower")
                .key(KeySpec::SRC_IP)
                .algorithm(Algorithm::Tower { d: 3 })
                .memory(4096)
                .build(),
        )
        .unwrap();
    // 40 packets: beyond the 4-bit level (15) but within the 8-bit one.
    let pkt = Packet::tcp(1, 2, 3, 4);
    for _ in 0..40 {
        fm.process(&pkt);
    }
    assert_eq!(fm.query_frequency(h, &pkt), 40);
    // 700 packets: only the 16-bit level can hold it.
    let pkt2 = Packet::tcp(5, 6, 7, 8);
    for _ in 0..700 {
        fm.process(&pkt2);
    }
    assert_eq!(fm.query_frequency(h, &pkt2), 700);
}

#[test]
fn odd_sketch_similarity_between_two_links() {
    // §6 expansion: compare the flow sets of two "links" (filters).
    // Link A carries flows 0..1200, link B carries flows 200..1400:
    // Jaccard = 1000/1400 ≈ 0.714.
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 4,
        buckets_per_cmu: 65536,
        ..FlyMonConfig::default()
    });
    let mk = |name: &str, dst_net: u32| {
        TaskDefinition::builder(name)
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::SRC_IP))
            .algorithm(Algorithm::OddSketch)
            .filter(flymon_packet::TaskFilter::dst(dst_net, 8))
            .memory(4096)
            .build()
    };
    let a = fm.deploy(&mk("link-a", 0x0a000000)).unwrap();
    let b = fm.deploy(&mk("link-b", 0x14000000)).unwrap();
    for i in 0..1_200u32 {
        // Duplicates must not disturb the parity (first-occurrence gate).
        for _ in 0..3 {
            fm.process(&Packet::tcp(i, 0x0a000001, 1, 1));
        }
    }
    for i in 200..1_400u32 {
        fm.process(&Packet::tcp(i, 0x14000001, 1, 1));
    }
    let j = fm.jaccard_similarity(a, b).unwrap();
    let truth = 1_000.0 / 1_400.0;
    assert!(
        (j - truth).abs() < 0.08,
        "jaccard {j:.3} vs truth {truth:.3}"
    );

    // Disjoint sets score near zero.
    let mut fm2 = FlyMon::new(FlyMonConfig {
        groups: 4,
        buckets_per_cmu: 65536,
        ..FlyMonConfig::default()
    });
    let a2 = fm2.deploy(&mk("link-a", 0x0a000000)).unwrap();
    let b2 = fm2.deploy(&mk("link-b", 0x14000000)).unwrap();
    for i in 0..800u32 {
        fm2.process(&Packet::tcp(i, 0x0a000001, 1, 1));
        fm2.process(&Packet::tcp(0x4000_0000 | i, 0x14000001, 1, 1));
    }
    let j2 = fm2.jaccard_similarity(a2, b2).unwrap();
    assert!(j2 < 0.15, "disjoint sets scored {j2:.3}");
}

#[test]
fn max_interval_accuracy_on_synthetic_flows() {
    let t = trace(29, 3_000, 60_000);
    let truth: Vec<_> = flymon_traffic::ground_truth::max_intervals(&t, KeySpec::FIVE_TUPLE)
        .into_iter()
        .map(|(k, ns)| (k, ns / 1_000))
        .filter(|&(_, us)| us > 0)
        .collect();
    let r = reps(&t, KeySpec::FIVE_TUPLE);
    let mut fm = FlyMon::new(FlyMonConfig {
        groups: 3,
        buckets_per_cmu: 65536,
        bucket_bits: 32,
        ..FlyMonConfig::default()
    });
    let h = fm
        .deploy(
            &TaskDefinition::builder("interval")
                .key(KeySpec::FIVE_TUPLE)
                .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
                .algorithm(Algorithm::MaxInterval { d: 1 })
                .memory(65536)
                .build(),
        )
        .unwrap();
    fm.process_batch(&t);
    let are = average_relative_error(truth.iter().map(|&(k, v)| (k, v)), |k| {
        fm.query_max(h, &r[k]) as f64
    });
    assert!(are < 0.3, "max-interval ARE {are:.4} too high for sparse load");
}
