//! DDoS victim detection with FlyMon-BeauCoup (§4 of the paper).
//!
//! ```sh
//! cargo run --release --example ddos_detection
//! ```
//!
//! Generates background traffic plus a set of attacked destinations,
//! deploys a `Distinct(SrcIP)` task keyed by `DstIP`, and reports every
//! destination whose distinct-source count crossed the threshold —
//! scoring precision/recall against the exact ground truth.

use std::collections::HashSet;

use flymon::prelude::*;
use flymon_packet::{fmt_ipv4, KeySpec, Packet};
use flymon_traffic::gen::{DdosConfig, TraceConfig, TraceGenerator};
use flymon_traffic::ground_truth::distinct_counts;
use flymon_traffic::metrics::f1_score;

fn main() {
    let threshold = 512u64;

    // Traffic: 5K background flows + 10 victims x 2000 spoofed sources.
    let cfg = DdosConfig {
        background: TraceConfig {
            flows: 5_000,
            packets: 200_000,
            ..TraceConfig::default()
        },
        victims: 10,
        sources_per_victim: 2_000,
        packets_per_source: 1,
    };
    let (trace, victims) = TraceGenerator::new(2024).ddos(&cfg);
    println!("== DDoS victim detection ==");
    println!(
        "trace: {} packets, {} planted victims (>{threshold} distinct sources each)\n",
        trace.len(),
        victims.len()
    );

    // Deploy the detection task: key=DstIP, attribute=Distinct(SrcIP).
    let mut switch = FlyMon::new(FlyMonConfig {
        groups: 3,
        buckets_per_cmu: 65536,
        ..FlyMonConfig::default()
    });
    let task = TaskDefinition::builder("ddos-victims")
        .key(KeySpec::DST_IP)
        .attribute(Attribute::Distinct(KeySpec::SRC_IP))
        .algorithm(Algorithm::BeauCoup { d: 3 })
        .distinct_threshold(threshold)
        .memory(16384)
        .build();
    let handle = switch.deploy(&task).expect("deploys");
    println!(
        "deployed '{}' as {} ({:.1} ms modeled install)",
        task.name,
        switch.task(handle).unwrap().algorithm.name(),
        switch.task(handle).unwrap().install.latency_ms()
    );

    switch.process_batch(&trace);

    // Ground truth and reported sets over all destinations seen.
    let truth_counts = distinct_counts(&trace, KeySpec::DST_IP, KeySpec::SRC_IP);
    let truth: HashSet<_> = truth_counts
        .iter()
        .filter(|&(_, &c)| c >= threshold)
        .map(|(k, _)| *k)
        .collect();

    let mut representative = std::collections::HashMap::new();
    for p in &trace {
        representative.entry(KeySpec::DST_IP.extract(p)).or_insert(*p);
    }
    let reported: HashSet<_> = truth_counts
        .keys()
        .filter(|k| switch.beaucoup_reports(handle, &representative[*k]))
        .copied()
        .collect();

    let score = f1_score(&reported, &truth);
    println!(
        "\ndetected {} victims of {} true (precision {:.3}, recall {:.3}, F1 {:.3})",
        reported.len(),
        truth.len(),
        score.precision,
        score.recall,
        score.f1
    );

    println!("\nper-victim view (planted attacks):");
    for &v in &victims {
        let pkt = Packet::tcp(1, v, 1, 80);
        let coupons = switch.query_coupons(handle, &pkt);
        let est = switch.query_distinct(handle, &pkt);
        println!(
            "  {:>15}: coupons {:?} -> estimated ~{:>5.0} distinct sources, reported: {}",
            fmt_ipv4(v),
            coupons,
            est,
            switch.beaucoup_reports(handle, &pkt)
        );
    }
}
