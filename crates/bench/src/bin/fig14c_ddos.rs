//! Figure 14c: DDoS victim detection F1 vs memory.
//!
//! ```sh
//! cargo run --release -p flymon-bench --bin fig14c_ddos
//! ```
//!
//! FlyMon-BeauCoup (multi-table AND, §4) against the original BeauCoup,
//! at d=1 and d=3, with a 512-distinct-source threshold. The attack mix
//! plants victims on both sides of the threshold so precision and recall
//! both matter.

use std::collections::HashSet;

use flymon::prelude::*;
use flymon_bench::{fmt_bytes, print_table, representatives};
use flymon_packet::{FlowKeyBytes, KeySpec, Packet, PacketBuilder};
use flymon_sketches::beaucoup::{BeauCoup, BeauCoupConfig};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};
use flymon_traffic::ground_truth::distinct_counts;
use flymon_traffic::metrics::f1_score;

const THRESHOLD: u64 = 512;
const KEY: KeySpec = KeySpec::DST_IP;

/// Background plus 60 planted destinations with 100..=3050 distinct
/// sources (sweeping across the threshold).
fn attack_trace() -> Vec<Packet> {
    let mut gen = TraceGenerator::new(0xDD05);
    let mut trace = gen.wide_like(&TraceConfig {
        flows: 30_000,
        packets: 700_000,
        zipf_alpha: 1.1,
        duration_ns: 30_000_000_000,
        seed: 0xDD05,
    });
    let mut extra = Vec::new();
    for v in 0u32..60 {
        let victim = (203u32 << 24) | (113 << 8) | v;
        let sources = 100 + v * 50;
        for s in 0..sources {
            extra.push(
                PacketBuilder::new()
                    .src_ip((198 << 24) | (v << 16) | s)
                    .dst_ip(victim)
                    .src_port(s as u16)
                    .dst_port(80)
                    .ts_ns(u64::from(s) * 1_000_000)
                    .build(),
            );
        }
    }
    trace.extend(extra);
    trace.sort_by_key(|p| p.ts_ns);
    trace
}

fn main() {
    let trace = attack_trace();
    let truth_counts = distinct_counts(&trace, KEY, KeySpec::SRC_IP);
    let truth: HashSet<FlowKeyBytes> = truth_counts
        .iter()
        .filter(|&(_, &c)| c >= THRESHOLD)
        .map(|(k, _)| *k)
        .collect();
    let reps = representatives(&trace, KEY);
    println!(
        "trace: {} packets, {} destinations, {} true victims (threshold {THRESHOLD})\n",
        trace.len(),
        truth_counts.len(),
        truth.len()
    );

    let sweeps: [usize; 5] = [10 << 10, 30 << 10, 100 << 10, 300 << 10, 1 << 20];
    let mut rows = Vec::new();
    for &bytes in &sweeps {
        let mut row = vec![fmt_bytes(bytes)];

        // FlyMon-BeauCoup at d=1 and d=3.
        for d in [1usize, 3] {
            let def = TaskDefinition::builder("ddos")
                .key(KEY)
                .attribute(Attribute::Distinct(KeySpec::SRC_IP))
                .algorithm(Algorithm::BeauCoup { d })
                .distinct_threshold(THRESHOLD)
                .memory((bytes / 2 / d).clamp(8, 1 << 19))
                .build();
            let mut fm = FlyMon::new(FlyMonConfig {
                groups: 2,
                buckets_per_cmu: 1 << 19,
                max_partitions_log2: 10,
                ..FlyMonConfig::default()
            });
            let h = fm.deploy(&def).expect("deploys");
            fm.process_batch(&trace);
            let reported: HashSet<FlowKeyBytes> = reps
                .iter()
                .filter(|(_, p)| fm.beaucoup_reports(h, p))
                .map(|(k, _)| *k)
                .collect();
            row.push(format!("{:.3}", f1_score(&reported, &truth).f1));
        }

        // Original BeauCoup at d=1 and d=3.
        for d in [1usize, 3] {
            let cfg = BeauCoupConfig::for_threshold(THRESHOLD, d, (bytes / 6 / d).max(8));
            let mut bc = BeauCoup::new(cfg);
            for p in &trace {
                bc.update(KEY.extract(p).as_bytes(), &p.src_ip.to_be_bytes());
            }
            let reported: HashSet<FlowKeyBytes> = reps
                .keys()
                .filter(|k| bc.reports(k.as_bytes()))
                .copied()
                .collect();
            row.push(format!("{:.3}", f1_score(&reported, &truth).f1));
        }
        rows.push(row);
    }
    print_table(
        "Figure 14c: DDoS victim detection F1 vs memory (threshold 512)",
        &[
            "memory",
            "FlyMon-BeauCoup(1)",
            "FlyMon-BeauCoup(3)",
            "BeauCoup(1)",
            "BeauCoup(3)",
        ],
        &rows,
    );
    println!(
        "paper shape: FlyMon-BeauCoup(3) overtakes the original once memory\n\
         exceeds ~100 KB (the multi-table AND suppresses collision FPs)."
    );
}
