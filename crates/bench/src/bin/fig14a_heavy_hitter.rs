//! Figure 14a: heavy-hitter detection F1 vs memory, six algorithms.
//!
//! ```sh
//! cargo run --release -p flymon-bench --bin fig14a_heavy_hitter
//! ```
//!
//! Threshold 1024 packets on the WIDE-like trace. Series: FlyMon-BeauCoup
//! (d=3, counting distinct timestamps), FlyMon-CMS (d=3), FlyMon-SuMax
//! (d=3), UnivMon, original BeauCoup (d=1, d=3).

use std::collections::HashSet;

use flymon::prelude::*;
use flymon_bench::{eval_trace, fmt_bytes, print_table, representatives, score_heavy_hitters};
use flymon_packet::{FlowKeyBytes, KeySpec, Packet};
use flymon_sketches::beaucoup::{BeauCoup, BeauCoupConfig};
use flymon_sketches::univmon::UnivMon;
use flymon_traffic::ground_truth::GroundTruth;

const THRESHOLD: u64 = 1024;
const KEY: KeySpec = KeySpec::SRC_IP;

fn flymon_config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 4,
        buckets_per_cmu: 1 << 18,
        max_partitions_log2: 10, // fine-grained memory sweep
        ..FlyMonConfig::default()
    }
}

fn flymon_hh(
    def: &TaskDefinition,
    trace: &[Packet],
    reps: &std::collections::HashMap<FlowKeyBytes, Packet>,
    report: impl Fn(&FlyMon, TaskHandle, &Packet) -> bool,
) -> (usize, HashSet<FlowKeyBytes>) {
    let mut fm = FlyMon::new(flymon_config());
    let h = fm.deploy(def).expect("deploys");
    fm.process_batch(trace);
    let reported = reps
        .iter()
        .filter(|(_, p)| report(&fm, h, p))
        .map(|(k, _)| *k)
        .collect();
    (
        fm.task(h).unwrap().memory_bytes(fm.config().bucket_bits),
        reported,
    )
}

fn main() {
    let trace = eval_trace();
    let truth = GroundTruth::packet_counts(&trace, KEY);
    let reps = representatives(&trace, KEY);
    println!(
        "trace: {} packets, {} flows, {} true heavy hitters (threshold {THRESHOLD})\n",
        trace.len(),
        truth.cardinality(),
        truth.heavy_hitters(THRESHOLD).len()
    );

    let sweeps: [usize; 5] = [10 << 10, 30 << 10, 100 << 10, 300 << 10, 1 << 20];
    let mut rows = Vec::new();
    for &bytes in &sweeps {
        let mut row = vec![fmt_bytes(bytes)];

        // FlyMon-BeauCoup (d=3): distinct µs timestamps as frequency.
        let def = TaskDefinition::builder("hh-beaucoup")
            .key(KEY)
            .attribute(Attribute::Distinct(KeySpec {
                timestamp: true,
                ..KeySpec::NONE
            }))
            .algorithm(Algorithm::BeauCoup { d: 3 })
            .distinct_threshold(THRESHOLD)
            .memory((bytes / 2 / 3).clamp(8, 1 << 18))
            .build();
        let (_, reported) = flymon_hh(&def, &trace, &reps, |fm, h, p| fm.beaucoup_reports(h, p));
        row.push(format!(
            "{:.3}",
            score_heavy_hitters(&truth, THRESHOLD, &reported).f1
        ));

        // FlyMon-CMS (d=3).
        let def = TaskDefinition::builder("hh-cms")
            .key(KEY)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 3 })
            .memory((bytes / 2 / 3).clamp(8, 1 << 18))
            .build();
        let (_, reported) = flymon_hh(&def, &trace, &reps, |fm, h, p| {
            fm.query_frequency(h, p) >= THRESHOLD
        });
        row.push(format!(
            "{:.3}",
            score_heavy_hitters(&truth, THRESHOLD, &reported).f1
        ));

        // FlyMon-SuMax (d=3): conservative update across 3 groups.
        let def = TaskDefinition::builder("hh-sumax")
            .key(KEY)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::SuMaxSum { d: 3 })
            .memory((bytes / 2 / 3).clamp(8, 1 << 18))
            .build();
        let (_, reported) = flymon_hh(&def, &trace, &reps, |fm, h, p| {
            fm.query_frequency(h, p) >= THRESHOLD
        });
        row.push(format!(
            "{:.3}",
            score_heavy_hitters(&truth, THRESHOLD, &reported).f1
        ));

        // UnivMon.
        let mut um = UnivMon::with_memory(bytes);
        for p in &trace {
            um.update(KEY.extract(p).as_bytes());
        }
        let um_reported: HashSet<Vec<u8>> =
            um.heavy_hitters(THRESHOLD).into_iter().map(|(k, _)| k).collect();
        let reported: HashSet<FlowKeyBytes> = reps
            .keys()
            .filter(|k| um_reported.contains(k.as_bytes()))
            .copied()
            .collect();
        row.push(format!(
            "{:.3}",
            score_heavy_hitters(&truth, THRESHOLD, &reported).f1
        ));

        // Original BeauCoup (d=1, d=3) counting distinct timestamps.
        for d in [1usize, 3] {
            let cfg = BeauCoupConfig::for_threshold(THRESHOLD, d, (bytes / 6 / d).max(8));
            let mut bc = BeauCoup::new(cfg);
            for p in &trace {
                let ts = ((p.ts_ns / 1_000) as u32).to_be_bytes();
                bc.update(KEY.extract(p).as_bytes(), &ts);
            }
            let reported: HashSet<FlowKeyBytes> = reps
                .keys()
                .filter(|k| bc.reports(k.as_bytes()))
                .copied()
                .collect();
            row.push(format!(
                "{:.3}",
                score_heavy_hitters(&truth, THRESHOLD, &reported).f1
            ));
        }
        rows.push(row);
    }
    print_table(
        "Figure 14a: heavy-hitter F1 vs memory (threshold 1024)",
        &[
            "memory",
            "FlyMon-BeauCoup(3)",
            "FlyMon-CMS(3)",
            "FlyMon-SuMax(3)",
            "UnivMon",
            "BeauCoup(1)",
            "BeauCoup(3)",
        ],
        &rows,
    );
    println!(
        "paper shape: counter-based series reach F1 > 0.99 by ~100 KB with\n\
         FlyMon-SuMax the most memory-efficient; BeauCoup-based series climb\n\
         more slowly; FlyMon-BeauCoup reaches F1 > 0.9 faster than original\n\
         BeauCoup."
    );
}
