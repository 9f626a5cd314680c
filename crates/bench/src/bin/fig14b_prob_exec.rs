//! Figure 14b: heavy-hitter F1 under probabilistic execution.
//!
//! ```sh
//! cargo run --release -p flymon-bench --bin fig14b_prob_exec
//! ```
//!
//! The sampling escape hatch for intersecting tasks (§3.3/§5.3): a CMU
//! executes the task with probability p per packet; estimates are scaled
//! by 1/p at query time. The paper finds p down to 1/8 barely moves
//! heavy-hitter F1.

use std::collections::HashSet;

use flymon::prelude::*;
use flymon_bench::{eval_trace, fmt_bytes, print_table, representatives, score_heavy_hitters};
use flymon_packet::{FlowKeyBytes, KeySpec};
use flymon_traffic::ground_truth::GroundTruth;

const THRESHOLD: u64 = 1024;
const KEY: KeySpec = KeySpec::SRC_IP;

fn main() {
    let trace = eval_trace();
    let truth = GroundTruth::packet_counts(&trace, KEY);
    let reps = representatives(&trace, KEY);
    println!(
        "trace: {} packets, {} true heavy hitters (threshold {THRESHOLD})\n",
        trace.len(),
        truth.heavy_hitters(THRESHOLD).len()
    );

    let sweeps: [usize; 5] = [40 << 10, 80 << 10, 120 << 10, 160 << 10, 200 << 10];
    let mut rows = Vec::new();
    for &bytes in &sweeps {
        let mut row = vec![fmt_bytes(bytes)];
        for prob_log2 in 0u8..=3 {
            let def = TaskDefinition::builder("hh-sampled")
                .key(KEY)
                .attribute(Attribute::frequency_packets())
                .algorithm(Algorithm::Cms { d: 3 })
                .probability_log2(prob_log2)
                .memory((bytes / 2 / 3).max(8))
                .build();
            let mut fm = FlyMon::new(FlyMonConfig {
                groups: 2,
                buckets_per_cmu: 65536,
                max_partitions_log2: 10,
                ..FlyMonConfig::default()
            });
            let h = fm.deploy(&def).expect("deploys");
            fm.process_batch(&trace);
            let scale = 1u64 << prob_log2;
            let reported: HashSet<FlowKeyBytes> = reps
                .iter()
                .filter(|(_, p)| fm.query_frequency(h, p) * scale >= THRESHOLD)
                .map(|(k, _)| *k)
                .collect();
            row.push(format!(
                "{:.3}",
                score_heavy_hitters(&truth, THRESHOLD, &reported).f1
            ));
        }
        rows.push(row);
    }
    print_table(
        "Figure 14b: heavy-hitter F1 under probabilistic execution",
        &["memory", "p=1.0", "p=0.5", "p=0.25", "p=0.125"],
        &rows,
    );
    println!("paper shape: sampling down to p=0.125 has little effect on HH F1.");
}
