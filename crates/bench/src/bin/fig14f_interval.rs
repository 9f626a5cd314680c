//! Figure 14f: maximum inter-arrival time ARE vs memory (d=2, d=3).
//!
//! ```sh
//! cargo run --release -p flymon-bench --bin fig14f_interval
//! ```
//!
//! The 3-CMU combinatorial task of §4 (Bloom membership + arrival
//! recorder + interval maximizer), at d parallel instances whose
//! row-wise minimum suppresses hash-collision overestimates.

use flymon::prelude::*;
use flymon_bench::{fmt_bytes, print_table, representatives};
use flymon_packet::KeySpec;
use flymon_traffic::gen::{TraceConfig, TraceGenerator};
use flymon_traffic::ground_truth::max_intervals;
use flymon_traffic::metrics::average_relative_error;

const KEY: KeySpec = KeySpec::FIVE_TUPLE;

fn main() {
    // A denser trace so flows have many packets (intervals need
    // recurrence); 30 s window like the paper's interval experiment.
    let trace = TraceGenerator::new(0x1f).wide_like(&TraceConfig {
        flows: 60_000,
        packets: 1_200_000,
        zipf_alpha: 1.05,
        duration_ns: 30_000_000_000,
        seed: 0x1f,
    });
    // Ground truth in µs (the data plane records µs timestamps).
    let truth: Vec<(flymon_packet::FlowKeyBytes, u64)> = max_intervals(&trace, KEY)
        .into_iter()
        .map(|(k, ns)| (k, ns / 1_000))
        .filter(|&(_, us)| us > 0)
        .collect();
    let reps = representatives(&trace, KEY);
    println!(
        "trace: {} packets, {} flows with a defined max interval\n",
        trace.len(),
        truth.len()
    );

    let sweeps: [usize; 4] = [4 << 20, 6 << 20, 8 << 20, 10 << 20];
    let mut rows = Vec::new();
    for &bytes in &sweeps {
        let mut row = vec![fmt_bytes(bytes)];
        for d in [2usize, 3] {
            let def = TaskDefinition::builder("max-interval")
                .key(KEY)
                .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
                .algorithm(Algorithm::MaxInterval { d })
                .memory((bytes / 4 / 3 / d).clamp(8, 1 << 19))
                .build();
            let mut fm = FlyMon::new(FlyMonConfig {
                groups: 3,
                buckets_per_cmu: 1 << 19,
                bucket_bits: 32,
                max_partitions_log2: 8,
                ..FlyMonConfig::default()
            });
            let h = fm.deploy(&def).expect("deploys");
            fm.process_batch(&trace);
            let are = average_relative_error(truth.iter().map(|&(k, v)| (k, v)), |k| {
                fm.query_max(h, &reps[k]) as f64
            });
            row.push(format!("{are:.3}"));
        }
        rows.push(row);
    }
    print_table(
        "Figure 14f: max inter-arrival time ARE vs memory",
        &["memory", "d=2", "d=3"],
        &rows,
    );
    println!(
        "paper shape: ARE falls with memory; d=3 beats d=2 (taking the\n\
         minimum over more instances cancels collision overestimates);\n\
         the paper reaches ARE < 4 at 5 MB with d=3."
    );
}
