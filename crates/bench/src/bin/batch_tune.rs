//! Quick batched-datapath tuning loop: serial throughput of
//! `FlyMon::process_batch` across batch sizes on the canonical
//! evaluation trace. A development aid for the stage-major
//! hot path — recorded numbers come from `cargo bench --bench datapath`.

use std::time::Instant;

use flymon::prelude::*;
use flymon_bench::eval_trace;
use flymon_packet::KeySpec;

fn main() {
    let trace = eval_trace();
    let def = TaskDefinition::builder("bench-freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 3 })
        .memory(8192)
        .build();
    let config = FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 16384,
        ..FlyMonConfig::default()
    };
    for batch in [16, 64, 256, 1024] {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut fm = FlyMon::new(config);
            fm.deploy(&def).expect("deploys");
            fm.set_batch_size(batch);
            let begun = Instant::now();
            fm.process_batch(&trace);
            best = best.min(begun.elapsed().as_secs_f64());
        }
        println!(
            "batch {batch:>5}  {:>10.0} pkt/s",
            trace.len() as f64 / best
        );
    }
}
