//! The paper's §1 motivating workflow: drill down from congestion to the
//! elephants that cause it, reconfiguring tasks on the fly.
//!
//! ```sh
//! cargo run --release --example heavy_hitter_scheduling
//! ```
//!
//! 1. A `Max(QueueLen)` task watches for congestion.
//! 2. When congestion is found, the operator *reconfigures* — retiring
//!    the congestion task and deploying a heavy-hitter task on the same
//!    CMUs — to identify the elephant flows to reschedule.
//! 3. Everything happens through runtime rules; the data plane never
//!    reloads.

use flymon::prelude::*;
use flymon_packet::{fmt_ipv4, KeySpec, Packet};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};
use flymon_traffic::ground_truth::GroundTruth;

fn main() {
    let cfg = TraceConfig {
        flows: 8_000,
        packets: 400_000,
        zipf_alpha: 1.2, // strong elephants
        ..TraceConfig::default()
    };
    let trace = TraceGenerator::new(77).wide_like(&cfg);

    let mut switch = FlyMon::new(FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 65536,
        ..FlyMonConfig::default()
    });

    // --- Phase 1: congestion watch -----------------------------------
    let congestion = TaskDefinition::builder("congestion-watch")
        .key(KeySpec::src_ip_slash(8)) // per ingress aggregate
        .attribute(Attribute::Max(MaxParam::QueueLen))
        .memory(4096)
        .build();
    let watch = switch.deploy(&congestion).expect("deploys");
    println!("== phase 1: congestion watch ({}) ==", congestion.name);

    switch.process_batch(&trace);

    // Find the /8 aggregate with the worst queue — that's where to look.
    let mut worst: (u32, u64) = (0, 0);
    for net in [10u32, 24, 59, 131, 172, 192] {
        let probe = Packet::tcp(net << 24, 1, 1, 1);
        let q = switch.query_max(watch, &probe);
        println!("  {:>12}/8 : max queue {:>5} cells", fmt_ipv4(net << 24), q);
        if q > worst.1 {
            worst = (net << 24, q);
        }
    }
    println!(
        "congested aggregate: {}/8 (max queue {} cells)\n",
        fmt_ipv4(worst.0),
        worst.1
    );

    // --- Phase 2: on-the-fly switch to heavy hitters ------------------
    switch.remove(watch).expect("removes");
    let hh_task = TaskDefinition::builder("heavy-hitters")
        .key(KeySpec::FIVE_TUPLE)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::SuMaxSum { d: 2 }) // conservative update
        .filter(flymon_packet::TaskFilter::src(worst.0, 8))
        .memory(32768)
        .build();
    let hh = switch.deploy(&hh_task).expect("deploys");
    println!(
        "== phase 2: heavy hitters on {}/8 ({} — {:.1} ms install) ==",
        fmt_ipv4(worst.0),
        switch.task(hh).unwrap().algorithm.name(),
        switch.task(hh).unwrap().install.latency_ms()
    );

    switch.process_batch(&trace);

    // Report the elephants: flows above the threshold, checked against
    // exact ground truth.
    let threshold = 1024u64;
    let filtered: Vec<Packet> = trace
        .iter()
        .filter(|p| hh_task.filter.matches(p))
        .copied()
        .collect();
    let truth = GroundTruth::packet_counts(&filtered, KeySpec::FIVE_TUPLE);
    let mut elephants: Vec<(Packet, u64, u64)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for p in &filtered {
        if !seen.insert(KeySpec::FIVE_TUPLE.extract(p)) {
            continue;
        }
        let est = switch.query_frequency(hh, p);
        if est >= threshold {
            let t = truth.frequency[&KeySpec::FIVE_TUPLE.extract(p)];
            elephants.push((*p, est, t));
        }
    }
    elephants.sort_by_key(|&(_, est, _)| std::cmp::Reverse(est));
    println!(
        "flows over {threshold} pkts: {} reported, {} true",
        elephants.len(),
        truth.heavy_hitters(threshold).len()
    );
    for (p, est, t) in elephants.iter().take(8) {
        println!(
            "  {:>15}:{:<5} -> {:>15}:{:<5}  est {est:>6}  true {t:>6}",
            fmt_ipv4(p.src_ip),
            p.src_port,
            fmt_ipv4(p.dst_ip),
            p.dst_port
        );
    }
    println!("\n(these are the flows the operator would re-balance, §1)");
}
