//! Quickstart: deploy, measure, query, reconfigure.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Walks through the FlyMon lifecycle on a small simulated switch:
//! build the data plane, deploy a measurement task at runtime, feed
//! packets, read estimates, then swap the task for a different one
//! without touching the "hardware".

use flymon::prelude::*;
use flymon_packet::{fmt_ipv4, Packet};

fn main() {
    // A small switch: 2 CMU Groups × 3 CMUs × 4096 buckets.
    let mut switch = FlyMon::new(FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 4096,
        ..FlyMonConfig::default()
    });
    println!("== FlyMon quickstart ==");
    println!(
        "data plane: {} CMU Groups, {} CMUs, {} buckets each\n",
        switch.config().groups,
        switch.config().groups * switch.config().cmus_per_group,
        switch.config().buckets_per_cmu,
    );

    // The task algebra (Table 1): a task = filter × key × attribute ×
    // memory. Keys are any partial key of the candidate key set.
    println!("the task abstraction (Table 1 of the paper):");
    for (key, attr, use_case) in [
        ("DstIP", "Distinct(SrcIP)", "DDoS victim detection"),
        ("N/A", "Distinct(FlowID)", "flow cardinality"),
        ("FlowID", "Frequency(1)", "per-flow size / heavy hitters"),
        ("N/A", "Existence(FlowID)", "black lists"),
        ("FlowID", "Max(QueueLen)", "congestion detection"),
        ("FlowID", "Max(PktInterval)", "max inter-arrival time"),
    ] {
        println!("  key={key:8} attr={attr:18} -> {use_case}");
    }

    // Deploy a per-source packet counter, on the fly. A task is one line
    // of the task grammar (`flymon::task`), the same one the CLI takes.
    let task: TaskDefinition = "per-src-frequency key=SrcIP attr=frequency mem=1024"
        .parse()
        .expect("a well-formed task line");
    let handle = switch.deploy(&task).expect("deploys");
    {
        let deployed = switch.task(handle).unwrap();
        println!(
            "\ndeployed '{}' with {} ({} rule installs, {:.2} ms modeled delay)",
            deployed.def.name,
            deployed.algorithm.name(),
            deployed.install.total_rules(),
            deployed.install.latency_ms(),
        );
    }

    // Feed a tiny synthetic workload: three talkers of different sizes.
    let talkers = [
        (flymon_packet::parse_ipv4("10.0.0.1").unwrap(), 500u32),
        (flymon_packet::parse_ipv4("10.0.0.2").unwrap(), 120u32),
        (flymon_packet::parse_ipv4("192.168.7.9").unwrap(), 13u32),
    ];
    let workload: Vec<Packet> = talkers
        .iter()
        .flat_map(|&(src, count)| {
            (0..count).map(move |i| Packet::tcp(src, 0x0a00_0063, 4000 + i as u16, 443))
        })
        .collect();
    switch.process_batch(&workload);
    println!("\nprocessed {} packets; estimates:", switch.packets_processed());
    for &(src, truth) in &talkers {
        let est = switch.query_frequency(handle, &Packet::tcp(src, 0x0a00_0063, 1, 443));
        println!("  {:>13}: true {truth:5}  estimated {est:5}", fmt_ipv4(src));
    }

    // Reconfigure on the fly: retire the counter, deploy a cardinality
    // task in its place. No pipeline reload, no traffic interruption.
    switch.remove(handle).expect("removes");
    let cardinality: TaskDefinition =
        "flow-cardinality key=N/A attr=distinct param=5tuple mem=1024"
            .parse()
            .expect("a well-formed task line");
    let card = switch.deploy(&cardinality).expect("deploys");
    let flows: Vec<Packet> = (0..5_000u32)
        .map(|i| Packet::udp(i, 0x0a00_0063, (i % 50_000) as u16, 53))
        .collect();
    switch.process_batch(&flows);
    println!(
        "\nswapped to '{}' ({}): 5000 distinct flows, estimated {:.0}",
        cardinality.name,
        switch.task(card).unwrap().algorithm.name(),
        switch.cardinality(card),
    );
}
