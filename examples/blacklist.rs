//! Blacklist enforcement with the bit-optimized Bloom filter (Table 1's
//! Existence attribute), fed from a pcap capture.
//!
//! ```sh
//! cargo run --release --example blacklist
//! ```
//!
//! 1. Generates a synthetic capture and writes it as a real pcap file
//!    (openable in Wireshark).
//! 2. Reads the capture back, registers the blacklisted flows on the
//!    switch, then checks live traffic against the filter.

use flymon::prelude::*;
use flymon_packet::{fmt_ipv4, KeySpec};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};
use flymon_traffic::pcap::{read_pcap, write_pcap};

fn main() {
    // A "capture" of known-bad flows (e.g. an IDS export).
    let bad_flows = TraceGenerator::new(13).wide_like(&TraceConfig {
        flows: 5_000,
        packets: 5_000,
        zipf_alpha: 0.0, // one packet per flow: a flow list
        ..TraceConfig::default()
    });
    let pcap_path = std::env::temp_dir().join("flymon_blacklist.pcap");
    {
        let file = std::fs::File::create(&pcap_path).expect("create pcap");
        write_pcap(std::io::BufWriter::new(file), &bad_flows).expect("write pcap");
    }
    println!(
        "wrote blacklist capture: {} ({} flows)",
        pcap_path.display(),
        bad_flows.len()
    );

    // Deploy the existence task and load the capture into it.
    let mut switch = FlyMon::new(FlyMonConfig {
        groups: 1,
        buckets_per_cmu: 65536,
        ..FlyMonConfig::default()
    });
    let task = TaskDefinition::builder("blacklist")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(16384)
        .build();
    let handle = switch.deploy(&task).expect("deploys");
    let loaded = {
        let file = std::fs::File::open(&pcap_path).expect("open pcap");
        read_pcap(std::io::BufReader::new(file)).expect("read pcap")
    };
    switch.process_batch(&loaded);
    println!(
        "loaded {} blacklisted flows into '{}' ({})\n",
        loaded.len(),
        task.name,
        switch.task(handle).unwrap().algorithm.name()
    );

    // Live traffic: half blacklisted, half clean.
    let mut hits = 0usize;
    let mut clean_flagged = 0usize;
    let clean = TraceGenerator::new(77).wide_like(&TraceConfig {
        flows: 5_000,
        packets: 5_000,
        zipf_alpha: 0.0,
        seed: 77,
        ..TraceConfig::default()
    });
    for p in loaded.iter().take(2_500) {
        if switch.query_exists(handle, p) {
            hits += 1;
        }
    }
    for p in clean.iter().take(2_500) {
        if switch.query_exists(handle, p) {
            clean_flagged += 1;
        }
    }
    println!("blacklisted probes flagged: {hits}/2500 (Bloom filters never miss a member)");
    println!(
        "clean probes wrongly flagged: {clean_flagged}/2500 ({:.2}% false positives)",
        clean_flagged as f64 / 25.0
    );

    // Show a few verdicts.
    println!("\nsample verdicts:");
    for p in loaded.iter().take(3).chain(clean.iter().take(3)) {
        println!(
            "  {:>15}:{:<5} -> {:>15}:{:<5}  blacklisted: {}",
            fmt_ipv4(p.src_ip),
            p.src_port,
            fmt_ipv4(p.dst_ip),
            p.dst_port,
            switch.query_exists(handle, p)
        );
    }
}
