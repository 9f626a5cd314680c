//! Serial ≡ fleet: a healthy `SwitchFleet` splits a trace over its
//! switches by source address, and its merged readouts must be
//! bit-identical to a serial single-switch replay of the same trace, for
//! every merge law (sum / max / OR), at every fleet size and slice
//! length — with every switch taking exactly the packets `shard_of`
//! sends it.

use flymon::prelude::*;
use flymon_netsim::{datapath, SwitchFleet};
use flymon_packet::{KeySpec, Packet};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};

fn config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 16384,
        ..FlyMonConfig::default()
    }
}

fn trace() -> Vec<Packet> {
    TraceGenerator::new(0xDA7A).wide_like(&TraceConfig {
        flows: 5_000,
        packets: 120_000,
        zipf_alpha: 1.1,
        duration_ns: 2_000_000_000,
        seed: 0xDA7A,
    })
}

fn serial_switch(def: &TaskDefinition, t: &[Packet]) -> (FlyMon, TaskHandle) {
    let mut fm = FlyMon::new(config());
    let h = fm.deploy(def).unwrap();
    fm.process_batch(t);
    (fm, h)
}

/// A healthy `n`-switch fleet running `def`, fed `t` in one call.
fn fleet_of(n: usize, def: &TaskDefinition, t: &[Packet]) -> SwitchFleet {
    let mut fleet = SwitchFleet::deploy(n, config(), def).unwrap();
    fleet.process_trace(t);
    fleet
}

/// Row `row` of the fleet's task, merged across its switches.
fn merged_row(fleet: &SwitchFleet, row: usize) -> Vec<u32> {
    let mut scratch = ReadoutScratch::default();
    fleet.merged_task_row_into(0, row, &mut scratch).unwrap();
    scratch.acc
}

/// Every packet fed was taken by some switch: none dropped, none lost.
fn assert_all_represented(fleet: &SwitchFleet, packets: usize) {
    let ledger = fleet.ledger();
    assert!(ledger.balanced(), "{ledger:?}");
    assert_eq!(ledger.represented, packets as u64, "{ledger:?}");
    assert_eq!(ledger.dropped, 0, "{ledger:?}");
}

#[test]
fn sharded_cms_rows_are_bit_identical_to_serial() {
    let d = 3;
    let def = TaskDefinition::builder("freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d })
        .memory(8192)
        .build();
    let t = trace();
    let (serial, h) = serial_switch(&def, &t);

    for n in [1, 2, 4] {
        let fleet = fleet_of(n, &def, &t);
        assert_all_represented(&fleet, t.len());
        for row in 0..d {
            assert_eq!(
                merged_row(&fleet, row),
                serial.read_row(h, row).unwrap(),
                "{n}-switch merged row {row} diverged from serial"
            );
        }
        // Spot-check the query path too (min over summed rows).
        for p in t.iter().step_by(997) {
            assert_eq!(
                fleet.merged_frequency(p).unwrap(),
                serial.query_frequency(h, p),
                "frequency estimate diverged at {n} switches"
            );
        }
    }
}

#[test]
fn sharded_hll_registers_merge_by_max_to_serial() {
    let def = TaskDefinition::builder("card")
        .key(KeySpec::NONE)
        .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
        .algorithm(Algorithm::Hll)
        .memory(2048)
        .build();
    let t = trace();
    let (serial, h) = serial_switch(&def, &t);

    let fleet = fleet_of(4, &def, &t);
    assert_eq!(
        merged_row(&fleet, 0),
        serial.read_row(h, 0).unwrap(),
        "merged HLL registers diverged from serial"
    );
    let serial_est = serial.cardinality(h);
    let merged_est = fleet.merged_cardinality().unwrap();
    assert!(
        (serial_est - merged_est).abs() < 1e-9,
        "estimates diverged: serial {serial_est}, merged {merged_est}"
    );
}

#[test]
fn sharded_bloom_rows_merge_by_or_to_serial() {
    let def = TaskDefinition::builder("exists")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(8192)
        .build();
    let t = trace();
    let (serial, h) = serial_switch(&def, &t);

    let fleet = fleet_of(4, &def, &t);
    let rows = serial.task(h).unwrap().rows.len();
    for row in 0..rows {
        assert_eq!(
            merged_row(&fleet, row),
            serial.read_row(h, row).unwrap(),
            "merged Bloom row {row} diverged from serial"
        );
    }
    for p in t.iter().step_by(1993) {
        assert_eq!(
            fleet.merged_exists(p).unwrap(),
            serial.query_exists(h, p),
            "existence check diverged"
        );
    }
    // A never-seen key agrees too (both sides share the same layouts, so
    // even false positives are identical).
    let unseen = Packet::tcp(0xdead_0001, 0xdead_0002, 9999, 9999);
    assert_eq!(
        fleet.merged_exists(&unseen).unwrap(),
        serial.query_exists(h, &unseen)
    );
}

#[test]
fn summed_merge_clamps_at_the_register_ceiling() {
    // Cond-ADD saturates each bucket at the register's cell ceiling
    // (65535 on 16-bit buckets). Two flows living on *different* switches
    // but hashing to the *same* bucket must not merge past that cap:
    // the serial replay holds 65535, and so must the merged readout.
    let def = TaskDefinition::builder("freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 1 })
        .memory(1024)
        .build();
    let mut probe = FlyMon::new(config());
    let ph = probe.deploy(&def).unwrap();

    // Find a cross-shard pair sharing a bucket in row 0.
    let mut by_bucket: std::collections::HashMap<usize, [Option<Packet>; 2]> =
        std::collections::HashMap::new();
    let mut pair = None;
    for ip in 0u32..4096 {
        let p = Packet::tcp(0x0a00_0000 + ip, 1, 1, 1);
        let shard = flymon_netsim::datapath::shard_of(&p, 2);
        let bucket = probe.locate(ph, 0, &p).unwrap();
        let slot = by_bucket.entry(bucket).or_default();
        slot[shard].get_or_insert(p);
        if let [Some(a), Some(b)] = *slot {
            pair = Some((a, b));
            break;
        }
    }
    let (pa, pb) = pair.expect("no cross-shard bucket collision in probe range");

    let mut t = Vec::with_capacity(80_000);
    for _ in 0..40_000 {
        t.push(pa);
        t.push(pb);
    }
    let (serial, h) = serial_switch(&def, &t);
    let idx = serial.locate(h, 0, &pa).unwrap();
    assert_eq!(
        serial.read_row(h, 0).unwrap()[idx],
        65535,
        "the shared bucket must saturate serially for this test to bite"
    );

    let fleet = fleet_of(2, &def, &t);
    assert_eq!(
        merged_row(&fleet, 0),
        serial.read_row(h, 0).unwrap(),
        "merged row must clamp at the cell ceiling like the serial replay"
    );
    assert_eq!(fleet.merged_frequency(&pa).unwrap(), 65535);
}

#[test]
fn sharded_merge_is_exact_at_every_staging_block_boundary() {
    // The replay loop stages 4 096-packet blocks: slices that are empty,
    // a single packet, one short of a block, exactly a block, one over,
    // and several blocks plus a tail must all merge to the serial
    // switch's registers, for one task of every merge law.
    let defs = [
        TaskDefinition::builder("cms")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 3 })
            .memory(4096)
            .build(),
        TaskDefinition::builder("hll")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .algorithm(Algorithm::Hll)
            .memory(2048)
            .build(),
        TaskDefinition::builder("bloom")
            .key(KeySpec::NONE)
            .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
            .memory(4096)
            .build(),
        TaskDefinition::builder("sumax")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::Max(MaxParam::QueueLen))
            .algorithm(Algorithm::SuMaxMax { d: 2 })
            .memory(2048)
            .build(),
    ];
    let mut t = trace();
    for (i, p) in t.iter_mut().enumerate() {
        p.queue_len = (i as u32).wrapping_mul(2_654_435_761) >> 20;
    }
    for def in &defs {
        for len in [0, 1, 4095, 4096, 4097, 3 * 4096 + 17] {
            let (serial, h) = serial_switch(def, &t[..len]);
            let rows = serial.task(h).unwrap().rows.len();
            for n in 1..=4 {
                let fleet = fleet_of(n, def, &t[..len]);
                assert_all_represented(&fleet, len);
                for row in 0..rows {
                    assert_eq!(
                        merged_row(&fleet, row),
                        serial.read_row(h, row).unwrap(),
                        "{}: {len} packets on {n} switches, row {row}",
                        def.name
                    );
                }
            }
        }
    }
}

#[test]
fn each_switch_takes_exactly_its_shard_of_the_trace() {
    // One split: switch w of a healthy fleet takes exactly the packets
    // `shard_of` sends to w, counted across two calls, and the switches
    // together take every packet once.
    let def = TaskDefinition::builder("freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(8192)
        .build();
    let t = trace();
    for n in 1..=4 {
        let mut histogram = vec![0u64; n];
        for p in &t {
            histogram[datapath::shard_of(p, n)] += 1;
        }
        let (head, tail) = t.split_at(50_001);
        let mut fleet = fleet_of(n, &def, head);
        fleet.process_trace(tail);
        for (w, &packets) in histogram.iter().enumerate() {
            assert_eq!(
                fleet.switch(w).0.packets_processed(),
                packets,
                "switch {w} of {n}"
            );
        }
        assert_all_represented(&fleet, t.len());
    }
}

#[test]
fn replay_is_deterministic_across_repeated_runs() {
    // The same trace replayed twice on fresh fleets must produce the
    // same merged rows.
    let def = TaskDefinition::builder("freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(4096)
        .build();
    let t = trace();
    let rows = |fleet: &SwitchFleet| [merged_row(fleet, 0), merged_row(fleet, 1)];
    assert_eq!(rows(&fleet_of(4, &def, &t)), rows(&fleet_of(4, &def, &t)));
}

#[test]
fn dead_and_empty_fleets_drop_every_packet_with_a_balanced_ledger() {
    let def = TaskDefinition::builder("freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(8192)
        .build();
    let t = trace();
    let n = 4;

    // Partial failure: survivors absorb every reroute, so nothing is
    // dropped and the dead switches stay idle.
    let mut fleet = SwitchFleet::deploy(n, config(), &def).unwrap();
    for i in [1, 3] {
        fleet.fail_switch(i);
    }
    fleet.process_trace(&t);
    assert_eq!(fleet.dropped_packets(), 0, "survivors must absorb reroutes");
    for i in [1, 3] {
        assert_eq!(
            fleet.switch(i).0.packets_processed(),
            0,
            "dead switch {i} processed traffic"
        );
    }
    assert!(fleet.ledger().balanced());

    // The whole fleet is dead: every packet is dropped, none processed.
    for i in 0..n {
        fleet.fail_switch(i);
    }
    let before: Vec<u64> = (0..n)
        .map(|i| fleet.switch(i).0.packets_processed())
        .collect();
    fleet.process_trace(&t);
    assert_eq!(fleet.dropped_packets(), t.len() as u64);
    for (i, &b) in before.iter().enumerate() {
        assert_eq!(fleet.switch(i).0.packets_processed(), b);
    }
    let ledger = fleet.ledger();
    assert_eq!(ledger.fed, 2 * t.len() as u64);
    assert!(ledger.balanced(), "{ledger:?}");

    // No switches at all: the same loop, nothing to route to.
    let mut empty = SwitchFleet::deploy(0, config(), &def).unwrap();
    empty.process_trace(&t);
    empty.process_trace(&[]);
    let ledger = empty.ledger();
    assert_eq!(ledger.fed, t.len() as u64);
    assert_eq!(ledger.dropped, t.len() as u64);
    assert!(ledger.balanced(), "{ledger:?}");
}
