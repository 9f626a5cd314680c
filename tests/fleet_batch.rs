//! The batched fleet packet path against its per-packet oracle.
//!
//! `SwitchFleet::process_trace` resolves failover once per call, buckets
//! the slice by target switch and runs one `FlyMon::process_batch` per
//! switch. None of that may be observable: on a twin fleet fed
//! `for p in trace { process(shard_of(p, n), p) }` — the single-packet
//! API, which runs the per-packet interpreter — every register cell,
//! every per-binding hit counter, every per-switch packet counter and
//! the packet ledger must end identical, whatever the algorithm, the
//! fleet size, the liveness, the slice length or the control ops issued
//! between calls.

use flymon::control::BATCH_SIZE;
use flymon::prelude::*;
use flymon_netsim::{datapath, PacketLedger, SwitchFleet};
use flymon_packet::{KeySpec, Packet, TaskFilter};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};

fn config(groups: usize) -> FlyMonConfig {
    FlyMonConfig {
        groups,
        buckets_per_cmu: 8192,
        ..FlyMonConfig::default()
    }
}

fn trace(seed: u64, packets: u64) -> Vec<Packet> {
    TraceGenerator::new(seed).wide_like(&TraceConfig {
        flows: 3_000,
        packets,
        zipf_alpha: 1.1,
        duration_ns: 1_000_000_000,
        seed,
    })
}

fn cms() -> TaskDefinition {
    TaskDefinition::builder("cms")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 3 })
        .memory(4096)
        .build()
}

fn hll() -> TaskDefinition {
    TaskDefinition::builder("hll")
        .key(KeySpec::NONE)
        .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
        .algorithm(Algorithm::Hll)
        .memory(2048)
        .build()
}

fn bloom() -> TaskDefinition {
    TaskDefinition::builder("bloom")
        .filter(TaskFilter::src(10 << 24, 8))
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::SRC_IP))
        .algorithm(Algorithm::Bloom {
            d: 2,
            bit_optimized: true,
        })
        .memory(4096)
        .build()
}

fn sumaxmax() -> TaskDefinition {
    TaskDefinition::builder("sumaxmax")
        .key(KeySpec::DST_IP)
        .attribute(Attribute::Max(MaxParam::QueueLen))
        .algorithm(Algorithm::SuMaxMax { d: 2 })
        .memory(2048)
        .build()
}

/// A CMS behind a sampling coin: the coin is a hash of the packet, so
/// both paths must admit exactly the same packets.
fn cms_sampled() -> TaskDefinition {
    TaskDefinition::builder("cms_sampled")
        .key(KeySpec::IP_PAIR)
        .attribute(Attribute::frequency_bytes())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(2048)
        .probability_log2(3)
        .build()
}

fn all_defs() -> [TaskDefinition; 5] {
    [cms(), hll(), bloom(), sumaxmax(), cms_sampled()]
}

/// Everything the packet path can change on one switch: every register
/// cell of every CMU (the rows of every task and more), every binding's
/// hit counter, and the switch's own packet counters.
#[derive(Debug, PartialEq, Eq)]
struct SwitchState {
    registers: Vec<Vec<u32>>,
    hits: Vec<Vec<u64>>,
    packets: u64,
    recirculated: u64,
}

/// Everything the packet path can change on a fleet.
#[derive(Debug, PartialEq, Eq)]
struct FleetState {
    switches: Vec<SwitchState>,
    ledger: PacketLedger,
    dropped: u64,
}

fn state(fleet: &SwitchFleet) -> FleetState {
    let switches = (0..fleet.len())
        .map(|i| {
            let (fm, _) = fleet.switch(i);
            let cmus = || fm.groups().iter().flat_map(|g| g.cmus().iter());
            SwitchState {
                registers: cmus()
                    .map(|c| {
                        let r = c.register();
                        r.read_range(0, r.len()).unwrap().to_vec()
                    })
                    .collect(),
                hits: cmus()
                    .map(|c| (0..c.bindings().len()).map(|b| c.hits(b)).collect())
                    .collect(),
                packets: fm.packets_processed(),
                recirculated: fm.recirculated_packets(),
            }
        })
        .collect();
    FleetState {
        switches,
        ledger: fleet.ledger(),
        dropped: fleet.dropped_packets(),
    }
}

/// A fleet under test and its per-packet twin: every packet and every
/// control op goes to both, and they are compared after each.
struct Twins {
    batched: SwitchFleet,
    oracle: SwitchFleet,
}

impl Twins {
    fn deploy(n: usize, groups: usize, def: &TaskDefinition) -> Self {
        Twins {
            batched: SwitchFleet::deploy(n, config(groups), def).unwrap(),
            oracle: SwitchFleet::deploy(n, config(groups), def).unwrap(),
        }
    }

    /// Feeds `slice` through `process_trace` on one twin and packet by
    /// packet through `process` on the other, then compares them.
    fn feed(&mut self, slice: &[Packet], what: &str) {
        self.batched.process_trace(slice);
        let n = self.oracle.len();
        for p in slice {
            // `shard_of` has no answer on an empty fleet; `process`
            // drops there whatever the ingress.
            let ingress = if n == 0 { 0 } else { datapath::shard_of(p, n) };
            self.oracle.process(ingress, p);
        }
        self.assert_same(what);
    }

    /// Applies one control op to both twins.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        mut op: impl FnMut(&mut SwitchFleet) -> T,
    ) -> T {
        let a = op(&mut self.batched);
        let b = op(&mut self.oracle);
        assert_eq!(a, b, "the twins answered a control op differently");
        a
    }

    fn assert_same(&self, what: &str) {
        assert_eq!(state(&self.batched), state(&self.oracle), "{what}");
        assert!(self.batched.ledger().balanced(), "{what}: ledger");
    }
}

/// Slice lengths around an 8-lane group (64), the stage-major chunk
/// ([`BATCH_SIZE`]) and the fleet's staging block (4 096), empty and
/// single-packet slices included.
const LENGTHS: [usize; 11] = [
    0,
    1,
    63,
    64,
    65,
    BATCH_SIZE - 1,
    BATCH_SIZE,
    BATCH_SIZE + 1,
    4_096,
    4_097,
    9_000,
];

#[test]
fn process_trace_equals_the_per_packet_oracle() {
    let t = trace(0xF1EE7, LENGTHS.iter().sum::<usize>() as u64);
    for def in &all_defs() {
        for n in [0usize, 1, 3] {
            let mut twins = Twins::deploy(n, 2, def);
            let mut rest = t.as_slice();
            for len in LENGTHS {
                let (slice, tail) = rest.split_at(len);
                rest = tail;
                twins.feed(
                    slice,
                    &format!("{} on {n} switches, slice of {len}", def.name),
                );
            }
            let fed = twins.batched.ledger().fed;
            assert_eq!(fed, t.len() as u64);
            if n == 0 {
                assert_eq!(twins.batched.dropped_packets(), fed);
            } else {
                assert_eq!(twins.batched.dropped_packets(), 0);
                // Not vacuous: the task saw traffic.
                let touched = state(&twins.batched)
                    .switches
                    .iter()
                    .any(|s| s.registers.iter().flatten().any(|&v| v != 0));
                assert!(touched, "{} left every register zero", def.name);
            }
        }
    }
}

#[test]
fn failover_and_drops_match_the_oracle() {
    let t = trace(0xDEAD, 30_000);
    let (a, rest) = t.split_at(10_000);
    let (b, c) = rest.split_at(10_000);
    for def in &all_defs() {
        let mut twins = Twins::deploy(3, 2, def);
        twins.feed(a, "all alive");

        // One dead switch: it absorbs nothing more, and its ingress
        // traffic fails over to switch 2 (the next in the probe).
        twins.both(|f| f.fail_switch(1).unwrap());
        let absorbed = |f: &SwitchFleet| -> Vec<u64> {
            (0..3).map(|i| f.switch(i).0.packets_processed()).collect()
        };
        let before = absorbed(&twins.batched);
        twins.feed(b, "switch 1 dead");
        let after = absorbed(&twins.batched);
        let at_ingress =
            |i: usize| b.iter().filter(|p| datapath::shard_of(p, 3) == i).count() as u64;
        assert!(
            at_ingress(1) > 0,
            "the dead switch had traffic to fail over"
        );
        assert_eq!(after[0] - before[0], at_ingress(0));
        assert_eq!(after[1], before[1]);
        assert_eq!(after[2] - before[2], at_ingress(1) + at_ingress(2));
        assert_eq!(twins.batched.dropped_packets(), 0);

        // All dead: every packet is a drop, for every slice length.
        twins.both(|f| f.fail_switch(0).unwrap());
        twins.both(|f| f.fail_switch(2).unwrap());
        let mut rest = c;
        for len in [0usize, 1, 65, 4_097] {
            let (slice, tail) = rest.split_at(len);
            rest = tail;
            twins.feed(slice, "all dead");
        }
        assert_eq!(twins.batched.dropped_packets(), 4_163);

        // A revived switch takes the whole fleet's traffic.
        twins.both(|f| f.revive_switch(2).is_ok());
        twins.feed(rest, "switch 2 revived");
        assert_eq!(twins.batched.dropped_packets(), 4_163);
    }
}

#[test]
fn control_ops_between_calls_keep_the_paths_identical() {
    let t = trace(0xC0DE, 40_000);
    let mut chunks = t.chunks(5_000);
    let mut twins = Twins::deploy(3, 6, &cms());
    twins.feed(chunks.next().unwrap(), "one task");

    // The whole mix, one deploy at a time, traffic in between.
    for def in &all_defs()[1..] {
        let index = twins.both(|f| f.deploy_task(def).unwrap());
        assert!(index > 0);
        twins.feed(
            chunks.next().unwrap(),
            &format!("after deploying {}", def.name),
        );
    }

    twins.both(|f| f.reallocate_task(0, 8_192).unwrap());
    twins.feed(chunks.next().unwrap(), "after reallocating task 0");

    twins.both(|f| f.remove_task(2).unwrap());
    twins.feed(chunks.next().unwrap(), "after removing task 2");

    // An epoch rotation swaps register banks under the packet path.
    twins.both(|f| f.rotate_epoch_all().unwrap());
    twins.feed(chunks.next().unwrap(), "after an epoch rotation");

    for i in 0..3 {
        assert!(twins.batched.switch(i).0.audit().is_empty());
    }
}
