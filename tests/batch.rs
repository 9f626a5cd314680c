//! Bit-identity and program-freshness guarantees of the stage-major
//! batched datapath (DESIGN.md § "Stage-major batching").
//!
//! The batched path is an *execution-order* optimization, not a new
//! semantics: for any batch size, any algorithm and any interleaving of
//! reconfigurations, `process_batch` must leave the switch in exactly
//! the state a per-packet `process` replay leaves it in — and a
//! checkpoint captured at a batch boundary must restore bit-identically.
//! The compiled `GroupProgram` the batched path executes must never go
//! stale: every mutation path (deploy, remove, reallocate, reset,
//! rollback, restore, WAL recovery) has to rebuild it.

use flymon::oracle::{PerPacket, PerPacketGroup};
use flymon::prelude::*;
use flymon_packet::{KeySpec, Packet, TaskFilter};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};

fn config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 8192,
        ..FlyMonConfig::default()
    }
}

fn trace(packets: u64) -> Vec<Packet> {
    TraceGenerator::new(0xBA7C).wide_like(&TraceConfig {
        flows: 2_000,
        packets,
        zipf_alpha: 1.1,
        duration_ns: 1_000_000_000,
        seed: 0xBA7C,
    })
}

/// Every register cell of every CMU, the strongest equality witness.
fn registers(fm: &FlyMon) -> Vec<Vec<u32>> {
    fm.groups()
        .iter()
        .flat_map(|g| g.cmus().iter())
        .map(|c| {
            let r = c.register();
            r.read_range(0, r.len()).unwrap().to_vec()
        })
        .collect()
}

/// The acceptance criterion for "no compiled-program staleness": the
/// installed program must equal a from-scratch compile of the live
/// bindings, in every group, at every observation point.
fn assert_programs_fresh(fm: &FlyMon, after: &str) {
    for (g, group) in fm.groups().iter().enumerate() {
        assert_eq!(
            group.program(),
            &group.reference_program(),
            "group {g} executes a stale compiled program after {after}"
        );
    }
}

fn versions(fm: &FlyMon) -> Vec<u64> {
    fm.groups().iter().map(|g| g.program_version()).collect()
}

#[test]
fn batched_replay_is_bit_identical_to_per_packet() {
    // Four algorithm families with distinct SALU ops and preparation
    // stages: CondAdd (CMS), Rho+Max (HLL), AndOr (Bloom), Max (SuMax).
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
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::Max(MaxParam::QueueLen))
            .memory(2048)
            .build(),
    ];
    let t = trace(30_000);
    for def in &defs {
        let mut reference = FlyMon::new(config());
        reference.deploy(def).unwrap();
        for p in &t {
            reference.process(p);
        }
        // Odd sizes force ragged tail chunks; 1 degenerates to
        // per-packet batches; 256 spans many cache lines.
        for batch_size in [1usize, 7, 64, 256] {
            let mut batched = FlyMon::new(config());
            batched.deploy(def).unwrap();
            batched.set_batch_size(batch_size);
            let stats = batched.process_batch(&t);
            assert_eq!(stats.packets, t.len() as u64);
            assert_eq!(
                registers(&batched),
                registers(&reference),
                "task {} diverged at batch size {batch_size}",
                def.name
            );
            assert_eq!(
                batched.recirculated_packets(),
                reference.recirculated_packets(),
                "recirculation accounting diverged for {} at batch size {batch_size}",
                def.name
            );
        }
    }
}

#[test]
fn every_lane_width_is_bit_identical_to_per_packet() {
    // The lane kernels (match+coin bitmasks, lockstep key extraction
    // and CRC digests) are execution-order optimizations only: every
    // lane width from groups of one to the full CRC_LANES (8) —
    // including widths that leave ragged tail groups in a 64-packet
    // chunk — must reproduce the per-packet replay cell for cell, for
    // each SALU-op family.
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
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::Max(MaxParam::QueueLen))
            .memory(2048)
            .build(),
    ];
    let t = trace(20_000);
    for def in &defs {
        let mut reference = FlyMon::new(config());
        reference.deploy(def).unwrap();
        for p in &t {
            reference.process(p);
        }
        for lanes in 1..=8usize {
            let mut batched = FlyMon::new(config());
            batched.deploy(def).unwrap();
            batched.set_lane_width(lanes);
            // Batch size 53 never divides the lane width, so every
            // chunk ends in a partial lane group.
            batched.set_batch_size(53);
            batched.process_batch(&t);
            assert_eq!(
                registers(&batched),
                registers(&reference),
                "task {} diverged at lane width {lanes}",
                def.name
            );
        }
    }
}

/// The paper-style six-task mix of the repository benchmark's
/// `replay_mix` — a prefix filter, a 2⁻³ sampling coin, `SRC_IP` /
/// `DST_IP` / `IP_PAIR` / `FIVE_TUPLE` keys — plus four tasks whose keys
/// give the key fold its remaining shapes: `SRC_IP_SRC_PORT` (6 bytes:
/// an address word and a lone port's two bytes), `SrcIP/24`+timestamp
/// (8 bytes: a masked address and the timestamp word),
/// `DstPort`+`Proto` (3 bytes, single-byte steps only) and the 5-tuple
/// with the timestamp (17 bytes, every field).
fn mix() -> Vec<TaskDefinition> {
    let slash24_ts = KeySpec {
        timestamp: true,
        ..KeySpec::src_ip_slash(24)
    };
    let port_proto = KeySpec {
        dst_port: true,
        protocol: true,
        ..KeySpec::NONE
    };
    let five_tuple_ts = KeySpec {
        timestamp: true,
        ..KeySpec::FIVE_TUPLE
    };
    vec![
        TaskDefinition::builder("cms3")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 3 })
            .memory(4096)
            .build(),
        TaskDefinition::builder("beaucoup3")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::Distinct(KeySpec::SRC_IP))
            .algorithm(Algorithm::BeauCoup { d: 3 })
            .memory(4096)
            .build(),
        TaskDefinition::builder("hll")
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::FIVE_TUPLE))
            .algorithm(Algorithm::Hll)
            .memory(2048)
            .build(),
        TaskDefinition::builder("bloom2")
            .filter(TaskFilter::src(0x8000_0000, 1))
            .key(KeySpec::NONE)
            .attribute(Attribute::Existence(KeySpec::SRC_IP))
            .algorithm(Algorithm::Bloom {
                d: 2,
                bit_optimized: true,
            })
            .memory(4096)
            .build(),
        TaskDefinition::builder("sumaxmax2")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::Max(MaxParam::QueueLen))
            .algorithm(Algorithm::SuMaxMax { d: 2 })
            .memory(4096)
            .build(),
        TaskDefinition::builder("cms2_sampled")
            .key(KeySpec::IP_PAIR)
            .attribute(Attribute::frequency_bytes())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(2048)
            .probability_log2(3)
            .build(),
        TaskDefinition::builder("endpoint")
            .key(KeySpec::SRC_IP_SRC_PORT)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .memory(2048)
            .build(),
        TaskDefinition::builder("subnet_ts")
            .key(slash24_ts)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .memory(2048)
            .build(),
        TaskDefinition::builder("service")
            .key(port_proto)
            .attribute(Attribute::frequency_bytes())
            .algorithm(Algorithm::Cms { d: 1 })
            .memory(2048)
            .build(),
        TaskDefinition::builder("flow_ts")
            .key(five_tuple_ts)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .memory(2048)
            .build(),
    ]
}

/// Per-binding hit counters of every CMU, in pipeline order.
fn hit_counters(fm: &FlyMon) -> Vec<Vec<u64>> {
    fm.groups()
        .iter()
        .flat_map(|g| g.cmus().iter())
        .map(|c| (0..c.bindings().len()).map(|i| c.hits(i)).collect())
        .collect()
}

#[test]
fn task_mix_is_bit_identical_at_every_slice_length_and_lane_width() {
    let config = FlyMonConfig {
        groups: 8,
        buckets_per_cmu: 8192,
        ..FlyMonConfig::default()
    };
    let deployed = || {
        let mut fm = FlyMon::new(config);
        for def in mix() {
            fm.deploy(&def).unwrap_or_else(|e| panic!("deploying {}: {e}", def.name));
        }
        fm
    };
    let t = trace(12_000);

    let mut reference = deployed();
    for p in &t {
        reference.process(p);
    }
    // The mix has to reach every step of the key fold: bytes alone (3),
    // a lone word (4), a word and a lone port (6), two words (8), words
    // and a byte (13), every field (17).
    let mut key_lengths: Vec<usize> = reference
        .groups()
        .iter()
        .flat_map(|g| g.units().iter())
        .filter_map(|u| u.mask().map(|m| m.extract(&t[0]).as_bytes().len()))
        .collect();
    key_lengths.sort_unstable();
    key_lengths.dedup();
    assert_eq!(key_lengths, [3, 4, 6, 8, 13, 17]);
    // ... and the filter and the coin both have to admit some packets
    // and turn some away, or the sparse path is not under test.
    let hits = hit_counters(&reference);
    let total = t.len() as u64;
    let partial = hits.iter().flatten().filter(|&&h| 0 < h && h < total).count();
    assert!(partial >= 4, "bloom2 and cms2_sampled rows must match partially: {hits:?}");

    assert_batch_path_matches(deployed, &reference, &t);

    // The rows no operand kernel covers: each reads an upstream CMU's
    // result off the PHV, so the sweep interprets the installed binding
    // per packet — on the 32-bit registers the interval recipe needs.
    let chained = || {
        let mut fm = FlyMon::new(FlyMonConfig {
            bucket_bits: 32,
            ..config
        });
        for def in chained_recipes() {
            fm.deploy(&def).unwrap_or_else(|e| panic!("deploying {}: {e}", def.name));
        }
        fm
    };
    let mut reference = chained();
    for p in &t {
        reference.process(p);
    }
    let interpreted = reference
        .groups()
        .iter()
        .flat_map(|g| &g.program().cmus)
        .flat_map(|c| &c.bindings)
        .filter(|b| b.kernel == flymon::program::OperandKernel::Interpreted)
        .count();
    assert_eq!(interpreted, 5, "two SuMax rows, the braid's high layer, a parity row, a maximizer");
    assert_batch_path_matches(chained, &reference, &t);
}

/// One task per recipe whose later rows are chained through the PHV:
/// SuMax(Sum) rows 1 and 2 (`ChainMin`), the Counter Braids high layer
/// (`PrevResult` + `MapZero`), the Odd Sketch parity row
/// (`OneHotBitGated`) and the max-interval maximizer (`IntervalGated`).
fn chained_recipes() -> Vec<TaskDefinition> {
    vec![
        TaskDefinition::builder("sumax3")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_bytes())
            .algorithm(Algorithm::SuMaxSum { d: 3 })
            .memory(2048)
            .build(),
        TaskDefinition::builder("braids")
            .key(KeySpec::DST_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::CounterBraids)
            .memory(2048)
            .build(),
        TaskDefinition::builder("odd")
            .filter(TaskFilter::src(0x8000_0000, 1))
            .key(KeySpec::NONE)
            .attribute(Attribute::Distinct(KeySpec::SRC_IP))
            .algorithm(Algorithm::OddSketch)
            .memory(2048)
            .build(),
        TaskDefinition::builder("interval")
            .key(KeySpec::FIVE_TUPLE)
            .attribute(Attribute::Max(MaxParam::PacketIntervalUs))
            .algorithm(Algorithm::MaxInterval { d: 1 })
            .memory(2048)
            .build(),
    ]
}

/// Replays `t` through a fresh `deployed()` switch with `process_batch`
/// at every lane width, in slices around the lane width (7/8/9) and
/// the chunk size (63/64/65), a single packet, and several chunks at
/// once (200) — every slice ends in a ragged lane group at some width
/// — and requires the state `reference` reached packet by packet:
/// every register cell, every binding's hit counter, the recirculation
/// count.
fn assert_batch_path_matches(deployed: impl Fn() -> FlyMon, reference: &FlyMon, t: &[Packet]) {
    let slice_lengths = [1usize, 7, 8, 9, 63, 64, 65, 200];
    for lanes in 1..=8usize {
        let mut batched = deployed();
        batched.set_lane_width(lanes);
        let mut rest = t;
        for &len in slice_lengths.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (slice, tail) = rest.split_at(len.min(rest.len()));
            batched.process_batch(slice);
            rest = tail;
        }
        assert_eq!(
            registers(&batched),
            registers(reference),
            "registers diverged at lane width {lanes}"
        );
        assert_eq!(
            hit_counters(&batched),
            hit_counters(reference),
            "hit counters diverged at lane width {lanes}"
        );
        assert_eq!(batched.recirculated_packets(), reference.recirculated_packets());
    }
}

/// One spliced group of three CMUs: every task lands on the same group,
/// and every packet that executes anything counts as recirculated.
fn one_spliced_group() -> FlyMonConfig {
    FlyMonConfig {
        groups: 1,
        buckets_per_cmu: 4096,
        preconfigure_five_tuple: false,
        spliced_groups: 1,
        ..FlyMonConfig::default()
    }
}

/// Deploys `defs` on [`one_spliced_group`], replays `t` per packet, and
/// returns the deploy closure with the reference switch.
fn deployed_and_reference<'a>(
    defs: &'a [TaskDefinition],
    t: &[Packet],
) -> (impl Fn() -> FlyMon + 'a, FlyMon) {
    let deployed = move || {
        let mut fm = FlyMon::new(one_spliced_group());
        for def in defs {
            fm.deploy(def).unwrap_or_else(|e| panic!("deploying {}: {e}", def.name));
        }
        fm
    };
    let mut reference = deployed();
    for p in t {
        reference.process(p);
    }
    (deployed, reference)
}

#[test]
fn stacked_filtered_tasks_share_multi_binding_lists() {
    // Two filtered tasks on the same three CMUs: every CMU holds both
    // bindings in the same order, so one two-rule matched list serves
    // all three rows and every list interleaves runs of both bindings
    // (a constant-parameter kernel and a packet-field one). A tenth of
    // the traffic (sources in 32/3) matches neither.
    let defs = [
        TaskDefinition::builder("low")
            .filter(TaskFilter::src(0x0000_0000, 3))
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 3 })
            .memory(1024)
            .build(),
        TaskDefinition::builder("high")
            .filter(TaskFilter::src(0x8000_0000, 1))
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_bytes())
            .algorithm(Algorithm::Cms { d: 3 })
            .memory(1024)
            .build(),
    ];
    let t = trace(6_000);
    let (deployed, reference) = deployed_and_reference(&defs, &t);
    let group = &reference.groups()[0];
    assert!(group.cmus().iter().all(|c| c.bindings().len() == 2), "the tasks must stack");
    assert_eq!(group.program().match_of, [0, 0, 0]);
    let hits = hit_counters(&reference);
    assert!(hits.iter().flatten().all(|&h| 0 < h && h < t.len() as u64), "{hits:?}");
    assert!(reference.recirculated_packets() < t.len() as u64);
    assert_batch_path_matches(deployed, &reference, &t);
}

#[test]
fn uninstalling_one_row_stops_the_cmus_sharing() {
    // The stacked pair again, on a bare group so that one row of one
    // task can come off one CMU: CMU 1's rule list is then one rule
    // short, and it must match for itself from that call on while CMUs
    // 0 and 2 go on sharing. (No recirculation count at this level; the
    // registers and hit counters are the witnesses.)
    use flymon::addr::{AddrTranslation, TranslationMethod};
    use flymon::group::{CmuBinding, CmuGroup, Forward, GroupConfig};
    use flymon::keysel::{KeySelect, KeySource};
    use flymon::params::{PacketContext, ParamSource};
    use flymon::prep::PrepAction;
    use flymon::scratch::BatchScratch;
    use flymon::task::TaskId;
    use flymon_rmt::salu::StatefulOp;

    let binding = |task: u32, filter, p1, cmu: u8| CmuBinding {
        task: TaskId(task),
        filter,
        prob_log2: 0,
        key: KeySelect {
            source: KeySource::Unit(0),
            slice_shift: 8 * cmu,
        },
        p1,
        p2: ParamSource::Const(0xffff),
        prep: PrepAction::None,
        translation: AddrTranslation::new(1, task - 1, TranslationMethod::TcamBased),
        op: StatefulOp::CondAdd,
        forward: Forward::Result,
    };
    let stacked = || {
        let mut g = CmuGroup::new(0, GroupConfig {
            buckets_per_cmu: 2048,
            ..GroupConfig::default()
        });
        g.unit_mut(0).set_mask(KeySpec::SRC_IP);
        for cmu in 0..3u8 {
            let low = binding(1, TaskFilter::src(0, 3), ParamSource::Const(1), cmu);
            let high = binding(2, TaskFilter::src(0x8000_0000, 1), ParamSource::PacketBytes, cmu);
            g.install(usize::from(cmu), low).unwrap();
            g.install(usize::from(cmu), high).unwrap();
        }
        g
    };
    let state = |g: &CmuGroup| -> Vec<(Vec<u32>, Vec<u64>)> {
        let cell = |c: &flymon::group::Cmu| {
            let r = c.register();
            let hits = (0..c.bindings().len()).map(|i| c.hits(i)).collect();
            (r.read_range(0, r.len()).unwrap().to_vec(), hits)
        };
        g.cmus().iter().map(cell).collect()
    };
    let t = trace(6_000);
    let (before, after) = t.split_at(t.len() / 2);

    let mut reference = stacked();
    let mut ctx = PacketContext::default();
    for p in before {
        reference.process(p, &mut ctx);
    }
    assert!(reference.uninstall(1, TaskId(1)));
    for p in after {
        reference.process(p, &mut ctx);
    }
    assert!(state(&reference).iter().all(|(_, hits)| hits.iter().all(|&h| h > 0)));

    let slice_lengths = [1usize, 7, 8, 9, 63, 64, 65, 200];
    for lanes in 1..=8usize {
        let mut batched = stacked();
        let mut scratch = BatchScratch::default();
        let mut feed = |g: &mut CmuGroup, mut rest: &[Packet]| {
            for &len in slice_lengths.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (slice, tail) = rest.split_at(len.min(rest.len()));
                scratch.begin_chunk(slice.len(), false);
                g.process_chunk(slice, &mut scratch, false, false, lanes);
                rest = tail;
            }
        };
        assert_eq!(batched.program().match_of, [0, 0, 0]);
        feed(&mut batched, before);
        assert!(batched.uninstall(1, TaskId(1)));
        assert_eq!(batched.program(), &batched.reference_program());
        assert_eq!(batched.program().match_of, [0, 1, 0]);
        feed(&mut batched, after);
        assert_eq!(state(&batched), state(&reference), "diverged at lane width {lanes}");
    }
}

#[test]
fn a_sampled_and_an_unsampled_task_with_equal_filters_do_not_share() {
    // Same filter, but only one flips a coin: intersecting traffic
    // keeps them on different CMUs, and their rule lists differ in the
    // coin mask alone — the sampled rows share a list with each other,
    // never with the unsampled row.
    let filter = TaskFilter::src(0x8000_0000, 1);
    let defs = [
        TaskDefinition::builder("every")
            .filter(filter)
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .memory(1024)
            .build(),
        TaskDefinition::builder("sampled")
            .filter(filter)
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(1024)
            .probability_log2(2)
            .build(),
    ];
    let t = trace(6_000);
    let (deployed, reference) = deployed_and_reference(&defs, &t);
    assert_eq!(reference.groups()[0].program().match_of, [0, 1, 1]);
    let hits = hit_counters(&reference);
    assert!(hits[1][0] > 0 && hits[1][0] < hits[0][0] && hits[1] == hits[2], "{hits:?}");
    assert_batch_path_matches(deployed, &reference, &t);
}

#[test]
fn a_filtered_cmu_reads_a_unit_the_unconditional_cmu_does_not() {
    // Digest domains: unit 0 (SrcIP) is read by the unconditional CMU
    // and digests every packet; unit 1 (DstIP) only by the filtered
    // CMUs, and digests only what they matched.
    let defs = [
        TaskDefinition::builder("all")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .memory(1024)
            .build(),
        TaskDefinition::builder("some")
            .filter(TaskFilter::src(0x8000_0000, 1))
            .key(KeySpec::DST_IP)
            .attribute(Attribute::frequency_bytes())
            .algorithm(Algorithm::Cms { d: 2 })
            .memory(1024)
            .build(),
    ];
    let t = trace(6_000);
    let (deployed, reference) = deployed_and_reference(&defs, &t);
    let program = reference.groups()[0].program();
    assert_eq!(program.unit_used[..3], [true, true, false]);
    assert_eq!(program.dense_units[..3], [true, false, false]);
    assert_eq!(reference.recirculated_packets(), t.len() as u64);
    assert_batch_path_matches(deployed, &reference, &t);
}

#[test]
fn mid_trace_reconfiguration_matches_per_packet_replay() {
    // Reconfigure *between batches* of a live replay: deploy a second
    // task at one third, remove it at two thirds. The batched switch
    // must track the per-packet reference through every phase — which
    // requires the compiled program to be rebuilt at each mutation.
    let cms = TaskDefinition::builder("cms")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(4096)
        .build();
    let bloom = TaskDefinition::builder("bloom")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(2048)
        .build();
    let t = trace(30_000);
    let (a, b) = (t.len() / 3, 2 * t.len() / 3);

    let mut reference = FlyMon::new(config());
    let ref_cms = reference.deploy(&cms).unwrap();
    for p in &t[..a] {
        reference.process(p);
    }
    let ref_bloom = reference.deploy(&bloom).unwrap();
    for p in &t[a..b] {
        reference.process(p);
    }
    reference.remove(ref_bloom).unwrap();
    for p in &t[b..] {
        reference.process(p);
    }

    // 37 never divides the phase lengths, so every phase ends on a
    // ragged partial chunk.
    let mut batched = FlyMon::new(config());
    let bat_cms = batched.deploy(&cms).unwrap();
    batched.set_batch_size(37);
    batched.process_batch(&t[..a]);
    let bat_bloom = batched.deploy(&bloom).unwrap();
    assert_programs_fresh(&batched, "mid-trace deploy");
    batched.process_batch(&t[a..b]);
    batched.remove(bat_bloom).unwrap();
    assert_programs_fresh(&batched, "mid-trace remove");
    batched.process_batch(&t[b..]);

    assert_eq!(registers(&batched), registers(&reference));
    for p in t.iter().step_by(499) {
        assert_eq!(
            batched.query_frequency(bat_cms, p),
            reference.query_frequency(ref_cms, p)
        );
    }
}

#[test]
fn checkpoint_at_batch_boundary_restores_identically() {
    let def = TaskDefinition::builder("cms")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 3 })
        .memory(4096)
        .build();
    let t = trace(24_000);
    let half = t.len() / 2;

    let mut live = FlyMon::new(config());
    let h = live.deploy(&def).unwrap();
    live.process_batch(&t[..half]);

    // Full capture at the batch boundary restores bit-identically…
    let mut base = live.checkpoint(CaptureMode::Full);
    let restored = FlyMon::restore(&base).unwrap();
    assert_eq!(registers(&restored), registers(&live));
    assert_programs_fresh(&restored, "checkpoint restore");

    // …and the restored switch is a *working* replica, not a snapshot:
    // replaying the second half batched on both sides stays identical.
    let mut twin = restored;
    live.process_batch(&t[half..]);
    twin.process_batch(&t[half..]);
    assert_eq!(registers(&twin), registers(&live));

    // Delta capture depends on the dirty watermark `Salu::sweep`
    // maintains: overlaying the post-batch delta on the boundary base
    // must reproduce the live registers exactly.
    let delta = live.checkpoint(CaptureMode::Delta);
    base.overlay(delta).unwrap();
    let overlaid = FlyMon::restore(&base).unwrap();
    assert_eq!(
        registers(&overlaid),
        registers(&live),
        "batched writes escaped the delta dirty watermark"
    );
    assert_eq!(
        overlaid.query_frequency(h, &t[0]),
        live.query_frequency(h, &t[0])
    );
}

#[test]
fn every_mutation_path_rebuilds_the_compiled_program() {
    let cms = TaskDefinition::builder("cms")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(2048)
        .build();
    let bloom = TaskDefinition::builder("bloom")
        .key(KeySpec::NONE)
        .attribute(Attribute::Existence(KeySpec::FIVE_TUPLE))
        .memory(1024)
        .build();

    let mut fm = FlyMon::new(config());
    fm.attach_wal(WriteAheadLog::new());
    assert_programs_fresh(&fm, "construction");

    // deploy
    let before = versions(&fm);
    let h_cms = fm.deploy(&cms).unwrap();
    assert_ne!(versions(&fm), before, "deploy did not bump any program");
    assert_programs_fresh(&fm, "deploy");
    // The group-wide facts move with the bindings: both CMS rows match
    // alike and are unconditional, so their unit digests every packet.
    let facts = |fm: &FlyMon| -> Vec<_> {
        let programs = fm.groups().iter().map(|g| g.program());
        programs.map(|p| (p.match_of.clone(), p.dense_units, p.unit_used)).collect()
    };
    let with_cms = facts(&fm);
    let (match_of, dense, used) = &with_cms[0];
    assert_eq!(match_of[..2], [0, 0]);
    assert!(dense.contains(&true) && dense == used);
    let h_bloom = fm.deploy(&bloom).unwrap();
    assert_programs_fresh(&fm, "second deploy");
    let with_bloom = facts(&fm);
    assert_ne!(with_bloom, with_cms, "the Bloom rows changed no group fact");

    // reallocate
    let before = versions(&fm);
    let h_cms = fm.reallocate_memory(h_cms, 4096).unwrap();
    assert_ne!(versions(&fm), before, "reallocate did not bump any program");
    assert_programs_fresh(&fm, "reallocate");

    // reset: bindings survive but registers clear — the program must
    // still be rebuilt (its version is the staleness witness).
    let before = versions(&fm);
    fm.reset_task(h_cms).unwrap();
    assert_ne!(versions(&fm), before, "reset did not bump any program");
    assert_programs_fresh(&fm, "reset");

    // remove
    let before = versions(&fm);
    fm.remove(h_bloom).unwrap();
    assert_ne!(versions(&fm), before, "remove did not bump any program");
    assert_programs_fresh(&fm, "remove");
    assert_ne!(facts(&fm), with_bloom, "removing the Bloom rows changed no group fact");

    // rollback: a fault-injected deploy fails, undoes its partial
    // installs, and must leave a fresh program behind.
    fm.arm_faults(FaultPlan::new(42).fail_probability(1.0));
    assert!(fm.deploy(&bloom).is_err(), "fully faulted deploy must fail");
    fm.disarm_faults();
    assert_programs_fresh(&fm, "rollback");

    // checkpoint restore
    let chk = fm.checkpoint(CaptureMode::Full);
    let restored = FlyMon::restore(&chk).unwrap();
    assert_programs_fresh(&restored, "restore");
    assert_eq!(restored.groups()[0].program(), fm.groups()[0].program());

    // WAL recovery: the replayed suffix (a deploy after the barrier)
    // must land in the recovered instance's program too.
    fm.deploy(&bloom).unwrap();
    let wal = fm.detach_wal().unwrap();
    let recovered = FlyMon::recover(&wal, &chk).unwrap();
    assert_eq!(recovered.task_count(), fm.task_count());
    assert_programs_fresh(&recovered, "WAL recovery");

    // The compiled program is what actually runs: after all of the
    // above, a batched and a per-packet replay still agree.
    let t = trace(6_000);
    let mut twin = FlyMon::restore(&fm.checkpoint(CaptureMode::Full)).unwrap();
    fm.process_batch(&t);
    for p in &t {
        twin.process(p);
    }
    assert_eq!(registers(&fm), registers(&twin));
}

/// Binding mutations recompile only the CMUs they touch, so the
/// rollback of a *partly* installed deploy — bindings already on some
/// CMUs, taken off one by one — is where a stale program would hide:
/// refuse the install at every op position in turn and check every
/// group's program, then that the batch path still agrees with the
/// per-packet interpreter.
#[test]
fn rollback_of_a_partial_install_leaves_fresh_programs() {
    let resident = TaskDefinition::builder("resident")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(2048)
        .build();
    let sumax = TaskDefinition::builder("sumax")
        .key(KeySpec::DST_IP)
        .attribute(Attribute::frequency_bytes())
        .algorithm(Algorithm::SuMaxSum { d: 2 })
        .memory(1024)
        .build();
    let mut fm = FlyMon::new(config());
    fm.deploy(&resident).unwrap();
    let mut refused = 0;
    for nth in 1.. {
        fm.arm_faults(FaultPlan::new(0).fail_nth(nth));
        let outcome = fm.deploy(&sumax);
        fm.disarm_faults();
        assert_programs_fresh(&fm, &format!("deploy refused at op {nth}"));
        match outcome {
            Err(_) => refused += 1,
            Ok(h) => {
                fm.remove(h).unwrap();
                assert_programs_fresh(&fm, "remove");
                break;
            }
        }
    }
    assert!(refused >= 4, "the sweep must reach the binding installs, refused only {refused}");
    let t = trace(4_000);
    let mut twin = FlyMon::restore(&fm.checkpoint(CaptureMode::Full)).unwrap();
    fm.process_batch(&t);
    for p in &t {
        twin.process(p);
    }
    assert_eq!(registers(&fm), registers(&twin));
}

// The coupon gate. A BeauCoup row ORs a coupon bit into its bucket,
// and a key outside the coupon window ORs in 0: the batch path skips
// such steps while no program reads PHV contexts, and the per-packet
// oracle executes every one. Each test below holds the two to the same
// registers, dirty watermarks, hit counters, recirculation counts and
// Delta checkpoint payloads, in slices of 0, 1, 63, 64, 65 and 4 097
// packets at every lane width.

const GATE_SLICES: [usize; 6] = [0, 1, 63, 64, 65, 4_097];

fn beaucoup(name: &str, filter: TaskFilter) -> TaskDefinition {
    TaskDefinition::builder(name)
        .filter(filter)
        .key(KeySpec::DST_IP)
        .attribute(Attribute::Distinct(KeySpec::SRC_IP))
        .algorithm(Algorithm::BeauCoup { d: 3 })
        .memory(4096)
        .build()
}

/// What a skipped step must leave as the oracle leaves it. Capturing
/// the Delta checkpoint restarts the dirty watermarks, on both sides.
fn gate_witness(fm: &mut FlyMon) -> impl PartialEq + std::fmt::Debug {
    let dirty: Vec<_> = fm
        .groups()
        .iter()
        .flat_map(|g| g.cmus().iter())
        .map(|c| c.register().dirty_range())
        .collect();
    let (rows, hits, recirculated) = (registers(fm), hit_counters(fm), fm.recirculated_packets());
    (rows, hits, recirculated, dirty, fm.checkpoint(CaptureMode::Delta).registers)
}

/// CMUs whose compiled program gates some binding, per group.
fn gated_cmus(fm: &FlyMon) -> Vec<usize> {
    let gated = |g: &flymon::group::CmuGroup| g.program().cmus.iter().filter(|c| c.gated).count();
    fm.groups().iter().map(gated).collect()
}

/// Replays `t` in thirds through `deployed()`, packet by packet and, at
/// every lane width, through `process_batch` in [`GATE_SLICES`], and
/// runs `reconfigure(switch, k)` on both after third `k` of the first
/// two. After every third the [`gate_witness`]es must agree and every
/// program must be fresh.
fn assert_gate_matches_oracle(
    deployed: impl Fn() -> FlyMon,
    t: &[Packet],
    reconfigure: impl Fn(&mut FlyMon, usize),
) {
    let (a, b) = (t.len() / 3, 2 * t.len() / 3);
    let thirds = [&t[..a], &t[a..b], &t[b..]];
    let mut reference = deployed();
    let mut expected = Vec::new();
    for (k, third) in thirds.iter().enumerate() {
        for p in *third {
            reference.process(p);
        }
        expected.push(gate_witness(&mut reference));
        reconfigure(&mut reference, k);
    }
    for lanes in 1..=8usize {
        let mut batched = deployed();
        batched.set_lane_width(lanes);
        let mut slices = GATE_SLICES.iter().cycle();
        for (k, third) in thirds.iter().enumerate() {
            let mut rest = *third;
            while !rest.is_empty() {
                let len = *slices.next().expect("cycled");
                let (slice, tail) = rest.split_at(len.min(rest.len()));
                batched.process_batch(slice);
                rest = tail;
            }
            assert_programs_fresh(&batched, &format!("third {k} at lane width {lanes}"));
            let got = gate_witness(&mut batched);
            assert!(got == expected[k], "third {k} diverged at lane width {lanes}");
            reconfigure(&mut batched, k);
        }
    }
}

#[test]
fn a_filtered_beaucoup_gates_its_matched_list() {
    // A conditional match, then the gate over the matched list: the
    // three rows share both, and the address unit digests only what
    // the gate let through.
    let deployed = || {
        let mut fm = FlyMon::new(config());
        fm.deploy(&mix()[0]).unwrap();
        fm.deploy(&beaucoup("bc", TaskFilter::src(0x8000_0000, 1))).unwrap();
        fm
    };
    let fm = deployed();
    assert_eq!(gated_cmus(&fm), [0, 3]);
    let program = fm.groups()[1].program();
    assert!(program.cmus.iter().all(|c| !c.always));
    assert_eq!((&program.match_of[..], &program.gate_of[..]), (&[0, 0, 0][..], &[0, 0, 0][..]));
    assert_eq!(program.gated_units.iter().filter(|&&u| u).count(), 1, "the DstIP address unit");
    assert_gate_matches_oracle(deployed, &trace(18_000), |_, _| {});
}

#[test]
fn beaucoup_beside_a_chained_recipe_runs_ungated() {
    // SuMax(Sum) reads the PHV, so every context is recorded and an
    // OR-0 step's output could be read: the compiled gates stand, and
    // the batch path runs every step.
    let deployed = || {
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 4,
            ..config()
        });
        fm.deploy(&beaucoup("bc", TaskFilter::ANY)).unwrap();
        fm.deploy(&chained_recipes()[0]).unwrap();
        fm
    };
    let fm = deployed();
    assert!(fm.groups().iter().any(|g| g.program().reads_ctx));
    assert_eq!(gated_cmus(&fm).iter().sum::<usize>(), 3);
    assert_gate_matches_oracle(deployed, &trace(18_000), |_, _| {});
}

#[test]
fn a_gated_spliced_group_recirculates_every_matched_packet() {
    // Recirculation is counted from the match: a packet the gate turns
    // away still crossed the spliced group.
    let deployed = || {
        let mut fm = FlyMon::new(one_spliced_group());
        fm.deploy(&beaucoup("bc", TaskFilter::src(0x8000_0000, 1))).unwrap();
        fm
    };
    let t = trace(18_000);
    let mut reference = deployed();
    for p in &t {
        reference.process(p);
    }
    let (hits, recirculated) = (hit_counters(&reference), reference.recirculated_packets());
    assert!(0 < recirculated && recirculated < t.len() as u64);
    assert!(hits.iter().all(|h| h == &[recirculated]), "{hits:?}");
    assert_gate_matches_oracle(deployed, &t, |_, _| {});
}

#[test]
fn an_unconditional_beaucoup_deployed_and_removed_mid_trace() {
    // The mix's shape, the gated list drawn from the whole chunk,
    // arriving after a third of the trace and leaving after two.
    let deployed = || {
        let mut fm = FlyMon::new(config());
        fm.deploy(&mix()[0]).unwrap();
        fm
    };
    let reconfigure = |fm: &mut FlyMon, third: usize| match third {
        0 => {
            let h = fm.deploy(&beaucoup("bc", TaskFilter::ANY)).unwrap();
            assert_eq!(gated_cmus(fm), [0, 3]);
            assert!(fm.groups()[1].program().cmus.iter().all(|c| c.always));
            assert_eq!(h, TaskHandle(flymon::task::TaskId(2)));
        }
        1 => {
            fm.remove(TaskHandle(flymon::task::TaskId(2))).unwrap();
            assert_eq!(gated_cmus(fm), [0, 0]);
        }
        _ => {}
    };
    assert_gate_matches_oracle(deployed, &trace(18_000), reconfigure);
}

#[test]
fn hand_installed_gates_match_the_oracle() {
    // What no recipe emits, on a bare group:
    // - CMU 0 holds a coupon row drawn from an XOR key under a filter,
    //   and an ungated count for the other half of the traffic: one
    //   gated list that mixes a gated and an open binding;
    // - CMU 1 a zero-space coupon, shut for every packet;
    // - CMU 2 a one-hot OR, and an AND with 0 on the same buckets,
    //   which clears them and so is not gated;
    // - CMU 3, in one variant, the maximum of what CMU 0 forwarded: a
    //   reader of the PHV, under which nothing may be skipped.
    use flymon::addr::AddrTranslation;
    use flymon::group::{CmuBinding, CmuGroup, Forward, GroupConfig};
    use flymon::keysel::{KeySelect, KeySource};
    use flymon::params::{CmuRef, PacketContext, ParamSource};
    use flymon::prep::PrepAction;
    use flymon::program::Gate;
    use flymon::scratch::BatchScratch;
    use flymon::task::TaskId;
    use flymon_rmt::salu::StatefulOp;

    let (low, high) = (TaskFilter::src(0, 1), TaskFilter::src(0x8000_0000, 1));
    let row = |task: u32, filter, unit: usize, p1, p2: u32, prep, op| CmuBinding {
        task: TaskId(task),
        filter,
        prob_log2: 0,
        key: KeySelect {
            source: KeySource::Unit(unit),
            slice_shift: 3,
        },
        p1,
        p2: ParamSource::Const(p2),
        prep,
        translation: AddrTranslation::IDENTITY,
        op,
        forward: Forward::Result,
    };
    let (and, or, add) = (StatefulOp::AndOr, StatefulOp::AndOr, StatefulOp::CondAdd);
    let xor_key = ParamSource::CompressedKey(KeySource::Xor(0, 1));
    let coupon = |space| PrepAction::Coupon { coupons: 16, space };
    let one_hot = PrepAction::OneHotBit { bits: 16 };
    let group = |reader: bool| {
        let mut g = CmuGroup::new(0, GroupConfig {
            compression_units: 4,
            cmus: 4,
            buckets_per_cmu: 1024,
            ..GroupConfig::default()
        });
        g.unit_mut(0).set_mask(KeySpec::SRC_IP);
        g.unit_mut(1).set_mask(KeySpec::DST_IP);
        g.unit_mut(2).set_mask(KeySpec::FIVE_TUPLE);
        g.unit_mut(3).set_mask(KeySpec::IP_PAIR);
        let on_key = |unit| ParamSource::CompressedKey(KeySource::Unit(unit));
        let mut rows = vec![
            (0, row(1, low, 2, xor_key.clone(), 1, coupon(1 << 24), or)),
            (0, row(2, high, 1, ParamSource::Const(1), 0xffff, PrepAction::None, add)),
            (1, row(3, TaskFilter::ANY, 3, ParamSource::Const(7), 1, coupon(0), or)),
            (2, row(4, low, 0, on_key(1), 1, one_hot.clone(), or)),
            (2, row(5, high, 0, ParamSource::Const(0), 0, PrepAction::None, and)),
        ];
        if reader {
            let forwarded = ParamSource::PrevResult(CmuRef { group: 0, cmu: 0 });
            let max = row(6, TaskFilter::ANY, 0, forwarded, 0, PrepAction::None, StatefulOp::Max);
            rows.push((3, max));
        }
        g.install_all(rows.iter().map(|(cmu, b)| (*cmu, b))).unwrap();
        g
    };
    let program = group(false).program().clone();
    let gates: Vec<Vec<Option<Gate>>> =
        program.cmus.iter().map(|c| c.bindings.iter().map(|b| b.gate).collect()).collect();
    assert!(matches!(gates[0][..], [Some(Gate { key, .. }), None] if key.b == 1));
    assert!(matches!(gates[1][..], [Some(Gate { total: 0, .. })]));
    assert_eq!(gates[2..], [vec![None, None], vec![]]);
    // Unit 2 addresses the coupon row alone, and nothing reads it until
    // the coupon row's gate has passed.
    assert_eq!(program.gated_units[..4], [false, false, true, false]);
    assert_eq!(program.gate_of, [0, 1, 2, 3]);

    let witness = |g: &CmuGroup| -> Vec<_> {
        let cell = |c: &flymon::group::Cmu| {
            let r = c.register();
            let hits: Vec<u64> = (0..c.bindings().len()).map(|i| c.hits(i)).collect();
            (r.read_range(0, r.len()).unwrap().to_vec(), hits, r.dirty_range())
        };
        g.cmus().iter().map(cell).collect()
    };
    let t = trace(12_000);
    // Contexts are recorded with or without a reader, and must be with.
    for (reader, record_ctx) in [(false, false), (false, true), (true, true)] {
        let mut reference = group(reader);
        assert_eq!(reference.program().reads_ctx, reader);
        let mut ctx = PacketContext::default();
        for p in &t {
            ctx.reset();
            reference.process(p, &mut ctx);
        }
        let expected = witness(&reference);
        assert!(expected[0].0.iter().any(|&v| v != 0), "the coupon row drew nothing");
        assert!(expected[1].0.iter().all(|&v| v == 0) && expected[1].1 == [t.len() as u64]);
        assert!(!reader || expected[3].0.iter().any(|&v| v != 0), "the reader read nothing");
        for lanes in 1..=8usize {
            let mut batched = group(reader);
            let mut scratch = BatchScratch::default();
            let mut rest = t.as_slice();
            for &len in GATE_SLICES.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (slice, tail) = rest.split_at(len.min(rest.len()));
                scratch.begin_chunk(slice.len(), record_ctx);
                batched.process_chunk(slice, &mut scratch, false, record_ctx, lanes);
                rest = tail;
            }
            assert_eq!(batched.program(), &batched.reference_program());
            let what = format!("lane width {lanes}, reader {reader}, contexts {record_ctx}");
            assert!(witness(&batched) == expected, "{what}");
        }
    }
}
