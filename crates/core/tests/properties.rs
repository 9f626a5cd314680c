//! Property tests for FlyMon's dynamic memory management and address
//! translation invariants, and for the task grammar's round trip.
//!
//! Randomized with the in-repo [`SplitMix64`] generator (fixed seeds ⇒
//! identical case set every run) — no external property-testing framework,
//! so the workspace builds fully offline.

use flymon::oracle::PerPacket;
use flymon::addr::{AddrTranslation, TranslationMethod};
use flymon::alloc::{AllocMode, BuddyAllocator};
use flymon_packet::SplitMix64;

/// Random alloc/free interleavings: live blocks never overlap, the
/// allocator conserves buckets, and a drained allocator recoalesces to
/// one maximal block.
#[test]
fn buddy_allocator_invariants() {
    let mut r = SplitMix64::new(0xB1);
    for _ in 0..64 {
        let total = 1024usize;
        let min = 32usize;
        let mut b = BuddyAllocator::new(total, min);
        let mut live: Vec<(usize, usize)> = Vec::new();
        for _ in 0..r.range_usize(1, 200) {
            let op = r.range_u64(0, 4);
            let size_sel = r.range_u64(0, 6) as usize;
            if op < 3 {
                // Allocate a random power-of-two size in [min, total].
                let size = (min << (size_sel % 6)).min(total);
                if let Some(off) = b.alloc(size) {
                    // No overlap with any live block.
                    for &(o, s) in &live {
                        assert!(
                            off + size <= o || o + s <= off,
                            "overlap: new ({off},{size}) vs live ({o},{s})"
                        );
                    }
                    assert_eq!(off % size, 0, "misaligned block");
                    live.push((off, size));
                }
            } else if let Some((off, size)) = live.pop() {
                b.free(off, size);
            }
            let used: usize = live.iter().map(|&(_, s)| s).sum();
            assert_eq!(b.used_buckets(), used, "bucket conservation");
        }
        for (off, size) in live.drain(..) {
            b.free(off, size);
        }
        assert_eq!(b.largest_free(), total, "full coalescing after drain");
    }
}

/// Address translation confines every address to the owned partition,
/// covers the whole partition, and is balanced: hashing the full range
/// uniformly lands `sub_len` addresses per bucket.
#[test]
fn translation_confinement() {
    let mut r = SplitMix64::new(0xB2);
    for p in 0u8..=5 {
        for _ in 0..4 {
            let m = 1024usize;
            let parts = 1u32 << p;
            let index = r.next_u32() % parts;
            let t = AddrTranslation::new(p, index, TranslationMethod::TcamBased);
            let base = t.base(m);
            let len = t.sub_range_len(m);
            let mut hits = vec![0u32; m];
            for addr in 0..m as u32 {
                let out = t.translate(addr, m);
                assert!((base..base + len).contains(&out));
                hits[out] += 1;
            }
            for (b, &n) in hits.iter().enumerate().skip(base).take(len) {
                assert_eq!(n, parts, "unbalanced bucket {}", b);
            }
        }
    }
}

/// Accurate mode never under-allocates; efficient mode never strays
/// more than 2x in either direction; both return powers of two.
#[test]
fn alloc_mode_rounding_bounds() {
    let mut r = SplitMix64::new(0xB3);
    for _ in 0..2_000 {
        let request = r.range_usize(1, 1_000_000);
        let acc = AllocMode::Accurate.round(request);
        let eff = AllocMode::Efficient.round(request);
        assert!(acc.is_power_of_two() && eff.is_power_of_two());
        assert!(acc >= request);
        assert!(acc < request * 2);
        assert!(eff * 2 > request && eff <= request * 2);
        // Efficient picks the closer of the two neighbors.
        let up = request.next_power_of_two();
        let down = up / 2;
        let closer = if down >= 1 && request - down < up - request {
            down
        } else {
            up
        };
        assert_eq!(eff, closer);
    }
}

/// Conservation law of the one-access-per-packet constraint: an
/// unconditional-ADD task sees every matching packet exactly once, so
/// the sum over its partition equals the number of matching packets —
/// for any traffic.
#[test]
fn counter_mass_equals_matching_packets() {
    use flymon::prelude::*;
    use flymon_packet::{KeySpec, Packet, TaskFilter};

    let mut r = SplitMix64::new(0xB4);
    for _ in 0..24 {
        let srcs: Vec<u32> = (0..r.range_usize(1, 300)).map(|_| r.next_u32()).collect();
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 256,
            ..FlyMonConfig::default()
        });
        let def = TaskDefinition::builder("mass")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .filter(TaskFilter::src(0x0a000000, 8))
            .memory(128)
            .build();
        let h = fm.deploy(&def).unwrap();
        let mut matching = 0u64;
        for &s in &srcs {
            if (s >> 24) == 10 {
                matching += 1;
            }
            fm.process(&Packet::tcp(s, 1, 2, 3));
        }
        let mass: u64 = fm
            .read_row(h, 0)
            .unwrap()
            .iter()
            .map(|&v| u64::from(v))
            .sum();
        assert_eq!(mass, matching);
    }
}

/// The §3.3 isolation law: a co-resident task in another partition of
/// the same CMU changes *nothing* about a task's measurements — the
/// per-flow estimates are bitwise identical with and without the
/// neighbor. (Deterministic end-to-end check.)
#[test]
fn partitioned_neighbor_changes_nothing() {
    use flymon::prelude::*;
    use flymon_packet::{KeySpec, Packet, TaskFilter};

    let mk = |filter| {
        TaskDefinition::builder("t")
            .key(KeySpec::SRC_IP)
            .attribute(Attribute::frequency_packets())
            .algorithm(Algorithm::Cms { d: 1 })
            .filter(filter)
            .memory(128)
            .build()
    };
    let config = FlyMonConfig {
        groups: 1,
        buckets_per_cmu: 256,
        ..FlyMonConfig::default()
    };
    // Switch 1: task A alone. Switch 2: task A plus neighbor B.
    let mut alone = FlyMon::new(config);
    let ha = alone.deploy(&mk(TaskFilter::src(0x0a000000, 8))).unwrap();
    let mut cohab = FlyMon::new(config);
    let ha2 = cohab.deploy(&mk(TaskFilter::src(0x0a000000, 8))).unwrap();
    let hb = cohab.deploy(&mk(TaskFilter::src(0x14000000, 8))).unwrap();

    for i in 0..500u32 {
        let pa = Packet::tcp(0x0a000000 | (i % 40), 1, 1, 1);
        let pb = Packet::tcp(0x14000000 | (i % 25), 1, 1, 1);
        alone.process(&pa);
        cohab.process(&pa);
        cohab.process(&pb);
    }
    for i in 0..40u32 {
        let p = Packet::tcp(0x0a000000 | i, 1, 1, 1);
        assert_eq!(
            alone.query_frequency(ha, &p),
            cohab.query_frequency(ha2, &p),
            "neighbor perturbed flow {i}"
        );
    }
    // And B actually measured its own traffic.
    let pb = Packet::tcp(0x14000001, 1, 1, 1);
    assert!(cohab.query_frequency(hb, &pb) >= 20);
}

/// The task grammar's round-trip law: every definition prints to a line
/// that parses back to it, a canonical line prints back to itself, and a
/// malformed line is an `Err` that names the token it could not place.
#[test]
fn task_lines_round_trip() {
    use flymon::group::MAX_PROB_LOG2;
    use flymon::prelude::*;
    use flymon_packet::{KeySpec, PrefixFilter, TaskFilter};

    let prefixes = [0u8, 1, 8, 24, 31, 32];
    let mut keys = Vec::new();
    for src_ip_prefix in prefixes {
        for dst_ip_prefix in prefixes {
            for flags in 0..16u8 {
                keys.push(KeySpec {
                    src_ip_prefix,
                    dst_ip_prefix,
                    src_port: flags & 1 != 0,
                    dst_port: flags & 2 != 0,
                    protocol: flags & 4 != 0,
                    timestamp: flags & 8 != 0,
                });
            }
        }
    }
    let attributes = |param| {
        [
            Attribute::frequency_packets(),
            Attribute::frequency_bytes(),
            Attribute::Distinct(param),
            Attribute::Existence(param),
            Attribute::Max(MaxParam::QueueLen),
            Attribute::Max(MaxParam::QueueDelayUs),
            Attribute::Max(MaxParam::PacketIntervalUs),
        ]
    };
    let algorithms = |d| {
        [
            None,
            Some(Algorithm::Cms { d }),
            Some(Algorithm::SuMaxSum { d }),
            Some(Algorithm::Mrac),
            Some(Algorithm::Tower { d }),
            Some(Algorithm::CounterBraids),
            Some(Algorithm::Hll),
            Some(Algorithm::LinearCounting),
            Some(Algorithm::BeauCoup { d }),
            Some(Algorithm::Bloom {
                d,
                bit_optimized: true,
            }),
            Some(Algorithm::Bloom {
                d,
                bit_optimized: false,
            }),
            Some(Algorithm::SuMaxMax { d }),
            Some(Algorithm::OddSketch),
            Some(Algorithm::MaxInterval { d }),
        ]
    };
    let name_chars: Vec<char> = "aZ09-_/.:|µ".chars().collect();
    let mut r = SplitMix64::new(0xB7);
    let prefix =
        |r: &mut SplitMix64| PrefixFilter::new(r.next_u32(), prefixes[r.range_usize(0, 6)]);
    let (mut pairs, mut cases) = (std::collections::HashSet::new(), 0);
    // Every key, and every attribute × algorithm pair several times over.
    for (i, &key) in keys.iter().enumerate() {
        let (a, g) = (i % 7, (i / 7) % 14);
        pairs.insert((a, g));
        let name: String = (0..r.range_usize(1, 9))
            .map(|_| name_chars[r.range_usize(0, name_chars.len())])
            .collect();
        let filter = TaskFilter {
            src: prefix(&mut r),
            dst: prefix(&mut r),
        };
        let mut b = TaskDefinition::builder(name)
            .key(key)
            .attribute(attributes(keys[r.range_usize(0, keys.len())])[a])
            .memory(r.range_usize(1, 1 << 17))
            .filter(filter)
            .probability_log2(r.range_u64(0, u64::from(MAX_PROB_LOG2) + 1) as u8)
            .distinct_threshold([1, 512, r.next_u64()][r.range_usize(0, 3)]);
        if let Some(algorithm) = algorithms(r.range_usize(0, 256))[g] {
            b = b.algorithm(algorithm);
        }
        let def = b.build();
        let line = def.to_string();
        assert_eq!(line.parse::<TaskDefinition>().as_ref(), Ok(&def), "{line}");
        cases += 1;
    }
    assert_eq!((pairs.len(), cases), (7 * 14, 6 * 6 * 16));

    for line in [
        "hh key=SrcIP attr=frequency mem=4096 alg=cms d=3",
        "card key=N/A attr=distinct param=SrcIP+DstIP+SrcPort+DstPort+Proto mem=1024 alg=hll",
        "ddos key=DstIP attr=distinct param=SrcIP mem=8192 alg=beaucoup d=3 \
         filter=10.0.0.0/8->192.168.0.0/16 threshold=256",
        "bl key=N/A attr=existence param=SrcIP/24+DstPort mem=2048 alg=bloom-plain d=2",
        "q key=SrcIP+Proto+Ts attr=maxdelay mem=512 filter=*->47.0.0.0/8 prob=1/2^3",
        "hh/1 key=SrcIP/31+DstIP/1 attr=bytes mem=64 alg=tower d=2 filter=10.128.0.0/9->*",
    ] {
        let def: TaskDefinition = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(def.to_string(), line);
    }

    for (line, token) in [
        ("hh key=SrcIP attr=frequency memory=4096", "'memory=4096'"),
        ("hh key=SrcIP algo=hll", "'algo=hll'"),
        ("hh key=SrcIP key=DstIP", "'key=DstIP'"),
        ("hh alg=cms d=2 d=3", "'d=3'"),
        ("hh d=2", "'d=2'"),
        ("hh alg=hll attr=distinct d=2", "'d=2'"),
        ("hh alg=cms d=256", "'d=256'"),
        ("hh key=SrcIP/33", "'SrcIP/33'"),
        ("hh key=SrcIP+Port", "'Port'"),
        ("hh key=SrcIP+srcip", "'srcip'"),
        ("hh attr=freqency", "'freqency'"),
        ("hh alg=count-min", "'count-min'"),
        ("hh attr=maxqueue param=SrcIP", "'param=SrcIP'"),
        ("hh filter=10.0.0.0/33", "'10.0.0.0/33'"),
        ("hh filter=10.0.0.0/8->300.0.0.0/8", "'300.0.0.0/8'"),
        ("hh prob=0.5", "'prob=0.5'"),
        ("hh prob=1/2^x", "'prob=1/2^x'"),
        ("hh mem=lots", "'mem=lots'"),
        ("hh threshold=-1", "'threshold=-1'"),
        ("hh key", "'key'"),
        ("key=SrcIP attr=frequency", "'key=SrcIP attr=frequency'"),
    ] {
        match line.parse::<TaskDefinition>() {
            Err(FlymonError::BadTask(why)) => assert!(why.contains(token), "{line}: {why}"),
            other => panic!("{line}: {other:?}"),
        }
    }
}
