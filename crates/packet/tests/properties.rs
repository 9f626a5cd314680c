//! Property tests for the flow-key algebra.
//!
//! Randomized with the in-repo [`SplitMix64`] generator (fixed seeds, so
//! every run checks the identical case set) instead of an external
//! property-testing framework — the workspace builds fully offline.

use flymon_packet::{KeySpec, Packet, PacketBuilder, PrefixFilter, SplitMix64, TaskFilter};

const CASES: usize = 512;

fn rand_packet(r: &mut SplitMix64) -> Packet {
    PacketBuilder::new()
        .src_ip(r.next_u32())
        .dst_ip(r.next_u32())
        .src_port(r.next_u16())
        .dst_port(r.next_u16())
        .protocol(r.next_u64() as u8)
        .len(r.next_u16())
        .ts_ns(r.range_u64(0, 10_000_000_000))
        .build()
}

/// A near-duplicate of `a`: each field is copied with probability 1/2,
/// which makes field-wise agreement (the interesting regime for key
/// extraction) common instead of vanishingly rare.
fn sibling_packet(r: &mut SplitMix64, a: &Packet) -> Packet {
    let b = rand_packet(r);
    PacketBuilder::new()
        .src_ip(if r.chance(0.5) { a.src_ip } else { b.src_ip })
        .dst_ip(if r.chance(0.5) { a.dst_ip } else { b.dst_ip })
        .src_port(if r.chance(0.5) {
            a.src_port
        } else {
            b.src_port
        })
        .dst_port(if r.chance(0.5) {
            a.dst_port
        } else {
            b.dst_port
        })
        .protocol(if r.chance(0.5) {
            a.protocol
        } else {
            b.protocol
        })
        .len(b.len)
        .ts_ns(if r.chance(0.5) { a.ts_ns } else { b.ts_ns })
        .build()
}

fn rand_keyspec(r: &mut SplitMix64) -> KeySpec {
    KeySpec {
        src_ip_prefix: r.range_u64(0, 33) as u8,
        dst_ip_prefix: r.range_u64(0, 33) as u8,
        src_port: r.chance(0.5),
        dst_port: r.chance(0.5),
        protocol: r.chance(0.5),
        timestamp: r.chance(0.5),
    }
}

/// Two packets extract equal keys iff they agree on every selected
/// field bit — the byte serialization is canonical.
#[test]
fn extraction_is_canonical() {
    let mut r = SplitMix64::new(0x11);
    for _ in 0..CASES {
        let key = rand_keyspec(&mut r);
        let a = rand_packet(&mut r);
        let b = sibling_packet(&mut r, &a);
        let mask = |v: u32, bits: u8| {
            if bits == 0 {
                0
            } else {
                v & (u32::MAX << (32 - bits))
            }
        };
        let agree = mask(a.src_ip, key.src_ip_prefix) == mask(b.src_ip, key.src_ip_prefix)
            && mask(a.dst_ip, key.dst_ip_prefix) == mask(b.dst_ip, key.dst_ip_prefix)
            && (!key.src_port || a.src_port == b.src_port)
            && (!key.dst_port || a.dst_port == b.dst_port)
            && (!key.protocol || a.protocol == b.protocol)
            && (!key.timestamp || a.ts_ns / 1_000 == b.ts_ns / 1_000);
        assert_eq!(key.extract(&a) == key.extract(&b), agree, "key {key:?}");
    }
}

/// A covering key always distinguishes at least as much as the covered
/// key: equal fine keys imply equal coarse keys.
#[test]
fn coarser_keys_merge_flows() {
    let mut r = SplitMix64::new(0x22);
    for _ in 0..CASES {
        let a = rand_packet(&mut r);
        let mut b = sibling_packet(&mut r, &a);
        if r.chance(0.5) {
            b.src_ip = a.src_ip; // force the fine-key-equal regime often
        }
        let bits = r.range_u64(0, 33) as u8;
        let fine = KeySpec::SRC_IP;
        let coarse = KeySpec::src_ip_slash(bits);
        if fine.extract(&a) == fine.extract(&b) {
            assert_eq!(coarse.extract(&a), coarse.extract(&b));
        }
    }
}

/// Key width equals serialized length semantics: width 0 iff empty.
#[test]
fn width_and_emptiness_agree() {
    let mut r = SplitMix64::new(0x33);
    for _ in 0..CASES {
        let key = rand_keyspec(&mut r);
        let p = rand_packet(&mut r);
        assert_eq!(key.width_bits() == 0, key.is_empty());
        assert_eq!(key.extract(&p).is_empty(), key.is_empty());
    }
}

/// merge_disjoint, when it succeeds, covers both parts and has the
/// summed width.
#[test]
fn merge_disjoint_is_a_union() {
    let mut r = SplitMix64::new(0x44);
    for _ in 0..CASES {
        let a = rand_keyspec(&mut r);
        let b = rand_keyspec(&mut r);
        if let Some(m) = a.merge_disjoint(&b) {
            assert!(m.covers(&a));
            assert!(m.covers(&b));
            assert_eq!(m.width_bits(), a.width_bits() + b.width_bits());
        }
    }
}

/// Splitting a filter partitions its traffic: every packet matching the
/// parent matches exactly one child.
#[test]
fn filter_split_partitions() {
    let mut r = SplitMix64::new(0x55);
    for _ in 0..CASES {
        let net = r.next_u32();
        let bits = r.range_u64(0, 32) as u8;
        let mut p = rand_packet(&mut r);
        if r.chance(0.5) {
            // Steer half the packets inside the parent prefix so the
            // "matches the parent" branch is exercised heavily.
            let mask = if bits == 0 {
                0
            } else {
                u32::MAX << (32 - bits)
            };
            p.src_ip = (net & mask) | (p.src_ip & !mask);
        }
        let parent = TaskFilter {
            src: PrefixFilter::new(net, bits),
            dst: PrefixFilter::ANY,
        };
        let (lo, hi) = parent.split().unwrap();
        if parent.matches(&p) {
            assert!(lo.matches(&p) ^ hi.matches(&p));
        } else {
            assert!(!lo.matches(&p) && !hi.matches(&p));
        }
    }
}

/// Prefix intersection is exactly containment of one in the other.
#[test]
fn prefix_intersection_symmetric() {
    let mut r = SplitMix64::new(0x66);
    for _ in 0..CASES {
        let a_net = r.next_u32();
        let a_bits = r.range_u64(0, 33) as u8;
        let b_bits = r.range_u64(0, 33) as u8;
        // Half the time, derive b from a so intersection actually occurs.
        let b_net = if r.chance(0.5) {
            a_net ^ (r.next_u32() >> a_bits.min(31))
        } else {
            r.next_u32()
        };
        let a = PrefixFilter::new(a_net, a_bits);
        let b = PrefixFilter::new(b_net, b_bits);
        assert_eq!(a.intersects(&b), b.intersects(&a));
        // Intersecting prefixes share their shorter prefix.
        if a.intersects(&b) {
            let bits = a_bits.min(b_bits);
            assert_eq!(
                PrefixFilter::new(a.net, bits).net,
                PrefixFilter::new(b.net, bits).net
            );
        }
    }
}
