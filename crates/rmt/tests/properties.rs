//! Property tests for the RMT substrate.
//!
//! Randomized with the in-repo [`SplitMix64`] generator (fixed seeds ⇒
//! identical case set every run) — no external property-testing framework,
//! so the workspace builds fully offline.

use flymon_packet::{KeySpec, SplitMix64};
use flymon_rmt::salu::{Salu, StatefulOp};

const CASES: usize = 256;

/// Cond-ADD with a threshold never pushes a bucket past it, and the
/// bucket value never decreases.
#[test]
fn cond_add_is_monotone_and_bounded() {
    let mut r = SplitMix64::new(0xA3);
    for _ in 0..64 {
        let threshold = r.range_u64(1, 0xffff) as u32;
        let updates = r.range_usize(1, 50);
        let mut s = Salu::new(4, 16);
        s.load_op(StatefulOp::CondAdd).unwrap();
        let mut last = 0u32;
        for _ in 0..updates {
            let p1 = r.next_u32();
            s.execute(StatefulOp::CondAdd, 0, p1 % 64, threshold).unwrap();
            let v = s.register().read(0).unwrap();
            // Only below-threshold states get increments, so the value
            // is bounded by threshold + the largest single increment.
            assert!(v < threshold + 64);
            assert!(v >= last, "bucket decreased: {last} -> {v}");
            last = v;
        }
    }
}

/// MAX is idempotent and order-insensitive: the final bucket equals the
/// maximum of all inputs (within register width).
#[test]
fn max_converges_to_maximum() {
    let mut r = SplitMix64::new(0xA4);
    for _ in 0..64 {
        let values: Vec<u32> = (0..r.range_usize(1, 40)).map(|_| r.next_u32()).collect();
        let mut s = Salu::new(2, 16);
        s.load_op(StatefulOp::Max).unwrap();
        for &v in &values {
            s.execute(StatefulOp::Max, 1, v, 0).unwrap();
        }
        let expect = values.iter().map(|&v| v & 0xffff).max().unwrap();
        assert_eq!(s.register().read(1).unwrap(), expect);
    }
}

/// OR-mode AND-OR only ever sets bits.
#[test]
fn or_is_bit_monotone() {
    let mut r = SplitMix64::new(0xA5);
    for _ in 0..64 {
        let masks: Vec<u32> = (0..r.range_usize(1, 40)).map(|_| r.next_u32()).collect();
        let mut s = Salu::new(2, 16);
        s.load_op(StatefulOp::AndOr).unwrap();
        let mut acc = 0u32;
        for &m in &masks {
            let out = s.execute(StatefulOp::AndOr, 0, m, 1).unwrap();
            let expected = (acc | m) & 0xffff;
            assert_eq!(out.result, expected);
            assert_eq!(out.old, acc);
            acc = expected;
        }
    }
}

/// Hash units: digests depend only on the masked fields — packets equal
/// under the mask digest equally, regardless of other fields.
#[test]
fn hash_respects_mask() {
    use flymon_packet::Packet;
    use flymon_rmt::hash::HashUnit;
    let mut r = SplitMix64::new(0xA6);
    for _ in 0..CASES {
        let src = r.next_u32();
        let d1 = r.next_u32();
        let d2 = r.next_u32();
        let mut unit = HashUnit::new(1);
        unit.set_mask(KeySpec::SRC_IP);
        let a = unit.compute(&Packet::tcp(src, d1, 1, 2));
        let b = unit.compute(&Packet::tcp(src, d2, 3, 4));
        assert_eq!(a, b);
    }
}

