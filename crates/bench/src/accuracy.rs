//! Accuracy scenarios: CMU-hosted algorithms against exact ground truth
//! and their software references over a memory sweep (Figs. 14a–g), and
//! the design-choice ablations. Each scenario opens with the values it
//! varies with [`Scale`]; the smoke traces keep the full-scale rates and
//! skew, and memory shrinks with the flow count.

use std::collections::HashSet;

use flymon::addr::{fig11_shift_phv_bits, fig11_tcam_usage, AddrTranslation, TranslationMethod};
use flymon::prelude::*;
use flymon_packet::{FlowKeyBytes, KeySpec, Packet, PacketBuilder, TaskFilter};
use flymon_rmt::hash::murmur3_32;
use flymon_rmt::resources::TofinoModel;
use flymon_sketches::beaucoup::{BeauCoup, BeauCoupConfig};
use flymon_sketches::univmon::UnivMon;
use flymon_sketches::CountMinSketch;
use flymon_traffic::gen::{sort_arrivals, TraceConfig};
use flymon_traffic::ground_truth::{distinct_counts, max_intervals, GroundTruth};
use flymon_traffic::metrics::{f1_score, false_positive_rate, relative_error};

use crate::{
    flow_are, flows_where, fmt_bytes, min_max, replay, representatives, switch, task, wide_trace,
    Report, Scale, EVAL_TRACE,
};

/// The quick-sweep trace of the ablations: 20K flows, 600K packets over
/// 15 s.
pub(crate) const SMALL_TRACE: TraceConfig = TraceConfig {
    flows: 20_000,
    packets: 600_000,
    zipf_alpha: 1.1,
    duration_ns: 15_000_000_000,
    seed: 0x31DE,
};

/// One table row per memory point: the x-axis label, then each series
/// to three decimals.
fn sweep_rows<const N: usize>(points: &[(usize, [f64; N])]) -> Vec<Vec<String>> {
    let row = |(bytes, series): &(usize, [f64; N])| {
        let mut row = vec![fmt_bytes(*bytes)];
        row.extend(series.iter().map(|v| format!("{v:.3}")));
        row
    };
    points.iter().map(row).collect()
}

const HH_KEY: KeySpec = KeySpec::SRC_IP;

/// What the heavy-hitter scenarios (Figs. 14a/14b) vary with [`Scale`]:
/// the packet threshold and the memory points (bytes) each sweeps.
fn heavy_hitter_scale(scale: Scale) -> (u64, &'static [usize], &'static [usize]) {
    match scale {
        Scale::Full => (
            1024,
            &[10 << 10, 30 << 10, 100 << 10, 300 << 10, 1 << 20],
            &[40 << 10, 80 << 10, 120 << 10, 160 << 10, 200 << 10],
        ),
        Scale::Smoke => (128, &[512, 16 << 10], &[2 << 10, 8 << 10]),
    }
}

/// Figure 14a: heavy-hitter detection F1 vs memory, six algorithms —
/// FlyMon-BeauCoup (d=3, counting distinct µs timestamps), FlyMon-CMS
/// (d=3), FlyMon-SuMax (d=3), UnivMon, original BeauCoup (d=1, d=3).
pub(crate) fn fig14a_heavy_hitter(scale: Scale) -> Report {
    let (threshold, sweep, _) = heavy_hitter_scale(scale);
    let trace = wide_trace(EVAL_TRACE, scale);
    let truth = GroundTruth::packet_counts(&trace, HH_KEY);
    let heavy = truth.heavy_hitters(threshold);
    let reps = representatives(&trace, HH_KEY);
    let f1 = |reported: HashSet<FlowKeyBytes>| f1_score(&reported, &heavy).f1;
    let mut r = Report::default();
    r.note(format!(
        "trace: {} packets, {} flows, {} true heavy hitters (threshold {threshold})",
        trace.len(),
        truth.cardinality(),
        heavy.len()
    ));

    // Four groups for SuMax's chain; 2^10 partitions for a fine sweep.
    let config = switch(4, 1 << 18, 16, 10);
    // Columns: FlyMon-BeauCoup(3), FlyMon-CMS(3), FlyMon-SuMax(3),
    // UnivMon, BeauCoup(1), BeauCoup(3).
    let measure = |&bytes: &usize| {
        let buckets = (bytes / 2 / 3).clamp(8, 1 << 18);
        // FlyMon-BeauCoup: distinct µs timestamps as frequency.
        let timestamps = Attribute::Distinct(KeySpec { timestamp: true, ..KeySpec::NONE });
        let coupons = task(HH_KEY, timestamps, Algorithm::BeauCoup { d: 3 }, buckets);
        let (fm, h) = replay(config, coupons.distinct_threshold(threshold), &trace);
        let flymon_beaucoup = f1(flows_where(&reps, |_, p| fm.beaucoup_reports(h, p)));
        let counter = |algorithm| {
            let counts = task(HH_KEY, Attribute::frequency_packets(), algorithm, buckets);
            let (fm, h) = replay(config, counts, &trace);
            f1(flows_where(&reps, |_, p| fm.query_frequency(h, p) >= threshold))
        };
        let mut um = UnivMon::with_memory(bytes);
        trace.iter().for_each(|p| um.update(HH_KEY.extract(p).as_bytes()));
        let um_heavy: HashSet<Vec<u8>> =
            um.heavy_hitters(threshold).into_iter().map(|(k, _)| k).collect();
        let univmon = f1(flows_where(&reps, |k, _| um_heavy.contains(k.as_bytes())));
        let beaucoup = |d: usize| {
            let cfg = BeauCoupConfig::for_threshold(threshold, d, (bytes / 6 / d).max(8));
            let mut bc = BeauCoup::new(cfg);
            for p in &trace {
                let ts = ((p.ts_ns / 1_000) as u32).to_be_bytes();
                bc.update(HH_KEY.extract(p).as_bytes(), &ts);
            }
            f1(flows_where(&reps, |k, _| bc.reports(k.as_bytes())))
        };
        // SuMax: conservative update across 3 groups.
        let (cms, sumax) =
            (counter(Algorithm::Cms { d: 3 }), counter(Algorithm::SuMaxSum { d: 3 }));
        (bytes, [flymon_beaucoup, cms, sumax, univmon, beaucoup(1), beaucoup(3)])
    };
    let points: Vec<(usize, [f64; 6])> = sweep.iter().map(measure).collect();
    r.table(
        &format!("Figure 14a: heavy-hitter F1 vs memory (threshold {threshold})"),
        &[
            "memory",
            "FlyMon-BeauCoup(3)",
            "FlyMon-CMS(3)",
            "FlyMon-SuMax(3)",
            "UnivMon",
            "BeauCoup(1)",
            "BeauCoup(3)",
        ],
        &sweep_rows(&points),
    );
    let (first_bytes, first) = points[0];
    let (mid_bytes, mid) = points[points.len() / 2];
    let (last_bytes, last) = points[points.len() - 1];
    r.claim(
        "counter-based series (CMS, SuMax) reach F1 > 0.99 by the middle of the sweep (paper: ~100 KB)",
        format!("CMS {:.3}, SuMax {:.3} at {}", mid[1], mid[2], fmt_bytes(mid_bytes)),
        mid[1] > 0.99 && mid[2] > 0.99,
    );
    r.claim(
        "FlyMon-SuMax is the most memory-efficient: never behind CMS, ahead at the smallest memory",
        format!("SuMax {:.3} vs CMS {:.3} at {}", first[2], first[1], fmt_bytes(first_bytes)),
        points.iter().all(|(_, f)| f[2] >= f[1]) && first[2] > first[1],
    );
    let (best_coupon, counters) = (last[0].max(last[4]).max(last[5]), last[1].min(last[2]));
    r.claim(
        "coupon-based series climb more slowly and plateau below the counters",
        format!(
            "best coupon series {best_coupon:.3} vs counters {counters:.3} at {}",
            fmt_bytes(last_bytes)
        ),
        best_coupon < counters,
    );
    r.claim(
        "UnivMon needs far more memory than the counter-based CMU tasks",
        format!("UnivMon {:.3} vs CMS {:.3} at {}", last[3], last[1], fmt_bytes(last_bytes)),
        points.iter().all(|(_, f)| f[3] < f[1]),
    );
    r
}

/// Figure 14b: heavy-hitter F1 under probabilistic execution — the
/// sampling escape hatch for intersecting tasks (§3.3/§5.3): a CMU
/// executes the task with probability p per packet and estimates are
/// scaled by 1/p at query time.
pub(crate) fn fig14b_prob_exec(scale: Scale) -> Report {
    let (threshold, _, sweep) = heavy_hitter_scale(scale);
    let trace = wide_trace(EVAL_TRACE, scale);
    let heavy = GroundTruth::packet_counts(&trace, HH_KEY).heavy_hitters(threshold);
    let reps = representatives(&trace, HH_KEY);
    let mut r = Report::default();
    r.note(format!(
        "trace: {} packets, {} true heavy hitters (threshold {threshold})",
        trace.len(),
        heavy.len()
    ));
    // Columns: p = 1, 1/2, 1/4, 1/8.
    let measure = |&bytes: &usize| {
        let f1_at = |prob_log2: u8| {
            let buckets = (bytes / 2 / 3).max(8);
            let sampled =
                task(HH_KEY, Attribute::frequency_packets(), Algorithm::Cms { d: 3 }, buckets)
                    .probability_log2(prob_log2);
            let (fm, h) = replay(switch(2, 65536, 16, 10), sampled, &trace);
            let scaled = |p: &Packet| fm.query_frequency(h, p) << prob_log2;
            f1_score(&flows_where(&reps, |_, p| scaled(p) >= threshold), &heavy).f1
        };
        (bytes, [f1_at(0), f1_at(1), f1_at(2), f1_at(3)])
    };
    let points: Vec<(usize, [f64; 4])> = sweep.iter().map(measure).collect();
    r.table(
        "Figure 14b: heavy-hitter F1 under probabilistic execution",
        &["memory", "p=1.0", "p=0.5", "p=0.25", "p=0.125"],
        &sweep_rows(&points),
    );
    let (_, worst) = min_max(points.iter().flat_map(|(_, f)| f.map(|v| f[0] - v)));
    r.claim(
        "sampling down to p = 0.125 has little effect on heavy-hitter F1 (§5.3)",
        format!("largest F1 drop against p = 1 at equal memory: {worst:.3}"),
        worst < 0.1,
    );
    r
}

/// Figure 14c: DDoS victim detection F1 vs memory — FlyMon-BeauCoup
/// (multi-table AND, §4) against the original BeauCoup at d=1 and d=3,
/// with a 512-distinct-source threshold.
pub(crate) fn fig14c_ddos(scale: Scale) -> Report {
    const KEY: KeySpec = KeySpec::DST_IP;
    const THRESHOLD: u64 = 512;
    // The planted victims — victim `v` is hit by `100 + v * step`
    // distinct sources, sweeping across the threshold so precision and
    // recall both matter — and the memory points.
    let (victims, step, sweep): (u32, u32, &[usize]) = match scale {
        Scale::Full => (60, 50, &[10 << 10, 30 << 10, 100 << 10, 300 << 10, 1 << 20]),
        Scale::Smoke => (24, 50, &[1 << 10, 64 << 10]),
    };
    let background = TraceConfig {
        flows: 30_000,
        packets: 700_000,
        zipf_alpha: 1.1,
        duration_ns: 30_000_000_000,
        seed: 0xDD05,
    };
    let mut trace = wide_trace(background, scale);
    for v in 0..victims {
        let attacker = |src: u32| {
            PacketBuilder::new()
                .src_ip((198 << 24) | (v << 16) | src)
                .dst_ip((203 << 24) | (113 << 8) | v)
                .src_port(src as u16)
                .dst_port(80)
                .ts_ns(u64::from(src) * 1_000_000)
                .build()
        };
        trace.extend((0..100 + v * step).map(attacker));
    }
    // Also models the queue fields, which BeauCoup does not read.
    sort_arrivals(&mut trace);

    let sources = distinct_counts(&trace, KEY, KeySpec::SRC_IP);
    let attacked: HashSet<FlowKeyBytes> =
        sources.iter().filter(|&(_, &c)| c >= THRESHOLD).map(|(k, _)| *k).collect();
    let reps = representatives(&trace, KEY);
    let mut r = Report::default();
    r.note(format!(
        "trace: {} packets, {} destinations, {} true victims (threshold {THRESHOLD})",
        trace.len(),
        sources.len(),
        attacked.len()
    ));
    // Columns: FlyMon-BeauCoup(1), FlyMon-BeauCoup(3), BeauCoup(1),
    // BeauCoup(3).
    let measure = |&bytes: &usize| {
        let flymon = |d: usize| {
            let buckets = (bytes / 2 / d).clamp(8, 1 << 19);
            let coupons =
                task(KEY, Attribute::Distinct(KeySpec::SRC_IP), Algorithm::BeauCoup { d }, buckets);
            let (fm, h) =
                replay(switch(2, 1 << 19, 16, 10), coupons.distinct_threshold(THRESHOLD), &trace);
            f1_score(&flows_where(&reps, |_, p| fm.beaucoup_reports(h, p)), &attacked).f1
        };
        let original = |d: usize| {
            let cfg = BeauCoupConfig::for_threshold(THRESHOLD, d, (bytes / 6 / d).max(8));
            let mut bc = BeauCoup::new(cfg);
            trace
                .iter()
                .for_each(|p| bc.update(KEY.extract(p).as_bytes(), &p.src_ip.to_be_bytes()));
            f1_score(&flows_where(&reps, |k, _| bc.reports(k.as_bytes())), &attacked).f1
        };
        (bytes, [flymon(1), flymon(3), original(1), original(3)])
    };
    let points: Vec<(usize, [f64; 4])> = sweep.iter().map(measure).collect();
    r.table(
        &format!("Figure 14c: DDoS victim detection F1 vs memory (threshold {THRESHOLD})"),
        &["memory", "FlyMon-BeauCoup(1)", "FlyMon-BeauCoup(3)", "BeauCoup(1)", "BeauCoup(3)"],
        &sweep_rows(&points),
    );
    let (first_bytes, first) = points[0];
    let (last_bytes, last) = points[points.len() - 1];
    r.claim(
        "the d=3 multi-table AND suppresses collision false positives where one table drowns in them (§4)",
        format!("FlyMon-BeauCoup(3) {:.3} vs (1) {:.3} at {}", first[1], first[0], fmt_bytes(first_bytes)),
        first[1] > first[0] + 0.3,
    );
    let (lowest, _) = min_max(points.iter().map(|(_, f)| f[1]));
    r.claim(
        "FlyMon-BeauCoup(3) detects the victims at every memory point: F1 > 0.9",
        format!("lowest F1 {lowest:.3}"),
        lowest > 0.9,
    );
    r.claim(
        "FlyMon-BeauCoup(3) ends no more than 0.02 F1 behind the original BeauCoup(3)",
        format!("{:.3} vs {:.3} at {}", last[1], last[3], fmt_bytes(last_bytes)),
        last[1] >= last[3] - 0.02,
    );
    r
}

/// Figure 14d: flow cardinality RE vs memory — BeauCoup vs FlyMon-HLL.
pub(crate) fn fig14d_cardinality(scale: Scale) -> Report {
    const KEY: KeySpec = KeySpec::FIVE_TUPLE;
    // The largest cardinality the BeauCoup collectors are ranged for
    // (twice the flow count), and the memory points.
    let (range_hint, sweep): (u64, &[usize]) = match scale {
        Scale::Full => (100_000, &[16, 128, 1024, 4096, 8192]),
        Scale::Smoke => (3_300, &[128, 512, 2048]),
    };
    let trace = wide_trace(EVAL_TRACE, scale);
    let truth = GroundTruth::packet_counts(&trace, KEY).cardinality() as f64;
    let mut r = Report::default();
    r.note(format!("trace: {} packets, true cardinality {truth}", trace.len()));
    // Columns: BeauCoup, FlyMon-HLL.
    let measure = |&bytes: &usize| {
        // BeauCoup: `bytes/6` single-bucket coupon collectors, each
        // owning a hash partition of the flow space (stochastic
        // averaging); the estimate is the sum of the per-partition
        // inversions. Each collector is ranged for the cardinalities
        // its partition will plausibly see.
        let collectors = (bytes / 6).max(1);
        let cfg = BeauCoupConfig::for_threshold((range_hint / collectors as u64).max(64), 1, 1);
        let mut bcs: Vec<BeauCoup> = (0..collectors).map(|_| BeauCoup::new(cfg)).collect();
        for p in &trace {
            let key = KEY.extract(p);
            let c = murmur3_32(0xca4d, key.as_bytes()) as usize % collectors;
            bcs[c].update(b"", key.as_bytes());
        }
        let beaucoup: f64 = bcs.iter().map(|b| b.estimate(b"")).sum();
        // FlyMon-HLL: bytes/2 16-bit registers.
        let registers =
            task(KeySpec::NONE, Attribute::Distinct(KEY), Algorithm::Hll, (bytes / 2).max(8));
        let (fm, h) = replay(switch(1, 65536, 16, 13), registers, &trace);
        (bytes, [relative_error(truth, beaucoup), relative_error(truth, fm.cardinality(h))])
    };
    let points: Vec<(usize, [f64; 2])> = sweep.iter().map(measure).collect();
    r.table(
        "Figure 14d: flow cardinality RE vs memory",
        &["memory", "BeauCoup RE", "FlyMon-HLL RE"],
        &sweep_rows(&points),
    );
    let from_128 = points.iter().filter(|(bytes, _)| *bytes >= 128);
    let (_, beaucoup_worst) = min_max(from_128.map(|(_, re)| re[0]));
    r.claim(
        "BeauCoup needs very little memory: RE < 0.1 from 128 bytes up",
        format!("largest BeauCoup RE at 128 B and above: {beaucoup_worst:.3}"),
        beaucoup_worst < 0.1,
    );
    // HLL's standard error with m registers is 1.04/sqrt(m).
    let sigmas =
        |(bytes, re): &(usize, [f64; 2])| re[1] / (1.04 / ((bytes / 2).max(8) as f64).sqrt());
    let (_, hll_worst) = min_max(points.iter().map(sigmas));
    let (last_bytes, last) = points[points.len() - 1];
    r.claim(
        "FlyMon-HLL stays within two standard errors of the truth at every memory point and \
         converges to a few percent by the end of the sweep",
        format!(
            "at most {hll_worst:.2} standard errors off; RE {:.3} at {}",
            last[1],
            fmt_bytes(last_bytes)
        ),
        hll_worst < 2.0 && last[1] < 0.05,
    );
    r
}

/// Figure 14e: flow entropy RE vs memory — UnivMon vs FlyMon-MRAC.
pub(crate) fn fig14e_entropy(scale: Scale) -> Report {
    const KEY: KeySpec = KeySpec::FIVE_TUPLE;
    let sweep: &[usize] = match scale {
        Scale::Full => &[200 << 10, 300 << 10, 400 << 10, 500 << 10],
        Scale::Smoke => &[8 << 10, 16 << 10],
    };
    let trace = wide_trace(EVAL_TRACE, scale);
    let truth = GroundTruth::packet_counts(&trace, KEY).entropy();
    let mut r = Report::default();
    r.note(format!("trace: {} packets, true flow entropy {truth:.4} nats", trace.len()));
    // Columns: UnivMon (the universal estimator), FlyMon-MRAC.
    let measure = |&bytes: &usize| {
        let mut um = UnivMon::with_memory(bytes);
        trace.iter().for_each(|p| um.update(KEY.extract(p).as_bytes()));
        // A 32-bit-register CMU: heavy flows exceed 16-bit counters
        // (the paper's CMUs support both widths).
        let counters =
            task(KEY, Attribute::frequency_packets(), Algorithm::Mrac, (bytes / 4).max(8));
        let (fm, h) = replay(switch(1, 1 << 17, 32, 10), counters, &trace);
        (bytes, [relative_error(truth, um.entropy()), relative_error(truth, fm.entropy(h, 10))])
    };
    let points: Vec<(usize, [f64; 2])> = sweep.iter().map(measure).collect();
    r.table(
        "Figure 14e: flow entropy RE vs memory",
        &["memory", "UnivMon RE", "FlyMon-MRAC RE"],
        &sweep_rows(&points),
    );
    let (first_bytes, first) = points[0];
    r.claim(
        "FlyMon-MRAC is well under RE 0.2 at the first memory point (paper: ~200 KB)",
        format!("RE {:.3} at {}", first[1], fmt_bytes(first_bytes)),
        first[1] < 0.1,
    );
    let (_, mrac_worst) = min_max(points.iter().map(|(_, re)| re[1]));
    let (univmon_best, _) = min_max(points.iter().map(|(_, re)| re[0]));
    r.claim(
        "FlyMon-MRAC is ahead of UnivMon at every memory point",
        format!("MRAC at most {mrac_worst:.3}, UnivMon at least {univmon_best:.3}"),
        points.iter().all(|(_, re)| re[1] < re[0]),
    );
    r
}

/// Figure 14f: maximum inter-arrival time ARE vs memory (d=2, d=3) —
/// the 3-CMU combinatorial task of §4 (Bloom membership + arrival
/// recorder + interval maximizer), at d parallel instances whose
/// row-wise minimum suppresses hash-collision overestimates.
pub(crate) fn fig14f_interval(scale: Scale) -> Report {
    const KEY: KeySpec = KeySpec::FIVE_TUPLE;
    // Register size and the memory points.
    let (buckets_per_cmu, sweep): (usize, &[usize]) = match scale {
        Scale::Full => (1 << 19, &[4 << 20, 6 << 20, 8 << 20, 10 << 20]),
        Scale::Smoke => (1 << 15, &[128 << 10, 512 << 10]),
    };
    // A denser trace so flows have many packets (intervals need
    // recurrence); 30 s window like the paper's interval experiment.
    let dense = TraceConfig {
        flows: 60_000,
        packets: 1_200_000,
        zipf_alpha: 1.05,
        duration_ns: 30_000_000_000,
        seed: 0x1f,
    };
    let trace = wide_trace(dense, scale);
    // Ground truth in µs (the data plane records µs timestamps).
    let in_us = max_intervals(&trace, KEY).into_iter().map(|(k, ns)| (k, ns / 1_000));
    let truth: Vec<(FlowKeyBytes, u64)> = in_us.filter(|&(_, us)| us > 0).collect();
    let reps = representatives(&trace, KEY);
    let mut r = Report::default();
    r.note(format!(
        "trace: {} packets, {} flows with a defined max interval",
        trace.len(),
        truth.len()
    ));
    // Columns: d=2, d=3.
    let measure = |&bytes: &usize| {
        let are = |d: usize| {
            let buckets = (bytes / 4 / 3 / d).clamp(8, buckets_per_cmu);
            let interval = Attribute::Max(MaxParam::PacketIntervalUs);
            let maximizer = task(KEY, interval, Algorithm::MaxInterval { d }, buckets);
            let (fm, h) = replay(switch(3, buckets_per_cmu, 32, 8), maximizer, &trace);
            flow_are(truth.iter().map(|(k, v)| (k, v)), &reps, |p| fm.query_max(h, p))
        };
        (bytes, [are(2), are(3)])
    };
    let points: Vec<(usize, [f64; 2])> = sweep.iter().map(measure).collect();
    r.table(
        "Figure 14f: max inter-arrival time ARE vs memory",
        &["memory", "d=2", "d=3"],
        &sweep_rows(&points),
    );
    let (first, (last_bytes, last)) = (points[0].1, points[points.len() - 1]);
    r.claim(
        "ARE falls with memory for both instance counts",
        format!("d=2 {:.3} to {:.3}, d=3 {:.3} to {:.3}", first[0], last[0], first[1], last[1]),
        points.windows(2).all(|w| w[1].1[0] <= w[0].1[0] && w[1].1[1] <= w[0].1[1]),
    );
    r.claim(
        "at the largest memory both stay far inside the paper's ARE < 4 (d=3 at 5 MB): under 0.3",
        format!("d=2 {:.3}, d=3 {:.3} at {}", last[0], last[1], fmt_bytes(last_bytes)),
        last[0] < 0.3 && last[1] < 0.3,
    );
    r
}

/// Figure 14g: existence check FP vs memory — the bit-level Bloom
/// optimization of §4. Inserts the first `inserted` of `probes` keys,
/// probes with all of them, and compares the bit-optimized CMU Bloom
/// filter (every bit of a 16-bit bucket usable) against the naive one
/// (a whole bucket per bit).
pub(crate) fn fig14g_existence(scale: Scale) -> Report {
    let (inserted, probes, sweep): (u32, u32, &[usize]) = match scale {
        Scale::Full => (20_000, 95_000, &[2 << 10, 4 << 10, 6 << 10, 8 << 10, 10 << 10]),
        Scale::Smoke => (2_000, 9_500, &[256, 512, 1024]),
    };
    let probe = |i: u32| Packet::tcp(0x0a00_0000 | i, 0xc0a8_0001, (i % 60_000) as u16, 443);
    let members: Vec<Packet> = (0..inserted).map(probe).collect();
    let mut false_negatives = 0;
    // Columns: naive, bit-optimized.
    let mut measure = |&bytes: &usize| {
        let mut fp_rate = |bit_optimized: bool| {
            let filter = Algorithm::Bloom { d: 3, bit_optimized };
            let blacklist = Attribute::Existence(KeySpec::FIVE_TUPLE);
            let bits = task(KeySpec::NONE, blacklist, filter, (bytes / 2 / 3).max(8));
            let (fm, h) = replay(switch(1, 65536, 16, 12), bits, &members);
            let hits = |range: std::ops::Range<u32>| {
                range.filter(|&i| fm.query_exists(h, &probe(i))).count()
            };
            false_negatives += inserted as usize - hits(0..inserted);
            let fp = hits(inserted..probes);
            false_positive_rate(fp, (probes - inserted) as usize - fp)
        };
        (bytes, [fp_rate(false), fp_rate(true)])
    };
    let points: Vec<(usize, [f64; 2])> = sweep.iter().map(&mut measure).collect();
    let row = |(bytes, fp): &(usize, [f64; 2])| {
        vec![fmt_bytes(*bytes), format!("{:.4}", fp[0]), format!("{:.4}", fp[1])]
    };
    let mut r = Report::default();
    r.table(
        "Figure 14g: existence-check false-positive rate vs memory",
        &["memory", "w/o bit-opt FP", "w/ bit-opt FP"],
        &points.iter().map(row).collect::<Vec<_>>(),
    );
    r.claim(
        "a Bloom filter has no false negatives, with or without the optimization",
        format!(
            "{false_negatives} of {} member probes missed",
            2 * sweep.len() * inserted as usize
        ),
        false_negatives == 0,
    );
    let (last_bytes, last) = points[points.len() - 1];
    r.claim(
        "with every bucket bit a filter bit (16x the bits per byte) FP falls with memory and \
         collapses where the naive layout is still saturated",
        format!("bit-opt {:.4} vs naive {:.4} at {}", last[1], last[0], fmt_bytes(last_bytes)),
        last[1] < 0.1 && last[0] > 0.9 && points.windows(2).all(|w| w[1].1[1] <= w[0].1[1]),
    );
    r
}

/// Ablations of FlyMon's three resource-saving design choices:
///
/// 1. **Key-slice sharing** (§3.2): CMUs of one group derive their "row
///    hashes" as bit slices of a single compressed key instead of
///    running independent hash functions.
/// 2. **XOR key composition** (§3.1.1): `C(SrcIP) ⊕ C(DstIP)` stands in
///    for a dedicated IP-pair hash unit.
/// 3. **Address translation method** (§3.3): shift-based and TCAM-based
///    translation compute the same mapping and differ only in resource
///    cost.
pub(crate) fn ablation_design(scale: Scale) -> Report {
    // Ablation 1's memory points, and the buckets of ablation 2's pair
    // task and of the single-key tasks seeded beside it.
    let (sweep, pair_buckets, seed_buckets): (&[usize], usize, usize) = match scale {
        Scale::Full => (&[20 << 10, 60 << 10, 200 << 10], 16384, 2048),
        Scale::Smoke => (&[1 << 10, 2 << 10, 8 << 10], 512, 64),
    };
    let trace = wide_trace(SMALL_TRACE, scale);
    let packets = Attribute::frequency_packets();
    let mut r = Report::default();

    // Ablation 1: shared-digest slices vs independent row hashes.
    let key = KeySpec::SRC_IP;
    let truth = GroundTruth::packet_counts(&trace, key);
    let reps = representatives(&trace, key);
    let measure = |&bytes: &usize| {
        let buckets = (bytes / 2 / 3).max(8);
        // CMU CMS: 3 rows sliced from one 32-bit compressed key.
        let sliced_rows = task(key, packets, Algorithm::Cms { d: 3 }, buckets);
        let (fm, h) = replay(switch(1, 1 << 17, 16, 10), sliced_rows, &trace);
        let sliced = flow_are(&truth.frequency, &reps, |p| fm.query_frequency(h, p));
        // Software CMS: 3 fully independent hash functions, identical
        // row width (next power of two, matching the CMU rounding).
        let mut sw = CountMinSketch::new(3, buckets.next_power_of_two());
        trace.iter().for_each(|p| sw.update(key.extract(p).as_bytes(), 1));
        let independent =
            flow_are(&truth.frequency, &reps, |p| sw.query(key.extract(p).as_bytes()));
        (bytes, sliced, independent)
    };
    let points: Vec<(usize, f64, f64)> = sweep.iter().map(measure).collect();
    let row = |&(bytes, sliced, independent): &(usize, f64, f64)| {
        vec![
            fmt_bytes(bytes),
            format!("{sliced:.4}"),
            format!("{independent:.4}"),
            format!("{:+.1}%", (sliced / independent - 1.0) * 100.0),
        ]
    };
    r.table(
        "Ablation 1: shared-digest bit slices vs independent row hashes (CMS ARE)",
        &["memory", "sliced (CMU)", "independent (sw)", "delta"],
        &points.iter().map(row).collect::<Vec<_>>(),
    );
    let delta = |&(_, s, i): &(usize, f64, f64)| {
        format!("{:+.1}% ({:+.4} ARE)", (s / i - 1.0) * 100.0, s - i)
    };
    r.claim(
        "slicing one compressed key into row hashes has negligible accuracy impact (§3.2): \
         within 20% or 0.02 ARE of independent hashes",
        format!(
            "sliced vs independent: {}",
            points.iter().map(delta).collect::<Vec<_>>().join(", ")
        ),
        points.iter().all(|&(_, s, i)| (s - i).abs() < 0.2 * i + 0.02),
    );

    // Ablation 2: XOR-composed IP-pair key vs a dedicated hash unit.
    let truth = GroundTruth::packet_counts(&trace, KeySpec::IP_PAIR);
    let reps = representatives(&trace, KeySpec::IP_PAIR);
    let pair_are = |seed_singles: bool| {
        let mut fm = FlyMon::new(FlyMonConfig {
            groups: 1,
            buckets_per_cmu: 1 << 16,
            preconfigure_five_tuple: false,
            ..FlyMonConfig::default()
        });
        if seed_singles {
            // Occupy two units with SrcIP and DstIP (disjoint filters so
            // CMUs stay shareable), forcing the pair task onto XOR.
            for (key, net) in [(KeySpec::SRC_IP, 0x63000000u32), (KeySpec::DST_IP, 0x64000000)] {
                let seed = task(key, packets, Algorithm::Cms { d: 1 }, seed_buckets);
                fm.deploy(&seed.filter(TaskFilter::src(net, 8)).build()).expect("seed deploys");
            }
        }
        let pair = task(KeySpec::IP_PAIR, packets, Algorithm::Cms { d: 1 }, pair_buckets);
        let h = fm.deploy(&pair.build()).expect("pair deploys");
        let masks = fm.task(h).expect("just deployed").install.hash_mask_rules;
        fm.process_batch(&trace);
        (flow_are(&truth.frequency, &reps, |p| fm.query_frequency(h, p)), masks)
    };
    let (dedicated, masks_dedicated) = pair_are(false);
    let (xored, masks_xored) = pair_are(true);
    r.table(
        "Ablation 2: IP-pair key via XOR composition vs dedicated hash unit (CMS d=1 ARE)",
        &["variant", "ARE", "new hash masks"],
        &[
            vec!["dedicated unit".into(), format!("{dedicated:.4}"), masks_dedicated.to_string()],
            vec!["XOR of C(SrcIP)⊕C(DstIP)".into(), format!("{xored:.4}"), masks_xored.to_string()],
        ],
    );
    r.claim(
        "XOR composition saves the hash-mask install (and a hash unit) without costing \
         accuracy: at most 25% more ARE (§3.1.1)",
        format!(
            "{masks_xored} new masks vs {masks_dedicated}; ARE {:+.1}%",
            (xored / dedicated - 1.0) * 100.0
        ),
        masks_xored == 0 && masks_dedicated == 1 && xored < 1.25 * dedicated,
    );

    // Ablation 3: the two translation mechanisms are semantically
    // identical and differ only in resources.
    let m = 65536;
    let mut mismatches = 0u32;
    for p in 0u8..=5 {
        for idx in 0..(1u32 << p) {
            let shift = AddrTranslation::new(p, idx, TranslationMethod::ShiftBased);
            let tcam = AddrTranslation::new(p, idx, TranslationMethod::TcamBased);
            let differ = |addr: &u32| shift.translate(*addr, m) != tcam.translate(*addr, m);
            mismatches += (0..m as u32).step_by(997).filter(differ).count() as u32;
        }
    }
    let slots = TofinoModel::default().tcam_slots_per_stage;
    let row = |&k: &usize| {
        vec![
            k.to_string(),
            mismatches.to_string(),
            format!("{:.3}", fig11_tcam_usage(k, slots)),
            fig11_shift_phv_bits(k).to_string(),
        ]
    };
    r.table(
        "Ablation 3: shift-based vs TCAM-based address translation",
        &["partitions", "semantic mismatches", "TCAM (frac/stage)", "PHV (bits)"],
        &[8usize, 32, 64].iter().map(row).collect::<Vec<_>>(),
    );
    r.claim(
        "both mechanisms compute the same sub-range mapping; operators pick by which resource \
         (TCAM vs PHV/stages) is spare (§3.3)",
        format!("{mismatches} mismatches over every partition of 1..32-way splits"),
        mismatches == 0,
    );
    r
}
