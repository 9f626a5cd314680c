//! Stage-major batched replay vs. per-packet replay vs. the sharded
//! datapath, plus CRC kernel duels.
//!
//! Replays the canonical ≥1M-packet evaluation trace three ways through
//! one switch configuration:
//!
//! - **serial (batched)** — `FlyMon::process_batch`: the recorded
//!   headline number;
//! - **per-packet** — the interpreter path (`FlyMon::process` in a
//!   loop), asserted bit-identical to the batched replay;
//! - **sharded x2** — a two-replica [`ShardedDatapath`] (the same
//!   block-bucketing loop a fleet runs, on the calling thread), with
//!   the merged registers asserted bit-identical to the serial replay
//!   and the per-replica packet accounting covering the trace exactly.
//!
//! Kernel microbenches race byte-at-a-time CRC32 against slicing-by-8
//! and the 8-lane lockstep kernel.
//!
//! The JSON records `cpus` and the compiled-in `target_features` so a
//! number is never compared across incompatible builds silently.
//!
//! Full runs overwrite `results/BENCH_datapath.json` (the snapshot later
//! PRs diff against); `results/BENCH_history.jsonl` is a frozen archive
//! this bench no longer appends to.
//!
//! Run with `cargo bench --bench datapath`; CI runs
//! `cargo bench --bench datapath -- --smoke` on a ~100k-packet trace:
//! schema check plus a tolerance guard — the smoke serial throughput
//! must stay within 25% of the committed baseline field, else exit 1.

use std::time::Instant;

use flymon::prelude::*;
use flymon_bench::{emit_results_file, eval_trace, print_table, read_results_field, smoke_trace};
use flymon_netsim::ShardedDatapath;
use flymon_packet::KeySpec;
use flymon_rmt::hash::{
    crc32_lanes, crc32_slice8, crc32_with_table, tables8_for, CRC32_POLYNOMIALS, CRC_LANES,
};

/// Replicas of the one sharded row.
const REPLICAS: usize = 2;

/// Serial throughput from `results/BENCH_datapath.json` as committed by
/// the lane-vectorized-passes PR (PR 8) — the last recorded headline
/// before the compiled compression stage and the fused sweep, and the
/// floor the CI smoke guard scales from.
const BASELINE_SERIAL_PPS: f64 = 16_279_173.0;

/// The smoke guard fails when smoke serial throughput drops below this
/// fraction of the committed baseline (the `baseline` object in
/// `results/BENCH_datapath.json`).
const SMOKE_TOLERANCE: f64 = 0.75;

fn config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 16384,
        ..FlyMonConfig::default()
    }
}

fn task() -> TaskDefinition {
    TaskDefinition::builder("bench-freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 3 })
        .memory(8192)
        .build()
}

/// The x86 feature set this binary was compiled against (compile-time
/// `cfg!`, not runtime detection — it is the code that was *emitted*
/// that matters for comparing numbers).
fn target_features() -> String {
    let mut f: Vec<&str> = Vec::new();
    if cfg!(target_feature = "sse2") {
        f.push("sse2");
    }
    if cfg!(target_feature = "ssse3") {
        f.push("ssse3");
    }
    if cfg!(target_feature = "sse4.2") {
        f.push("sse4.2");
    }
    if cfg!(target_feature = "avx") {
        f.push("avx");
    }
    if cfg!(target_feature = "avx2") {
        f.push("avx2");
    }
    if cfg!(target_feature = "bmi2") {
        f.push("bmi2");
    }
    if cfg!(target_feature = "fma") {
        f.push("fma");
    }
    if f.is_empty() {
        "portable".to_string()
    } else {
        f.join(",")
    }
}

/// Races the old byte-at-a-time kernel against slicing-by-8 and the
/// 8-lane lockstep kernel on 13-byte inputs (the serialized 5-tuple —
/// the longest key the standing masks produce). Returns
/// (bytewise, slice8, lanes8) in Mkeys/s.
fn kernel_duel() -> (f64, f64, f64) {
    const KEYS: usize = 1 << 14;
    const ROUNDS: usize = 8;
    let tables = tables8_for(CRC32_POLYNOMIALS[0]).expect("family tables");
    let mut keys = vec![[0u8; 13]; KEYS];
    let mut rng = flymon_packet::SplitMix64::new(0xbe7c);
    for k in &mut keys {
        for b in k.iter_mut() {
            *b = rng.next_u64() as u8;
        }
    }
    let time = |f: &dyn Fn(&[u8]) -> u32| {
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let begun = Instant::now();
            let mut acc = 0u32;
            for k in &keys {
                acc ^= f(k);
            }
            std::hint::black_box(acc);
            best = best.min(begun.elapsed().as_secs_f64());
        }
        KEYS as f64 / best / 1e6
    };
    let old = time(&|k| crc32_with_table(&tables[0], 0x5eed, k));
    let new = time(&|k| crc32_slice8(tables, 0x5eed, k));
    // Lane-lockstep: the same keys in groups of CRC_LANES independent
    // chains — the shape the vectorized digest pass feeds it.
    let lanes = {
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let begun = Instant::now();
            let mut acc = 0u32;
            let mut out = [0u32; CRC_LANES];
            for group in keys.chunks(CRC_LANES) {
                let mut inputs: [&[u8]; CRC_LANES] = [&[]; CRC_LANES];
                for (l, k) in group.iter().enumerate() {
                    inputs[l] = k;
                }
                let m = group.len();
                crc32_lanes(tables, 0x5eed, &inputs[..m], &mut out[..m]);
                for &o in &out[..m] {
                    acc ^= o;
                }
            }
            std::hint::black_box(acc);
            best = best.min(begun.elapsed().as_secs_f64());
        }
        KEYS as f64 / best / 1e6
    };
    (old, new, lanes)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Read the committed baseline *before* this run overwrites the file.
    let committed_baseline = read_results_field("BENCH_datapath.json", "serial_packets_per_sec");
    let trace = if smoke { smoke_trace() } else { eval_trace() };
    let n = trace.len();
    if !smoke {
        assert!(n >= 1_000_000, "the evaluation trace must be ≥1M packets");
    }
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let features = target_features();
    let rev = git_rev();
    println!(
        "replaying {n} packets, batched vs per-packet vs sharded \
         ({cpus} CPUs, features [{features}], rev {rev})\n"
    );

    let (kernel_old, kernel_new, kernel_lanes) = kernel_duel();
    println!(
        "CRC32 kernel, 13-byte keys: bytewise {kernel_old:.1} Mkeys/s, \
         slice8 {kernel_new:.1} Mkeys/s ({:.2}x), \
         8-lane lockstep {kernel_lanes:.1} Mkeys/s ({:.2}x)\n",
        kernel_new / kernel_old,
        kernel_lanes / kernel_old
    );

    // Headline: the stage-major batched replay on a fresh switch.
    let mut serial = FlyMon::new(config());
    let h = serial.deploy(&task()).expect("bench deploy");
    let begun = Instant::now();
    serial.process_batch(&trace);
    let serial_secs = begun.elapsed().as_secs_f64();
    let serial_pps = n as f64 / serial_secs;

    // Per-packet interpreter reference: timed for the table, and the
    // bit-identity witness for the whole batched path.
    let mut per_packet = FlyMon::new(config());
    let h_pp = per_packet.deploy(&task()).expect("per-packet deploy");
    let begun = Instant::now();
    for p in &trace {
        per_packet.process(p);
    }
    let pp_secs = begun.elapsed().as_secs_f64();
    let pp_pps = n as f64 / pp_secs;
    for row in 0..3 {
        assert_eq!(
            serial.read_row(h, row).expect("batched row"),
            per_packet.read_row(h_pp, row).expect("per-packet row"),
            "batched replay diverged from per-packet replay at row {row}"
        );
    }

    // The sharded row: the merged registers must be bit-identical to
    // the serial replay — a sharded datapath that is fast but wrong is
    // useless — and the accounting must cover the trace exactly: a
    // delivered-twice or never-delivered packet shows up here rather
    // than as a quietly wrong throughput number.
    let mut dp = ShardedDatapath::deploy(REPLICAS, config(), &task()).expect("sharded deploy");
    let stats = dp.process_trace(&trace);
    let sharded_secs = stats.elapsed.as_secs_f64();
    for row in 0..3 {
        assert_eq!(
            dp.merged_row(row).expect("merged row"),
            serial.read_row(h, row).expect("serial row"),
            "row {row} diverged at {REPLICAS} replicas"
        );
    }
    let claimed: u64 = dp.worker_stats().iter().map(|w| w.packets).sum();
    assert_eq!(
        claimed, n as u64,
        "replicas must receive every packet exactly once"
    );
    let worker_json: Vec<String> = dp
        .worker_stats()
        .iter()
        .map(|w| {
            format!(
                r#"{{"worker":{},"packets":{},"dropped":{}}}"#,
                w.worker, w.packets, w.dropped
            )
        })
        .collect();

    let rows = vec![
        vec![
            "serial".to_string(),
            format!("{serial_secs:.3}"),
            format!("{serial_pps:.0}"),
            "1.00".to_string(),
        ],
        vec![
            "per-packet".to_string(),
            format!("{pp_secs:.3}"),
            format!("{pp_pps:.0}"),
            format!("{:.2}", serial_secs / pp_secs),
        ],
        vec![
            format!("sharded x{REPLICAS}"),
            format!("{sharded_secs:.3}"),
            format!("{:.0}", stats.packets_per_sec()),
            format!("{:.2}", serial_secs / sharded_secs),
        ],
    ];
    print_table(
        "Datapath replay throughput",
        &["mode", "seconds", "pkts/s", "speedup"],
        &rows,
    );

    let json = format!(
        "{{\n  \"trace_packets\": {n},\n  \"smoke\": {smoke},\n  \"cpus\": {cpus},\n  \
         \"target_features\": \"{features}\",\n  \"git_rev\": \"{rev}\",\n  \
         \"kernel\": {{\"name\": \"crc32-slice8\", \"bytewise_mkeys_per_sec\": {kernel_old:.1}, \
         \"slice8_mkeys_per_sec\": {kernel_new:.1}, \"lanes8_mkeys_per_sec\": {kernel_lanes:.1}, \
         \"speedup\": {:.3}, \"lanes_speedup\": {:.3}}},\n  \
         \"baseline\": {{\"source\": \"PR-8 lane-vectorized passes\", \"serial_packets_per_sec\": {BASELINE_SERIAL_PPS:.0}}},\n  \
         \"serial\": {{\"seconds\": {serial_secs:.6}, \
         \"packets_per_sec\": {serial_pps:.0}, \"speedup_vs_baseline\": {:.3}}},\n  \
         \"per_packet\": {{\"seconds\": {pp_secs:.6}, \"packets_per_sec\": {pp_pps:.0}}},\n  \
         \"sharded\": {{\"replicas\": {REPLICAS}, \"seconds\": {sharded_secs:.6}, \
         \"packets_per_sec\": {:.0}, \"speedup\": {:.3}, \"imbalance\": {:.3}, \
         \"dropped\": {}, \"per_worker\": [{}]}}\n}}\n",
        kernel_new / kernel_old,
        kernel_lanes / kernel_old,
        serial_pps / BASELINE_SERIAL_PPS,
        stats.packets_per_sec(),
        serial_secs / sharded_secs,
        stats.imbalance,
        stats.dropped,
        worker_json.join(",")
    );
    let path = emit_results_file("BENCH_datapath.json", &json);
    println!("wrote {}", path.display());

    if smoke {
        // Tolerance guard: CI fails when the smoke serial throughput
        // falls more than 25% below the committed baseline. (Smoke
        // numbers are never recorded; they only gate regressions.)
        let Some(baseline) = committed_baseline else {
            eprintln!("smoke guard: no committed baseline found, skipping");
            return;
        };
        let floor = baseline * SMOKE_TOLERANCE;
        if serial_pps < floor {
            eprintln!(
                "smoke guard FAILED: serial {serial_pps:.0} pkt/s is below \
                 {SMOKE_TOLERANCE}x the committed baseline {baseline:.0} pkt/s \
                 (floor {floor:.0})"
            );
            std::process::exit(1);
        }
        println!(
            "smoke guard OK: serial {serial_pps:.0} pkt/s ≥ {floor:.0} pkt/s \
             ({SMOKE_TOLERANCE}x of committed baseline {baseline:.0})"
        );
    }
}
