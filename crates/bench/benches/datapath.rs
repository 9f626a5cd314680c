//! Stage-major batched replay vs. per-packet replay vs. the sharded
//! datapath, plus CRC kernel duels.
//!
//! Replays the canonical ≥1M-packet evaluation trace several ways
//! through one switch configuration:
//!
//! - **serial (batched)** — `FlyMon::process_trace` at the defaults
//!   (batch 64, full 8-lane kernels): the recorded headline number;
//! - **lane sweep** — the same replay at lane widths 1, 4 and 8,
//!   quantifying what the lane-lockstep match and digest passes buy on
//!   this host;
//! - **batch sweep** — batch sizes 16/64/256, to keep the default
//!   honest as the hot path evolves;
//! - **per-packet** — the interpreter path (`FlyMon::process` in a
//!   loop), asserted bit-identical to the batched replay;
//!
//! then through a [`ShardedDatapath`] at several worker counts — the
//! ingress/worker pipeline, or its inline striped fallback on hosts
//! without real parallelism — verifying the merged registers stay
//! bit-identical, the per-worker packet accounting covers the trace
//! exactly, and tabulating per-core efficiency (per-worker processing
//! rate vs. the serial headline). Kernel microbenches race byte-at-a-
//! time CRC32 against slicing-by-8 and the 8-lane lockstep kernel.
//!
//! The JSON records `cpus` and the compiled-in `target_features` so a
//! number is never compared across incompatible builds silently.
//!
//! Full runs overwrite `results/BENCH_datapath.json` (the snapshot later
//! PRs diff against) *and* append one record to
//! `results/BENCH_history.jsonl` (the append-only trajectory; schema in
//! `results/README.md`).
//!
//! Run with `cargo bench --bench datapath`; CI runs
//! `cargo bench --bench datapath -- --smoke` on a ~100k-packet trace:
//! schema check plus a tolerance guard — the smoke serial throughput
//! must stay within 25% of the committed baseline field, else exit 1.

use std::time::Instant;

use flymon::prelude::*;
use flymon_bench::{
    append_results_line, emit_results_file, eval_trace, print_table, read_results_field,
    smoke_trace,
};
use flymon_netsim::{ReplayMode, ShardedDatapath};
use flymon_packet::KeySpec;
use flymon_rmt::hash::{
    crc32_lanes, crc32_slice8, crc32_with_table, tables8_for, CRC32_POLYNOMIALS, CRC_LANES,
};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH_SIZES: [usize; 3] = [16, 64, 256];
const LANE_WIDTHS: [usize; 3] = [1, 4, 8];

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

/// Times one batched replay of `trace` on a fresh switch. Returns
/// (seconds, switch, handle) so callers can read registers back.
fn batched_replay(
    trace: &[flymon_packet::Packet],
    batch_size: usize,
    lanes: usize,
) -> (f64, FlyMon, TaskHandle) {
    let mut fm = FlyMon::new(config());
    let h = fm.deploy(&task()).expect("bench deploy");
    fm.set_batch_size(batch_size);
    fm.set_lane_width(lanes);
    let begun = Instant::now();
    fm.process_batch(trace);
    (begun.elapsed().as_secs_f64(), fm, h)
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

    // Headline: the stage-major batched replay at the defaults (batch
    // size, full lane width).
    let defaults = FlyMon::new(config());
    let default_batch = defaults.batch_size();
    let default_lanes = defaults.lane_width();
    drop(defaults);
    let (serial_secs, serial, h) = batched_replay(&trace, default_batch, default_lanes);
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

    let mut rows = vec![
        vec![
            format!("serial (batch {default_batch}, {default_lanes} lanes)"),
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
    ];

    // Lane-width sweep: groups of one vs 4-wide vs the full 8-wide
    // lockstep, fresh switch per width, identical registers demanded.
    let mut lane_json = Vec::new();
    for lanes in LANE_WIDTHS {
        let secs = if lanes == default_lanes {
            serial_secs
        } else {
            let (secs, fm, hl) = batched_replay(&trace, default_batch, lanes);
            for row in 0..3 {
                assert_eq!(
                    fm.read_row(hl, row).expect("lane row"),
                    serial.read_row(h, row).expect("serial row"),
                    "lane width {lanes} diverged at row {row}"
                );
            }
            secs
        };
        let pps = n as f64 / secs;
        lane_json.push(format!(
            r#"{{"lane_width":{lanes},"seconds":{secs:.6},"packets_per_sec":{pps:.0}}}"#
        ));
        rows.push(vec![
            format!("lanes {lanes}"),
            format!("{secs:.3}"),
            format!("{pps:.0}"),
            format!("{:.2}", serial_secs / secs),
        ]);
    }

    // Batch-size sweep: fresh switch per size, same registers demanded.
    let mut sweep_json = Vec::new();
    for batch in BATCH_SIZES {
        let secs = if batch == default_batch {
            serial_secs
        } else {
            let (secs, fm, hb) = batched_replay(&trace, batch, default_lanes);
            for row in 0..3 {
                assert_eq!(
                    fm.read_row(hb, row).expect("sweep row"),
                    serial.read_row(h, row).expect("serial row"),
                    "batch size {batch} diverged at row {row}"
                );
            }
            secs
        };
        let pps = n as f64 / secs;
        sweep_json.push(format!(
            r#"{{"batch_size":{batch},"seconds":{secs:.6},"packets_per_sec":{pps:.0}}}"#
        ));
        rows.push(vec![
            format!("batch {batch}"),
            format!("{secs:.3}"),
            format!("{pps:.0}"),
            format!("{:.2}", serial_secs / secs),
        ]);
    }

    let mut parallel_json = Vec::new();
    let mut core_rows = Vec::new();
    for workers in WORKER_COUNTS {
        let mut dp = ShardedDatapath::deploy(workers, config(), &task()).expect("sharded deploy");
        let stats = dp.process_trace(&trace);
        let secs = stats.elapsed.as_secs_f64();
        let pps = stats.packets_per_sec();
        let mode = match stats.mode {
            ReplayMode::Serial => "serial".to_string(),
            ReplayMode::Pipelined { workers } => format!("pipelined({workers})"),
        };

        // The merged registers must be bit-identical to the serial
        // replay — a sharded datapath that is fast but wrong is useless.
        for row in 0..3 {
            assert_eq!(
                dp.merged_row(row).expect("merged row"),
                serial.read_row(h, row).expect("serial row"),
                "row {row} diverged at {workers} workers"
            );
        }
        // Accounting must cover the trace exactly: a delivered-twice or
        // never-delivered packet shows up here rather than as a quietly
        // wrong throughput number.
        let claimed: u64 = dp.worker_stats().iter().map(|w| w.packets).sum();
        assert_eq!(
            claimed, n as u64,
            "workers must receive every packet exactly once at {workers} workers"
        );

        let worker_json: Vec<String> = dp
            .worker_stats()
            .iter()
            .map(|w| {
                format!(
                    r#"{{"worker":{},"packets":{},"packets_per_sec":{:.0},"busy_seconds":{:.6},"recirculated":{},"dropped":{}}}"#,
                    w.worker,
                    w.packets,
                    w.packets_per_sec(),
                    w.busy.as_secs_f64(),
                    w.recirculated,
                    w.dropped
                )
            })
            .collect();
        for w in dp.worker_stats() {
            // Per-core efficiency: each worker's pure processing rate
            // (ring waits excluded) against the serial headline.
            core_rows.push(vec![
                format!("x{workers} [{mode}]"),
                format!("{}", w.worker),
                format!("{}", w.packets),
                format!("{:.0}", w.packets_per_sec()),
                format!("{:.2}", w.packets_per_sec() / serial_pps),
            ]);
        }
        parallel_json.push(format!(
            r#"{{"workers":{},"mode":"{}","seconds":{:.6},"packets_per_sec":{:.0},"speedup":{:.3},"imbalance":{:.3},"recirculated":{},"dropped":{},"per_worker":[{}]}}"#,
            workers,
            mode,
            secs,
            pps,
            serial_secs / secs,
            stats.imbalance,
            stats.recirculated,
            stats.dropped,
            worker_json.join(",")
        ));
        rows.push(vec![
            format!("sharded x{workers} [{mode}]"),
            format!("{secs:.3}"),
            format!("{pps:.0}"),
            format!("{:.2}", serial_secs / secs),
        ]);
    }

    print_table(
        "Datapath replay throughput",
        &["mode", "seconds", "pkts/s", "speedup"],
        &rows,
    );
    print_table(
        "Per-core efficiency (processing rate vs serial headline)",
        &["datapath", "worker", "packets", "pkts/s", "efficiency"],
        &core_rows,
    );
    if cpus < *WORKER_COUNTS.iter().max().unwrap() {
        println!(
            "note: only {cpus} CPU(s) visible — parallel speedups are \
             bounded by the host, not the datapath"
        );
    }

    let json = format!(
        "{{\n  \"trace_packets\": {n},\n  \"smoke\": {smoke},\n  \"cpus\": {cpus},\n  \
         \"target_features\": \"{features}\",\n  \"git_rev\": \"{rev}\",\n  \
         \"kernel\": {{\"name\": \"crc32-slice8\", \"bytewise_mkeys_per_sec\": {kernel_old:.1}, \
         \"slice8_mkeys_per_sec\": {kernel_new:.1}, \"lanes8_mkeys_per_sec\": {kernel_lanes:.1}, \
         \"speedup\": {:.3}, \"lanes_speedup\": {:.3}}},\n  \
         \"baseline\": {{\"source\": \"PR-8 lane-vectorized passes\", \"serial_packets_per_sec\": {BASELINE_SERIAL_PPS:.0}}},\n  \
         \"serial\": {{\"batch_size\": {default_batch}, \"lane_width\": {default_lanes}, \
         \"seconds\": {serial_secs:.6}, \
         \"packets_per_sec\": {serial_pps:.0}, \"speedup_vs_baseline\": {:.3}}},\n  \
         \"per_packet\": {{\"seconds\": {pp_secs:.6}, \"packets_per_sec\": {pp_pps:.0}}},\n  \
         \"lane_sweep\": [\n    {}\n  ],\n  \
         \"batch_sweep\": [\n    {}\n  ],\n  \
         \"parallel\": [\n    {}\n  ]\n}}\n",
        kernel_new / kernel_old,
        kernel_lanes / kernel_old,
        serial_pps / BASELINE_SERIAL_PPS,
        lane_json.join(",\n    "),
        sweep_json.join(",\n    "),
        parallel_json.join(",\n    ")
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
    } else {
        // Append-only perf trajectory, one record per full run. Schema
        // documented in results/README.md.
        let ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let line = format!(
            r#"{{"unix_ts":{ts},"git_rev":"{rev}","cpus":{cpus},"target_features":"{features}","trace_packets":{n},"serial_batch_size":{default_batch},"serial_lane_width":{default_lanes},"serial_packets_per_sec":{serial_pps:.0},"speedup_vs_baseline":{:.3},"per_packet_packets_per_sec":{pp_pps:.0},"lane_sweep":[{}],"batch_sweep":[{}]}}"#,
            serial_pps / BASELINE_SERIAL_PPS,
            lane_json.join(","),
            sweep_json.join(",")
        );
        let hist = append_results_line("BENCH_history.jsonl", &line);
        println!("appended {}", hist.display());
    }
}
