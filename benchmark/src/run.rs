//! One run of one workload from one process: set-up, checks, the timed
//! closed loop (or, traced, the loop under spans and then the ladder),
//! the result file and the contract line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::checks::{self, Digests};
use crate::json::{obj, Json};
use crate::ladder::{self, Layers};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, sorted, supported};
use crate::tracer::{self, span, NameTotals, Span};
use crate::workloads::{self, Driver, Inputs, Recorder, Spec};

/// Cold set-ups per untraced run; `setup_s` is their quiet quartile.
const SETUP_REPEATS: usize = 5;
/// The timed region is cut into windows of this length and the timed
/// metrics are computed per window; see [`quietest`].
const WINDOW: Duration = Duration::from_millis(100);
/// A region shorter than this many windows (smoke tests) is cut into
/// this many shorter ones.
const MIN_WINDOWS: u32 = 20;
/// Share of a traced run's time budget spent in the workload's own
/// loop; the rest is the ladder's. The loop runs in alternating
/// untraced and traced stretches, so that a slow minute on the host
/// falls on both sides of `trace.overhead_share`.
const LOOP_SHARE: f64 = 0.4;
const TRACE_ROUNDS: u32 = 4;
/// Spans reserved up front, so recording never reallocates.
const SPAN_CAPACITY: usize = 1 << 20;
const OP_CAPACITY: usize = 1 << 20;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// One window of the timed region.
struct Window {
    secs: f64,
    packets: u64,
    /// This window's samples in `Recorder::op_ns`.
    ops: std::ops::Range<usize>,
}

/// What the timed loop measured.
#[derive(Default)]
struct Measured {
    wall_s: f64,
    windows: Vec<Window>,
    cycles: u64,
}

/// The quietest window. Interference from a neighbour on a shared host
/// only ever slows a window down, and it comes in spells of seconds to
/// tens of seconds, so most windows of a run can be disturbed. The best
/// window estimates what the code does when left alone: it cannot read
/// faster than the code runs, and a code change moves every window
/// with it.
fn quietest(values: &[f64], higher_is_better: bool) -> f64 {
    let values = values.iter().copied();
    if higher_is_better {
        values.fold(f64::MIN, f64::max)
    } else {
        values.fold(f64::MAX, f64::min)
    }
}

/// The quartile on the good side of a handful of set-up times.
fn quiet_quartile(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 25.0)
}

impl Measured {
    /// Appends a later stretch of the same loop (same `Recorder`).
    fn absorb(&mut self, later: Measured) {
        self.wall_s += later.wall_s;
        self.cycles += later.cycles;
        self.windows.extend(later.windows);
    }

    /// Packets per second of each window.
    fn window_pkts_per_s(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.packets as f64 / w.secs)
            .collect()
    }

    /// Median op time of each window that completed an op, in µs.
    fn window_op_p50_us(&self, rec: &Recorder) -> Vec<f64> {
        let busy = self.windows.iter().filter(|w| !w.ops.is_empty());
        busy.map(|w| median(&micros(&rec.op_ns[w.ops.clone()])))
            .collect()
    }

    fn pkts_per_s(&self) -> f64 {
        quietest(&self.window_pkts_per_s(), true)
    }
}

fn micros(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&ns| ns as f64 / 1e3).collect()
}

fn warm_up(driver: &mut dyn Driver, cycles: u64) -> Result<(), String> {
    let mut scratch = Recorder::default();
    for _ in 0..cycles {
        driver.cycle(&mut scratch)?;
    }
    if scratch.failed != 0 {
        return Err(format!(
            "{} operations failed during warm-up",
            scratch.failed
        ));
    }
    Ok(())
}

/// Runs the closed loop for `seconds`, one generator thread.
fn measure(driver: &mut dyn Driver, seconds: f64, rec: &mut Recorder) -> Result<Measured, String> {
    let budget = Duration::from_secs_f64(seconds);
    let window = WINDOW.min(budget / MIN_WINDOWS);
    let mut windows = Vec::with_capacity((seconds / window.as_secs_f64()) as usize + 1);
    let mut cycles = 0u64;
    let begun = Instant::now();
    let (mut window_begun, mut window_packets, mut window_ops) =
        (begun, rec.packets, rec.op_ns.len());
    loop {
        tracer::set_iter(cycles as u32);
        {
            let _s = span("driver.cycle");
            driver.cycle(rec)?;
        }
        cycles += 1;
        let now = Instant::now();
        if now - window_begun >= window {
            windows.push(Window {
                secs: (now - window_begun).as_secs_f64(),
                packets: rec.packets - window_packets,
                ops: window_ops..rec.op_ns.len(),
            });
            (window_begun, window_packets, window_ops) = (now, rec.packets, rec.op_ns.len());
        }
        if now - begun >= budget {
            return Ok(Measured {
                wall_s: (now - begun).as_secs_f64(),
                windows,
                cycles,
            });
        }
    }
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn host() -> Json {
    obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("target_features", Json::from(env!("BENCH_TARGET_FEATURES"))),
        ("rustc", Json::from(env!("BENCH_RUSTC_VERSION"))),
    ])
}

fn metrics_json(
    defs: &[crate::spec::Metric],
    value_of: impl Fn(&str) -> Option<f64>,
) -> Result<Json, String> {
    let mut pairs = Vec::with_capacity(defs.len());
    for m in defs {
        let value =
            value_of(m.name).ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        pairs.push((
            m.name,
            obj([("value", Json::from(value)), ("unit", Json::from(m.unit))]),
        ));
    }
    Ok(obj(pairs))
}

/// Share of the traced loop's self time spent in each layer group.
fn loop_shares(totals: &BTreeMap<&'static str, NameTotals>, out: &mut Layers) {
    let layers = tracer::layer_self_ns(totals);
    let total: u64 = layers.values().sum();
    let share_of = |pick: &dyn Fn(&str) -> bool| {
        let ns: u64 = layers
            .iter()
            .filter(|(l, _)| pick(l))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / total.max(1) as f64
    };
    out.insert("loop.core_share", share_of(&|l| l.starts_with("core")));
    out.insert("loop.fleet_share", share_of(&|l| l == "netsim.fleet"));
    out.insert("loop.ingest_share", share_of(&|l| l == "netsim.ingest"));
    out.insert(
        "loop.source_share",
        share_of(&|l| l == "netsim.ingest.source"),
    );
    out.insert("loop.channel_share", share_of(&|l| l == "netsim.channel"));
    out.insert("loop.driver_share", share_of(&|l| l == "driver"));
}

fn span_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum()
}

/// Builds the workload's system cold and runs its warm-up pass.
fn set_up<'a>(
    spec: &'a Spec,
    inputs: &'a Inputs,
    seed: u64,
) -> Result<Box<dyn Driver + 'a>, String> {
    let mut driver = workloads::build(spec, inputs, seed)?;
    warm_up(driver.as_mut(), spec.warm_cycles(inputs.trace.len()))?;
    Ok(driver)
}

/// The digests the golden file would hold for (`spec`, `seed`); refuses
/// where the batch path and the 1-switch fleet path disagree.
pub fn digests_for(spec: &Spec, seed: u64) -> Result<Digests, String> {
    let inputs = workloads::inputs(spec, seed);
    let mut driver = set_up(spec, &inputs, seed)?;
    Ok(Digests {
        agree: checks::agreement(spec, &inputs)?.digest,
        warm: driver.digest()?,
    })
}

/// Executes one run against `golden` (the text of a golden file) and
/// returns the contract line. Any failed check is an `Err`.
pub fn execute(opts: &Options, golden: &str) -> Result<Json, String> {
    let spec: Spec = workloads::spec(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload '{}'", opts.workload))?;
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err(format!("--seconds {} outside (0, 60]", opts.seconds));
    }
    if opts.trace {
        tracer::enable(SPAN_CAPACITY);
    }

    // Set-up: trace, ground truth, the system under test, and one
    // untimed warm-up pass. Repeated cold, the last one kept.
    // (The traced run reports no set-up time and sets up once.)
    let mut setup_samples = Vec::with_capacity(SETUP_REPEATS);
    let discarded = if opts.trace { 0 } else { SETUP_REPEATS - 1 };
    for _ in 0..discarded {
        let begun = Instant::now();
        let inputs = workloads::inputs(&spec, opts.seed);
        set_up(&spec, &inputs, opts.seed)?;
        setup_samples.push(begun.elapsed().as_secs_f64());
    }
    let begun = Instant::now();
    let inputs = workloads::inputs(&spec, opts.seed);
    let mut driver = set_up(&spec, &inputs, opts.seed)?;
    setup_samples.push(begun.elapsed().as_secs_f64());

    // Checks on the inputs and on the warmed state, before any timing.
    let begun = Instant::now();
    let agreement = checks::agreement(&spec, &inputs)?;
    let recovery = checks::recovery(&spec, &inputs)?;
    let digests = Digests {
        agree: agreement.digest,
        warm: driver.digest()?,
    };
    let key = checks::golden_key(opts.seed, opts.smoke);
    let golden_covered = checks::compare_golden(golden, spec.name, &key, digests)?;
    let check_s = begun.elapsed().as_secs_f64();

    let mut rec = Recorder::with_capacity(OP_CAPACITY);
    let mut layers = Layers::new();
    // Where the traced loop's spans lie in the recording.
    let mut loop_phase = 0..0;
    let measured = if opts.trace {
        let stretch = opts.seconds * LOOP_SHARE / f64::from(2 * TRACE_ROUNDS);
        let mut plain_rec = Recorder::with_capacity(OP_CAPACITY);
        let (mut plain, mut traced) = (Measured::default(), Measured::default());
        let mut allocs = 0;
        let loop_begun = tracer::mark();
        for _ in 0..TRACE_ROUNDS {
            tracer::disable();
            plain.absorb(measure(driver.as_mut(), stretch, &mut plain_rec)?);
            tracer::enable(0);
            let (under_trace, made) = alloc::count(|| measure(driver.as_mut(), stretch, &mut rec));
            traced.absorb(under_trace?);
            allocs += made;
        }
        tracer::disable();
        loop_phase = loop_begun..tracer::mark();
        layers.insert(
            "trace.overhead_share",
            1.0 - traced.pkts_per_s() / plain.pkts_per_s(),
        );
        layers.insert(
            "loop.allocs_per_kpkt",
            allocs as f64 * 1e3 / rec.packets.max(1) as f64,
        );
        rec.attempted += plain_rec.attempted;
        rec.failed += plain_rec.failed;
        traced
    } else {
        measure(driver.as_mut(), opts.seconds, &mut rec)?
    };
    driver.finish()?;
    drop(driver);

    if rec.op_ns.is_empty() || rec.attempted == 0 {
        return Err("the timed region completed no operation".into());
    }
    let ops = sorted(micros(&rec.op_ns));
    let op_p50_whole_run_us = percentile(&ops, 50.0);
    let op_tail_whole_run_us = percentile(&ops, spec.tail_pct);
    let window_pkts_per_s = measured.window_pkts_per_s();
    let window_op_p50_us = measured.window_op_p50_us(&rec);
    let series = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
    let mut extra = vec![
        ("wall_s", Json::from(measured.wall_s)),
        ("cycles", Json::from(measured.cycles)),
        ("packets", Json::from(rec.packets)),
        (
            "pkts_per_s_whole_run",
            Json::from(rec.packets as f64 / measured.wall_s),
        ),
        ("op_samples", Json::from(ops.len())),
        ("op_p50_whole_run_us", Json::from(op_p50_whole_run_us)),
        ("op_tail_pct", Json::from(spec.tail_pct)),
        (
            "op_tail_supported",
            Json::from(supported(ops.len(), spec.tail_pct)),
        ),
        ("op_tail_whole_run_us", Json::from(op_tail_whole_run_us)),
        ("op_max_us", Json::from(ops[ops.len() - 1])),
        ("window_pkts_per_s", series(&window_pkts_per_s)),
        ("window_op_p50_us", series(&window_op_p50_us)),
        ("check_s", Json::from(check_s)),
        ("golden_covered", Json::from(golden_covered)),
    ];

    let mut spans: Vec<Span> = Vec::new();
    let metrics = if opts.trace {
        let budget = opts.seconds * (1.0 - LOOP_SHARE);
        tracer::enable(0);
        let climbed = ladder::climb(
            &spec,
            &inputs,
            opts.seed,
            &agreement,
            &recovery,
            Duration::from_secs_f64(budget),
        );
        tracer::disable();
        layers.extend(climbed?);
        spans = tracer::take();

        let totals = tracer::totals(&spans, loop_phase.clone());
        let covered: u64 = totals.values().map(|t| t.self_ns).sum();
        layers.insert(
            "trace.coverage_share",
            covered as f64 / 1e9 / measured.wall_s,
        );
        layers.insert("trace.spans", loop_phase.len() as f64);
        layers.insert("loop.op_p50_us", op_p50_whole_run_us);
        layers.insert("loop.op_tail_us", op_tail_whole_run_us);
        loop_shares(&totals, &mut layers);
        layers.insert("traffic.wide_like_ms", span_ms(&spans, "traffic.wide_like"));
        layers.insert(
            "traffic.packet_counts_ms",
            span_ms(&spans, "traffic.packet_counts"),
        );
        // Calls, total and self time of every span name in the loop.
        let per_name = totals.into_iter().map(|(name, t)| {
            let row = obj([
                ("calls", Json::from(t.calls)),
                ("total_ms", Json::from(t.total_ns as f64 / 1e6)),
                ("self_ms", Json::from(t.self_ns as f64 / 1e6)),
            ]);
            (name, row)
        });
        extra.push(("loop_spans", obj(per_name)));
        metrics_json(&PER_LAYER, |name| layers.get(name).copied())?
    } else {
        let setup_s = quiet_quartile(&setup_samples);
        let pkts_per_s = quietest(&window_pkts_per_s, true);
        let op_p50_us = quietest(&window_op_p50_us, false);
        let rss = peak_rss_mb()?;
        extra.push(("setup_samples_s", series(&setup_samples)));
        metrics_json(&END_TO_END, |name| match name {
            "setup_s" => Some(setup_s),
            "pkts_per_s" => Some(pkts_per_s),
            "op_p50_us" => Some(op_p50_us),
            "peak_rss_mb" => Some(rss),
            _ => None,
        })?
    };

    let line = obj([
        ("correct", Json::from(true)),
        ("attempted", Json::from(rec.attempted)),
        ("failed", Json::from(rec.failed)),
        ("metrics", metrics),
    ]);

    // Provenance rides with the numbers: one file per run, only here.
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let stem = if opts.trace {
        format!("{}.trace", spec.name)
    } else {
        spec.name.to_string()
    };
    let mut result = vec![
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("trace", Json::from(opts.trace)),
        ("smoke", Json::from(opts.smoke)),
        ("host", host()),
        ("counts", spec.counts()),
        (
            "checks",
            obj([
                ("digests", digests.to_json()),
                ("agreement", agreement.to_json()),
            ]),
        ),
        ("run", obj(extra)),
    ];
    result.extend(line.entries().iter().map(|(k, v)| (k.as_str(), v.clone())));
    let path = opts.out.join(format!("{stem}.json"));
    std::fs::write(&path, obj(result).pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    if opts.trace {
        let path = opts.out.join(format!("{stem}.jsonl"));
        std::fs::write(&path, tracer::to_jsonl(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_run(dir: &str) -> Options {
        Options {
            workload: "replay_single".into(),
            seed: checks::DEFAULT_SEED,
            seconds: 0.05,
            trace: false,
            smoke: true,
            // Relative to the package root, where `cargo test` runs;
            // `benchmark/out/` is git-ignored.
            out: PathBuf::from("out").join(dir),
        }
    }

    /// `main` maps an `Err` from `execute` to a non-zero exit.
    #[test]
    fn a_corrupted_golden_digest_fails_the_run() {
        let opts = smoke_run("test-golden");
        let line = execute(&opts, checks::GOLDEN).expect("the committed golden file passes");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(metrics.entries().len(), END_TO_END.len());

        let written = std::fs::read_to_string(opts.out.join("replay_single.json")).unwrap();
        let warm = Json::parse(&written)
            .unwrap()
            .get("checks")
            .and_then(|c| c.get("digests"))
            .and_then(|d| d.get("warm"))
            .and_then(Json::as_str)
            .expect("the result file records the digests")
            .to_string();
        let flipped = if warm.ends_with('0') { "1" } else { "0" };
        let corrupted =
            checks::GOLDEN.replace(&warm, &format!("{}{flipped}", &warm[..warm.len() - 1]));
        assert_ne!(
            corrupted,
            checks::GOLDEN,
            "the committed file holds this run's digest"
        );
        let err = execute(&opts, &corrupted).unwrap_err();
        assert!(err.contains("differs from golden"), "{err}");
        std::fs::remove_dir_all(&opts.out).ok();
    }
}
