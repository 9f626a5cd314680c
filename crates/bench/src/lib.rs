//! The paper's evaluation (§5: Table 3, Figs. 2–14, Appendix B) as one
//! table of scenarios.
//!
//! A [`Scenario`] runs one table or figure and returns a [`Report`]: the
//! text it prints plus its [`Claim`]s — the paper's shape sentences,
//! each evaluated on the very numbers the report shows. The `figures`
//! binary runs scenarios at [`Scale::Full`], writes `results/*.txt` and
//! exits nonzero on a violated claim; a tier-1 test runs every scenario
//! at [`Scale::Smoke`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;

use flymon::prelude::*;
use flymon::task::TaskBuilder;
use flymon_packet::{FlowKeyBytes, KeySpec, Packet};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};
use flymon_traffic::metrics::average_relative_error;

mod accuracy;
mod reconfig;
mod resources;

/// How much traffic a scenario replays: the binary regenerates
/// `results/` at `Full`, the tier-1 test checks every claim at `Smoke`.
#[derive(Debug, Clone, Copy)]
pub enum Scale {
    /// Small enough for an unoptimized test build.
    Smoke,
    /// The scale EXPERIMENTS.md quotes.
    Full,
}

/// One shape the paper states, evaluated on the rows a report prints.
#[derive(Debug)]
pub struct Claim {
    /// The sentence being checked.
    pub paper: &'static str,
    /// The numbers it was checked on.
    pub measured: String,
    /// Whether they satisfy it.
    pub holds: bool,
}

/// What one scenario prints: tables and notes, then its claims.
#[derive(Debug, Default)]
pub struct Report {
    text: String,
    /// The claims, in the order they were checked.
    pub claims: Vec<Claim>,
}

impl Report {
    /// Appends a paragraph.
    fn note(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push_str("\n\n");
    }

    /// Appends a fixed-width table with a header row.
    fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        let width = |i: usize, h: &str| {
            rows.iter().map(|r| r.get(i).map_or(0, String::len)).fold(h.len(), usize::max)
        };
        let widths: Vec<usize> = headers.iter().enumerate().map(|(i, h)| width(i, h)).collect();
        fn line<'a>(cells: impl Iterator<Item = &'a str>, widths: &[usize]) -> String {
            let cells: Vec<String> = cells.zip(widths).map(|(c, w)| format!("{c:>w$}")).collect();
            cells.join("  ") + "\n"
        }
        self.text += &format!("== {title} ==\n");
        self.text += &line(headers.iter().copied(), &widths);
        for row in rows {
            self.text += &line(row.iter().map(String::as_str), &widths);
        }
        self.text.push('\n');
    }

    /// Records a claim.
    fn claim(&mut self, paper: &'static str, measured: String, holds: bool) {
        self.claims.push(Claim { paper, measured, holds });
    }

    /// The report as the `figures` binary prints it: the body, then one
    /// `[ok]`/`[VIOLATED]` entry per claim.
    pub fn render(&self) -> String {
        let mut out = self.text.clone();
        for c in &self.claims {
            let mark = if c.holds { "[ok]" } else { "[VIOLATED]" };
            writeln!(out, "{mark} {}\n     measured: {}", c.paper, c.measured)
                .expect("writing to a String");
        }
        out
    }
}

/// One table or figure of the evaluation.
pub struct Scenario {
    /// Also the stem of its file under `results/`.
    pub name: &'static str,
    /// Measures, prints and checks.
    pub run: fn(Scale) -> Report,
}

/// Every scenario, in the order `results/README.md` lists them.
#[rustfmt::skip]
pub const SCENARIOS: &[Scenario] = &[
    Scenario { name: "fig02_static_footprint", run: resources::fig02_static_footprint },
    Scenario { name: "fig06_reduced_ops", run: resources::fig06_reduced_ops },
    Scenario { name: "fig08_cross_stacking", run: resources::fig08_cross_stacking },
    Scenario { name: "tab03_deployment_delay", run: resources::tab03_deployment_delay },
    Scenario { name: "fig11_addr_translation", run: resources::fig11_addr_translation },
    Scenario { name: "fig12a_forwarding", run: reconfig::fig12a_forwarding },
    Scenario { name: "fig12b_accuracy_timeline", run: reconfig::fig12b_accuracy_timeline },
    Scenario { name: "fig13a_overhead", run: resources::fig13a_overhead },
    Scenario { name: "fig13b_stacking_util", run: resources::fig13b_stacking_util },
    Scenario { name: "fig13c_key_scalability", run: resources::fig13c_key_scalability },
    Scenario { name: "fig14a_heavy_hitter", run: accuracy::fig14a_heavy_hitter },
    Scenario { name: "fig14b_prob_exec", run: accuracy::fig14b_prob_exec },
    Scenario { name: "fig14c_ddos", run: accuracy::fig14c_ddos },
    Scenario { name: "fig14d_cardinality", run: accuracy::fig14d_cardinality },
    Scenario { name: "fig14e_entropy", run: accuracy::fig14e_entropy },
    Scenario { name: "fig14f_interval", run: accuracy::fig14f_interval },
    Scenario { name: "fig14g_existence", run: accuracy::fig14g_existence },
    Scenario { name: "appb_collision", run: resources::appb_collision },
    Scenario { name: "ablation_design", run: accuracy::ablation_design },
    Scenario { name: "exp_adaptive_vs_static", run: reconfig::exp_adaptive_vs_static },
];

/// Runs `scenarios` at `scale` and returns whether every claim held —
/// the `figures` binary's exit code. Each report goes to
/// `<out>/<name>.txt` with a one-line verdict on stdout, or, without
/// `out`, to stdout whole.
pub fn run(scenarios: &[&Scenario], scale: Scale, out: Option<&Path>) -> std::io::Result<bool> {
    let mut all_hold = true;
    for s in scenarios {
        let report = (s.run)(scale);
        let violated = report.claims.iter().filter(|c| !c.holds).count();
        all_hold &= violated == 0;
        match out {
            None => print!("{}", report.render()),
            Some(dir) => {
                std::fs::write(dir.join(format!("{}.txt", s.name)), report.render())?;
                println!("{}: {} claims, {violated} violated", s.name, report.claims.len());
            }
        }
    }
    Ok(all_hold)
}

/// The canonical evaluation trace ("WIDE-like", §5.3 scale-down): 50K
/// flows, 1.5M packets over 15 s, heavy-tailed so the 1024-packet
/// heavy-hitter threshold catches roughly the top hundred flows.
const EVAL_TRACE: TraceConfig = TraceConfig {
    flows: 50_000,
    packets: 1_500_000,
    zipf_alpha: 1.1,
    duration_ns: 15_000_000_000,
    seed: 0x51DE,
};

/// Generates `config`; at `Smoke` with 1/30 of the flows, packets and
/// duration — the same rates and skew, small enough for an unoptimized
/// build. The generator and the flow-size draw share `config.seed`.
fn wide_trace(config: TraceConfig, scale: Scale) -> Vec<Packet> {
    let config = match scale {
        Scale::Full => config,
        Scale::Smoke => TraceConfig {
            flows: config.flows / 30,
            packets: config.packets / 30,
            duration_ns: config.duration_ns / 30,
            ..config
        },
    };
    TraceGenerator::new(config.seed).wide_like(&config)
}

/// One representative packet per flow of `key` — queries replay the
/// data-plane path, so they need a packet, not just key bytes.
fn representatives(trace: &[Packet], key: KeySpec) -> HashMap<FlowKeyBytes, Packet> {
    let mut map = HashMap::new();
    for p in trace {
        map.entry(key.extract(p)).or_insert(*p);
    }
    map
}

/// A switch of `groups` CMU Groups whose registers hold `buckets` buckets
/// of `bucket_bits`, divisible into `2^max_partitions_log2` partitions.
fn switch(groups: usize, buckets: usize, bucket_bits: u8, max_partitions_log2: u8) -> FlyMonConfig {
    FlyMonConfig {
        groups,
        buckets_per_cmu: buckets,
        bucket_bits,
        max_partitions_log2,
        ..FlyMonConfig::default()
    }
}

/// A task on all traffic: `attribute` per `key`, `buckets` per row.
fn task(key: KeySpec, attribute: Attribute, algorithm: Algorithm, buckets: usize) -> TaskBuilder {
    let builder = TaskDefinition::builder("figure").key(key).attribute(attribute);
    builder.algorithm(algorithm).memory(buckets)
}

/// Deploys `task` alone on a fresh switch and replays `trace` through
/// it: the body every accuracy sweep repeats per series and memory
/// point. Queries go through the returned switch and handle.
fn replay(config: FlyMonConfig, task: TaskBuilder, trace: &[Packet]) -> (FlyMon, TaskHandle) {
    let mut fm = FlyMon::new(config);
    let h = fm.deploy(&task.build()).expect("a lone task deploys on a fresh switch");
    fm.process_batch(trace);
    (fm, h)
}

/// The flows whose key and representative packet make `report` true.
fn flows_where(
    reps: &HashMap<FlowKeyBytes, Packet>,
    report: impl Fn(&FlowKeyBytes, &Packet) -> bool,
) -> HashSet<FlowKeyBytes> {
    reps.iter().filter(|(k, p)| report(k, p)).map(|(k, _)| *k).collect()
}

/// ARE over `truth` of a per-flow `estimate`, queried with the flow's
/// representative packet.
fn flow_are<'a>(
    truth: impl IntoIterator<Item = (&'a FlowKeyBytes, &'a u64)>,
    reps: &HashMap<FlowKeyBytes, Packet>,
    estimate: impl Fn(&Packet) -> u64,
) -> f64 {
    let truth = truth.into_iter().map(|(k, &v)| (*k, v));
    average_relative_error(truth, |k| estimate(&reps[k]) as f64)
}

/// Formats a byte count the way the paper labels its x-axes.
fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.0} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// The smallest and largest of `values`.
fn min_max(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let widen = |(lo, hi): (f64, f64), v: f64| (lo.min(v), hi.max(v));
    values.into_iter().fold((f64::INFINITY, f64::NEG_INFINITY), widen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon_traffic::ground_truth::GroundTruth;

    #[test]
    fn every_scenario_has_a_claim_and_all_hold_at_smoke_scale() {
        let mut violated = Vec::new();
        for s in SCENARIOS {
            let report = (s.run)(Scale::Smoke);
            assert!(!report.claims.is_empty(), "{} checks nothing", s.name);
            for c in report.claims.iter().filter(|c| !c.holds) {
                violated.push(format!("{}: {} (measured: {})", s.name, c.paper, c.measured));
            }
        }
        assert!(violated.is_empty(), "violated claims:\n{}", violated.join("\n"));
    }

    /// Names are unique, `results/*.txt` holds exactly one file per
    /// scenario, and each checked-in file shows claims, none violated.
    #[test]
    fn the_table_and_results_name_the_same_scenarios() {
        let names: HashSet<String> = SCENARIOS.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(names.len(), SCENARIOS.len(), "duplicate scenario name");
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let stems: HashSet<String> = std::fs::read_dir(&results)
            .expect("results/ is checked in")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().expect("a file").to_string_lossy().into_owned())
            .collect();
        assert_eq!(stems, names, "results/*.txt and SCENARIOS differ");
        for name in &names {
            let checked_in = std::fs::read_to_string(results.join(format!("{name}.txt")))
                .expect("readable result file");
            assert!(checked_in.contains("\n[ok] "), "{name}.txt carries no claim");
            assert!(!checked_in.contains("[VIOLATED]"), "{name}.txt is checked in violated");
        }
    }

    #[test]
    fn a_violated_claim_fails_the_run() {
        fn synthetic(_: Scale) -> Report {
            let mut r = Report::default();
            r.claim("holds", "1 < 2".into(), true);
            r.claim("does not", "2 < 1".into(), false);
            r
        }
        assert!(synthetic(Scale::Smoke).render().contains("[VIOLATED] does not\n"));
        let bad = Scenario { name: "synthetic", run: synthetic };
        let good = &SCENARIOS[1];
        assert!(run(&[good], Scale::Smoke, None).unwrap());
        assert!(!run(&[&bad], Scale::Smoke, None).unwrap());
        assert!(!run(&[good, &bad, good], Scale::Smoke, None).unwrap());
    }

    #[test]
    fn representatives_cover_every_flow() {
        let trace = wide_trace(accuracy::SMALL_TRACE, Scale::Smoke);
        let reps = representatives(&trace, KeySpec::SRC_IP);
        let truth = GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
        assert_eq!(reps.len(), truth.cardinality());
        for (k, p) in reps.iter().take(100) {
            assert_eq!(&KeySpec::SRC_IP.extract(p), k);
        }
    }

    #[test]
    fn eval_trace_has_heavy_hitters_at_paper_threshold() {
        let trace = wide_trace(accuracy::SMALL_TRACE, Scale::Full);
        let truth = GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
        let hh = truth.heavy_hitters(1024);
        assert!(
            hh.len() >= 10 && hh.len() <= 500,
            "want a plausible HH population, got {}",
            hh.len()
        );
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(16), "16 B");
        assert_eq!(fmt_bytes(10 * 1024), "10 KB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.0 MB");
    }
}
