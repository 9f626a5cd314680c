//! Closed-loop adaptation versus static allocation under shifting load.
//!
//! ```sh
//! cargo run --release -p flymon-bench --bin exp_adaptive_vs_static
//! ```
//!
//! One frequency task (per-source CMS) watches a [`ShiftingSource`]
//! workload: skewed night traffic, flatter day traffic at double load,
//! a spoofed flood on top of the day peak, then recovery — three
//! diurnal cycles. The same stream is replayed against:
//!
//! - three **static** fleets (small / medium / large fixed allocations);
//! - one **adaptive** fleet whose [`AdaptiveController`] grows, shrinks
//!   and (at the ceiling) splits the task from its own epoch readouts.
//!
//! Every epoch records the task's ARE over that epoch's resolvable
//! flows (true count ≥ 8) and the bytes the task held. The statics
//! trace out the size↔accuracy tradeoff curve; **accuracy-per-byte**
//! is judged on that curve: interpolating it (log-log) at the adaptive
//! fleet's *mean* byte footprint gives the ARE a static allocation of
//! the same average memory would pay. The controller beats it by
//! spending those bytes where the traffic is — big during the flood,
//! small at night — so the run *asserts* the adaptive mean ARE sits
//! strictly below the static curve at equal mean bytes (and reports
//! the gain), with zero audit divergences and a bounded
//! reconfiguration rate. Three cycles are the shortest run the claim
//! holds on: a single cycle is dominated by adaptation lag.

use std::collections::HashMap;

use flymon::prelude::*;
use flymon_bench::print_table;
use flymon_netsim::{AdaptiveController, ControllerConfig, SwitchFleet};
use flymon_packet::{FlowKeyBytes, KeySpec, Packet};
use flymon_traffic::gen::{AttackSpec, ShiftPhase, ShiftingConfig, ShiftingSource};
use flymon_traffic::metrics::average_relative_error;

/// Register width ⇒ bytes per allocated bucket.
const BUCKET_BYTES: usize = 2;
/// A flow is "resolvable" in an epoch once its true count reaches this.
const ARE_MIN_COUNT: u64 = 8;

fn config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 3,
        ..FlyMonConfig::default()
    }
}

fn freq_def(buckets: usize) -> TaskDefinition {
    TaskDefinition::builder("shift")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(buckets)
        .build()
}

/// One diurnal cycle.
fn cycle() -> Vec<ShiftPhase> {
    let attack = AttackSpec {
        dst_ip: (203 << 24) | (113 << 8) | 7,
        share: 0.6,
        sources: 50_000,
    };
    vec![
        ShiftPhase { chunks: 12, rate: 1.0, zipf_alpha: 1.3, attack: None },
        ShiftPhase { chunks: 12, rate: 2.0, zipf_alpha: 1.05, attack: None },
        ShiftPhase { chunks: 8, rate: 3.0, zipf_alpha: 1.05, attack: Some(attack) },
        ShiftPhase { chunks: 12, rate: 1.0, zipf_alpha: 1.3, attack: None },
    ]
}

fn workload() -> ShiftingConfig {
    ShiftingConfig {
        flows: 20_000,
        base_chunk: 8_192,
        ns_per_packet: 1_000,
        phases: (0..3).flat_map(|_| cycle()).collect(),
        seed: 0x5217_F7ED,
    }
}

/// Thresholds sized so each phase's steady fill sits inside the
/// deadband at some power-of-4 allocation: the controller converges to
/// a per-phase equilibrium instead of hunting.
fn policy(min_buckets: usize, max_buckets: usize) -> ControllerConfig {
    ControllerConfig {
        grow_fill: 0.55,
        shrink_fill: 0.10,
        grow_factor: 4.0,
        shrink_factor: 0.25,
        min_buckets,
        max_buckets,
        cooldown_epochs: 1,
        epoch_budget: 1,
        ..ControllerConfig::default()
    }
}

struct Outcome {
    label: String,
    epochs: usize,
    mean_are: f64,
    mean_kib: f64,
    min_kib: f64,
    max_kib: f64,
    actions: u64,
    audit_divergences: usize,
}

/// The ARE a static allocation averaging `kib` would pay, read off the
/// statics' size↔accuracy curve by log-log interpolation (power-law
/// segments — CMS error is ~1/buckets, a straight line in log space).
/// Clamps to the end segments outside the swept range.
fn static_curve_are(statics: &[&Outcome], kib: f64) -> f64 {
    assert!(statics.len() >= 2, "need a curve to interpolate");
    let mut pts: Vec<(f64, f64)> = statics
        .iter()
        .map(|o| (o.mean_kib, o.mean_are.max(1e-9)))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let seg = pts
        .windows(2)
        .find(|w| kib <= w[1].0)
        .map_or([pts[pts.len() - 2], pts[pts.len() - 1]], |w| [w[0], w[1]]);
    let [(x0, y0), (x1, y1)] = seg;
    let t = (kib.ln() - x0.ln()) / (x1.ln() - x0.ln());
    (y0.ln() + t * (y1.ln() - y0.ln())).exp()
}

/// Replays the workload epoch-by-epoch (one source pull = one epoch),
/// scoring ARE against per-epoch exact counts before each rotation.
fn run_scenario(label: &str, start_buckets: usize, ctl: Option<ControllerConfig>) -> Outcome {
    let mut fleet =
        SwitchFleet::deploy(2, config(), &freq_def(start_buckets)).expect("fleet deploys");
    let mut controller = ctl.map(AdaptiveController::new);
    let mut src = ShiftingSource::new(workload());
    let mut truth: HashMap<FlowKeyBytes, u64> = HashMap::new();
    let mut reps: HashMap<FlowKeyBytes, Packet> = HashMap::new();
    let mut ares = Vec::new();
    let mut kibs = Vec::new();
    while let Some(chunk) = src.next_chunk() {
        for p in &chunk {
            let k = KeySpec::SRC_IP.extract(p);
            *truth.entry(k).or_insert(0) += 1;
            reps.entry(k).or_insert(*p);
        }
        fleet.process_trace(&chunk);
        // Query before rotating: the registers still hold this epoch.
        let are = average_relative_error(
            truth
                .iter()
                .filter(|&(_, &c)| c >= ARE_MIN_COUNT)
                .map(|(k, &c)| (*k, c)),
            |k| fleet.merged_frequency(&reps[k]).expect("query") as f64,
        );
        let bytes: usize = fleet
            .task_infos()
            .iter()
            .map(|i| i.allocated_buckets * BUCKET_BYTES)
            .sum();
        ares.push(are);
        kibs.push(bytes as f64 / 1024.0);
        let epoch = fleet.rotate_epoch_all().expect("rotate");
        if let Some(c) = controller.as_mut() {
            c.on_epoch(&mut fleet, &epoch, false).expect("controller");
        }
        truth.clear();
        reps.clear();
    }
    let audit_divergences: usize = (0..fleet.len()).map(|i| fleet.switch(i).0.audit().len()).sum();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (mean_are, mean_kib) = (mean(&ares), mean(&kibs));
    Outcome {
        label: label.into(),
        epochs: ares.len(),
        mean_are,
        mean_kib,
        min_kib: kibs.iter().copied().fold(f64::INFINITY, f64::min),
        max_kib: kibs.iter().copied().fold(0.0, f64::max),
        actions: controller.as_ref().map_or(0, |c| c.report().actions()),
        audit_divergences,
    }
}

fn main() {
    let (small, medium, large) = (2_048, 8_192, 32_768);
    let adaptive_policy = policy(4_096, large);
    let scenarios: Vec<Outcome> = vec![
        run_scenario("static-small", small, None),
        run_scenario("static-medium", medium, None),
        run_scenario("static-large", large, None),
        run_scenario("adaptive", 4_096, Some(adaptive_policy)),
    ];

    print_table(
        "Shifting-load sweep (ARE over flows with true count >= 8)",
        &["fleet", "epochs", "mean ARE", "mean KiB", "min..max KiB", "actions"],
        &scenarios
            .iter()
            .map(|o| {
                vec![
                    o.label.clone(),
                    format!("{}", o.epochs),
                    format!("{:.4}", o.mean_are),
                    format!("{:.1}", o.mean_kib),
                    format!("{:.0}..{:.0}", o.min_kib, o.max_kib),
                    format!("{}", o.actions),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let (statics, rest) = scenarios.split_at(scenarios.len() - 1);
    let statics: Vec<&Outcome> = statics.iter().collect();
    let adaptive = &rest[0];
    for o in &scenarios {
        assert_eq!(o.audit_divergences, 0, "{}: switch audits diverged", o.label);
    }
    // The control-plane rate stays bounded by the per-epoch budget.
    let rate = adaptive.actions as f64 / adaptive.epochs.max(1) as f64;
    assert!(
        rate <= adaptive_policy.epoch_budget as f64,
        "reconfiguration rate {rate:.2}/epoch exceeds the budget"
    );
    // Accuracy-per-byte: what a static allocation of the adaptive
    // fleet's average footprint would pay, vs what the controller pays.
    let equal_bytes_are = static_curve_are(&statics, adaptive.mean_kib);
    let gain = equal_bytes_are / adaptive.mean_are.max(1e-9);
    println!(
        "at the adaptive mean of {:.1} KiB the static curve pays ARE {:.4}; \
         adaptive pays {:.4} ({gain:.2}x accuracy-per-byte), \
         {} reconfigurations over {} epochs ({rate:.2}/epoch)",
        adaptive.mean_kib, equal_bytes_are, adaptive.mean_are, adaptive.actions, adaptive.epochs,
    );
    assert!(
        gain > 1.0,
        "adaptive ARE {:.4} does not beat the static curve ({:.4}) at equal mean bytes",
        adaptive.mean_are,
        equal_bytes_are
    );
}
