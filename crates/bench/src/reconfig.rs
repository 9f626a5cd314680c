//! Reconfiguration scenarios: what changing tasks on the fly costs the
//! traffic (Fig. 12a), the measurement (Fig. 12b), and what a closed
//! loop buys over fixed sizes (`exp_adaptive_vs_static`).

use std::collections::HashMap;

use flymon::prelude::*;
use flymon_netsim::epochs::{run_accuracy_timeline, EpochTimelineConfig};
use flymon_netsim::forwarding::{
    outage_seconds, run_forwarding, DeploymentStyle, ForwardingConfig,
};
use flymon_netsim::{AdaptiveController, ControllerConfig, SwitchFleet, ThroughputSample};
use flymon_packet::{FlowKeyBytes, KeySpec, Packet};
use flymon_traffic::gen::{AttackSpec, ShiftPhase, ShiftingConfig, ShiftingSource, SpikeConfig};
use flymon_traffic::metrics::average_relative_error;

use crate::{min_max, task, Report, Scale};

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values.into_iter().fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    sum / n as f64
}

/// Figure 12a: impact of reconfiguration on traffic forwarding.
pub(crate) fn fig12a_forwarding(_: Scale) -> Report {
    let config = ForwardingConfig::default();
    let run = |style| run_forwarding(style, &config);
    let [bare, flymon, fixed] =
        [DeploymentStyle::Bare, DeploymentStyle::FlyMon, DeploymentStyle::Static].map(run);

    // Coarse 5-second throughput averages so the table stays readable.
    let window = 5.0;
    let starts: Vec<f64> =
        (0..(config.duration_s / window) as usize).map(|i| i as f64 * window).collect();
    let averages = |samples: &[ThroughputSample]| -> Vec<f64> {
        let inside =
            |t: f64| samples.iter().filter(move |s| s.time_s >= t && s.time_s < t + window);
        starts.iter().map(|&t| mean(inside(t).map(|s| s.gbps))).collect()
    };
    let (bare_avg, flymon_avg, fixed_avg) = (averages(&bare), averages(&flymon), averages(&fixed));
    let row = |(i, &t): (usize, &f64)| {
        // Mark reconfiguration events inside the window.
        let events = config.events.iter().filter(|(et, _)| *et >= t && *et < t + window);
        let events: Vec<String> = events.map(|(et, e)| format!("e@{et:.0}s {e:?}")).collect();
        vec![
            format!("{:>3.0}-{:<3.0}", t, t + window),
            format!("{:.1}", bare_avg[i]),
            format!("{:.1}", flymon_avg[i]),
            format!("{:.1}", fixed_avg[i]),
            events.join(" "),
        ]
    };
    let mut r = Report::default();
    r.table(
        "Figure 12a: throughput (Gbps) under reconfiguration events",
        &["time (s)", "Bare", "FlyMon", "Static", "events"],
        &starts.iter().enumerate().map(row).collect::<Vec<_>>(),
    );
    let outage = |samples: &[ThroughputSample]| outage_seconds(samples, config.sample_period_s);
    r.note(format!(
        "Bare: total outage {:.1} s\nFlyMon: total outage {:.1} s\nStatic: total outage {:.1} s",
        outage(&bare),
        outage(&flymon),
        outage(&fixed)
    ));
    r.claim(
        "FlyMon forwards like the bare switch through all nine events: rule installs are ms-scale (§5.1)",
        format!("outage FlyMon {:.1} s, Bare {:.1} s; identical 5 s averages", outage(&flymon), outage(&bare)),
        outage(&bare) == 0.0 && outage(&flymon) == 0.0 && bare_avg == flymon_avg,
    );
    let reloads = fixed.windows(2).filter(|w| w[0].gbps >= 1.0 && w[1].gbps < 1.0).count();
    let per_reload = outage(&fixed) / reloads as f64;
    r.claim(
        "each (batched) Static reconfiguration interrupts traffic for 4-8 s (§5.1)",
        format!("{:.1} s over {reloads} reloads = {per_reload:.1} s each", outage(&fixed)),
        (4.0..=8.0).contains(&per_reload),
    );
    r
}

/// Figure 12b: impact of reconfiguration on measurement accuracy. Full
/// scale is the paper's: 20 one-second epochs of ~10K flows, +30K flows
/// during epochs 6–15, task-B churn at epochs 3/10, memory reallocation
/// at epochs 6/16.
pub(crate) fn fig12b_accuracy_timeline(scale: Scale) -> Report {
    let config = match scale {
        Scale::Full => EpochTimelineConfig::default(),
        Scale::Smoke => EpochTimelineConfig {
            traffic: SpikeConfig {
                epochs: 8,
                base_flows: 400,
                spike_flows: 1600,
                spike_start: 3,
                spike_end: 5,
                base_packets: 8_000,
                epoch_ns: 10_000_000,
                seed: 5,
            },
            base_buckets: 1024,
            grown_buckets: 4096,
            insert_b_at: 1,
            remove_b_at: 6,
            grow_at: 3,
            shrink_at: 7,
            buckets_per_cmu: 4096,
            faults: None,
        },
    };
    let traffic = &config.traffic;
    let mut r = Report::default();
    r.note(format!(
        "{} epochs, {}+{} flows, spike epochs {}..={}",
        traffic.epochs,
        traffic.base_flows,
        traffic.spike_flows,
        traffic.spike_start + 1,
        traffic.spike_end + 1
    ));
    let points = run_accuracy_timeline(&config);
    let row = |p: &flymon_netsim::AccuracyPoint| {
        vec![
            (p.epoch + 1).to_string(),
            p.flows.to_string(),
            p.flymon_buckets.to_string(),
            format!("{:.4}", p.flymon_are),
            format!("{:.4}", p.static_are),
            p.events.join(", "),
        ]
    };
    r.table(
        "Figure 12b: per-epoch ARE of task A",
        &["epoch", "flows", "A buckets", "FlyMon ARE", "Static ARE", "events"],
        &points.iter().map(row).collect::<Vec<_>>(),
    );

    // While B is deployed and A still has its compile-time memory, the
    // two switches differ in task B alone.
    let beside_b = config.insert_b_at..config.remove_b_at.min(config.grow_at);
    let with_b = &points[beside_b];
    r.claim(
        "inserting task B beside task A leaves A's accuracy untouched (§5.1)",
        format!(
            "FlyMon ARE = Static ARE in each of the {} epochs A shares its group with B",
            with_b.len()
        ),
        !with_b.is_empty() && with_b.iter().all(|p| p.flymon_are == p.static_are),
    );
    let (spike, calm): (Vec<_>, Vec<_>) =
        points.iter().partition(|p| (traffic.spike_start..=traffic.spike_end).contains(&p.epoch));
    let fly = mean(spike.iter().map(|p| p.flymon_are));
    let fixed = mean(spike.iter().map(|p| p.static_are));
    let (_, calm_worst) = min_max(calm.iter().map(|p| p.flymon_are));
    r.claim(
        "reallocating memory on the fly keeps task A as accurate through the spike as outside it (§5.1)",
        format!("mean spike-epoch ARE {fly:.4}, worst calm epoch {calm_worst:.4}"),
        fly <= calm_worst,
    );
    r.claim(
        "the static deployment's spike ARE is several times FlyMon's (paper: 15x under its trace)",
        format!("Static {fixed:.4} vs FlyMon {fly:.4} = {:.1}x", fixed / fly),
        fixed > 3.0 * fly,
    );
    r
}

/// Register width ⇒ bytes per allocated bucket.
const BUCKET_BYTES: usize = 2;
/// A flow is "resolvable" in an epoch once its true count reaches this.
const ARE_MIN_COUNT: u64 = 8;

/// What `exp_adaptive_vs_static` varies with [`Scale`].
struct ShiftScale {
    /// Background flows.
    flows: usize,
    /// Packets pulled per epoch at rate 1.0.
    base_chunk: usize,
    /// Spoofed sources of the flood.
    attack_sources: u32,
    /// The static allocations, buckets per row; the controller starts
    /// at twice the smallest and may reach the largest.
    statics: [usize; 3],
    /// Register size that makes the smallest allocation one partition.
    buckets_per_cmu: usize,
    /// Diurnal cycles replayed, and the epochs each spends in its
    /// night, day, flood and recovery phase.
    cycles: usize,
    phase_chunks: [usize; 4],
}

struct Outcome {
    label: &'static str,
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
fn static_curve_are(statics: &[Outcome], kib: f64) -> f64 {
    let mut pts: Vec<(f64, f64)> =
        statics.iter().map(|o| (o.mean_kib, o.mean_are.max(1e-9))).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let last = [pts[pts.len() - 2], pts[pts.len() - 1]];
    let [(x0, y0), (x1, y1)] =
        pts.windows(2).find(|w| kib <= w[1].0).map_or(last, |w| [w[0], w[1]]);
    let t = (kib.ln() - x0.ln()) / (x1.ln() - x0.ln());
    (y0.ln() + t * (y1.ln() - y0.ln())).exp()
}

/// Replays the shifting workload epoch-by-epoch (one source pull = one
/// epoch) against a 2-switch fleet, scoring ARE against per-epoch exact
/// counts before each rotation.
fn run_fleet(
    label: &'static str,
    workload: &ShiftingConfig,
    buckets_per_cmu: usize,
    start_buckets: usize,
    ctl: Option<ControllerConfig>,
) -> Outcome {
    let def = task(
        KeySpec::SRC_IP,
        Attribute::frequency_packets(),
        Algorithm::Cms { d: 2 },
        start_buckets,
    );
    let config = FlyMonConfig { groups: 3, buckets_per_cmu, ..FlyMonConfig::default() };
    let mut fleet = SwitchFleet::deploy(2, config, &def.build()).expect("fleet deploys");
    let mut controller = ctl.map(AdaptiveController::new);
    let mut src = ShiftingSource::new(workload.clone());
    let mut truth: HashMap<FlowKeyBytes, u64> = HashMap::new();
    let mut reps: HashMap<FlowKeyBytes, Packet> = HashMap::new();
    let (mut ares, mut kibs) = (Vec::new(), Vec::new());
    while let Some(chunk) = src.next_chunk() {
        for p in &chunk {
            let k = KeySpec::SRC_IP.extract(p);
            *truth.entry(k).or_insert(0) += 1;
            reps.entry(k).or_insert(*p);
        }
        fleet.process_trace(&chunk);
        // Query before rotating: the registers still hold this epoch.
        let resolvable = truth.iter().filter(|&(_, &c)| c >= ARE_MIN_COUNT);
        ares.push(average_relative_error(resolvable.map(|(k, &c)| (*k, c)), |k| {
            fleet.merged_frequency(&reps[k]).expect("query") as f64
        }));
        let buckets: usize = fleet.task_infos().iter().map(|i| i.allocated_buckets).sum();
        kibs.push((buckets * BUCKET_BYTES) as f64 / 1024.0);
        let epoch = fleet.rotate_epoch_all().expect("rotate");
        if let Some(c) = controller.as_mut() {
            c.on_epoch(&mut fleet, &epoch, false).expect("controller");
        }
        truth.clear();
        reps.clear();
    }
    let (min_kib, max_kib) = min_max(kibs.iter().copied());
    Outcome {
        label,
        epochs: ares.len(),
        mean_are: mean(ares),
        mean_kib: mean(kibs),
        min_kib,
        max_kib,
        actions: controller.as_ref().map_or(0, |c| c.report().actions()),
        audit_divergences: (0..fleet.len()).map(|i| fleet.switch(i).0.audit().len()).sum(),
    }
}

/// Closed-loop adaptation versus static allocation under shifting load
/// (not a paper figure).
///
/// One per-source CMS watches diurnal cycles — skewed night traffic,
/// flatter day traffic at double load, a spoofed flood on top of the day
/// peak, recovery — replayed against three static fleets and one whose
/// [`AdaptiveController`] grows, shrinks and (at the ceiling) splits the
/// task from its own epoch readouts. The statics trace the
/// size↔accuracy curve; accuracy-per-byte is judged on it: interpolated
/// at the adaptive fleet's *mean* footprint it gives the ARE a static
/// allocation of the same average memory would pay. At full scale three
/// cycles are the shortest run the claim holds on: one is dominated by
/// adaptation lag.
pub(crate) fn exp_adaptive_vs_static(scale: Scale) -> Report {
    let s = match scale {
        Scale::Full => ShiftScale {
            flows: 20_000,
            base_chunk: 8_192,
            attack_sources: 50_000,
            statics: [2_048, 8_192, 32_768],
            buckets_per_cmu: 65_536,
            cycles: 3,
            phase_chunks: [12, 12, 8, 12],
        },
        // A quarter of the traffic and memory: the gain does not
        // survive much less (1.01x at an eighth, 0.58x at a sixteenth).
        Scale::Smoke => ShiftScale {
            flows: 5_000,
            base_chunk: 2_048,
            attack_sources: 12_500,
            statics: [512, 2_048, 8_192],
            buckets_per_cmu: 16_384,
            cycles: 2,
            phase_chunks: [6, 6, 4, 6],
        },
    };
    let flood =
        AttackSpec { dst_ip: (203 << 24) | (113 << 8) | 7, share: 0.6, sources: s.attack_sources };
    // (offered load, flow-size skew, attack) of night, day, flood, recovery.
    let phases = [(1.0, 1.3, None), (2.0, 1.05, None), (3.0, 1.05, Some(flood)), (1.0, 1.3, None)];
    let cycle = phases.iter().zip(s.phase_chunks).map(|(&(rate, zipf_alpha, attack), chunks)| {
        ShiftPhase { chunks, rate, zipf_alpha, attack }
    });
    let workload = ShiftingConfig {
        flows: s.flows,
        base_chunk: s.base_chunk,
        ns_per_packet: 1_000,
        phases: (0..s.cycles).flat_map(|_| cycle.clone()).collect(),
        seed: 0x5217_F7ED,
    };
    let [small, medium, large] = s.statics;
    // Thresholds sized so each phase's steady fill sits inside the
    // deadband at some power-of-4 allocation: the controller converges
    // to a per-phase equilibrium instead of hunting.
    let policy = ControllerConfig {
        grow_fill: 0.55,
        shrink_fill: 0.10,
        grow_factor: 4.0,
        shrink_factor: 0.25,
        min_buckets: 2 * small,
        max_buckets: large,
        cooldown_epochs: 1,
        epoch_budget: 1,
        ..ControllerConfig::default()
    };
    let fleet = |label, start, ctl| run_fleet(label, &workload, s.buckets_per_cmu, start, ctl);
    let outcomes = [
        fleet("static-small", small, None),
        fleet("static-medium", medium, None),
        fleet("static-large", large, None),
        fleet("adaptive", 2 * small, Some(policy)),
    ];
    let row = |o: &Outcome| {
        vec![
            o.label.to_string(),
            o.epochs.to_string(),
            format!("{:.4}", o.mean_are),
            format!("{:.1}", o.mean_kib),
            format!("{:.0}..{:.0}", o.min_kib, o.max_kib),
            o.actions.to_string(),
        ]
    };
    let mut r = Report::default();
    r.table(
        "Shifting-load sweep (ARE over flows with true count >= 8)",
        &["fleet", "epochs", "mean ARE", "mean KiB", "min..max KiB", "actions"],
        &outcomes.iter().map(row).collect::<Vec<_>>(),
    );
    let (statics, adaptive) = (&outcomes[..3], &outcomes[3]);
    // Accuracy-per-byte: what a static allocation of the adaptive
    // fleet's average footprint would pay, vs what the controller pays.
    let equal_bytes_are = static_curve_are(statics, adaptive.mean_kib);
    let gain = equal_bytes_are / adaptive.mean_are.max(1e-9);
    r.claim(
        "the controller beats the static size-accuracy curve at equal mean bytes: \
         it spends them where the traffic is",
        format!(
            "at the adaptive mean of {:.1} KiB the static curve pays ARE {equal_bytes_are:.4}, \
             adaptive {:.4} = {gain:.2}x accuracy-per-byte",
            adaptive.mean_kib, adaptive.mean_are
        ),
        gain > 1.0,
    );
    let rate = adaptive.actions as f64 / adaptive.epochs.max(1) as f64;
    r.claim(
        "the reconfiguration rate stays inside the per-epoch budget",
        format!(
            "{} reconfigurations over {} epochs = {rate:.2}/epoch, budget {}",
            adaptive.actions, adaptive.epochs, policy.epoch_budget
        ),
        rate <= policy.epoch_budget as f64,
    );
    let divergences: usize = outcomes.iter().map(|o| o.audit_divergences).sum();
    r.claim(
        "every switch of every fleet audits clean after the run",
        format!("{divergences} audit divergences"),
        divergences == 0,
    );
    r
}
