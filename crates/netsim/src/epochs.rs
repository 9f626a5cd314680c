//! Figure 12b: impact of reconfiguration on measurement accuracy.
//!
//! A 20-epoch timeline with a traffic spike in the middle. Task A (a
//! per-source frequency task) runs throughout on both systems:
//!
//! - **FlyMon** inserts task B at epoch 3 and removes it at epoch 10
//!   (same CMU Group — proving insertion/removal does not perturb A),
//!   grows A's memory at epoch 6 to ride the spike and shrinks it at
//!   epoch 16.
//! - **Static** keeps its compile-time allocation; the spike overloads
//!   it and its ARE blows up (the paper reports 15× higher ARE).

use flymon::prelude::*;
use flymon_packet::KeySpec;
use flymon_traffic::gen::{SpikeConfig, TraceGenerator};
use flymon_traffic::ground_truth::GroundTruth;
use flymon_traffic::metrics::average_relative_error;

/// Configuration of the accuracy-timeline experiment.
#[derive(Debug, Clone)]
pub struct EpochTimelineConfig {
    /// The traffic timeline (epochs, flows, spike window).
    pub traffic: SpikeConfig,
    /// Task A's baseline buckets per row.
    pub base_buckets: usize,
    /// Task A's buckets per row while the spike is handled.
    pub grown_buckets: usize,
    /// Epoch (0-based) at which FlyMon inserts task B (paper: 3).
    pub insert_b_at: usize,
    /// Epoch at which FlyMon removes task B (paper: 10).
    pub remove_b_at: usize,
    /// Epoch at which FlyMon grows task A's memory (paper: 6).
    pub grow_at: usize,
    /// Epoch at which FlyMon shrinks it back (paper: 16).
    pub shrink_at: usize,
    /// Buckets per CMU register of the simulated switch.
    pub buckets_per_cmu: usize,
    /// Optional fault plan armed on the FlyMon switch for the duration
    /// of the timeline. Reconfigurations that fail under it roll back
    /// and are reported as events; the timeline (and task A) carries on.
    pub faults: Option<FaultPlan>,
}

impl Default for EpochTimelineConfig {
    fn default() -> Self {
        EpochTimelineConfig {
            traffic: SpikeConfig::default(),
            base_buckets: 16384,
            grown_buckets: 65536,
            insert_b_at: 2,
            remove_b_at: 9,
            grow_at: 5,
            shrink_at: 15,
            buckets_per_cmu: 65536,
            faults: None,
        }
    }
}

/// One epoch's outcome.
#[derive(Debug, Clone)]
pub struct AccuracyPoint {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Distinct flows in the epoch (task A's key).
    pub flows: usize,
    /// Task A's ARE under FlyMon.
    pub flymon_are: f64,
    /// Task A's ARE under the static deployment.
    pub static_are: f64,
    /// Task A's current per-row allocation under FlyMon.
    pub flymon_buckets: usize,
    /// Reconfiguration events applied before this epoch.
    pub events: Vec<&'static str>,
}

fn task_a(buckets: usize) -> TaskDefinition {
    // Task A takes two of the group's three CMUs and task B the third:
    // same CMU Group, disjoint CMUs — a CMU executes one task per
    // packet, so two all-traffic tasks cannot share one CMU (§3.3).
    let line = format!("task-A key=SrcIP attr=frequency mem={buckets} alg=cms d=2");
    line.parse().expect("task A's line is well formed")
}

fn task_b(buckets: usize) -> TaskDefinition {
    let line = format!("task-B key=DstIP attr=frequency mem={buckets} alg=cms d=1");
    line.parse().expect("task B's line is well formed")
}

/// Runs the timeline; returns one point per epoch.
pub fn run_accuracy_timeline(config: &EpochTimelineConfig) -> Vec<AccuracyPoint> {
    let mut generator = TraceGenerator::new(config.traffic.seed);
    let timeline = generator.spike_timeline(&config.traffic);

    let fm_config = FlyMonConfig {
        groups: 2,
        buckets_per_cmu: config.buckets_per_cmu,
        ..FlyMonConfig::default()
    };
    let mut flymon = FlyMon::new(fm_config);
    let mut static_dep = FlyMon::new(fm_config);

    // Task A must land before faults are armed — it is the measurement
    // under test; the faults exercise the *reconfigurations* around it.
    let mut a_fly = flymon.deploy(&task_a(config.base_buckets)).expect("deploy A");
    let a_static = static_dep
        .deploy(&task_a(config.base_buckets))
        .expect("deploy static A");
    if let Some(plan) = config.faults.clone() {
        flymon.arm_faults(plan);
    }
    let mut b_fly = None;
    let mut fly_buckets = config.base_buckets;

    // Attempts a memory reallocation, degrading gracefully: a failed
    // call either leaves the task at its old geometry (possibly under a
    // restored handle) or — in the pathological double-failure — loses
    // it; either way the timeline continues.
    let realloc = |fm: &mut FlyMon,
                       handle: &mut TaskHandle,
                       buckets: usize,
                       ok: &'static str,
                       failed: &'static str|
     -> Option<&'static str> {
        match fm.reallocate_memory(*handle, buckets) {
            Ok(h) => {
                *handle = h;
                Some(ok)
            }
            Err(FlymonError::ReallocationReverted { restored }) => {
                *handle = restored;
                Some(failed)
            }
            Err(_) => Some(failed),
        }
    };

    let mut points = Vec::with_capacity(timeline.len());
    for (e, trace) in timeline.iter().enumerate() {
        let mut events = Vec::new();
        // Reconfiguration events fire at epoch boundaries, before the
        // epoch's traffic, and only on FlyMon. Under an armed fault
        // plan any of them may fail; failures roll back cleanly and
        // become events instead of panics.
        if e == config.insert_b_at {
            match flymon.deploy(&task_b(config.base_buckets)) {
                Ok(h) => {
                    b_fly = Some(h);
                    events.push("insert task B");
                }
                Err(_) => events.push("insert task B failed (rolled back)"),
            }
        }
        if e == config.remove_b_at {
            if let Some(b) = b_fly.take() {
                match flymon.remove(b) {
                    Ok(()) => events.push("remove task B"),
                    Err(_) => {
                        // Removal failed; the task is still deployed.
                        b_fly = Some(b);
                        events.push("remove task B failed (still deployed)");
                    }
                }
            }
        }
        if e == config.grow_at {
            if let Some(ev) = realloc(
                &mut flymon,
                &mut a_fly,
                config.grown_buckets,
                "grow task A memory",
                "grow task A failed (reverted)",
            ) {
                if ev == "grow task A memory" {
                    fly_buckets = config.grown_buckets;
                }
                events.push(ev);
            }
        }
        if e == config.shrink_at {
            if let Some(ev) = realloc(
                &mut flymon,
                &mut a_fly,
                config.base_buckets,
                "shrink task A memory",
                "shrink task A failed (reverted)",
            ) {
                if ev == "shrink task A memory" {
                    fly_buckets = config.base_buckets;
                }
                events.push(ev);
            }
        }
        // The control plane's shadow state must mirror the data plane
        // after every reconfiguration wave, faults or not.
        debug_assert!(flymon.audit().is_empty(), "audit: {:?}", flymon.audit());

        flymon.process_batch(trace);
        static_dep.process_batch(trace);

        // Per-epoch ARE of task A over every flow of the epoch.
        let truth = GroundTruth::packet_counts(trace, KeySpec::SRC_IP);
        let mut representative = std::collections::HashMap::new();
        for p in trace {
            representative
                .entry(KeySpec::SRC_IP.extract(p))
                .or_insert(*p);
        }
        let are_of = |fm: &FlyMon, h| {
            average_relative_error(truth.frequency.iter().map(|(k, &v)| (*k, v)), |k| {
                fm.query_frequency(h, &representative[k]) as f64
            })
        };
        points.push(AccuracyPoint {
            epoch: e,
            flows: truth.cardinality(),
            flymon_are: are_of(&flymon, a_fly),
            static_are: are_of(&static_dep, a_static),
            flymon_buckets: fly_buckets,
            events,
        });

        // Epoch boundary: read out and reset. A fault-failed reset
        // restores the partitions it touched; the counts then simply
        // carry into the next epoch.
        let _ = flymon.reset_task(a_fly);
        if let Some(b) = b_fly {
            let _ = flymon.reset_task(b);
        }
        static_dep.reset_task(a_static).expect("reset static A");
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EpochTimelineConfig {
        EpochTimelineConfig {
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
        }
    }

    #[test]
    fn spike_hurts_static_but_not_flymon() {
        let points = run_accuracy_timeline(&tiny_config());
        assert_eq!(points.len(), 8);
        // During the spike, the statically provisioned task degrades
        // far more than FlyMon's reallocated one.
        let spike = &points[4];
        assert!(
            spike.static_are > 3.0 * spike.flymon_are,
            "static {:.3} vs flymon {:.3}",
            spike.static_are,
            spike.flymon_are
        );
        // Before the spike the two are comparable.
        let calm = &points[0];
        assert!(
            calm.static_are < 0.6 && calm.flymon_are < 0.6,
            "calm-epoch AREs should be small: {:.3} / {:.3}",
            calm.static_are,
            calm.flymon_are
        );
    }

    #[test]
    fn task_b_churn_does_not_disturb_task_a() {
        let points = run_accuracy_timeline(&tiny_config());
        // Epoch 1 inserts task B; epoch 2 runs with it; both pre-spike
        // epochs should stay accurate.
        for e in [1usize, 2] {
            assert!(
                points[e].flymon_are < 0.6,
                "epoch {e} ARE {:.3} too high after B churn",
                points[e].flymon_are
            );
        }
        assert!(points[1].events.contains(&"insert task B"));
        assert!(points[6].events.contains(&"remove task B"));
    }

    #[test]
    fn faulted_insert_rolls_back_and_timeline_survives() {
        // Ops 1–2 are epoch 0's boundary reset of task A (two register
        // writes, d=2); op 3 is the first install op of task B's deploy
        // at epoch 1. B never lands, the failure surfaces as an event,
        // and task A keeps measuring accurately through the timeline.
        let mut config = tiny_config();
        config.faults = Some(FaultPlan::new(3).fail_nth(3));
        let points = run_accuracy_timeline(&config);
        assert_eq!(points.len(), 8);
        assert!(points[1]
            .events
            .contains(&"insert task B failed (rolled back)"));
        // B was never deployed, so there is nothing to remove.
        assert!(points[6].events.is_empty(), "{:?}", points[6].events);
        // Later reconfigurations are past the Nth op and still land.
        assert!(points[3].events.contains(&"grow task A memory"));
        // Task A rides the spike exactly as in the fault-free run.
        assert!(
            points[4].flymon_are < 0.6,
            "spike ARE {:.3}",
            points[4].flymon_are
        );
    }

    #[test]
    fn memory_events_fire_in_order() {
        let points = run_accuracy_timeline(&tiny_config());
        assert!(points[3].events.contains(&"grow task A memory"));
        assert!(points[7].events.contains(&"shrink task A memory"));
        assert_eq!(points[3].flymon_buckets, 4096);
        assert_eq!(points[7].flymon_buckets, 1024);
        // Flow counts reflect the spike window.
        assert!(points[4].flows > points[0].flows * 3);
    }
}
