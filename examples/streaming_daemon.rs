//! Daemon-style streaming measurement: a supervised runtime ingesting a
//! phased workload (steady → 10× burst → steady) through the bounded
//! queue, rotating epochs under continuous traffic, surviving an
//! injected worker panic, and reporting health transitions as they
//! happen — the operator's view of the ISSUE-6 overload machinery.
//!
//! ```text
//! cargo run --release --example streaming_daemon            # full run
//! cargo run --release --example streaming_daemon -- --smoke # short CI run
//! ```

use flymon::prelude::*;
use flymon_netsim::{
    AdmissionConfig, IngestConfig, IngestFault, RuntimeHealth, StreamingRuntime, SwitchFleet,
};
use flymon_packet::{KeySpec, TaskFilter};
use flymon_traffic::gen::{Phase, PhasedConfig, PhasedSource};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let steady = if smoke { 6 } else { 20 };
    let burst = if smoke { 4 } else { 10 };

    let def = TaskDefinition::builder("daemon-freq")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(8192)
        .build();
    let fleet = SwitchFleet::deploy(
        3,
        FlyMonConfig {
            groups: 2,
            buckets_per_cmu: 16384,
            ..FlyMonConfig::default()
        },
        &def,
    )
    .expect("fleet deploys");

    // The priority tenant (10.0.0.0/8) rides out the critical rung.
    let mut rt = StreamingRuntime::new(
        fleet,
        IngestConfig {
            queue_capacity: 2_048,
            drain_chunk: 512,
            backlog_limit: 4_096,
            admission: AdmissionConfig {
                priority: Some(TaskFilter::src(10 << 24, 8)),
            },
            epoch_packets: 8_192,
            ..IngestConfig::default()
        },
    );
    // Mid-stream supervision drill: switch 1's worker panics; the
    // runtime quarantines it and respawns from the standby checkpoint.
    rt.inject(IngestFault::WorkerPanic {
        at_step: (steady + 2) as u64,
        switch: 1,
    });

    let mut src = PhasedSource::new(PhasedConfig {
        flows: 5_000,
        base_chunk: 1_024,
        phases: vec![
            Phase { chunks: steady, rate: 1.0 },
            Phase { chunks: burst, rate: 10.0 },
            Phase { chunks: steady, rate: 1.0 },
        ],
        ..PhasedConfig::default()
    });

    println!("streaming daemon: {steady}+{burst}+{steady} chunks, queue 2048, drain 512/step");
    let mut last_health = RuntimeHealth::Healthy;
    let mut last_epochs = 0u64;
    loop {
        let out = match rt.step(&mut src) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("streaming daemon: runtime error: {e}");
                std::process::exit(1);
            }
        };
        if out.health != last_health {
            let s = rt.stats();
            println!(
                "health {last_health:?} -> {:?} (queued {}, shed {}, recovered panics {})",
                out.health,
                rt.ledger().in_flight,
                s.shed(),
                s.panics_recovered
            );
            last_health = out.health;
        }
        let s = rt.stats();
        if s.epochs_rotated != last_epochs {
            last_epochs = s.epochs_rotated;
            let archived = rt.last_epoch().map_or(0, |e| e.packets);
            println!(
                "epoch {last_epochs} rotated: {archived} packets archived, registers cleared under flow"
            );
        }
        if out.source_dry && rt.ledger().in_flight == 0 {
            break;
        }
    }

    let report = rt.report();
    let ledger = report.ledger;
    println!(
        "done: {} offered = {} represented + {} shed + {} lost + {} dropped (conserved: {})",
        ledger.fed,
        ledger.represented,
        ledger.shed,
        ledger.lost,
        ledger.dropped,
        ledger.conserved()
    );
    println!(
        "{} steps, {} syncs, {} epochs, {} panics supervised ({} checkpoint respawns), final health {:?}",
        report.stats.steps,
        report.stats.syncs,
        report.stats.epochs_rotated,
        report.stats.panics_recovered,
        report.stats.promotions,
        report.health
    );
    assert!(ledger.conserved(), "ledger must be conserved at quiescence");
    assert_eq!(report.health, RuntimeHealth::Healthy);
}
