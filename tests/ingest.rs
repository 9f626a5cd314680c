//! Streaming-ingestion integration.
//!
//! The module-level unit tests cover the queue, ladder and supervisor
//! mechanics; these tests exercise the full stack — generator → bounded
//! queue → admission → fleet datapath → epoch rotator → supervisor —
//! and the guarantees at scale (seeded stream scripts of stalls, slow
//! consumers, worker panics and 10× bursts are `fleet_sequences.rs`'):
//!
//! - worker-panic injection recovering to `Healthy` with bit-identical
//!   readouts versus an unfailed replica for the non-shed packet set;
//! - backpressure keeping memory bounded under a sustained overload.

use flymon::prelude::*;
use flymon_netsim::{
    AdmissionConfig, IngestConfig, RuntimeHealth, StreamingRuntime, SwitchFleet, TraceChunks,
};
use flymon_packet::{KeySpec, Packet, TaskFilter};
use flymon_traffic::gen::{Phase, PhasedConfig, PhasedSource};

fn config() -> FlyMonConfig {
    FlyMonConfig {
        groups: 2,
        buckets_per_cmu: 16384,
        ..FlyMonConfig::default()
    }
}

fn cms_def() -> TaskDefinition {
    TaskDefinition::builder("stream")
        .key(KeySpec::SRC_IP)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Cms { d: 2 })
        .memory(8192)
        .build()
}

fn fleet(n: usize) -> SwitchFleet {
    SwitchFleet::deploy(n, config(), &cms_def()).unwrap()
}

/// End-to-end overload run on the phased generator: a 10× burst phase
/// over an undersized queue must walk block → probabilistic shed →
/// priority shed, keep the priority tenant flowing, keep memory bounded
/// by the configured queue + backlog, and account every packet.
#[test]
fn phased_burst_degrades_gracefully_and_keeps_priority_traffic() {
    let priority = TaskFilter::src(10 << 24, 8);
    let cfg = IngestConfig {
        queue_capacity: 1_024,
        drain_chunk: 256,
        backlog_limit: 2_048,
        admission: AdmissionConfig {
            priority: Some(priority),
        },
        epoch_packets: 4_096,
        ..IngestConfig::default()
    };
    let mut rt = StreamingRuntime::new(fleet(3), cfg);
    let mut src = PhasedSource::new(PhasedConfig {
        flows: 2_000,
        base_chunk: 512,
        phases: vec![
            Phase { chunks: 4, rate: 1.0 },
            Phase { chunks: 6, rate: 10.0 },
            Phase { chunks: 4, rate: 1.0 },
        ],
        ..PhasedConfig::default()
    });

    let mut max_queued = 0u64;
    let mut walked = Vec::new();
    loop {
        let out = rt.step(&mut src).unwrap();
        let ledger = rt.ledger();
        assert!(ledger.conserved(), "step ledger: {ledger:?}");
        max_queued = max_queued.max(ledger.in_flight);
        if walked.last() != Some(&out.health) {
            walked.push(out.health);
        }
        if out.source_dry && ledger.in_flight == 0 {
            break;
        }
    }
    assert!(
        max_queued <= (1_024 + 2_048) as u64,
        "bounded buffers overflowed: {max_queued}"
    );
    assert!(
        walked.contains(&RuntimeHealth::Shedding),
        "overload never reached the shedding rungs: {walked:?}"
    );
    let report = rt.report();
    assert_eq!(report.health, RuntimeHealth::Healthy, "{walked:?}");
    assert!(report.stats.shed_priority > 0, "critical rung never engaged");
    assert!(report.stats.shed_random > 0, "probabilistic rung never engaged");
    assert!(report.ledger.conserved(), "{:?}", report.ledger);
    assert_eq!(report.ledger.in_flight, 0);
    assert_eq!(
        report.stats.offered,
        report.stats.processed + report.stats.shed(),
        "quiescent conservation: fed == represented + shed (+ lost/dropped = 0)"
    );
}

/// The full supervision acceptance path at integration scale: panics on
/// two different switches mid-stream, each recovered through the
/// checkpoint respawn, final state bit-identical to an unfailed twin.
#[test]
fn repeated_worker_panics_recover_bit_identically() {
    let cfg = IngestConfig {
        queue_capacity: 32_768,
        drain_chunk: 1_024,
        epoch_packets: 8_000,
        ..IngestConfig::default()
    };
    let stream = || {
        TraceChunks::new(
            flymon_traffic::gen::TraceGenerator::new(123).wide_like(
                &flymon_traffic::gen::TraceConfig {
                    flows: 4_000,
                    packets: 30_000,
                    zipf_alpha: 1.1,
                    duration_ns: 1_000_000_000,
                    seed: 123,
                },
            ),
            1_024,
        )
    };

    let mut twin = StreamingRuntime::new(fleet(3), cfg.clone());
    let twin_report = twin.run(&mut stream()).unwrap();

    let mut supervised = StreamingRuntime::new(fleet(3), cfg);
    supervised.inject(flymon_netsim::IngestFault::WorkerPanic {
        at_step: 5,
        switch: 0,
    });
    supervised.inject(flymon_netsim::IngestFault::WorkerPanic {
        at_step: 14,
        switch: 2,
    });
    let report = supervised.run(&mut stream()).unwrap();

    assert_eq!(report.stats.panics_recovered, 2);
    assert_eq!(report.stats.promotions, 2, "both respawns used checkpoints");
    assert_eq!(report.health, RuntimeHealth::Healthy);
    assert_eq!(report.ledger.lost, 0, "per-step barriers leave no loss window");
    assert!(report.ledger.conserved(), "{:?}", report.ledger);
    assert_eq!(report.stats.processed, twin_report.stats.processed);

    for i in 0..3 {
        let (a, ha) = twin.fleet().switch(i);
        let (b, hb) = supervised.fleet().switch(i);
        let (ha, hb) = (ha.unwrap(), hb.unwrap());
        for row in 0..2 {
            assert_eq!(
                a.read_row(ha, row).unwrap(),
                b.read_row(hb, row).unwrap(),
                "switch {i} row {row} diverged after two supervised respawns"
            );
        }
        assert!(b.audit().is_empty(), "switch {i} audit after respawn");
    }
    assert_eq!(twin.last_epoch(), supervised.last_epoch());
}

/// Epoch rotation is constant-memory: a long stream rotates many times
/// while the runtime retains only the latest archived readout, and the
/// rotated packets stay represented in the ledger.
#[test]
fn long_stream_rotates_epochs_in_constant_memory() {
    let cfg = IngestConfig {
        queue_capacity: 8_192,
        drain_chunk: 4_096,
        epoch_packets: 3_000,
        ..IngestConfig::default()
    };
    let mut rt = StreamingRuntime::new(fleet(2), cfg);
    let mut src = TraceChunks::new(
        vec![Packet::tcp(0x0a00_0001, 2, 3, 4); 45_000],
        4_096,
    );
    let report = rt.run(&mut src).unwrap();
    assert!(
        report.stats.epochs_rotated >= 10,
        "45k packets / 3k epochs, got {}",
        report.stats.epochs_rotated
    );
    assert!(report.ledger.conserved(), "{:?}", report.ledger);
    assert_eq!(report.ledger.represented, 45_000);
    assert!(
        rt.fleet().rotated_packets() > 40_000,
        "nearly everything should live in the archive"
    );
    // Only one archived readout is held, whatever the epoch count.
    assert!(rt.last_epoch().is_some());
}
