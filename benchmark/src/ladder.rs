//! The traced run's ladder: the workload's trace and tasks pushed
//! through each layer boundary in turn, bottom up, so that a layer the
//! benchmark cannot enter from outside is read as the difference between
//! two rungs (the `*_residual_*` metrics).
//!
//! Every rung runs on the workload's own config, tasks and trace, so
//! the same metric read on two workloads shows what the workload's shape
//! does to that layer (one resident task against five). The `wide.*`
//! rungs alone swap the config: the workload's trace on 12 MB of
//! registers, which no workload holds because a working set beyond the
//! private caches times the host's neighbours (README, "Repeatability").

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use flymon::compiler;
use flymon::prelude::*;
use flymon_netsim::datapath::{shard_of, ShardedDatapath};
use flymon_netsim::{
    AdmissionConfig, BoundedQueue, ChunkSource, IngestConfig, RuntimeHealth, StreamingRuntime,
};
use flymon_packet::{KeySpec, Packet, TaskFilter};
use flymon_rmt::hash::{HashUnit, CRC_LANES};
use flymon_traffic::gen::{Phase, PhasedConfig, PhasedSource};

use crate::alloc;
use crate::checks::{Agreement, Recovery};
use crate::stats::median;
use crate::tracer::{set_iter, span};
use crate::workloads::{
    churn_channel, cms3, fleet_with, mix_config, mix_tasks, stream_config, switch_with,
    two_groups, CyclingChunks, Digest, Inputs, Spec, BLOCK, CHURN_FEED, READOUT_QUERIES,
    STREAM_EPOCH_PACKETS, STREAM_QUEUE, WIDE_BUCKETS,
};

/// Rungs that run for a slice of the time budget (the others run a
/// fixed number of rounds).
const TIMED_RUNGS: u32 = 20;
/// Rounds of each control-plane and readout rung.
const ROUNDS: usize = 9;
/// Packets fed before each readout round.
const READOUT_FEED: usize = 16 * BLOCK;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

fn us(begun: Instant) -> f64 {
    begun.elapsed().as_secs_f64() * 1e6
}

/// Cycles `trace` through `f` block by block for at least `slice`;
/// returns (ns per packet, packets).
fn per_packet(trace: &[Packet], slice: Duration, mut f: impl FnMut(&[Packet])) -> (f64, u64) {
    let mut packets = 0u64;
    let begun = Instant::now();
    loop {
        for block in trace.chunks(BLOCK) {
            f(block);
            packets += block.len() as u64;
            if begun.elapsed() >= slice {
                return (begun.elapsed().as_nanos() as f64 / packets as f64, packets);
            }
        }
    }
}

/// One switch with `tasks`, the trace cycled through `process_batch`
/// for `slice`; returns (ns per packet, packets, allocations made).
fn batch_rung(
    config: FlyMonConfig,
    tasks: &[TaskDefinition],
    trace: &[Packet],
    slice: Duration,
) -> Result<(f64, u64, u64), String> {
    let (mut fm, _) = switch_with(config, tasks, false)?;
    // The first block grows the switch's scratch buffers once.
    fm.process_batch(&trace[..trace.len().min(BLOCK)]);
    let _s = span("core.control.process_batch");
    let ((ns, packets), allocs) = alloc::count(|| {
        per_packet(trace, slice, |block| {
            fm.process_batch(block);
        })
    });
    Ok((ns, packets, allocs))
}

/// Steps `runtime` over the cycled trace for `slice`; returns
/// (ns per processed packet, processed packets).
fn stream_for(
    runtime: &mut StreamingRuntime,
    trace: &[Packet],
    slice: Duration,
) -> Result<(f64, u64), String> {
    let mut source = CyclingChunks::new(trace, BLOCK);
    let mut processed = 0u64;
    let begun = Instant::now();
    while begun.elapsed() < slice {
        let out = {
            let _s = span("netsim.ingest.step");
            runtime.step(&mut source)
        };
        processed += out.map_err(|e| format!("ladder step: {e}"))?.drained as u64;
    }
    Ok((
        begun.elapsed().as_nanos() as f64 / processed.max(1) as f64,
        processed,
    ))
}

/// The keys the workload's tasks extract from a packet.
fn keys_of(tasks: &[TaskDefinition]) -> Vec<KeySpec> {
    let mut keys = Vec::new();
    for def in tasks {
        let param = match def.attribute {
            Attribute::Distinct(k) | Attribute::Existence(k) => k,
            _ => KeySpec::NONE,
        };
        for k in [def.key, param] {
            if !k.is_empty() && !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    keys
}

#[derive(Default)]
struct OpTimes {
    deploy: Vec<f64>,
    reallocate: Vec<f64>,
    remove: Vec<f64>,
}

impl OpTimes {
    fn medians(&self) -> [f64; 3] {
        [
            median(&self.deploy),
            median(&self.reallocate),
            median(&self.remove),
        ]
    }
}

fn mean_gap(with: [f64; 3], without: [f64; 3]) -> f64 {
    with.iter().zip(&without).map(|(a, b)| a - b).sum::<f64>() / 3.0
}

/// Deploy → reallocate → remove rounds on one switch, with a short
/// packet burst after each op.
fn switch_rounds(
    spec: &Spec,
    inputs: &Inputs,
    wal: bool,
    out: &mut Layers,
) -> Result<[f64; 3], String> {
    let (mut fm, mut handles) = switch_with(spec.config, &spec.resident, wal)?;
    let feed = &inputs.trace[..inputs.trace.len().min(CHURN_FEED)];
    fm.process_batch(&inputs.trace[..inputs.trace.len().min(BLOCK)]);
    let memory = spec.resident[0].memory;
    let mut times = OpTimes::default();
    let mut bindings = Vec::new();
    let mut post = Vec::new();
    let mut burst = |fm: &mut FlyMon| {
        let begun = Instant::now();
        let _s = span("core.control.process_batch");
        fm.process_batch(feed);
        post.push(begun.elapsed().as_nanos() as f64 / feed.len() as f64);
    };
    for round in 0..ROUNDS {
        let begun = Instant::now();
        let extra = {
            let _s = span("core.control.deploy");
            fm.deploy(&spec.extra)
        };
        times.deploy.push(us(begun));
        let extra = extra.map_err(|e| format!("ladder deploy: {e}"))?;
        burst(&mut fm);
        if !wal {
            let task = fm.task(extra).map_err(|e| format!("task: {e}"))?;
            let begun = Instant::now();
            let built = {
                let _s = span("core.compiler.build_bindings");
                compiler::build_bindings(&task.def, extra.0, task.algorithm, &task.rows)
            };
            bindings.push(us(begun));
            black_box(built.map_err(|e| format!("build_bindings: {e}"))?);
        }
        let target = if round % 2 == 0 { memory / 2 } else { memory };
        let begun = Instant::now();
        let moved = {
            let _s = span("core.control.reallocate_memory");
            fm.reallocate_memory(handles[0], target)
        };
        times.reallocate.push(us(begun));
        handles[0] = moved.map_err(|e| format!("ladder reallocate: {e}"))?;
        burst(&mut fm);
        let begun = Instant::now();
        let removed = {
            let _s = span("core.control.remove");
            fm.remove(extra)
        };
        times.remove.push(us(begun));
        removed.map_err(|e| format!("ladder remove: {e}"))?;
        burst(&mut fm);
    }
    let begun = Instant::now();
    let divergences = {
        let _s = span("core.control.audit");
        fm.audit()
    };
    let audit_us = us(begun);
    if !divergences.is_empty() || fm.task_count() != spec.resident.len() {
        return Err(format!("ladder switch after churn: {divergences:?}"));
    }
    if !wal {
        out.insert("compiler.build_bindings_us", median(&bindings));
        out.insert("control.audit_us", audit_us);
        out.insert("core.post_reconfig_ns_per_pkt", median(&post));
    }
    Ok(times.medians())
}

/// The same rounds fleet-wide, with or without the lossy channel.
fn fleet_rounds(
    spec: &Spec,
    n: usize,
    channel_seed: Option<u64>,
    out: &mut Layers,
) -> Result<[f64; 3], String> {
    let mut fleet = fleet_with(n, spec.config, &spec.resident)?;
    fleet.enable_standby();
    if let Some(seed) = channel_seed {
        fleet
            .attach_channel(seed, churn_channel())
            .map_err(|e| format!("attach_channel: {e}"))?;
    }
    let memory = spec.resident[0].memory;
    let mut times = OpTimes::default();
    for round in 0..ROUNDS {
        let begun = Instant::now();
        let at = {
            let _s = span("netsim.fleet.deploy_task");
            fleet.deploy_task(&spec.extra)
        };
        times.deploy.push(us(begun));
        let at = at.map_err(|e| format!("ladder deploy_task: {e}"))?;
        let target = if round % 2 == 0 { memory / 2 } else { memory };
        let begun = Instant::now();
        let moved = {
            let _s = span("netsim.fleet.reallocate_task");
            fleet.reallocate_task(0, target)
        };
        times.reallocate.push(us(begun));
        moved.map_err(|e| format!("ladder reallocate_task: {e}"))?;
        let begun = Instant::now();
        let removed = {
            let _s = span("netsim.fleet.remove_task");
            fleet.remove_task(at)
        };
        times.remove.push(us(begun));
        removed.map_err(|e| format!("ladder remove_task: {e}"))?;
    }
    match channel_seed {
        Some(_) => {
            let stats = *fleet.channel().expect("attached above").stats();
            out.insert(
                "channel.retries_per_op",
                stats.retries as f64 / stats.commands.max(1) as f64,
            );
            out.insert("channel.timeouts", stats.timeouts as f64);
        }
        None => {
            // Threshold 0 makes every log oversized, so this is the
            // whole maintenance path: prune, then a compacting sync.
            let begun = Instant::now();
            {
                let _s = span("netsim.fleet.maintain_wals");
                fleet.maintain_wals(0);
            }
            out.insert("fleet.maintain_wals_us", us(begun));
        }
    }
    for i in 0..n {
        let divergences = fleet.switch(i).0.audit();
        if !divergences.is_empty() {
            return Err(format!("ladder fleet switch {i}: {divergences:?}"));
        }
    }
    Ok(times.medians())
}

/// Sync, row readout, queries and rotation on the workload's fleet.
fn readout_rounds(spec: &Spec, inputs: &Inputs, n: usize, out: &mut Layers) -> Result<(), String> {
    let mut fleet = fleet_with(n, spec.config, &spec.resident)?;
    fleet.enable_standby();
    let mut scratch = ReadoutScratch::default();
    let feed = &inputs.trace[..inputs.trace.len().min(READOUT_FEED)];
    let total_rows: usize = spec.resident.iter().map(Spec::rows_of).sum();
    let (mut sync, mut rows, mut query, mut rotate, mut stall) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut allocs = 0;
    for round in 0..ROUNDS {
        for block in feed.chunks(BLOCK) {
            fleet.process_trace(block);
        }
        let begun = Instant::now();
        {
            let _s = span("netsim.fleet.sync_standby");
            fleet.sync_standby();
        }
        sync.push(us(begun));

        let begun = Instant::now();
        let (merged, made) = alloc::count(|| -> Result<(), String> {
            for (ti, def) in spec.resident.iter().enumerate() {
                for row in 0..Spec::rows_of(def) {
                    let _s = span("netsim.fleet.merged_task_row_into");
                    fleet
                        .merged_task_row_into(ti, row, &mut scratch)
                        .map_err(|e| format!("ladder merged row: {e}"))?;
                    black_box(&scratch.acc);
                }
            }
            Ok(())
        });
        merged?;
        rows.push(us(begun) / total_rows as f64);
        // The first round grows the scratch; steady state starts after it.
        if round > 0 {
            allocs += made;
        }

        let begun = Instant::now();
        for (pkt, _) in inputs.top.iter().take(READOUT_QUERIES) {
            let _s = span("netsim.fleet.merged_frequency");
            black_box(
                fleet
                    .merged_frequency(pkt)
                    .map_err(|e| format!("ladder merged_frequency: {e}"))?,
            );
        }
        query.push(us(begun) * 1e3 / READOUT_QUERIES as f64);

        let begun = Instant::now();
        let epoch = {
            let _s = span("netsim.fleet.rotate_epoch_all");
            fleet.rotate_epoch_all()
        };
        rotate.push(us(begun));
        let epoch = epoch.map_err(|e| format!("ladder rotate: {e}"))?;
        if epoch.packets != feed.len() as u64 {
            return Err(format!("rotation archived {} packets", epoch.packets));
        }
        stall.push(fleet.last_rotation_stall().as_secs_f64() * 1e6);
    }
    out.insert("fleet.sync_standby_us", median(&sync));
    out.insert("fleet.merged_row_into_us", median(&rows));
    out.insert("fleet.merged_frequency_ns_per_query", median(&query));
    out.insert("fleet.rotate_total_us", median(&rotate));
    out.insert("fleet.rotate_stall_us", median(&stall));
    out.insert("readout.allocs", allocs as f64);
    Ok(())
}

/// A 10x burst over an undersized queue. Everything here is seeded, so
/// the counts repeat exactly; a change is a behaviour change.
fn overload(spec: &Spec, n: usize, seed: u64, out: &mut Layers) -> Result<(), String> {
    let fleet = fleet_with(n, spec.config, &spec.resident)?;
    let mut runtime = StreamingRuntime::new(
        fleet,
        IngestConfig {
            queue_capacity: 1_024,
            drain_chunk: 512,
            backlog_limit: 2_048,
            admission: AdmissionConfig {
                priority: Some(TaskFilter::src(10 << 24, 8)),
                ..AdmissionConfig::default()
            },
            epoch_packets: 8_192,
            ..IngestConfig::default()
        },
    );
    let mut source = PhasedSource::new(PhasedConfig {
        flows: 5_000,
        base_chunk: 1_024,
        phases: vec![
            Phase {
                chunks: 10,
                rate: 1.0,
            },
            Phase {
                chunks: 12,
                rate: 10.0,
            },
            Phase {
                chunks: 10,
                rate: 1.0,
            },
        ],
        seed,
        ..PhasedConfig::default()
    });
    let _s = span("netsim.ingest.overload");
    // The source is finite and the runtime drains 512 packets a step,
    // so this ends; the cap only guards against a runtime that stops
    // draining without reporting a stall.
    for _ in 0..100_000 {
        let step = runtime
            .step(&mut source as &mut dyn ChunkSource)
            .map_err(|e| format!("overload step: {e}"))?;
        if step.source_dry && runtime.report().ledger.in_flight == 0 {
            break;
        }
    }
    let report = runtime.report();
    if !report.ledger.conserved() || report.ledger.in_flight != 0 {
        return Err(format!("overload ledger: {:?}", report.ledger));
    }
    if report.health != RuntimeHealth::Healthy {
        return Err(format!("overload ended {:?}", report.health));
    }
    out.insert(
        "ingest.overload.shed_share",
        report.stats.shed() as f64 / report.stats.offered.max(1) as f64,
    );
    out.insert(
        "ingest.overload.blocked_steps",
        report.stats.blocked_steps as f64,
    );
    out.insert(
        "ingest.overload.health_transitions",
        report.stats.health_transitions as f64,
    );
    Ok(())
}

/// Control-side estimators over a readout.
fn analysis(inputs: &Inputs, out: &mut Layers) -> Result<(), String> {
    let hll = mix_tasks().remove(2);
    let mrac = TaskDefinition::builder("mrac")
        .key(KeySpec::FIVE_TUPLE)
        .attribute(Attribute::frequency_packets())
        .algorithm(Algorithm::Mrac)
        .memory(8192)
        .build();
    let (mut fm, handles) = switch_with(mix_config(), &[hll, mrac], false)?;
    fm.process_batch(&inputs.trace[..inputs.trace.len().min(64 * BLOCK)]);
    let (mut card, mut entropy) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let begun = Instant::now();
        let flows = {
            let _s = span("core.analysis.cardinality");
            fm.cardinality(handles[0])
        };
        card.push(us(begun));
        let begun = Instant::now();
        let bits = {
            let _s = span("core.analysis.entropy");
            fm.entropy(handles[1], 5)
        };
        entropy.push(us(begun) / 1e3);
        // Both estimators answer 0.0 for a task they cannot read.
        if flows <= 0.0 || bits <= 0.0 {
            return Err(format!("estimators answered {flows} flows, {bits} bits"));
        }
    }
    out.insert("analysis.cardinality_us", median(&card));
    out.insert("analysis.entropy_ms", median(&entropy));
    Ok(())
}

/// Climbs the whole ladder within roughly `budget`.
pub fn climb(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    agreement: &Agreement,
    recovery: &Recovery,
    budget: Duration,
) -> Result<Layers, String> {
    let mut out = Layers::new();
    let trace = inputs.trace.as_slice();
    let slice = budget / TIMED_RUNGS;
    // A single-switch workload still climbs the fleet rungs, on three.
    let n = if spec.switches > 1 { spec.switches } else { 3 };
    let mut rung = 0;
    let mut next_rung = || {
        rung += 1;
        set_iter(rung);
    };

    next_rung();
    let keys = keys_of(&spec.resident);
    let (ns, _) = {
        let _s = span("packet.key.extract");
        per_packet(trace, slice, |block| {
            for p in block {
                for k in &keys {
                    black_box(k.extract(p));
                }
            }
        })
    };
    out.insert("packet.key.extract_ns_per_pkt", ns);

    next_rung();
    let unit = HashUnit::new(0);
    // Whole lane groups of keys taken from the trace, for both kernels.
    let sample = trace.len().min(16 * BLOCK) / CRC_LANES * CRC_LANES;
    let key_bytes: Vec<_> = trace[..sample]
        .iter()
        .map(|p| spec.resident[0].key.extract(p))
        .collect();
    let digest_for = |f: &mut dyn FnMut()| {
        let mut keys = 0u64;
        let begun = Instant::now();
        while begun.elapsed() < slice {
            f();
            keys += key_bytes.len() as u64;
        }
        begun.elapsed().as_nanos() as f64 / keys as f64
    };
    let ns = {
        let _s = span("rmt.hash.digest_bytes");
        digest_for(&mut || {
            for k in &key_bytes {
                black_box(unit.digest_bytes(k.as_bytes()));
            }
        })
    };
    out.insert("rmt.hash.digest_ns_per_key", ns);
    next_rung();
    let ns = {
        let _s = span("rmt.hash.digest_lanes");
        let mut lanes = [0u32; CRC_LANES];
        digest_for(&mut || {
            for group in key_bytes.chunks_exact(CRC_LANES) {
                let inputs: [&[u8]; CRC_LANES] = std::array::from_fn(|i| group[i].as_bytes());
                unit.digest_lanes(&inputs, &mut lanes);
                black_box(&lanes);
            }
        })
    };
    out.insert("rmt.hash.digest_lanes_ns_per_key", ns);

    next_rung();
    let (core_ns, packets, allocs) = batch_rung(spec.config, &spec.resident, trace, slice)?;
    out.insert("core.process_batch_ns_per_pkt", core_ns);
    out.insert("core.allocs_per_kpkt", allocs as f64 * 1e3 / packets as f64);

    let mut solo_sum = 0.0;
    for (name, def) in PER_TASK.iter().zip(mix_tasks()) {
        next_rung();
        let (ns, ..) = batch_rung(mix_config(), &[def], trace, slice)?;
        solo_sum += ns;
        out.insert(name, ns);
    }
    next_rung();
    let (mix_ns, ..) = batch_rung(mix_config(), &mix_tasks(), trace, slice)?;
    out.insert("core.mix_ns_per_pkt", mix_ns);
    out.insert("core.mix_residual_ns_per_pkt", mix_ns - solo_sum);

    next_rung();
    let (ns, _) = {
        let _s = span("netsim.datapath.shard_of");
        per_packet(trace, slice, |block| {
            for p in block {
                black_box(shard_of(p, n));
            }
        })
    };
    out.insert("datapath.shard_of_ns_per_pkt", ns);
    let mut per_switch = vec![0u64; n];
    for p in trace {
        per_switch[shard_of(p, n)] += 1;
    }
    let heaviest = *per_switch.iter().max().expect("n > 0") as f64;
    out.insert("fleet.imbalance", heaviest * n as f64 / trace.len() as f64);

    // Two workers on one logical switch, one pass: the only rung with
    // more than one thread, and a diagnostic on a 2-CPU host.
    next_rung();
    let mut sharded = ShardedDatapath::deploy(2, spec.config, &spec.resident[0])
        .map_err(|e| format!("sharded deploy: {e}"))?;
    let replay = {
        let _s = span("netsim.datapath.process_trace");
        sharded.process_trace(trace)
    };
    let mut merged = Digest::default();
    for row in 0..Spec::rows_of(&spec.resident[0]) {
        merged.row(
            &sharded
                .merged_row(row)
                .map_err(|e| format!("merged_row: {e}"))?,
        );
    }
    if merged.value() != agreement.primary_digest {
        return Err("two sharded workers' merged rows differ from the serial switch's".into());
    }
    drop(sharded);
    out.insert("datapath.sharded2.pkts_per_s", replay.packets_per_sec());
    out.insert("datapath.sharded2.imbalance", replay.imbalance);

    next_rung();
    let mut single = fleet_with(1, spec.config, &spec.resident)?;
    let (fleet1_ns, _) = {
        let _s = span("netsim.fleet.process_trace");
        per_packet(trace, slice, |block| single.process_trace(block))
    };
    drop(single);
    out.insert("fleet.process_trace_ns_per_pkt", fleet1_ns);
    out.insert("fleet.route_residual_ns_per_pkt", fleet1_ns - core_ns);

    next_rung();
    let mut fleet = fleet_with(n, spec.config, &spec.resident)?;
    let (fleet_ns, _) = {
        let _s = span("netsim.fleet.process_trace");
        per_packet(trace, slice, |block| fleet.process_trace(block))
    };
    drop(fleet);
    out.insert("fleet.process_trace_n_ns_per_pkt", fleet_ns);

    next_rung();
    let fleet = fleet_with(n, spec.config, &spec.resident)?;
    let mut runtime = StreamingRuntime::new(fleet, stream_config(0));
    let (streamed, allocs) = alloc::count(|| stream_for(&mut runtime, trace, slice));
    let (steady_ns, processed) = streamed?;
    let report = runtime.report();
    drop(runtime);
    out.insert("ingest.step_ns_per_pkt", steady_ns);
    out.insert("ingest.queue_residual_ns_per_pkt", steady_ns - fleet_ns);
    out.insert(
        "ingest.allocs_per_kpkt",
        allocs as f64 * 1e3 / processed.max(1) as f64,
    );
    out.insert("ingest.queue.max_depth", report.queue.high_watermark as f64);
    out.insert("ingest.blocked_steps", report.stats.blocked_steps as f64);

    next_rung();
    let fleet = fleet_with(n, spec.config, &spec.resident)?;
    let mut runtime = StreamingRuntime::new(fleet, stream_config(STREAM_EPOCH_PACKETS));
    let (rotating_ns, _) = stream_for(&mut runtime, trace, slice)?;
    drop(runtime);
    out.insert(
        "ingest.rotation_residual_ns_per_pkt",
        rotating_ns - steady_ns,
    );

    next_rung();
    let mut queue = BoundedQueue::new(STREAM_QUEUE);
    let (ns, _) = {
        let _s = span("netsim.ingest.queue.push_pop");
        per_packet(trace, slice, |block| {
            for p in block {
                queue.push(*p);
            }
            black_box(queue.pop_n(BLOCK));
        })
    };
    out.insert("ingest.queue.push_pop_ns_per_pkt", ns);

    next_rung();
    let mut source = CyclingChunks::new(trace, BLOCK);
    let (ns, _) = per_packet(trace, slice, |_| {
        black_box(source.next_chunk());
    });
    out.insert("ingest.source.chunk_ns_per_pkt", ns);

    next_rung();
    overload(spec, n, seed, &mut out)?;
    next_rung();
    readout_rounds(spec, inputs, n, &mut out)?;
    next_rung();
    analysis(inputs, &mut out)?;

    next_rung();
    let wide = Spec {
        config: two_groups(WIDE_BUCKETS),
        resident: vec![cms3(WIDE_BUCKETS)],
        ..spec.clone()
    };
    let (ns, ..) = batch_rung(wide.config, &wide.resident, trace, slice)?;
    out.insert("wide.core.process_batch_ns_per_pkt", ns);
    let mut at_width = Layers::new();
    readout_rounds(&wide, inputs, 2, &mut at_width)?;
    out.insert("wide.fleet.sync_standby_us", at_width["fleet.sync_standby_us"]);
    out.insert("wide.fleet.rotate_total_us", at_width["fleet.rotate_total_us"]);
    out.insert(
        "wide.fleet.merged_row_into_us",
        at_width["fleet.merged_row_into_us"],
    );

    next_rung();
    let plain = switch_rounds(spec, inputs, false, &mut out)?;
    out.insert("control.deploy_us", plain[0]);
    out.insert("control.reallocate_us", plain[1]);
    out.insert("control.remove_us", plain[2]);
    next_rung();
    let logged = switch_rounds(spec, inputs, true, &mut out)?;
    out.insert("wal.overhead_us", mean_gap(logged, plain));
    next_rung();
    let direct = fleet_rounds(spec, n, None, &mut out)?;
    out.insert("fleet.deploy_task_us", direct[0]);
    out.insert("fleet.reallocate_task_us", direct[1]);
    out.insert("fleet.remove_task_us", direct[2]);
    next_rung();
    let lossy = fleet_rounds(spec, n, Some(seed), &mut out)?;
    out.insert("channel.overhead_us", mean_gap(lossy, direct));

    out.insert("checkpoint.full_ms", recovery.full_ms);
    out.insert("checkpoint.delta_us", recovery.delta_us);
    out.insert(
        "checkpoint.delta_payload_buckets",
        recovery.delta_payload_buckets as f64,
    );
    out.insert("checkpoint.restore_ms", recovery.restore_ms);
    out.insert("checkpoint.recover_ms", recovery.recover_ms);
    Ok(out)
}

/// The per-task metric names, in [`mix_tasks`] order.
const PER_TASK: [&str; 6] = [
    "core.task.cms3_ns_per_pkt",
    "core.task.beaucoup3_ns_per_pkt",
    "core.task.hll_ns_per_pkt",
    "core.task.bloom2_ns_per_pkt",
    "core.task.sumaxmax2_ns_per_pkt",
    "core.task.cms2_sampled_ns_per_pkt",
];
