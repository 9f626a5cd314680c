//! Checks made while measuring. All of them run outside timed regions,
//! in every run (smoke too); any failure makes the run exit non-zero.

use std::time::Instant;

use flymon::prelude::*;
use flymon_packet::{KeySpec, Packet};
use flymon_traffic::GroundTruth;

use crate::json::{obj, Json};
use crate::tracer::span;
use crate::workloads::{fleet_digest, fleet_with, switch_digest, switch_with, Inputs, Spec, BLOCK};

/// The committed digests,
/// `{"<workload>": {"<key>": {"agree": "0x..", "warm": "0x.."}}}`, with
/// [`golden_key`] keys.
pub const GOLDEN: &str = include_str!("../golden.json");

/// Seeds the golden file covers: the default and one alternate.
pub const GOLDEN_SEEDS: [u64; 2] = [1, 2];
pub const DEFAULT_SEED: u64 = GOLDEN_SEEDS[0];

/// HLL must land this close to the exact flow count.
const HLL_TOLERANCE: f64 = 0.05;
/// Every this-many-th packet's flow joins the never-undercounts check.
const UNDERCOUNT_STRIDE: usize = 997;

pub fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// The two digests of one (workload, seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// One pass of the trace, where `FlyMon::process_batch` and a
    /// 1-switch `SwitchFleet::process_trace` agree bit for bit.
    pub agree: u64,
    /// The workload's own state after its warm-up pass (merged rows).
    pub warm: u64,
}

impl Digests {
    pub fn to_json(self) -> Json {
        obj([
            ("agree", Json::from(hex(self.agree))),
            ("warm", Json::from(hex(self.warm))),
        ])
    }
}

/// The golden file's key for a seed at a scale: smoke inputs are
/// different inputs, so they have digests of their own.
pub fn golden_key(seed: u64, smoke: bool) -> String {
    if smoke {
        format!("smoke-{seed}")
    } else {
        seed.to_string()
    }
}

/// Compares `got` with the entry for (workload, key) in `golden`, the
/// text of a golden file. Returns whether the file covers the key: one
/// it does not cover passes on the batch ≡ fleet agreement alone.
pub fn compare_golden(
    golden: &str,
    workload: &str,
    key: &str,
    got: Digests,
) -> Result<bool, String> {
    let parsed = Json::parse(golden).map_err(|e| format!("golden.json: {e}"))?;
    let Some(entry) = parsed.get(workload).and_then(|w| w.get(key)) else {
        return Ok(false);
    };
    for (field, value) in [("agree", got.agree), ("warm", got.warm)] {
        let want = entry.get(field).and_then(Json::as_str).unwrap_or("");
        if want != hex(value) {
            return Err(format!(
                "{workload} {key}: {field} digest {} differs from golden {want}",
                hex(value)
            ));
        }
    }
    Ok(true)
}

/// What the agreement pass found.
#[derive(Debug, Clone, Copy)]
pub struct Agreement {
    pub digest: u64,
    /// Digest of task 0's rows alone (the sharded rung compares its
    /// merged rows with it).
    pub primary_digest: u64,
    /// Average relative error of task 0 over the heaviest flows.
    pub top_are: f64,
    /// Relative error of the HLL task, where the workload has one.
    pub hll_error: Option<f64>,
}

impl Agreement {
    pub fn to_json(self) -> Json {
        obj([
            ("digest", Json::from(hex(self.digest))),
            ("top_are", Json::from(self.top_are)),
            ("hll_error", self.hll_error.map_or(Json::Null, Json::from)),
        ])
    }
}

fn feed_switch(fm: &mut FlyMon, trace: &[Packet]) {
    for block in trace.chunks(BLOCK) {
        fm.process_batch(block);
    }
}

/// One pass of the trace through a single switch and through a
/// 1-switch fleet with the same tasks: the register files must agree
/// bit for bit, and the single switch's estimates must be right.
pub fn agreement(spec: &Spec, inputs: &Inputs) -> Result<Agreement, String> {
    let (mut fm, handles) = switch_with(spec.config, &spec.resident, false)?;
    feed_switch(&mut fm, &inputs.trace);
    let digest = switch_digest(&fm, &handles, &spec.resident)?;
    let primary_digest = switch_digest(&fm, &handles[..1], &spec.resident[..1])?;

    let mut fleet = fleet_with(1, spec.config, &spec.resident)?;
    for block in inputs.trace.chunks(BLOCK) {
        fleet.process_trace(block);
    }
    let fleet_side = fleet_digest(&fleet, &spec.resident, &mut ReadoutScratch::default())?;
    if fleet_side != digest {
        return Err(format!(
            "process_batch ({}) and a 1-switch fleet ({}) disagree over the same packets",
            hex(digest),
            hex(fleet_side)
        ));
    }

    // A counter saturates at the register ceiling, so that is all an
    // estimate can be held to for a flow heavier than it.
    let cap = (1u64 << spec.config.bucket_bits) - 1;
    let primary = handles[0];
    let mut are = 0.0;
    for (pkt, count) in &inputs.top {
        let floor = (*count).min(cap);
        let est = fm.query_frequency(primary, pkt);
        if est < floor {
            return Err(format!("CMS estimate {est} below the true count {floor}"));
        }
        are += (est - floor) as f64 / floor as f64;
    }
    let top_are = are / inputs.top.len().max(1) as f64;
    if top_are > spec.are_ceiling {
        return Err(format!(
            "top-flow ARE {top_are:.4} above the committed ceiling {}",
            spec.are_ceiling
        ));
    }
    for pkt in inputs.trace.iter().step_by(UNDERCOUNT_STRIDE) {
        let truth = inputs.truth.frequency[&KeySpec::SRC_IP.extract(pkt)];
        let est = fm.query_frequency(primary, pkt);
        if est < truth.min(cap) {
            return Err(format!("CMS estimate {est} below the true count {truth}"));
        }
    }

    let hll_error = match spec.resident.iter().position(|t| t.name == "hll") {
        Some(i) => {
            let flows =
                GroundTruth::packet_counts(&inputs.trace, KeySpec::FIVE_TUPLE).cardinality();
            let est = fm.cardinality(handles[i]);
            let error = (est - flows as f64).abs() / flows as f64;
            if error > HLL_TOLERANCE {
                return Err(format!("HLL estimates {est:.0} flows, truth {flows}"));
            }
            Some(error)
        }
        None => None,
    };
    Ok(Agreement {
        digest,
        primary_digest,
        top_are,
        hll_error,
    })
}

/// Timings of the checkpoint path, taken while checking it.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub full_ms: f64,
    pub delta_us: f64,
    pub delta_payload_buckets: usize,
    pub restore_ms: f64,
    pub recover_ms: f64,
}

fn ms(begun: Instant) -> f64 {
    begun.elapsed().as_secs_f64() * 1e3
}

fn rows_equal(
    live: &FlyMon,
    other: &FlyMon,
    handles: &[TaskHandle],
    tasks: &[TaskDefinition],
    what: &str,
) -> Result<(), String> {
    if switch_digest(live, handles, tasks)? != switch_digest(other, handles, tasks)? {
        return Err(format!(
            "{what} switch's rows differ from the live switch's"
        ));
    }
    let divergences = other.audit();
    if !divergences.is_empty() {
        return Err(format!("{what} switch audit: {divergences:?}"));
    }
    Ok(())
}

/// Checkpoint, restore and recover on a logged switch with the
/// workload's tasks: a restored image and a recovery (checkpoint + WAL
/// suffix of a deploy, a reallocation and a remove) must both equal the
/// live switch row for row.
pub fn recovery(spec: &Spec, inputs: &Inputs) -> Result<Recovery, String> {
    let (mut fm, mut handles) = switch_with(spec.config, &spec.resident, true)?;
    let warm = inputs.trace.len().min(16 * BLOCK);
    feed_switch(&mut fm, &inputs.trace[..warm]);

    let begun = Instant::now();
    let base = {
        let _s = span("core.checkpoint.checkpoint_full");
        fm.checkpoint(CaptureMode::Full)
    };
    let full_ms = ms(begun);
    std::hint::black_box(&base);

    feed_switch(&mut fm, &inputs.trace[..warm.min(BLOCK)]);
    let begun = Instant::now();
    let delta = {
        let _s = span("core.checkpoint.checkpoint_delta");
        fm.checkpoint(CaptureMode::Delta)
    };
    let delta_us = ms(begun) * 1e3;
    let delta_payload_buckets = delta.payload_buckets();

    // The anchor holds every packet fed so far; only control ops follow
    // it, so nothing the recovery cannot see is missing from it.
    let anchor = fm.checkpoint(CaptureMode::Full);
    let begun = Instant::now();
    let restored = {
        let _s = span("core.checkpoint.restore");
        FlyMon::restore(&anchor)
    };
    let restore_ms = ms(begun);
    let restored = restored.map_err(|e| format!("restore: {e}"))?;
    rows_equal(&fm, &restored, &handles, &spec.resident, "restored")?;

    let extra = fm
        .deploy(&spec.extra)
        .map_err(|e| format!("deploying the extra task: {e}"))?;
    handles[0] = fm
        .reallocate_memory(handles[0], spec.resident[0].memory / 2)
        .map_err(|e| format!("reallocating task 0: {e}"))?;
    fm.remove(extra)
        .map_err(|e| format!("removing the extra task: {e}"))?;
    let begun = Instant::now();
    let recovered = {
        let _s = span("core.checkpoint.recover");
        FlyMon::recover(fm.wal().expect("the WAL was attached above"), &anchor)
    };
    let recover_ms = ms(begun);
    let recovered = recovered.map_err(|e| format!("recover: {e}"))?;
    let mut resized = spec.resident.clone();
    resized[0].memory /= 2;
    rows_equal(&fm, &recovered, &handles, &resized, "recovered")?;
    if recovered.task_count() != spec.resident.len() {
        return Err(format!(
            "recovered switch hosts {} tasks",
            recovered.task_count()
        ));
    }
    Ok(Recovery {
        full_ms,
        delta_us,
        delta_payload_buckets,
        restore_ms,
        recover_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = r#"{"replay_single": {"1": {"agree": "0x00000000000000aa", "warm": "0x00000000000000bb"}}}"#;

    #[test]
    fn golden_accepts_the_committed_digests_and_uncovered_seeds() {
        let got = Digests {
            agree: 0xaa,
            warm: 0xbb,
        };
        assert_eq!(compare_golden(FILE, "replay_single", "1", got), Ok(true));
        assert_eq!(compare_golden(FILE, "replay_single", "7", got), Ok(false));
        assert_eq!(
            compare_golden(FILE, "replay_single", "smoke-1", got),
            Ok(false)
        );
        assert_eq!(compare_golden(FILE, "replay_mix", "1", got), Ok(false));
    }

    #[test]
    fn a_corrupted_digest_is_an_error() {
        let got = Digests {
            agree: 0xaa,
            warm: 0xbb,
        };
        let corrupted = FILE.replace("00bb", "00bc");
        let err = compare_golden(&corrupted, "replay_single", "1", got).unwrap_err();
        assert!(err.contains("warm digest"), "{err}");
        let err = compare_golden(FILE, "replay_single", "1", Digests { agree: 0xab, ..got });
        assert!(err.is_err());
        assert!(compare_golden("{not json", "replay_single", "1", got).is_err());
    }

    #[test]
    fn the_committed_golden_file_parses_and_covers_every_workload() {
        let parsed = Json::parse(GOLDEN).expect("golden.json parses");
        for name in crate::spec::WORKLOADS.map(|w| w.name) {
            for seed in GOLDEN_SEEDS {
                for smoke in [false, true] {
                    let key = golden_key(seed, smoke);
                    let entry = parsed.get(name).and_then(|w| w.get(&key));
                    assert!(entry.is_some(), "{name} {key} missing from golden.json");
                }
            }
        }
    }
}
