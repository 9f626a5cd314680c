//! Workload generation, ground truth and accuracy metrics.
//!
//! The paper evaluates on a WIDE backbone trace (§5.3) and on iPerf
//! traffic; neither is available here, so this crate provides the
//! documented synthetic equivalents (DESIGN.md, "Substitutions"):
//!
//! - [`zipf`]: a Zipf sampler implemented from scratch (flow sizes in
//!   backbone traces are heavy-tailed; Zipf with α ≈ 1.0–1.3 is the
//!   standard stand-in).
//! - [`gen`]: trace generators — WIDE-like mixed traffic, DDoS victim
//!   scenarios, port scans, and the traffic-spike timeline of Fig. 12b.
//! - [`ground_truth`]: exact answers (per-flow frequency, distinct counts,
//!   maxima, cardinality, flow-size distribution, entropy, heavy hitters)
//!   computed by brute force for comparison against sketch estimates.
//! - [`metrics`]: ARE / RE / F1 / FP exactly as defined in Appendix C.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod ground_truth;
pub mod io;
pub mod metrics;
pub mod pcap;
pub mod zipf;

pub use gen::{
    sort_arrivals, AttackSpec, DdosConfig, Phase, PhasedConfig, PhasedSource, ShiftPhase,
    ShiftingConfig, ShiftingSource, SpikeConfig, TraceConfig, TraceGenerator,
};
pub use ground_truth::GroundTruth;
pub use metrics::{average_relative_error, f1_score, false_positive_rate, relative_error, wmre};
pub use zipf::Zipf;
