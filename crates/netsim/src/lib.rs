//! Switch-level simulation: the system experiments of §5.1.
//!
//! Two simulations substitute for the paper's hardware testbed
//! (Tofino + two iPerf servers on 100 Gbps NICs):
//!
//! - [`forwarding`]: the Figure 12a experiment — a switch forwarding
//!   ~80–93 Gbps of TCP traffic while reconfiguration events fire every
//!   10 s. FlyMon reconfigures by installing runtime rules (zero traffic
//!   impact, millisecond-scale); the *Static* baseline reloads the P4
//!   pipeline, interrupting traffic for 4–8 s.
//! - [`epochs`]: the Figure 12b experiment — a 20-epoch accuracy
//!   timeline with a flow spike, task insertion/removal and on-the-fly
//!   memory reallocation, comparing FlyMon against a statically
//!   provisioned sketch.
//!
//! [`fleet`] is network-wide measurement: one task on every switch of a
//! fleet, WAL-backed switches and warm-standby failover, and merged
//! readouts bit-identical to a serial single-switch replay for
//! linear/max/OR-mergeable sketches. [`datapath`] holds what its packets
//! and rows go through — the split by source address, the one
//! packet-replay loop and the merge laws — and the private `merged`
//! module states its merged readouts. A replica set of one switch is a
//! healthy fleet ([`ShardedDatapath`] keeps the name). [`adapt`] closes
//! the loop with an epoch-driven controller that grows, shrinks and
//! splits tasks from their own readouts, [`channel`] routes every
//! controller→switch command through a lossy, deterministic control
//! channel (drops, duplicates, reorders, partitions; exactly-once
//! delivery and fencing terms on top), and [`oracle`] is the fleet's
//! test oracle.
//!
//! `unsafe_code` is denied here, not forbidden as at every other crate
//! root of the workspace: [`datapath`]'s two kernels, the row sweep of
//! every merge and the ingress hash of fleet routing, are safe bodies
//! compiled twice, for the build's baseline and for AVX2, and calling
//! the second after `is_x86_feature_detected!` is the one lint
//! exception (`#[allow]` on a private function; CI fails on a second).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod channel;
pub mod datapath;
pub mod epochs;
pub mod fleet;
pub mod forwarding;
pub mod ingest;
mod merged;
pub mod oracle;

pub use adapt::{
    AdaptAction, AdaptiveController, ControllerConfig, ControllerReport, Decision, TaskSignals,
};
pub use channel::{ChannelConfig, ChannelStats, ControlChannel, ScriptStep, TxnResult};
pub use datapath::{MergeLaw, ReplayStats, RowOccupancy, ShardedDatapath};
pub use epochs::{run_accuracy_timeline, AccuracyPoint, EpochTimelineConfig};
pub use fleet::{BoundedEstimate, FleetEpoch, FleetTaskInfo, PacketLedger, SwitchFleet, TaskEpoch};
pub use ingest::{
    AdmissionConfig, BoundedQueue, ChunkSource, IngestConfig, IngestError, IngestFault,
    QueueStats, RuntimeHealth, RuntimeReport, RuntimeStats, StepOutcome, StreamLedger,
    StreamingRuntime, TraceChunks,
};
pub use forwarding::{
    run_forwarding, DeploymentStyle, ForwardingConfig, ReconfigEvent, ThroughputSample,
};
