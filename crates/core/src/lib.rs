//! FlyMon: on-the-fly task reconfiguration for network measurement.
//!
//! A from-scratch Rust reproduction of the SIGCOMM 2022 paper
//! *FlyMon: Enabling On-the-Fly Task Reconfiguration for Network
//! Measurement* (Zheng et al.), running on the software RMT substrate of
//! [`flymon_rmt`].
//!
//! # The idea
//!
//! A measurement *task* is a flow key × a flow attribute × a memory size.
//! Binding tasks to hardware at compile time costs `O(m·n)` resources for
//! `m` keys and `n` attributes; FlyMon decomposes execution into a
//! runtime-reconfigurable **key-selection phase** and
//! **attribute-operation phase**, hosted by *Composable Measurement
//! Units* (CMUs), dropping the cost to near-constant.
//!
//! # Crate layout
//!
//! - [`task`]: the task algebra — [`task::Attribute`]s,
//!   [`task::TaskDefinition`]s, built-in [`task::Algorithm`]s.
//! - [`group`]: the data plane — [`group::CmuGroup`] with its four
//!   pipeline stages, swept a chunk of packets at a time
//!   ([`control::FlyMon::process_batch`]).
//! - [`keysel`] / [`params`] / [`prep`] / [`addr`]: the reconfigurable
//!   pieces a CMU binding is assembled from (key selection, parameter
//!   sourcing, preparation-stage processing, address translation).
//! - [`program`]: the install-time compilation of a group's live
//!   bindings into the dense [`program::GroupProgram`] the stage-major
//!   batch path executes.
//! - [`oracle`]: the reference semantics — the same bindings
//!   interpreted one packet at a time, which every batch result is held
//!   bit-identical to. Tests import it; nothing in [`prelude`] does.
//! - [`alloc`]: the buddy allocator behind dynamic memory management.
//! - [`compiler`]: lowers a task definition onto concrete CMUs and counts
//!   rules/resources (Table 3 deployment delays, Figure 2/13 footprints).
//! - [`control`]: the control plane — [`control::FlyMon`], the top-level
//!   handle applications use. Deploy/remove/reallocate are transactional:
//!   failed installs roll back via an undo log.
//! - [`audit`]: the control/data-plane state auditor — reconciles shadow
//!   state against the data plane after reconfiguration.
//! - [`wal`]: the control-plane write-ahead log — every mutating call
//!   appends an intent before touching state.
//! - [`checkpoint`]: whole-switch checkpoints and checkpoint+WAL
//!   recovery ([`control::FlyMon::recover`]).
//! - [`analysis`]: control-plane estimators (readout → statistics).
//!
//! # Quickstart
//!
//! ```
//! use flymon::prelude::*;
//! use flymon_packet::Packet;
//!
//! // A switch with two CMU Groups of 3 CMUs, 4096 buckets each.
//! let mut flymon = FlyMon::new(FlyMonConfig {
//!     groups: 2,
//!     buckets_per_cmu: 4096,
//!     ..FlyMonConfig::default()
//! });
//!
//! // Deploy a per-source packet counter with 3x2048 buckets. A task is
//! // one line of the task grammar ([`task`]); it prints back the same.
//! let line = "per-src-frequency key=SrcIP attr=frequency mem=2048";
//! let task: TaskDefinition = line.parse().expect("a well-formed task line");
//! assert_eq!(task.to_string(), line);
//! let handle = flymon.deploy(&task).expect("deploys");
//!
//! // Feed packets: the data plane takes them a slice at a time.
//! let packets: Vec<Packet> = (0..100u32)
//!     .map(|i| Packet::tcp(0x0a000001, i, 80, 80))
//!     .collect();
//! flymon.process_batch(&packets);
//!
//! // Query: per-flow estimate for a representative packet.
//! let est = flymon.query_frequency(handle, &Packet::tcp(0x0a000001, 7, 80, 80));
//! assert!(est >= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod alloc;
pub mod analysis;
pub mod audit;
pub mod checkpoint;
pub mod compiler;
pub mod control;
pub mod group;
pub mod keysel;
pub mod oracle;
pub mod params;
pub mod prep;
pub mod program;
pub mod scratch;
pub mod task;
pub mod wal;

mod error;

pub use error::FlymonError;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::audit::Divergence;
    pub use crate::checkpoint::SwitchCheckpoint;
    pub use crate::control::{BatchStats, FlyMon, FlyMonConfig, TaskHandle};
    pub use crate::wal::WriteAheadLog;
    pub use flymon_rmt::checkpoint::CaptureMode;
    pub use crate::scratch::ReadoutScratch;
    pub use crate::task::{Algorithm, Attribute, FreqParam, MaxParam, TaskDefinition};
    pub use crate::FlymonError;
    pub use flymon_rmt::fault::{FaultPlan, InstallOpKind, RetryPolicy};
}
