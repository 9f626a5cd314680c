//! A software model of an RMT (Reconfigurable Match Table) switch pipeline.
//!
//! The FlyMon paper prototypes on an Intel Tofino. This crate is the
//! substitute substrate: it models the pieces of RMT hardware that
//! FlyMon's design actually leans on, with the *same constraints* the
//! hardware imposes — because those constraints are what make FlyMon's
//! contribution non-trivial:
//!
//! - [`hash`]: hash units as CRC-based 32-bit digests with **dynamic hash
//!   masks** (the `tna_dyn_hashing` feature of SDE 9.7.0, §3.1.1): the
//!   unit's input is wired to the whole candidate key set at compile time;
//!   runtime rules select which fields enter the digest.
//! - [`register`]: stateful memory with geometry (bucket count and bit
//!   width) frozen at compile time — the constraint that motivates
//!   FlyMon's address translation (§3.3).
//! - [`salu`]: stateful ALUs that can pre-load at most
//!   [`salu::MAX_REGISTER_ACTIONS`] register actions and access their
//!   register once per packet — the constraints behind the reduced
//!   operation set (§3.1.2) and the one-task-per-packet limitation (§3.3).
//! - [`resources`]: the Tofino resource model — per-stage capacities and
//!   a [`resources::ResourceVector`] bookkeeping type; includes the
//!   `switch.p4` baseline occupancy used by Figure 13a.
//! - [`stacking`]: cross-stacked placement of CMU Groups over MAU stages
//!   (§3.2 Figure 8), including the Appendix E mirror/recirculate splicing.
//! - [`rules`]: runtime rule kinds and the measured install-latency model
//!   the control plane uses for Table 3's deployment delays.
//! - [`checkpoint`]: versioned register-file snapshots (full and
//!   dirty-delta) with restore-to-bit-identical semantics — the state
//!   capture half of the control plane's recovery story.
//! - [`fault`]: deterministic fault injection for install-time operations
//!   (failed rule installs, dead groups, flaky channels) plus bounded
//!   retry-with-backoff — the adversary the control plane's transactional
//!   reconfiguration is tested against.
//!
//! Nothing here knows about sketches or tasks: this crate is "hardware".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fault;
pub mod hash;
pub mod pipeline;
pub mod register;
pub mod resources;
pub mod rules;
pub mod salu;
pub mod stacking;

/// Errors surfaced by the RMT substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmtError {
    /// A resource capacity would be exceeded (which resource, requested,
    /// available).
    CapacityExceeded {
        /// Human-readable resource name.
        resource: &'static str,
        /// Units requested by the failed operation.
        requested: u64,
        /// Units still available.
        available: u64,
    },
    /// A SALU already has its maximum number of pre-loaded register
    /// actions.
    RegisterActionsFull,
    /// An index (stage, unit, bucket, ...) was out of range.
    IndexOutOfRange {
        /// What kind of index was out of range.
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive upper bound.
        limit: usize,
    },
    /// A rule referenced an entity that does not exist.
    NoSuchEntity(&'static str),
    /// A checkpoint snapshot did not match the target register's
    /// geometry, format version, or count (what was mismatched).
    CheckpointMismatch(&'static str),
}

impl std::fmt::Display for RmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmtError::CapacityExceeded {
                resource,
                requested,
                available,
            } => write!(
                f,
                "capacity exceeded for {resource}: requested {requested}, available {available}"
            ),
            RmtError::RegisterActionsFull => {
                write!(f, "SALU register-action slots exhausted")
            }
            RmtError::IndexOutOfRange { what, index, limit } => {
                write!(f, "{what} index {index} out of range (limit {limit})")
            }
            RmtError::NoSuchEntity(what) => write!(f, "no such {what}"),
            RmtError::CheckpointMismatch(what) => {
                write!(f, "checkpoint mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for RmtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = RmtError::CapacityExceeded {
            resource: "TCAM entries",
            requested: 100,
            available: 7,
        };
        let s = e.to_string();
        assert!(s.contains("TCAM"));
        assert!(s.contains("100"));
        assert!(s.contains('7'));
        assert!(RmtError::RegisterActionsFull.to_string().contains("SALU"));
        let i = RmtError::IndexOutOfRange {
            what: "stage",
            index: 13,
            limit: 12,
        };
        assert!(i.to_string().contains("stage"));
        assert!(RmtError::NoSuchEntity("task").to_string().contains("task"));
    }
}
