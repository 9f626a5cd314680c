//! Shared plumbing for the figure/table regenerators.
//!
//! One binary per table/figure of the paper lives under `src/bin/`; this
//! library holds the pieces they share: canonical workloads, memory-sweep
//! helpers, heavy-hitter scoring and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};

use flymon_packet::{FlowKeyBytes, KeySpec, Packet};
use flymon_traffic::gen::{TraceConfig, TraceGenerator};
use flymon_traffic::ground_truth::GroundTruth;
use flymon_traffic::metrics::{f1_score, F1};

/// The canonical evaluation trace ("WIDE-like", §5.3 scale-down): 50K
/// flows, ~1.5M packets over 15 s. Heavy-tailed, so the 1024-packet
/// heavy-hitter threshold catches roughly the top hundred flows.
pub fn eval_trace() -> Vec<Packet> {
    TraceGenerator::new(0x51DE).wide_like(&TraceConfig {
        flows: 50_000,
        packets: 1_500_000,
        zipf_alpha: 1.1,
        duration_ns: 15_000_000_000,
        seed: 0x51DE,
    })
}

/// A smaller trace for the quick sweeps (30 s halved scale).
pub fn small_trace() -> Vec<Packet> {
    TraceGenerator::new(0x31DE).wide_like(&TraceConfig {
        flows: 20_000,
        packets: 600_000,
        zipf_alpha: 1.1,
        duration_ns: 15_000_000_000,
        seed: 0x31DE,
    })
}

/// One representative packet per flow of `key` — queries replay the
/// data-plane path, so they need a packet, not just key bytes.
pub fn representatives(trace: &[Packet], key: KeySpec) -> HashMap<FlowKeyBytes, Packet> {
    let mut map = HashMap::new();
    for p in trace {
        map.entry(key.extract(p)).or_insert(*p);
    }
    map
}

/// Scores a reported heavy-hitter set against exact per-flow counts.
pub fn score_heavy_hitters(
    truth: &GroundTruth,
    threshold: u64,
    reported: &HashSet<FlowKeyBytes>,
) -> F1 {
    let true_set = truth.heavy_hitters(threshold);
    f1_score(reported, &true_set)
}

/// Renders a fixed-width table with a header row.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain([h.len()])
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let render = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", render(headers.iter().map(|s| s.to_string()).collect()));
    for row in rows {
        println!("{}", render(row.clone()));
    }
    println!();
}

/// Formats a byte count the way the paper labels its x-axes.
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.0} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representatives_cover_every_flow() {
        let trace = small_trace();
        let reps = representatives(&trace, KeySpec::SRC_IP);
        let truth = GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
        assert_eq!(reps.len(), truth.cardinality());
        for (k, p) in reps.iter().take(100) {
            assert_eq!(&KeySpec::SRC_IP.extract(p), k);
        }
    }

    #[test]
    fn eval_trace_has_heavy_hitters_at_paper_threshold() {
        let trace = small_trace();
        let truth = GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
        let hh = truth.heavy_hitters(1024);
        assert!(
            hh.len() >= 10 && hh.len() <= 500,
            "want a plausible HH population, got {}",
            hh.len()
        );
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(16), "16 B");
        assert_eq!(fmt_bytes(10 * 1024), "10 KB");
        assert_eq!(fmt_bytes(5 * 1024 * 1024), "5.0 MB");
    }
}
