//! Brute-force exact answers for every attribute the paper measures.
//!
//! Every accuracy experiment compares a sketch estimate against the exact
//! statistic; this module computes those statistics by direct enumeration.
//! Its maps hash with std's SipHash under fixed keys, as univmon's top-k
//! does, so they iterate in the same order on every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, DefaultHasher};

use flymon_packet::{FlowKeyBytes, KeySpec, Packet};

/// A per-flow map under fixed hash keys: the type of every map this
/// module returns.
pub type FlowMap<V> = HashMap<FlowKeyBytes, V, BuildHasherDefault<DefaultHasher>>;

/// A set of flows under fixed hash keys.
type FlowSet = HashSet<FlowKeyBytes, BuildHasherDefault<DefaultHasher>>;

/// Exact statistics of one trace under one flow key.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    key: KeySpec,
    /// Exact per-flow packet/byte counts (value chosen at construction);
    /// its iteration order repeats across runs.
    pub frequency: FlowMap<u64>,
}

impl GroundTruth {
    /// Exact per-flow *packet counts* under `key` — the
    /// `Frequency(Const(1))` attribute.
    pub fn packet_counts(trace: &[Packet], key: KeySpec) -> Self {
        Self::frequency(trace, key, |_| 1)
    }

    /// Exact per-flow *byte counts* under `key` — `Frequency(PktBytes)`.
    pub fn byte_counts(trace: &[Packet], key: KeySpec) -> Self {
        Self::frequency(trace, key, |p| u64::from(p.len))
    }

    /// Exact per-flow accumulation of an arbitrary parameter.
    pub fn frequency(trace: &[Packet], key: KeySpec, param: impl Fn(&Packet) -> u64) -> Self {
        let mut frequency = FlowMap::default();
        for p in trace {
            *frequency.entry(key.extract(p)).or_insert(0) += param(p);
        }
        GroundTruth { key, frequency }
    }

    /// The key this truth was computed under.
    pub fn key(&self) -> KeySpec {
        self.key
    }

    /// Number of distinct flows.
    pub fn cardinality(&self) -> usize {
        self.frequency.len()
    }

    /// Flows whose count meets `threshold` — heavy hitters.
    pub fn heavy_hitters(&self, threshold: u64) -> HashSet<FlowKeyBytes> {
        self.frequency
            .iter()
            .filter(|&(_, &c)| c >= threshold)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Flow-size distribution: `dist[s]` = number of flows with exactly
    /// `s` packets (index 0 unused).
    pub fn size_distribution(&self) -> Vec<u64> {
        let max = self.frequency.values().max().copied().unwrap_or(0) as usize;
        let mut dist = vec![0u64; max + 1];
        for &c in self.frequency.values() {
            dist[c as usize] += 1;
        }
        dist
    }

    /// Empirical flow entropy `-Σ (f_i/T) ln(f_i/T)` (natural log; the
    /// RE metric is scale-free so the base does not matter as long as the
    /// estimate uses the same one).
    pub fn entropy(&self) -> f64 {
        entropy_of_counts(self.frequency.values().copied())
    }
}

/// Entropy of a multiset given its per-class counts.
pub fn entropy_of_counts(counts: impl IntoIterator<Item = u64>) -> f64 {
    let counts: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            -p * p.ln()
        })
        .sum()
}

/// Exact distinct-count of `param_key` values per `key` flow — the
/// `Distinct(param)` attribute (DDoS victims: key = DstIP, param = SrcIP).
pub fn distinct_counts(trace: &[Packet], key: KeySpec, param_key: KeySpec) -> FlowMap<u64> {
    let mut sets: FlowMap<FlowSet> = FlowMap::default();
    for p in trace {
        sets.entry(key.extract(p))
            .or_default()
            .insert(param_key.extract(p));
    }
    sets.into_iter().map(|(k, s)| (k, s.len() as u64)).collect()
}

/// Exact per-flow maximum of a parameter — the `Max(param)` attribute.
pub fn max_values(trace: &[Packet], key: KeySpec, param: impl Fn(&Packet) -> u64) -> FlowMap<u64> {
    let mut out: FlowMap<u64> = FlowMap::default();
    for p in trace {
        let v = param(p);
        out.entry(key.extract(p))
            .and_modify(|m| *m = (*m).max(v))
            .or_insert(v);
    }
    out
}

/// Exact per-flow *maximum packet inter-arrival time* in nanoseconds —
/// the combinatorial task of §4. Flows seen only once have no interval
/// and are omitted.
pub fn max_intervals(trace: &[Packet], key: KeySpec) -> FlowMap<u64> {
    let mut last_seen: FlowMap<u64> = FlowMap::default();
    let mut max_int: FlowMap<u64> = FlowMap::default();
    for p in trace {
        let k = key.extract(p);
        if let Some(prev) = last_seen.insert(k, p.ts_ns) {
            let interval = p.ts_ns.saturating_sub(prev);
            max_int
                .entry(k)
                .and_modify(|m| *m = (*m).max(interval))
                .or_insert(interval);
        }
    }
    max_int
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{DdosConfig, TraceConfig, TraceGenerator};
    use flymon_packet::PacketBuilder;
    use std::collections::{BTreeMap, BTreeSet};

    fn p(src: u32, dst: u32, ts: u64, len: u16) -> Packet {
        PacketBuilder::new()
            .src_ip(src)
            .dst_ip(dst)
            .ts_ns(ts)
            .len(len)
            .build()
    }

    #[test]
    fn packet_counts_by_src() {
        let trace = vec![p(1, 9, 0, 64), p(1, 8, 1, 64), p(2, 9, 2, 64)];
        let gt = GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
        assert_eq!(gt.cardinality(), 2);
        let k1 = KeySpec::SRC_IP.extract(&trace[0]);
        assert_eq!(gt.frequency[&k1], 2);
    }

    #[test]
    fn byte_counts_accumulate_lengths() {
        let trace = vec![p(1, 9, 0, 100), p(1, 9, 1, 200)];
        let gt = GroundTruth::byte_counts(&trace, KeySpec::SRC_IP);
        let k = KeySpec::SRC_IP.extract(&trace[0]);
        assert_eq!(gt.frequency[&k], 300);
    }

    #[test]
    fn heavy_hitters_respect_threshold() {
        let mut trace = Vec::new();
        for _ in 0..10 {
            trace.push(p(1, 9, 0, 64));
        }
        trace.push(p(2, 9, 0, 64));
        let gt = GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
        let hh = gt.heavy_hitters(10);
        assert_eq!(hh.len(), 1);
        assert!(hh.contains(&KeySpec::SRC_IP.extract(&trace[0])));
    }

    #[test]
    fn size_distribution_counts_flows_not_packets() {
        let trace = vec![p(1, 9, 0, 64), p(1, 9, 1, 64), p(2, 9, 2, 64)];
        let gt = GroundTruth::packet_counts(&trace, KeySpec::SRC_IP);
        let dist = gt.size_distribution();
        assert_eq!(dist[1], 1); // one flow of size 1
        assert_eq!(dist[2], 1); // one flow of size 2
    }

    #[test]
    fn entropy_of_uniform_counts() {
        // 4 equal classes -> ln(4).
        let h = entropy_of_counts([5, 5, 5, 5]);
        assert!((h - 4.0f64.ln()).abs() < 1e-12);
        // Single class -> 0.
        assert_eq!(entropy_of_counts([42]), 0.0);
        assert_eq!(entropy_of_counts([]), 0.0);
    }

    #[test]
    fn distinct_counts_ddos_shape() {
        // Victim 9 gets 3 distinct sources; victim 8 gets 1.
        let trace = vec![
            p(1, 9, 0, 64),
            p(2, 9, 1, 64),
            p(3, 9, 2, 64),
            p(1, 9, 3, 64), // repeat source, must not count twice
            p(1, 8, 4, 64),
        ];
        let d = distinct_counts(&trace, KeySpec::DST_IP, KeySpec::SRC_IP);
        assert_eq!(d[&KeySpec::DST_IP.extract(&trace[0])], 3);
        assert_eq!(d[&KeySpec::DST_IP.extract(&trace[4])], 1);
    }

    #[test]
    fn max_values_track_maxima() {
        let trace = vec![p(1, 9, 0, 100), p(1, 9, 1, 1500), p(1, 9, 2, 600)];
        let m = max_values(&trace, KeySpec::SRC_IP, |p| u64::from(p.len));
        assert_eq!(m[&KeySpec::SRC_IP.extract(&trace[0])], 1500);
    }

    #[test]
    fn max_intervals_need_two_packets() {
        let trace = vec![p(1, 9, 100, 64), p(2, 9, 150, 64), p(1, 9, 400, 64)];
        let m = max_intervals(&trace, KeySpec::SRC_IP);
        assert_eq!(m[&KeySpec::SRC_IP.extract(&trace[0])], 300);
        assert!(!m.contains_key(&KeySpec::SRC_IP.extract(&trace[1])));
    }

    #[test]
    fn maps_equal_a_btreemap_reference() {
        let cfg = TraceConfig {
            flows: 1_500,
            packets: 12_000,
            ..TraceConfig::default()
        };
        let wide = TraceGenerator::new(21).wide_like(&cfg);
        let ddos_cfg = DdosConfig {
            background: cfg,
            victims: 4,
            sources_per_victim: 300,
            packets_per_source: 2,
        };
        let (ddos, _) = TraceGenerator::new(22).ddos(&ddos_cfg);
        let keys = [
            KeySpec::SRC_IP,
            KeySpec::DST_IP,
            KeySpec::IP_PAIR,
            KeySpec::FIVE_TUPLE,
            KeySpec::src_ip_slash(24),
        ];
        let sorted = |m: &FlowMap<u64>| -> BTreeMap<Vec<u8>, u64> {
            m.iter().map(|(k, &v)| (k.as_bytes().to_vec(), v)).collect()
        };
        for trace in [&wide, &ddos] {
            for key in keys {
                let mut packets = BTreeMap::new();
                let mut bytes = BTreeMap::new();
                let mut sources: BTreeMap<Vec<u8>, BTreeSet<Vec<u8>>> = BTreeMap::new();
                for p in trace.iter() {
                    let k = key.extract(p).as_bytes().to_vec();
                    *packets.entry(k.clone()).or_insert(0) += 1;
                    *bytes.entry(k.clone()).or_insert(0) += u64::from(p.len);
                    let src = KeySpec::SRC_IP.extract(p).as_bytes().to_vec();
                    sources.entry(k).or_default().insert(src);
                }
                let distinct: BTreeMap<Vec<u8>, u64> = sources
                    .into_iter()
                    .map(|(k, s)| (k, s.len() as u64))
                    .collect();
                let gt = GroundTruth::packet_counts(trace, key);
                assert_eq!(
                    sorted(&gt.frequency),
                    packets,
                    "packet counts under {key:?}"
                );
                assert_eq!(gt.cardinality(), packets.len());
                let gt = GroundTruth::byte_counts(trace, key);
                assert_eq!(sorted(&gt.frequency), bytes, "byte counts under {key:?}");
                let d = distinct_counts(trace, key, KeySpec::SRC_IP);
                assert_eq!(sorted(&d), distinct, "distinct sources under {key:?}");
            }
        }
    }
}
