//! MRAC (Kumar, Sung, Xu, Wang, SIGMETRICS 2004): flow-size distribution
//! estimation from a plain counter array, via expectation maximization.
//!
//! The data plane is a single hashed counter array — identical to a 1-row
//! CMS (which is why FlyMon hosts MRAC and CMS with the same CMU rules,
//! Appendix D). All the intelligence is the control-plane EM that
//! de-convolves hash collisions out of the observed counter histogram.

use flymon_rmt::hash::murmur3_32;

/// Cap on the counter values handled by the EM convolution; larger
/// counters are almost surely single heavy flows (collisions of two heavy
/// flows are vanishingly rare) and are passed through exactly.
const EM_VALUE_CAP: usize = 1024;

/// An MRAC sketch: one hashed counter array + EM estimator.
#[derive(Debug, Clone)]
pub struct Mrac {
    counters: Vec<u32>,
}

impl Mrac {
    /// Creates an array of `m` counters.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "MRAC needs at least one counter");
        Mrac {
            counters: vec![0; m],
        }
    }

    /// Creates an array within `bytes` (32-bit counters).
    pub fn with_memory(bytes: usize) -> Self {
        Self::new((bytes / 4).max(1))
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.counters.len() * 4
    }

    /// Counts one packet of `key`.
    pub fn update(&mut self, key: &[u8]) {
        let i = murmur3_32(0x313a_c000, key) as usize % self.counters.len();
        self.counters[i] = self.counters[i].saturating_add(1);
    }

    /// Total packets observed (the column sums are exact).
    pub fn total_packets(&self) -> u64 {
        self.counters.iter().map(|&c| u64::from(c)).sum()
    }

    /// Resets all counters.
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }

    /// Read-only counter view (differential tests against the CMU host).
    pub fn counters(&self) -> &[u32] {
        &self.counters
    }
}

/// Linear-counting flow estimate from a raw counter array.
pub fn flow_count_from_counters(counters: &[u32]) -> f64 {
    let m = counters.len() as f64;
    let zeros = counters.iter().filter(|&&c| c == 0).count() as f64;
    if zeros == 0.0 {
        m * m.ln()
    } else {
        m * (m / zeros).ln()
    }
}

/// The MRAC EM estimator over a raw counter array — shared between the
/// software baseline and FlyMon's control-plane analysis, which reads the
/// same shape of counters out of a CMU register (§4, Appendix D).
///
/// The E-step models each occupied counter as holding 1 or 2 flows
/// (Poisson-weighted); 3-way collisions are negligible at the load
/// factors MRAC is provisioned for, and counters above the EM value cap
/// are taken as single heavy flows verbatim.
pub fn estimate_distribution_from_counters(counters: &[u32], iterations: usize) -> Vec<f64> {
    let m = counters.len() as f64;
    let n_hat = flow_count_from_counters(counters);
    let lambda = (n_hat / m).min(4.0);
    // Poisson weights for 1 vs 2 flows in an occupied counter.
    let p1_raw = lambda * (-lambda).exp();
    let p2_raw = lambda * lambda / 2.0 * (-lambda).exp();
    let (p1, p2) = if p1_raw + p2_raw == 0.0 {
        (1.0, 0.0)
    } else {
        (p1_raw / (p1_raw + p2_raw), p2_raw / (p1_raw + p2_raw))
    };

    // Histogram of counter values, split at the EM cap.
    let mut hist = vec![0u64; EM_VALUE_CAP + 1];
    let mut max_value = 0usize;
    let mut passthrough: Vec<u32> = Vec::new();
    for &c in counters {
        let v = c as usize;
        if v == 0 {
            continue;
        }
        if v <= EM_VALUE_CAP {
            hist[v] += 1;
            max_value = max_value.max(v);
        } else {
            passthrough.push(c);
            max_value = max_value.max(v);
        }
    }

    // φ over sizes 1..=EM_VALUE_CAP, initialized from the histogram.
    let cap = EM_VALUE_CAP.min(max_value.max(1));
    let mut phi = vec![0.0f64; cap + 1];
    let total_occ: u64 = hist.iter().sum();
    if total_occ > 0 {
        for v in 1..=cap {
            phi[v] = hist[v] as f64 / total_occ as f64;
        }
    }

    let mut counts = vec![0.0f64; cap + 1];
    for _ in 0..iterations.max(1) {
        counts.fill(0.0);
        for v in 1..=cap {
            if hist[v] == 0 {
                continue;
            }
            let hv = hist[v] as f64;
            let w1 = p1 * phi[v];
            // conv[v] = Σ_s φ(s)·φ(v-s) over ordered compositions.
            let mut conv = 0.0;
            if v >= 2 {
                for s in 1..v {
                    conv += phi[s] * phi[v - s];
                }
            }
            let w2 = p2 * conv;
            if w1 + w2 <= 0.0 {
                counts[v] += hv; // no explanation: keep verbatim
                continue;
            }
            let single = hv * w1 / (w1 + w2);
            counts[v] += single;
            let pairs = hv * w2 / (w1 + w2);
            if conv > 0.0 {
                for s in 1..v {
                    // Each pair-counter holds two flows; ordered
                    // composition symmetry distributes both.
                    counts[s] += 2.0 * pairs * phi[s] * phi[v - s] / conv;
                }
            }
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for v in 1..=cap {
                phi[v] = counts[v] / total;
            }
        }
    }

    // Assemble the final distribution including heavy passthroughs.
    let mut dist = vec![0.0f64; max_value + 1];
    dist[..=cap].copy_from_slice(&counts[..=cap]);
    for c in passthrough {
        dist[c as usize] += 1.0;
    }
    dist
}

/// Entropy estimate from a raw counter array:
/// `H = ln T − (1/T)·Σ_s n_s·s·ln s` with `T` the exact packet total
/// (the column sum of the counters, which is exact).
pub fn entropy_from_counters(counters: &[u32], iterations: usize) -> f64 {
    let t: f64 = counters.iter().map(|&c| f64::from(c)).sum();
    if t == 0.0 {
        return 0.0;
    }
    let dist = estimate_distribution_from_counters(counters, iterations);
    let weighted: f64 = dist
        .iter()
        .enumerate()
        .skip(1)
        .map(|(s, &n)| n * s as f64 * (s as f64).ln())
        .sum();
    (t.ln() - weighted / t).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_flows(mrac: &mut Mrac, flows: &[(u32, u32)]) {
        for &(id, size) in flows {
            for _ in 0..size {
                mrac.update(&id.to_be_bytes());
            }
        }
    }

    #[test]
    fn totals_are_exact() {
        let mut m = Mrac::new(1024);
        feed_flows(&mut m, &[(1, 10), (2, 20), (3, 5)]);
        assert_eq!(m.total_packets(), 35);
    }

    #[test]
    fn flow_count_estimate_tracks_truth() {
        let mut m = Mrac::new(1 << 14);
        let flows: Vec<(u32, u32)> = (0..3_000).map(|i| (i, 1)).collect();
        feed_flows(&mut m, &flows);
        let est = flow_count_from_counters(m.counters());
        assert!((est - 3_000.0).abs() / 3_000.0 < 0.05, "estimate {est}");
    }

    #[test]
    fn distribution_recovers_two_sizes() {
        // 1000 flows of size 1, 100 flows of size 10, enough memory that
        // collisions are the exception EM must explain away.
        let mut m = Mrac::new(1 << 13);
        let mut flows = Vec::new();
        for i in 0..1_000 {
            flows.push((i, 1u32));
        }
        for i in 1_000..1_100 {
            flows.push((i, 10u32));
        }
        feed_flows(&mut m, &flows);
        let dist = estimate_distribution_from_counters(m.counters(), 10);
        assert!(
            (dist[1] - 1_000.0).abs() < 120.0,
            "size-1 estimate {}",
            dist[1]
        );
        assert!(
            (dist[10] - 100.0).abs() < 25.0,
            "size-10 estimate {}",
            dist[10]
        );
    }

    #[test]
    fn entropy_estimate_close_to_truth() {
        use flymon_traffic::ground_truth::entropy_of_counts;
        let mut m = Mrac::new(1 << 14);
        let flows: Vec<(u32, u32)> = (0..2_000).map(|i| (i, i % 20 + 1)).collect();
        feed_flows(&mut m, &flows);
        let truth = entropy_of_counts(flows.iter().map(|&(_, s)| u64::from(s)));
        let est = entropy_from_counters(m.counters(), 10);
        let re = (truth - est).abs() / truth;
        assert!(
            re < 0.1,
            "entropy RE {re:.4} (est {est:.3}, truth {truth:.3})"
        );
    }

    #[test]
    fn heavy_flows_pass_through_exactly() {
        let mut m = Mrac::new(1 << 12);
        feed_flows(&mut m, &[(1, 5_000)]);
        let dist = estimate_distribution_from_counters(m.counters(), 5);
        assert_eq!(dist[5_000], 1.0);
    }

    #[test]
    fn empty_sketch_is_clean() {
        let m = Mrac::new(64);
        assert_eq!(m.total_packets(), 0);
        assert_eq!(entropy_from_counters(m.counters(), 3), 0.0);
    }
}
