//! Synthetic trace generators.
//!
//! Stand-ins for the WIDE 2020 backbone trace and the iPerf testbed of the
//! paper's evaluation. Each generator is deterministic given its seed so
//! experiments are reproducible.

use flymon_packet::{Packet, PacketBuilder, SplitMix64};

use crate::zipf::Zipf;

/// Configuration of a WIDE-like mixed trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Number of distinct 5-tuple flows (§5.1 uses ~10K per epoch).
    pub flows: usize,
    /// Total packet budget; per-flow sizes are Zipf-distributed and scaled
    /// to approximately this total.
    pub packets: u64,
    /// Zipf skew of flow sizes (backbone traces: ~1.0–1.3).
    pub zipf_alpha: f64,
    /// Trace duration in nanoseconds (§5.3 uses 15 s and 30 s windows).
    pub duration_ns: u64,
    /// RNG seed; same seed ⇒ identical trace.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            flows: 10_000,
            packets: 500_000,
            zipf_alpha: 1.1,
            duration_ns: 15_000_000_000,
            seed: 0xf17_4075,
        }
    }
}

/// Configuration of a DDoS-victim scenario layered over background
/// traffic: `victims` destination addresses each receive packets from
/// `sources_per_victim` distinct sources (the ground truth for the DDoS
/// victim detection task, §4/§5.3).
#[derive(Debug, Clone, Copy)]
pub struct DdosConfig {
    /// Background traffic.
    pub background: TraceConfig,
    /// Number of attacked destination addresses.
    pub victims: usize,
    /// Distinct attacking sources per victim (the detection threshold in
    /// §5.3 is 512 distinct sources).
    pub sources_per_victim: usize,
    /// Packets sent by each attacking source (1 = pure spoofed SYN flood).
    pub packets_per_source: u32,
}

impl Default for DdosConfig {
    fn default() -> Self {
        DdosConfig {
            background: TraceConfig::default(),
            victims: 20,
            sources_per_victim: 2_000,
            packets_per_source: 1,
        }
    }
}

/// Configuration of the Fig. 12b accuracy timeline: a sequence of epochs
/// with a flow-count spike in the middle.
#[derive(Debug, Clone, Copy)]
pub struct SpikeConfig {
    /// Total number of epochs (paper: 20).
    pub epochs: usize,
    /// Baseline distinct flows per epoch (paper: ~10K).
    pub base_flows: usize,
    /// Extra flows injected during the spike (paper: +30K).
    pub spike_flows: usize,
    /// First epoch (0-based, inclusive) of the spike (paper: epoch 6 of
    /// 1..=20, i.e. index 5).
    pub spike_start: usize,
    /// Last epoch (0-based, inclusive) of the spike (paper: epoch 15,
    /// i.e. index 14).
    pub spike_end: usize,
    /// Packets per epoch at baseline; scaled up proportionally during the
    /// spike.
    pub base_packets: u64,
    /// Epoch duration in nanoseconds.
    pub epoch_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpikeConfig {
    fn default() -> Self {
        SpikeConfig {
            epochs: 20,
            base_flows: 10_000,
            spike_flows: 30_000,
            spike_start: 5,
            spike_end: 14,
            base_packets: 200_000,
            epoch_ns: 1_000_000_000,
            seed: 42,
        }
    }
}

/// One phase of a [`PhasedSource`]: `chunks` pulls at `rate` times the
/// baseline offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// How many chunk pulls this phase lasts.
    pub chunks: usize,
    /// Offered-load multiplier (1.0 = baseline; 10.0 = a 10x burst).
    pub rate: f64,
}

/// Configuration of a [`PhasedSource`].
#[derive(Debug, Clone)]
pub struct PhasedConfig {
    /// Distinct flows in the population (Zipf-ranked).
    pub flows: usize,
    /// Zipf skew of per-packet flow choice.
    pub zipf_alpha: f64,
    /// Packets offered per chunk pull at rate 1.0; a phase at rate `r`
    /// offers `base_chunk * r` per pull.
    pub base_chunk: usize,
    /// Modeled inter-packet gap at rate 1.0; higher rates compress it.
    pub ns_per_packet: u64,
    /// The phase schedule, consumed in order; the source is exhausted
    /// when the last phase ends.
    pub phases: Vec<Phase>,
    /// RNG seed; same seed, same stream.
    pub seed: u64,
}

impl Default for PhasedConfig {
    fn default() -> Self {
        PhasedConfig {
            flows: 5_000,
            zipf_alpha: 1.1,
            base_chunk: 2_048,
            ns_per_packet: 1_000,
            phases: vec![
                Phase { chunks: 8, rate: 1.0 },
                Phase { chunks: 4, rate: 10.0 },
                Phase { chunks: 8, rate: 1.0 },
            ],
            seed: 0x0091_35ED,
        }
    }
}

/// A streaming trace source with phased offered load.
///
/// Unlike [`TraceGenerator`], which materializes whole traces, this
/// source emits one chunk per pull and holds no per-packet state between
/// pulls — memory is bounded by the flow population and the chunk size,
/// never by how long the stream runs. That makes it the workload driver
/// for the streaming ingestion runtime: steady phases establish a
/// baseline, burst phases (e.g. 10x) overrun a bounded queue on purpose.
///
/// Flow identities derive deterministically from `(seed, zipf rank)`.
/// The heaviest eighth of the ranks sources from `10.0.0.0/8`, so a
/// prefix filter on that net is a stable stand-in for a high-priority
/// tenant when exercising priority-aware load shedding.
#[derive(Debug)]
pub struct PhasedSource {
    cfg: PhasedConfig,
    zipf: Zipf,
    rng: SplitMix64,
    phase: usize,
    chunks_in_phase: usize,
    now_ns: u64,
    emitted: u64,
}

impl PhasedSource {
    /// Builds the source; pulls start in the first phase.
    pub fn new(cfg: PhasedConfig) -> Self {
        let zipf = Zipf::new(cfg.flows.max(1), cfg.zipf_alpha);
        let rng = SplitMix64::new(cfg.seed);
        PhasedSource {
            cfg,
            zipf,
            rng,
            phase: 0,
            chunks_in_phase: 0,
            now_ns: 0,
            emitted: 0,
        }
    }

    /// Packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The deterministic 5-tuple of Zipf rank `rank` (0 = heaviest).
    fn flow_of(&self, rank: usize) -> (u32, u32, u16, u16, u8) {
        ranked_flow(self.cfg.seed, self.cfg.flows, rank)
    }

    /// Emits the next chunk, or `None` once every phase has run. Chunk
    /// size scales with the active phase's rate; timestamps advance by
    /// the rate-compressed inter-packet gap, so bursts are denser in
    /// modeled time as well as bigger.
    pub fn next_chunk(&mut self) -> Option<Vec<Packet>> {
        let phase = *self.cfg.phases.get(self.phase)?;
        let count = ((self.cfg.base_chunk as f64) * phase.rate).round().max(1.0) as usize;
        let gap = ((self.cfg.ns_per_packet as f64) / phase.rate.max(1e-9)).max(1.0) as u64;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let rank = self.zipf.sample(&mut self.rng) - 1; // 0-based, 0 = heaviest
            let (src_ip, dst_ip, src_port, dst_port, proto) = self.flow_of(rank);
            self.now_ns += gap;
            out.push(
                PacketBuilder::new()
                    .src_ip(src_ip)
                    .dst_ip(dst_ip)
                    .src_port(src_port)
                    .dst_port(dst_port)
                    .protocol(proto)
                    .len(if proto == 6 { 1400 } else { 128 })
                    .ts_ns(self.now_ns)
                    .build(),
            );
        }
        self.emitted += out.len() as u64;
        self.chunks_in_phase += 1;
        if self.chunks_in_phase >= phase.chunks {
            self.phase += 1;
            self.chunks_in_phase = 0;
        }
        Some(out)
    }
}

/// The deterministic 5-tuple of Zipf rank `rank` (0 = heaviest) in a
/// population of `flows` flows derived from `seed`. Shared by
/// [`PhasedSource`] and [`ShiftingSource`], so the same seed yields the
/// same flow universe in both drivers. The heaviest eighth of the ranks
/// sources from `10.0.0.0/8` (the priority tenant).
fn ranked_flow(seed: u64, flows: usize, rank: usize) -> (u32, u32, u16, u16, u8) {
    let mut r = SplitMix64::new(
        seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (rank as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    let src_net: u32 = if rank * 8 < flows.max(1) {
        10 << 24 // the priority tenant's net
    } else {
        [24u32, 59, 131, 172, 192][r.range_usize(0, 5)] << 24
    };
    let dst_net: u32 = [10u32, 47, 88, 140, 203][r.range_usize(0, 5)] << 24;
    let src_ip = src_net | (r.next_u32() & 0x00ff_ffff);
    let dst_ip = dst_net | (r.next_u32() & 0x00ff_ffff);
    let src_port = r.range_u64(1024, u64::from(u16::MAX)) as u16;
    let dst_port = [80u16, 443, 53, 22, 8080, 3306][r.range_usize(0, 6)];
    let proto = if r.chance(0.8) { 6 } else { 17 };
    (src_ip, dst_ip, src_port, dst_port, proto)
}

/// A spoofed-source flood riding one [`ShiftPhase`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSpec {
    /// The victim destination address.
    pub dst_ip: u32,
    /// Fraction of the phase's packets that are attack packets.
    pub share: f64,
    /// Size of the spoofed source pool, drawn from `198.18.0.0/16`
    /// (the benchmarking range — disjoint from every background net).
    pub sources: u32,
}

/// One phase of a [`ShiftingSource`]: offered load, flow-size skew and
/// an optional attack overlay, all shifting together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftPhase {
    /// How many chunk pulls this phase lasts.
    pub chunks: usize,
    /// Offered-load multiplier (1.0 = baseline).
    pub rate: f64,
    /// Zipf skew of per-packet flow choice during this phase — the
    /// diurnal knob (night traffic is head-heavy, day traffic flatter).
    pub zipf_alpha: f64,
    /// When set, this phase carries a spoofed flood.
    pub attack: Option<AttackSpec>,
}

/// Configuration of a [`ShiftingSource`].
#[derive(Debug, Clone)]
pub struct ShiftingConfig {
    /// Distinct background flows (Zipf-ranked, shared across phases).
    pub flows: usize,
    /// Packets offered per pull at rate 1.0.
    pub base_chunk: usize,
    /// Modeled inter-packet gap at rate 1.0.
    pub ns_per_packet: u64,
    /// The phase schedule, consumed in order.
    pub phases: Vec<ShiftPhase>,
    /// RNG seed; same seed, same stream.
    pub seed: u64,
}

impl Default for ShiftingConfig {
    fn default() -> Self {
        // A compressed diurnal cycle with an attack in the middle:
        // skewed night traffic, flatter day traffic at double load, a
        // spoofed flood on top of the day peak, then recovery.
        ShiftingConfig {
            flows: 5_000,
            base_chunk: 2_048,
            ns_per_packet: 1_000,
            phases: vec![
                ShiftPhase { chunks: 8, rate: 1.0, zipf_alpha: 1.3, attack: None },
                ShiftPhase { chunks: 8, rate: 2.0, zipf_alpha: 1.05, attack: None },
                ShiftPhase {
                    chunks: 6,
                    rate: 3.0,
                    zipf_alpha: 1.05,
                    attack: Some(AttackSpec {
                        dst_ip: (203 << 24) | (113 << 8) | 7,
                        share: 0.5,
                        sources: 20_000,
                    }),
                },
                ShiftPhase { chunks: 8, rate: 1.0, zipf_alpha: 1.3, attack: None },
            ],
            seed: 0x5217_F7ED,
        }
    }
}

/// A streaming source whose *traffic mix* shifts between phases, not
/// just its rate: each [`ShiftPhase`] re-skews the Zipf flow choice
/// (diurnal shape) and may overlay a spoofed-source flood. The
/// background flow universe is fixed across phases (same
/// `(seed, rank)` identities as [`PhasedSource`]), so a flow that is
/// heavy at night is still *the same flow* — merely diluted — during
/// the day; what changes is the distribution the sampler draws from.
///
/// This is the workload the closed-loop adaptive controller is
/// benchmarked against: no single static memory allocation is right
/// for all three regimes (skewed-quiet, flat-busy, flood).
#[derive(Debug)]
pub struct ShiftingSource {
    cfg: ShiftingConfig,
    zipf: Zipf,
    zipf_phase: usize,
    rng: SplitMix64,
    phase: usize,
    chunks_in_phase: usize,
    now_ns: u64,
    emitted: u64,
}

impl ShiftingSource {
    /// Builds the source; pulls start in the first phase.
    ///
    /// # Panics
    /// Panics if the schedule is empty (there would be nothing to pull).
    pub fn new(cfg: ShiftingConfig) -> Self {
        assert!(!cfg.phases.is_empty(), "shifting schedule needs a phase");
        let zipf = Zipf::new(cfg.flows.max(1), cfg.phases[0].zipf_alpha);
        let rng = SplitMix64::new(cfg.seed);
        ShiftingSource {
            cfg,
            zipf,
            zipf_phase: 0,
            rng,
            phase: 0,
            chunks_in_phase: 0,
            now_ns: 0,
            emitted: 0,
        }
    }

    /// Packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Emits the next chunk, or `None` once the schedule has run out.
    pub fn next_chunk(&mut self) -> Option<Vec<Packet>> {
        let phase = *self.cfg.phases.get(self.phase)?;
        if self.zipf_phase != self.phase {
            // Re-skew at the phase boundary; the flow universe itself
            // (rank -> 5-tuple) is unchanged.
            self.zipf = Zipf::new(self.cfg.flows.max(1), phase.zipf_alpha);
            self.zipf_phase = self.phase;
        }
        let count = ((self.cfg.base_chunk as f64) * phase.rate).round().max(1.0) as usize;
        let gap = ((self.cfg.ns_per_packet as f64) / phase.rate.max(1e-9)).max(1.0) as u64;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            self.now_ns += gap;
            let attack = phase
                .attack
                .filter(|a| self.rng.chance(a.share));
            let pkt = if let Some(a) = attack {
                // One spoofed SYN-flood packet: a source drawn from the
                // pool (consecutive addresses from 198.18.0.0 up), aimed
                // at the victim.
                let s = self.rng.range_u64(0, u64::from(a.sources.max(1))) as u32;
                let src = ((198u32 << 24) | (18 << 16)).wrapping_add(s);
                PacketBuilder::new()
                    .src_ip(src)
                    .dst_ip(a.dst_ip)
                    .src_port(self.rng.next_u16())
                    .dst_port(80)
                    .protocol(6)
                    .len(64)
                    .ts_ns(self.now_ns)
                    .build()
            } else {
                let rank = self.zipf.sample(&mut self.rng) - 1; // 0-based
                let (src_ip, dst_ip, src_port, dst_port, proto) =
                    ranked_flow(self.cfg.seed, self.cfg.flows, rank);
                PacketBuilder::new()
                    .src_ip(src_ip)
                    .dst_ip(dst_ip)
                    .src_port(src_port)
                    .dst_port(dst_port)
                    .protocol(proto)
                    .len(if proto == 6 { 1400 } else { 128 })
                    .ts_ns(self.now_ns)
                    .build()
            };
            out.push(pkt);
        }
        self.emitted += out.len() as u64;
        self.chunks_in_phase += 1;
        if self.chunks_in_phase >= phase.chunks {
            self.phase += 1;
            self.chunks_in_phase = 0;
        }
        Some(out)
    }
}

/// Deterministic trace generator.
#[derive(Debug)]
pub struct TraceGenerator {
    rng: SplitMix64,
}

impl TraceGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        TraceGenerator {
            rng: SplitMix64::new(seed),
        }
    }

    fn random_flow(&mut self) -> (u32, u32, u16, u16, u8) {
        // Sources/destinations drawn from a handful of /8s so that
        // prefix-keyed tasks (SrcIP/8, /16, /24) see realistic grouping.
        let src_net: u32 = [10u32, 24, 59, 131, 172, 192][self.rng.range_usize(0, 6)] << 24;
        let dst_net: u32 = [10u32, 47, 88, 140, 192, 203][self.rng.range_usize(0, 6)] << 24;
        let src_ip = src_net | (self.rng.next_u32() & 0x00ff_ffff);
        let dst_ip = dst_net | (self.rng.next_u32() & 0x00ff_ffff);
        let src_port = self.rng.range_u64(1024, u64::from(u16::MAX)) as u16;
        let dst_port = [80u16, 443, 53, 22, 8080, 3306][self.rng.range_usize(0, 6)];
        let proto = if self.rng.chance(0.8) { 6 } else { 17 };
        (src_ip, dst_ip, src_port, dst_port, proto)
    }

    fn packet_len(&mut self) -> u16 {
        // Bimodal internet mix: small control packets and full frames.
        match self.rng.range_u64(0, 10) {
            0..=4 => self.rng.range_u64(64, 129) as u16,
            5..=6 => self.rng.range_u64(129, 577) as u16,
            _ => self.rng.range_u64(1000, 1501) as u16,
        }
    }

    /// Generates a WIDE-like trace: `cfg.flows` distinct 5-tuples with
    /// Zipf-distributed sizes, packets uniformly spread over the duration,
    /// sorted by timestamp, with queue metadata from a simple queue
    /// simulation.
    pub fn wide_like(&mut self, cfg: &TraceConfig) -> Vec<Packet> {
        let zipf = Zipf::new(cfg.flows, cfg.zipf_alpha);
        let sizes = zipf.expected_counts(cfg.packets);
        let mut packets = Vec::with_capacity(sizes.iter().sum::<u64>() as usize);
        for &count in &sizes {
            let (src_ip, dst_ip, src_port, dst_port, proto) = self.random_flow();
            for _ in 0..count {
                let ts = self.rng.range_u64(0, cfg.duration_ns);
                packets.push(
                    PacketBuilder::new()
                        .src_ip(src_ip)
                        .dst_ip(dst_ip)
                        .src_port(src_port)
                        .dst_port(dst_port)
                        .protocol(proto)
                        .len(self.packet_len())
                        .ts_ns(ts)
                        .build(),
                );
            }
        }
        finalize(&mut packets);
        packets
    }

    /// Generates a DDoS scenario: background traffic plus `victims`
    /// destinations each hit by `sources_per_victim` distinct sources.
    /// Victim addresses are `203.0.113.x` (TEST-NET-3), disjoint from the
    /// background destination pool's host structure so ground truth is
    /// unambiguous. Returns `(trace, victim_addresses)`.
    pub fn ddos(&mut self, cfg: &DdosConfig) -> (Vec<Packet>, Vec<u32>) {
        let mut packets = self.wide_like(&cfg.background);
        let mut victims = Vec::with_capacity(cfg.victims);
        for v in 0..cfg.victims {
            let victim = (203u32 << 24) | (113 << 8) | (v as u32 & 0xff) | ((v as u32 >> 8) << 16);
            victims.push(victim);
            for s in 0..cfg.sources_per_victim {
                // Distinct spoofed sources per victim.
                let src = (198u32 << 24) | ((v as u32 & 0xff) << 16) | (s as u32 & 0xffff);
                for _ in 0..cfg.packets_per_source {
                    let ts = self.rng.range_u64(0, cfg.background.duration_ns);
                    packets.push(
                        PacketBuilder::new()
                            .src_ip(src)
                            .dst_ip(victim)
                            .src_port(self.rng.next_u16())
                            .dst_port(80)
                            .protocol(6)
                            .len(64)
                            .ts_ns(ts)
                            .build(),
                    );
                }
            }
        }
        finalize(&mut packets);
        (packets, victims)
    }

    /// Generates the Fig. 12b epoch timeline: one trace per epoch, flow
    /// count spiking between `spike_start..=spike_end`. Timestamps are
    /// absolute (epoch `i` occupies `[i*epoch_ns, (i+1)*epoch_ns)`).
    pub fn spike_timeline(&mut self, cfg: &SpikeConfig) -> Vec<Vec<Packet>> {
        let mut epochs = Vec::with_capacity(cfg.epochs);
        for e in 0..cfg.epochs {
            let spiking = (cfg.spike_start..=cfg.spike_end).contains(&e);
            let flows = cfg.base_flows + if spiking { cfg.spike_flows } else { 0 };
            let scale = flows as f64 / cfg.base_flows as f64;
            let epoch_cfg = TraceConfig {
                flows,
                packets: (cfg.base_packets as f64 * scale) as u64,
                zipf_alpha: 1.1,
                duration_ns: cfg.epoch_ns,
                seed: cfg.seed,
            };
            let mut trace = self.wide_like(&epoch_cfg);
            let base_ts = e as u64 * cfg.epoch_ns;
            for p in &mut trace {
                p.ts_ns += base_ts;
            }
            epochs.push(trace);
        }
        epochs
    }
}

/// Sorts by timestamp and fills queue metadata with a fluid-queue model:
/// the queue drains at a constant rate; arrivals enqueue their bytes. This
/// yields queue lengths/delays correlated with instantaneous load, which
/// is all `Max(QueueLen)` / `Max(QueueDelay)` tasks need.
fn finalize(packets: &mut [Packet]) {
    packets.sort_by_key(|p| p.ts_ns);
    const DRAIN_BYTES_PER_NS: f64 = 12.5; // 100 Gbps
    const CELL_BYTES: f64 = 80.0;
    let mut queue_bytes = 0.0f64;
    let mut last_ts = 0u64;
    for p in packets.iter_mut() {
        let dt = (p.ts_ns - last_ts) as f64;
        queue_bytes = (queue_bytes - dt * DRAIN_BYTES_PER_NS).max(0.0);
        queue_bytes += f64::from(p.len);
        last_ts = p.ts_ns;
        p.queue_len = (queue_bytes / CELL_BYTES) as u32;
        p.queue_delay_ns = (queue_bytes / DRAIN_BYTES_PER_NS) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small_cfg() -> TraceConfig {
        TraceConfig {
            flows: 500,
            packets: 20_000,
            zipf_alpha: 1.1,
            duration_ns: 1_000_000_000,
            seed: 1,
        }
    }

    #[test]
    fn wide_like_is_deterministic() {
        let a = TraceGenerator::new(9).wide_like(&small_cfg());
        let b = TraceGenerator::new(9).wide_like(&small_cfg());
        assert_eq!(a, b);
        let c = TraceGenerator::new(10).wide_like(&small_cfg());
        assert_ne!(a, c);
    }

    #[test]
    fn wide_like_matches_config_scale() {
        let cfg = small_cfg();
        let trace = TraceGenerator::new(2).wide_like(&cfg);
        let distinct: HashSet<_> = trace
            .iter()
            .map(|p| (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.protocol))
            .collect();
        // expected_counts may merge a few colliding random 5-tuples, and
        // rounding inflates the packet total slightly.
        assert!(distinct.len() >= cfg.flows * 95 / 100);
        assert!(trace.len() as u64 >= cfg.packets * 9 / 10);
        assert!(trace.len() as u64 <= cfg.packets * 13 / 10);
        assert!(trace.iter().all(|p| p.ts_ns < cfg.duration_ns));
    }

    #[test]
    fn trace_is_time_sorted_with_queue_metadata() {
        let trace = TraceGenerator::new(3).wide_like(&small_cfg());
        assert!(trace.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // The fluid queue must register some occupancy somewhere.
        assert!(trace.iter().any(|p| p.queue_len > 0));
    }

    #[test]
    fn flow_sizes_are_skewed() {
        let trace = TraceGenerator::new(4).wide_like(&small_cfg());
        let mut counts = std::collections::HashMap::new();
        for p in &trace {
            *counts.entry((p.src_ip, p.src_port)).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let mean = trace.len() as f64 / counts.len() as f64;
        assert!(
            max as f64 > 20.0 * mean,
            "top flow ({max}) should dwarf the mean ({mean:.1})"
        );
    }

    #[test]
    fn ddos_victims_have_many_distinct_sources() {
        let cfg = DdosConfig {
            background: small_cfg(),
            victims: 3,
            sources_per_victim: 700,
            packets_per_source: 1,
        };
        let (trace, victims) = TraceGenerator::new(5).ddos(&cfg);
        assert_eq!(victims.len(), 3);
        for &v in &victims {
            let srcs: HashSet<_> = trace
                .iter()
                .filter(|p| p.dst_ip == v)
                .map(|p| p.src_ip)
                .collect();
            assert!(srcs.len() >= 700, "victim has only {} sources", srcs.len());
        }
    }

    #[test]
    fn phased_source_is_deterministic_and_finite() {
        let cfg = PhasedConfig {
            flows: 500,
            base_chunk: 256,
            phases: vec![Phase { chunks: 3, rate: 1.0 }, Phase { chunks: 2, rate: 4.0 }],
            ..PhasedConfig::default()
        };
        let drain = |mut s: PhasedSource| {
            let mut all = Vec::new();
            while let Some(c) = s.next_chunk() {
                all.push(c);
            }
            all
        };
        let a = drain(PhasedSource::new(cfg.clone()));
        let b = drain(PhasedSource::new(cfg.clone()));
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 5, "3 + 2 chunk pulls, then exhausted");
        let c = drain(PhasedSource::new(PhasedConfig { seed: 1, ..cfg }));
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn phased_burst_scales_offered_load_and_compresses_time() {
        let cfg = PhasedConfig {
            flows: 300,
            base_chunk: 1_000,
            ns_per_packet: 1_000,
            phases: vec![Phase { chunks: 1, rate: 1.0 }, Phase { chunks: 1, rate: 10.0 }],
            ..PhasedConfig::default()
        };
        let mut src = PhasedSource::new(cfg);
        let steady = src.next_chunk().unwrap();
        let burst = src.next_chunk().unwrap();
        assert_eq!(steady.len(), 1_000);
        assert_eq!(burst.len(), 10_000, "a 10x phase offers 10x the packets");
        assert!(src.next_chunk().is_none());
        assert_eq!(src.emitted(), 11_000);
        // Timestamps are strictly monotonic across the whole stream, and
        // the burst is denser in modeled time.
        let all: Vec<_> = steady.iter().chain(&burst).collect();
        assert!(all.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
        let steady_span = steady.last().unwrap().ts_ns - steady[0].ts_ns;
        let burst_span = burst.last().unwrap().ts_ns - burst[0].ts_ns;
        assert!(
            burst_span < steady_span * 2,
            "10x packets should not take 10x modeled time: {burst_span} vs {steady_span}"
        );
    }

    #[test]
    fn phased_source_carries_a_priority_tenant() {
        let mut src = PhasedSource::new(PhasedConfig {
            flows: 2_000,
            base_chunk: 20_000,
            phases: vec![Phase { chunks: 1, rate: 1.0 }],
            ..PhasedConfig::default()
        });
        let chunk = src.next_chunk().unwrap();
        let priority = chunk
            .iter()
            .filter(|p| p.src_ip >> 24 == 10)
            .count();
        // The heaviest eighth of the Zipf ranks lives in 10/8, so well
        // over an eighth of the *packets* do.
        assert!(
            priority * 3 > chunk.len(),
            "priority tenant carries {} of {} packets",
            priority,
            chunk.len()
        );
    }

    #[test]
    fn shifting_source_is_deterministic_and_finite() {
        let cfg = ShiftingConfig {
            flows: 400,
            base_chunk: 512,
            phases: vec![
                ShiftPhase { chunks: 2, rate: 1.0, zipf_alpha: 1.3, attack: None },
                ShiftPhase { chunks: 1, rate: 2.0, zipf_alpha: 1.0, attack: None },
            ],
            ..ShiftingConfig::default()
        };
        let drain = |mut s: ShiftingSource| {
            let mut all = Vec::new();
            while let Some(c) = s.next_chunk() {
                all.push(c);
            }
            all
        };
        let a = drain(ShiftingSource::new(cfg.clone()));
        let b = drain(ShiftingSource::new(cfg.clone()));
        assert_eq!(a, b, "same seed, same stream");
        assert_eq!(a.len(), 3, "2 + 1 chunk pulls, then exhausted");
        assert_eq!(a[2].len(), 1024, "rate 2.0 doubles the chunk");
        let c = drain(ShiftingSource::new(ShiftingConfig { seed: 3, ..cfg }));
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn shifting_attack_phase_floods_the_victim_from_many_sources() {
        let victim = (203u32 << 24) | (113 << 8) | 7;
        let mut src = ShiftingSource::new(ShiftingConfig {
            flows: 500,
            base_chunk: 20_000,
            phases: vec![ShiftPhase {
                chunks: 1,
                rate: 1.0,
                zipf_alpha: 1.1,
                attack: Some(AttackSpec { dst_ip: victim, share: 0.5, sources: 5_000 }),
            }],
            ..ShiftingConfig::default()
        });
        let chunk = src.next_chunk().unwrap();
        let attack: Vec<_> = chunk.iter().filter(|p| p.dst_ip == victim).collect();
        let frac = attack.len() as f64 / chunk.len() as f64;
        assert!(
            (0.45..0.55).contains(&frac),
            "attack share 0.5 materialized as {frac:.3}"
        );
        let srcs: HashSet<_> = attack.iter().map(|p| p.src_ip).collect();
        assert!(srcs.len() > 2_000, "only {} distinct spoofed sources", srcs.len());
        assert!(srcs.iter().all(|&s| s >> 16 == (198 << 8) | 18));
    }

    #[test]
    fn shifting_alpha_reskews_but_keeps_the_flow_universe() {
        let cfg = ShiftingConfig {
            flows: 2_000,
            base_chunk: 30_000,
            phases: vec![
                ShiftPhase { chunks: 1, rate: 1.0, zipf_alpha: 1.5, attack: None },
                ShiftPhase { chunks: 1, rate: 1.0, zipf_alpha: 0.7, attack: None },
            ],
            ..ShiftingConfig::default()
        };
        let mut src = ShiftingSource::new(cfg.clone());
        let night = src.next_chunk().unwrap();
        let day = src.next_chunk().unwrap();
        let head_share = |chunk: &[Packet]| {
            let mut counts = std::collections::HashMap::new();
            for p in chunk {
                *counts.entry(p.src_ip).or_insert(0u64) += 1;
            }
            let mut sizes: Vec<u64> = counts.into_values().collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            sizes.iter().take(10).sum::<u64>() as f64 / chunk.len() as f64
        };
        assert!(
            head_share(&night) > 2.0 * head_share(&day),
            "alpha 1.5 head share {:.3} should dwarf alpha 0.7's {:.3}",
            head_share(&night),
            head_share(&day)
        );
        // The same flow universe underlies both phases: the heaviest
        // night flow still appears during the day.
        let top_night = {
            let mut counts = std::collections::HashMap::new();
            for p in &night {
                *counts.entry(p.src_ip).or_insert(0u64) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        assert!(day.iter().any(|p| p.src_ip == top_night));
        // And it shares PhasedSource's universe for the same seed: the
        // priority tenant's net shows up.
        assert!(night.iter().any(|p| p.src_ip >> 24 == 10));
    }

    #[test]
    fn spike_timeline_shapes_flow_counts() {
        let cfg = SpikeConfig {
            epochs: 8,
            base_flows: 300,
            spike_flows: 900,
            spike_start: 2,
            spike_end: 4,
            base_packets: 5_000,
            epoch_ns: 1_000_000,
            seed: 7,
        };
        let epochs = TraceGenerator::new(7).spike_timeline(&cfg);
        assert_eq!(epochs.len(), 8);
        let flows = |e: &Vec<Packet>| {
            e.iter()
                .map(|p| (p.src_ip, p.dst_ip, p.src_port, p.dst_port))
                .collect::<HashSet<_>>()
                .len()
        };
        let quiet = flows(&epochs[0]);
        let busy = flows(&epochs[3]);
        assert!(
            busy > quiet * 3,
            "spike epoch should have ~4x flows: {busy} vs {quiet}"
        );
        // Epoch timestamps are disjoint and ordered.
        assert!(epochs[1].first().unwrap().ts_ns >= cfg.epoch_ns);
        assert!(epochs[0].last().unwrap().ts_ns < cfg.epoch_ns);
    }
}
