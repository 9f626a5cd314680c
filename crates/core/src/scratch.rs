//! Scratch state, owned once per switch.
//!
//! The datapath's allocation-free convention (DESIGN.md § "Sharded
//! datapath") says every per-packet buffer must be a fixed-capacity
//! stack object. This module goes one step further: the scratch is not
//! even *stack-per-packet* — it lives inside each
//! [`FlyMon`](crate::control::FlyMon) instance and every packet (the
//! per-packet oracle's [`PacketScratch`]) or chunk (the batch path's
//! [`BatchScratch`]) merely resets it. For the oracle that removes
//! three per-packet costs:
//!
//! - a fresh `HashScratch` constructed per group per packet;
//! - re-serializing the same flow key for every hash unit sharing a
//!   `KeySpec` (the standing 5-tuple mask on unit 0 of *every* group);
//! - rehashing the 24-byte sampling-coin seed for every binding probed
//!   on every CMU, when 20 of those bytes depend only on the packet.

use flymon_packet::{ExtractionCache, Packet};
use flymon_rmt::hash::{fmix32, murmur3_round, HashScratch, MAX_HASH_UNITS};

use crate::params::PacketContext;
use crate::task::TaskId;

/// Seed of the per-task sampling coin (§5.3 probabilistic execution).
pub(crate) const COIN_SEED: u32 = 0xc011_f11b;

/// The sampling coin's packet part, hashed once per packet.
///
/// The coin is `murmur3_32(COIN_SEED, seed)` over a 24-byte seed: the
/// 5-tuple-ish packet part (src/dst address, ports, timestamp,
/// big-endian — bytes 0..20) and the task id (bytes 20..24), so distinct
/// tasks flip independent coins. 24 bytes are six whole murmur blocks
/// and every field is word-aligned in them, so nothing is serialized:
/// the five packet words fold into the murmur state once per packet
/// (lazily, on its first coin), and each binding folds only its task
/// word and finalizes. Bit-identical to hashing the seed bytes — the
/// test below keeps the byte form as the reference.
#[derive(Debug, Clone, Default)]
pub struct CoinScratch {
    /// Murmur state after the five packet words.
    state: u32,
    ready: bool,
}

impl CoinScratch {
    /// Marks the packet part stale. Call at each packet boundary.
    pub fn invalidate(&mut self) {
        self.ready = false;
    }

    /// The 32-bit sampling coin for (`pkt`, `task`).
    #[inline]
    pub fn coin(&mut self, pkt: &Packet, task: TaskId) -> u32 {
        if !self.ready {
            // murmur reads each 4-byte block little-endian, so a
            // big-endian field enters as its byte-swapped word.
            let ports = u32::from(pkt.src_port.swap_bytes())
                | u32::from(pkt.dst_port.swap_bytes()) << 16;
            self.state = [
                pkt.src_ip.swap_bytes(),
                pkt.dst_ip.swap_bytes(),
                ports,
                ((pkt.ts_ns >> 32) as u32).swap_bytes(),
                (pkt.ts_ns as u32).swap_bytes(),
            ]
            .into_iter()
            .fold(COIN_SEED, murmur3_round);
            self.ready = true;
        }
        // The seed's length (24) enters just before the finalizer.
        fmix32(murmur3_round(self.state, task.0.swap_bytes()) ^ 24)
    }
}

/// Everything the per-packet oracle scribbles on, aggregated so one
/// `&mut PacketScratch` threads through
/// [`PerPacket::process`](crate::oracle::PerPacket::process) into every
/// group.
///
/// The extraction cache and coin scratch deliberately live *across* CMU
/// groups: key specs repeat between groups (the standing 5-tuple), and
/// the coin's packet bytes are group-independent.
#[derive(Debug, Clone, Default)]
pub struct PacketScratch {
    /// Compression-stage digest buffer, refilled per group.
    pub hash: HashScratch,
    /// Per-packet flow-key extraction memo, shared by all groups.
    pub keys: ExtractionCache,
    /// Per-packet sampling-coin state.
    pub coin: CoinScratch,
}

impl PacketScratch {
    /// Resets the per-packet state. Call once per packet, before the
    /// first group processes it. (`hash` needs no reset here — each
    /// group's compression clears it before filling.)
    pub fn begin_packet(&mut self) {
        self.keys.clear();
        self.coin.invalidate();
    }
}

/// Chunk-wide scratch for the stage-major batched datapath (DESIGN.md
/// § "Stage-major batching"), owned by each
/// [`FlyMon`](crate::control::FlyMon) instance alongside the per-packet
/// [`PacketScratch`].
///
/// Where `PacketScratch` holds one packet's transient state, this holds
/// a whole batch's: one [`PacketContext`] and [`CoinScratch`] per packet
/// plus the stage-major work vectors — the packet-major digest matrix
/// and the per-CMU matched lists. Keys and SALU operands are never
/// staged: the digest pass writes keys into a lane buffer on its stack
/// and the fused sweep resolves operands as it applies them. Everything
/// is `Vec`-backed and grown once to the batch size; steady state
/// allocates nothing.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Per-packet PHV context (cross-CMU results).
    pub(crate) ctxs: Vec<PacketContext>,
    /// Per-packet sampling-coin state, shared across groups.
    pub(crate) coins: Vec<CoinScratch>,
    /// Packet-major digest matrix, stride [`MAX_HASH_UNITS`]: packet
    /// `p`'s compressed-key slice is `digests[p*8 .. p*8+8]`. Slots of
    /// unused units hold stale garbage by design — compiled programs
    /// never reference them (mirrors the serial path's lazy zeros).
    pub(crate) digests: Vec<u32>,
    /// Which packets matched some conditional binding in the current
    /// group (gate for the sparse digest domain). Reset per group.
    pub(crate) need_digest: Vec<bool>,
    /// Packed packet indices of `need_digest` — the digest domain of
    /// every used hash unit no unconditional CMU reads — and then the
    /// packets some coupon gate let through, the domain of the units
    /// only gated bindings read.
    pub(crate) digest_idx: Vec<u32>,
    /// The identity list `0, 1, 2, …` — the digest domain of a unit an
    /// unconditional CMU reads is its first `n` entries. Grown, never
    /// rewritten.
    pub(crate) all_idx: Vec<u32>,
    /// Matched lists `(packet index, binding index)`, in packet order —
    /// packet order is what keeps same-bucket SALU updates applied in
    /// arrival order. Slot `c` is rebuilt by a group whose CMU `c` is
    /// the first with its match signature and read by every CMU sharing
    /// it; any other slot is stale and unread.
    pub(crate) matched: Vec<Vec<(u32, u16)>>,
    /// Gated lists: the steps of CMU `c`'s matches a gate lets through,
    /// slotted like `matched` by [`GroupProgram::gate_of`](crate::program::GroupProgram::gate_of).
    pub(crate) gated: Vec<Vec<(u32, u16)>>,
    /// Which packets executed a task on a spliced group this chunk (the
    /// per-packet recirculation flag). Reset per chunk.
    pub(crate) executed: Vec<bool>,
    /// Packets in the current chunk.
    pub(crate) len: usize,
}

impl BatchScratch {
    /// Prepares the scratch for an `n`-packet chunk: grows every
    /// per-packet vector to `n` (amortized — a steady batch size grows
    /// once) and resets the per-packet state the new chunk will read.
    ///
    /// `reset_ctx` is the caller's "some program reads PHV contexts"
    /// flag: when false no stage records into or resolves from the
    /// contexts, so their (stale) contents are unobservable and the
    /// per-packet reset can be skipped.
    pub fn begin_chunk(&mut self, n: usize, reset_ctx: bool) {
        self.len = n;
        if self.ctxs.len() < n {
            self.ctxs.resize_with(n, Default::default);
            self.coins.resize_with(n, Default::default);
            self.need_digest.resize(n, false);
            self.executed.resize(n, false);
            self.digests.resize(n * MAX_HASH_UNITS, 0);
            self.all_idx.extend(self.all_idx.len() as u32..n as u32);
        }
        for i in 0..n {
            if reset_ctx {
                self.ctxs[i].reset();
            }
            self.coins[i].invalidate();
            self.executed[i] = false;
        }
    }

    /// Prepares the per-group state for a group with `cmus` CMUs over
    /// the current `n`-packet chunk: a matched-list slot per CMU, no
    /// digests requested yet.
    pub(crate) fn begin_group(&mut self, cmus: usize, n: usize) {
        if self.matched.len() < cmus {
            self.matched.resize_with(cmus, Vec::new);
            self.gated.resize_with(cmus, Vec::new);
        }
        self.need_digest[..n].fill(false);
    }

    /// Packets of the current chunk flagged as recirculated (executed a
    /// task on a spliced group).
    pub(crate) fn executed_count(&self) -> u64 {
        self.executed[..self.len].iter().filter(|&&e| e).count() as u64
    }
}

/// Reusable buffers for the epoch readout loop (merge + stats), owned
/// by whoever drives rotations — a fleet, a benchmark loop. The same grow-once convention as [`BatchScratch`]: every
/// buffer is `Vec`-backed and sized to the largest row it has serviced,
/// so the steady-state readout loop allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ReadoutScratch {
    /// Merge accumulator for one row at a time
    /// (`MergeLaw::combine_rows` folds member rows into it).
    pub acc: Vec<u32>,
    /// Hash scratch for `locate_with` in query sweeps over the readout.
    pub hash: HashScratch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flymon_packet::PacketBuilder;
    use flymon_rmt::hash::murmur3_32;

    /// The coin by its definition: murmur3 over the 24 seed bytes,
    /// built from scratch.
    fn reference_coin(pkt: &Packet, task: u32) -> u32 {
        let mut b = [0u8; 24];
        b[0..4].copy_from_slice(&pkt.src_ip.to_be_bytes());
        b[4..8].copy_from_slice(&pkt.dst_ip.to_be_bytes());
        b[8..10].copy_from_slice(&pkt.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&pkt.dst_port.to_be_bytes());
        b[12..20].copy_from_slice(&pkt.ts_ns.to_be_bytes());
        b[20..24].copy_from_slice(&task.to_be_bytes());
        murmur3_32(COIN_SEED, &b)
    }

    #[test]
    fn coin_matches_from_scratch_seed() {
        // The incremental coin (packet part folded once, task word per
        // binding) must hash the exact bytes the PR-2 code built per
        // binding.
        let pkt = PacketBuilder::new()
            .src_ip(0x0a00_0001)
            .dst_ip(0xc0a8_0001)
            .src_port(1234)
            .dst_port(443)
            .ts_ns(987_654_321)
            .build();
        let mut coin = CoinScratch::default();
        // Several tasks against one cached packet part, in both orders.
        for task in [1u32, 7, 7, 0xffff_ffff, 1] {
            assert_eq!(coin.coin(&pkt, TaskId(task)), reference_coin(&pkt, task));
        }
        // A new packet must not reuse the old packet part.
        coin.invalidate();
        let other = PacketBuilder::new().src_ip(9).build();
        assert_eq!(coin.coin(&other, TaskId(3)), reference_coin(&other, 3));
    }

    #[test]
    fn word_wise_coin_matches_murmur_over_random_seeds() {
        // Random packets (timestamps with live high words included) and
        // task ids.
        let mut rng = flymon_packet::SplitMix64::new(0xc011);
        let mut coin = CoinScratch::default();
        for _ in 0..2_000 {
            let pkt = PacketBuilder::new()
                .src_ip(rng.next_u32())
                .dst_ip(rng.next_u32())
                .src_port(rng.next_u32() as u16)
                .dst_port(rng.next_u32() as u16)
                .ts_ns(rng.next_u64())
                .build();
            coin.invalidate();
            for _ in 0..3 {
                let task = rng.next_u32();
                assert_eq!(coin.coin(&pkt, TaskId(task)), reference_coin(&pkt, task));
            }
        }
    }

    #[test]
    fn begin_packet_resets_shared_state() {
        let mut scratch = PacketScratch::default();
        let pkt = PacketBuilder::new().src_ip(1).build();
        scratch
            .keys
            .get_or_extract(&flymon_packet::KeySpec::SRC_IP, &pkt);
        scratch.coin.coin(&pkt, TaskId(1));
        scratch.begin_packet();
        assert!(scratch.keys.is_empty());
        assert!(!scratch.coin.ready);
    }
}
