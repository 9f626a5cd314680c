//! Reference semantics: one packet at a time through the four stages.
//!
//! The data plane that runs is [`FlyMon::process_batch`] — compiled
//! match rules, address plans and operand kernels swept a chunk at a
//! time ([`crate::program`], [`CmuGroup::process_chunk`]). This module
//! is what that path is held bit-identical to: the installed
//! [`CmuBinding`]s interpreted per packet,
//! straight from the reference leaves
//! ([`TaskFilter::matches`](flymon_packet::TaskFilter::matches), the
//! sampling coin, [`KeySelect::address`](crate::keysel::KeySelect::address),
//! [`ParamSource::resolve`](crate::params::ParamSource::resolve),
//! [`PrepAction::apply`](crate::prep::PrepAction::apply),
//! `AddrTranslation::translate`, `Salu::execute`), sharing with it only
//! the registers. Every stage runs by its definition, for every packet:
//! each configured hash unit digests the bytes [`KeySpec::extract`]
//! serializes ([`HashUnit::digest_bytes`]), the sampling coin is
//! `murmur3_32` over its 24 seed bytes, and the PHV context is a local.
//! No memo, no lazy stage, no pruning of units nothing reads: a fast
//! path the batch path takes is checked here, not copied.
//!
//! [`KeySpec::extract`]: flymon_packet::KeySpec::extract
//! [`HashUnit::digest_bytes`]: flymon_rmt::hash::HashUnit::digest_bytes
//!
//! It is a test oracle, not an API: nothing here is an inherent method
//! or in [`crate::prelude`], so application code cannot reach the
//! interpreter without naming this module (CI greps that the CLI, the
//! figure binaries, the examples and the streaming runtime do not).
//! Tests import [`PerPacket`] (a switch) or [`PerPacketGroup`] (one
//! group); the fleet's explicit-ingress `SwitchFleet::process` is the
//! one library caller.

use flymon_packet::Packet;
use flymon_rmt::hash::murmur3_32;

use crate::control::{FlyMon, TaskHandle};
use crate::group::{CmuBinding, CmuGroup};
use crate::params::PacketContext;
use crate::scratch::COIN_SEED;
use crate::FlymonError;

/// The per-packet entry points of a [`FlyMon`] switch.
pub trait PerPacket {
    /// Processes one packet through every CMU Group in pipeline order.
    ///
    /// Groups configured as *spliced* (Appendix E) live past the end of
    /// the physical pipeline; a packet reaches them by being mirrored to
    /// a recirculation port. The model executes them identically but
    /// counts each packet that runs a task there as recirculated
    /// bandwidth ("only packets that need to perform the tasks on these
    /// spliced CMU Groups will incur additional bandwidth overhead").
    fn process(&mut self, pkt: &Packet);

    /// Epoch-boundary readout-and-reset of one task: reads every row of
    /// `h`, then clears the task's buckets through the logged
    /// [`FlyMon::reset_task`] path, returning the pre-reset rows — the
    /// O(memory) scalar reference the bank rotation
    /// ([`FlyMon::rotate_banks`]) is checked against. If the reset fails
    /// (fault injection), its rollback restores the pre-readout
    /// registers and the error is returned.
    fn rotate_epoch(&mut self, h: TaskHandle) -> Result<Vec<Vec<u32>>, FlymonError>;
}

impl PerPacket for FlyMon {
    fn process(&mut self, pkt: &Packet) {
        let mut ctx = PacketContext::default();
        let first_spliced = self.config.groups - self.config.spliced_groups.min(self.config.groups);
        let mut recirculated = false;
        for (g, group) in self.groups.iter_mut().enumerate() {
            let before = ctx.len();
            group.process(pkt, &mut ctx);
            if g >= first_spliced && ctx.len() > before {
                recirculated = true;
            }
        }
        if recirculated {
            self.recirculated_packets += 1;
        }
        self.packets_processed += 1;
    }

    fn rotate_epoch(&mut self, h: TaskHandle) -> Result<Vec<Vec<u32>>, FlymonError> {
        let rows = self.task(h)?.rows.len();
        let mut readout = Vec::with_capacity(rows);
        for row in 0..rows {
            readout.push(self.read_row(h, row)?);
        }
        self.reset_task(h)?;
        Ok(readout)
    }
}

/// The per-packet entry point of one [`CmuGroup`] on its own.
pub trait PerPacketGroup {
    /// One packet through this group's four stages, results recorded
    /// into `ctx`; the caller processes groups in pipeline order.
    fn process(&mut self, pkt: &Packet, ctx: &mut PacketContext);
}

impl PerPacketGroup for CmuGroup {
    fn process(&mut self, pkt: &Packet, ctx: &mut PacketContext) {
        let addr_bits = self.addr_bits();
        let buckets = self.config().buckets_per_cmu;
        let group_index = self.index();

        // Stage 1: compression. An unconfigured unit emits 0.
        let compressed: Vec<u32> = self
            .units
            .iter()
            .map(|u| u.mask().map_or(0, |m| u.digest_bytes(m.extract(pkt).as_bytes())))
            .collect();
        for (ci, cmu) in self.cmus.iter_mut().enumerate() {
            // Stage 2: initialization — first matching task wins.
            let Some(bi) = cmu
                .bindings
                .iter()
                .position(|b| b.filter.matches(pkt) && sampled(b, pkt))
            else {
                continue;
            };
            cmu.hits[bi] += 1;
            let binding = &cmu.bindings[bi];
            let raw_addr = binding.key.address(&compressed, addr_bits);
            let p1 = binding.p1.resolve(pkt, &compressed, ctx);
            let p2 = binding.p2.resolve(pkt, &compressed, ctx);

            // Stage 3: preparation.
            let addr = binding.translation.translate(raw_addr, buckets);
            let (p1, p2) = binding.prep.apply(p1, p2, ctx);

            // Stage 4: operation.
            let out = cmu
                .salu
                .execute(binding.op, addr, p1, p2)
                .expect("installed ops are pre-loaded and addresses in range");
            ctx.record(group_index, ci, binding.forward.select(p1, out));
        }
    }
}

/// The sampling coin (§5.3 probabilistic execution): a binding with
/// `prob_log2 = k` runs when the low `k` bits of
/// `murmur3_32(COIN_SEED, seed)` are zero, the 24-byte seed being the
/// packet's src/dst address, ports and timestamp (big-endian) and the
/// task id, so distinct tasks flip independent coins.
fn sampled(b: &CmuBinding, pkt: &Packet) -> bool {
    if b.prob_log2 == 0 {
        return true;
    }
    let mut seed = [0u8; 24];
    seed[0..4].copy_from_slice(&pkt.src_ip.to_be_bytes());
    seed[4..8].copy_from_slice(&pkt.dst_ip.to_be_bytes());
    seed[8..10].copy_from_slice(&pkt.src_port.to_be_bytes());
    seed[10..12].copy_from_slice(&pkt.dst_port.to_be_bytes());
    seed[12..20].copy_from_slice(&pkt.ts_ns.to_be_bytes());
    seed[20..24].copy_from_slice(&b.task.0.to_be_bytes());
    // In u64: `1u32 << 32` would overflow. Install-time validation
    // bounds prob_log2 at MAX_PROB_LOG2; min() keeps a hand-built
    // binding's shift in range too.
    let mask = (1u64 << u32::from(b.prob_log2.min(63))) - 1;
    u64::from(murmur3_32(COIN_SEED, &seed)) & mask == 0
}
