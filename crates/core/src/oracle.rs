//! Reference semantics: one packet at a time through the four stages.
//!
//! The data plane that runs is [`FlyMon::process_batch`] — compiled
//! match rules, address plans and operand kernels swept a chunk at a
//! time ([`crate::program`], [`CmuGroup::process_chunk`]). This module
//! is what that path is held bit-identical to: the installed
//! [`CmuBinding`](crate::group::CmuBinding)s interpreted per packet,
//! straight from the reference leaves
//! ([`TaskFilter::matches`](flymon_packet::TaskFilter::matches), the
//! sampling coin, [`KeySelect::address`](crate::keysel::KeySelect::address),
//! [`ParamSource::resolve`](crate::params::ParamSource::resolve),
//! [`PrepAction::apply`](crate::prep::PrepAction::apply),
//! `AddrTranslation::translate`, `Salu::execute`), sharing with it only
//! the registers and the program's `unit_used` mask.
//!
//! It is a test oracle, not an API: nothing here is an inherent method
//! or in [`crate::prelude`], so application code cannot reach the
//! interpreter without naming this module (CI greps that the CLI, the
//! figure binaries, the examples and the streaming runtime do not).
//! Tests import [`PerPacket`] (a switch) or [`PerPacketGroup`] (one
//! group); the fleet's explicit-ingress `SwitchFleet::process` is the
//! one library caller.

use flymon_packet::Packet;

use crate::control::{FlyMon, TaskHandle};
use crate::group::CmuGroup;
use crate::params::PacketContext;
use crate::scratch::PacketScratch;
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
        self.ctx.reset();
        self.scratch.begin_packet();
        let first_spliced = self.config.groups - self.config.spliced_groups.min(self.config.groups);
        let mut recirculated = false;
        for (g, group) in self.groups.iter_mut().enumerate() {
            let before = self.ctx.len();
            process_group(group, pkt, &mut self.ctx, &mut self.scratch);
            if g >= first_spliced && self.ctx.len() > before {
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
    /// One packet through this group's four stages with a throwaway
    /// scratch, results recorded into `ctx`; the caller processes
    /// groups in pipeline order.
    fn process(&mut self, pkt: &Packet, ctx: &mut PacketContext);
}

impl PerPacketGroup for CmuGroup {
    fn process(&mut self, pkt: &Packet, ctx: &mut PacketContext) {
        process_group(self, pkt, ctx, &mut PacketScratch::default());
    }
}

/// One packet through one group's four stages. `ctx` carries
/// PHV-resident results between groups; the caller processes groups in
/// pipeline order and calls [`PacketScratch::begin_packet`] at the
/// packet boundary (the extraction cache and coin state span groups;
/// stale entries would alias the previous packet's keys).
fn process_group(
    group: &mut CmuGroup,
    pkt: &Packet,
    ctx: &mut PacketContext,
    scratch: &mut PacketScratch,
) {
    let addr_bits = group.addr_bits();
    let buckets = group.config().buckets_per_cmu;
    let group_index = group.index();
    let unit_used = group.program().unit_used;
    let PacketScratch { hash, keys, coin } = scratch;

    // Stage 1 (compression) runs lazily: digests are pure functions
    // of the packet, and only packets that match some binding consume
    // them, so a group whose bindings all miss does zero hash work.
    // Units no binding reads contribute a constant 0 slot — same as
    // an unconfigured unit — keeping slice indices aligned.
    let mut compressed_ready = false;
    for (ci, cmu) in group.cmus.iter_mut().enumerate() {
        // Stage 2: initialization — first matching task wins.
        let Some(bi) = cmu
            .bindings
            .iter()
            .position(|b| b.filter.matches(pkt) && b.coin_passes(pkt, coin))
        else {
            continue;
        };
        if !compressed_ready {
            hash.clear();
            for (u, used) in group.units.iter().zip(unit_used) {
                hash.push(if used { u.compute_cached(pkt, keys) } else { 0 });
            }
            compressed_ready = true;
        }
        let compressed = hash.as_slice();
        cmu.hits[bi] += 1;
        let binding = &cmu.bindings[bi];
        let raw_addr = binding.key.address(compressed, addr_bits);
        let p1 = binding.p1.resolve(pkt, compressed, ctx);
        let p2 = binding.p2.resolve(pkt, compressed, ctx);

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
