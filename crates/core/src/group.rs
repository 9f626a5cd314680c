//! CMU Groups: the data-plane pipeline of §3.2 (Figure 7).
//!
//! A CMU Group spans four MAU stages. In this model each stage is a
//! phase of [`PerPacketGroup::process`](crate::oracle::PerPacketGroup::process)
//! (one packet at a time, the reference) and a pass of
//! [`CmuGroup::process_chunk`] (a chunk at a time, what runs):
//!
//! 1. **Compression** — the shared hash units turn the candidate key set
//!    into a few 32-bit compressed keys, per their dynamic hash masks.
//! 2. **Initialization** — each CMU matches the packet against its
//!    installed task bindings (filter + optional sampling coin) and, for
//!    the matched task, selects the dynamic key and parameters.
//! 3. **Preparation** — address translation and parameter processing.
//! 4. **Operation** — one stateful operation on the CMU's register.
//!
//! A CMU executes **at most one task per packet** (its SALU touches
//! memory once), which is exactly the hardware constraint of §3.3.

use flymon_packet::{Packet, TaskFilter};
use flymon_rmt::hash::{HashScratch, HashUnit, CRC_LANES, MAX_HASH_UNITS};
use flymon_rmt::salu::{OpOutput, Salu, StatefulOp};
use flymon_rmt::RmtError;

use crate::addr::AddrTranslation;
use crate::keysel::{KeySelect, KeySource};
use crate::params::{PacketContext, ParamSource};
use crate::prep::PrepAction;
use crate::program::{
    coupon_bit, CompiledBinding, Gate, GroupProgram, KeyPrep, MatchRule, OperandKernel,
    PacketField,
};
use crate::scratch::{BatchScratch, CoinScratch};
use crate::task::TaskId;

/// Geometry of one CMU Group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConfig {
    /// Hash units in the compression stage (paper setting: 3 of the 6
    /// per-group units; the other 3 serve SALU addressing).
    pub compression_units: usize,
    /// CMUs (SALUs) in the group (paper setting: 3).
    pub cmus: usize,
    /// Buckets per CMU register (power of two).
    pub buckets_per_cmu: usize,
    /// Bucket width in bits (paper setting: 16; the max-interval recipe
    /// uses 32-bit groups).
    pub bucket_bits: u8,
}

impl GroupConfig {
    /// The geometry rules every group is built under: [`CmuGroup::new`]
    /// asserts them, and a checkpoint that breaks one is refused.
    pub fn validate(&self) -> Result<(), &'static str> {
        let units = "compression_units must be 1 to MAX_HASH_UNITS";
        let rules = [
            ((1..=MAX_HASH_UNITS).contains(&self.compression_units), units),
            (self.cmus > 0, "cmus must be nonzero"),
            (self.buckets_per_cmu.is_power_of_two(), "buckets_per_cmu must be a power of two"),
            ((1..=32).contains(&self.bucket_bits), "bucket_bits must be 1..=32"),
        ];
        rules.into_iter().find(|&(holds, _)| !holds).map_or(Ok(()), |(_, rule)| Err(rule))
    }
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            compression_units: 3,
            cmus: 3,
            buckets_per_cmu: 65536,
            bucket_bits: 16,
        }
    }
}

/// Which SALU output a CMU forwards into the PHV for downstream CMUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forward {
    /// The Appendix A result value.
    Result,
    /// The pre-update bucket value (the arrival-time recorder of §4).
    Old,
    /// `old & p1` — nonzero iff the packet's one-hot bit was already set
    /// (the "seen before?" output of a Bloom-filter CMU).
    OldAndP1,
}

impl Forward {
    /// The value this selector forwards, given the (prepared) first
    /// parameter and the SALU output of one execution.
    #[inline]
    pub fn select(self, p1: u32, out: OpOutput) -> u32 {
        match self {
            Forward::Result => out.result,
            Forward::Old => out.old,
            Forward::OldAndP1 => out.old & p1,
        }
    }
}

/// One task's runtime binding on one CMU — the materialization of all the
/// rules the control plane installed for it.
#[derive(Debug, Clone)]
pub struct CmuBinding {
    /// Owning task.
    pub task: TaskId,
    /// Traffic filter (first match wins).
    pub filter: TaskFilter,
    /// Probabilistic execution: participate with probability
    /// `2^-prob_log2` (0 = always).
    pub prob_log2: u8,
    /// Key selection (source + slice).
    pub key: KeySelect,
    /// First parameter source.
    pub p1: ParamSource,
    /// Second parameter source.
    pub p2: ParamSource,
    /// Preparation-stage processing.
    pub prep: PrepAction,
    /// Address translation (partition mapping).
    pub translation: AddrTranslation,
    /// The stateful operation.
    pub op: StatefulOp,
    /// Which output is forwarded downstream.
    pub forward: Forward,
}

/// Largest accepted sampling exponent: `prob_log2 = 32` admits a packet
/// only when all 32 coin bits are zero (p = 2⁻³², effectively
/// never-sample). Larger exponents are rejected at install time — a
/// 32-bit coin cannot express them.
pub const MAX_PROB_LOG2: u8 = 32;

impl CmuBinding {
    /// Decides the sampling coin for this packet: a hash over the
    /// 5-tuple, timestamp and task id, so distinct tasks flip independent
    /// coins (§5.3 probabilistic execution). The seed's 20 packet bytes
    /// are built once per packet in `coin` and reused across bindings;
    /// only the task id is patched in here.
    pub(crate) fn coin_passes(&self, pkt: &Packet, coin: &mut CoinScratch) -> bool {
        if self.prob_log2 == 0 {
            return true;
        }
        let coin = coin.coin(pkt, self.task);
        // The mask is computed in u64: `1u32 << 32` would overflow (panic
        // in debug, wrap to a coin that always passes in release).
        // Install-time validation bounds prob_log2 at MAX_PROB_LOG2; the
        // min() keeps the shift in range even for a hand-built binding.
        let mask = (1u64 << u32::from(self.prob_log2.min(63))) - 1;
        u64::from(coin) & mask == 0
    }
}

/// One Composable Measurement Unit: a SALU plus its installed bindings.
#[derive(Debug)]
pub struct Cmu {
    pub(crate) salu: Salu,
    pub(crate) bindings: Vec<CmuBinding>,
    /// Packets matched per binding (parallel to `bindings`) — the
    /// per-task hit counters an operator reads alongside the sketch.
    pub(crate) hits: Vec<u64>,
}

impl Cmu {
    fn new(buckets: usize, width_bits: u8) -> Self {
        let mut salu = Salu::new(buckets, width_bits);
        // FlyMon pre-loads the reduced operation set at compile time
        // (§3.1.2); the fourth slot carries the §6 expansion (XOR, for
        // Odd Sketch set-similarity) — exactly filling the SALU's four
        // register-action slots.
        salu.load_op(StatefulOp::CondAdd).expect("slot 1");
        salu.load_op(StatefulOp::Max).expect("slot 2");
        salu.load_op(StatefulOp::AndOr).expect("slot 3");
        salu.load_op(StatefulOp::Xor).expect("slot 4");
        Cmu {
            salu,
            bindings: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Packets matched by the binding at `idx` since install/reset.
    pub fn hits(&self, idx: usize) -> u64 {
        self.hits.get(idx).copied().unwrap_or(0)
    }

    /// Packets matched by `task`'s binding on this CMU, if installed.
    pub fn hits_of(&self, task: TaskId) -> Option<u64> {
        self.bindings
            .iter()
            .position(|b| b.task == task)
            .map(|i| self.hits[i])
    }

    /// Installed bindings, in match order.
    pub fn bindings(&self) -> &[CmuBinding] {
        &self.bindings
    }

    /// Overwrites the per-binding hit counters — checkpoint restore,
    /// after the bindings themselves have been reinstalled in order.
    pub(crate) fn restore_hits(&mut self, hits: &[u64]) {
        self.hits = hits.to_vec();
    }

    /// Read-only register access (control-plane readout).
    pub fn register(&self) -> &flymon_rmt::register::Register {
        self.salu.register()
    }

    /// Mutable register access (control-plane resets).
    pub fn register_mut(&mut self) -> &mut flymon_rmt::register::Register {
        self.salu.register_mut()
    }
}

/// A CMU Group.
#[derive(Debug)]
pub struct CmuGroup {
    index: usize,
    config: GroupConfig,
    pub(crate) units: Vec<HashUnit>,
    pub(crate) cmus: Vec<Cmu>,
    /// The live bindings compiled flat for the batched datapath. Every
    /// binding mutation recompiles the CMUs it touched before it
    /// returns ([`CmuGroup::recompile_cmu`]), so this can never go stale
    /// relative to `cmus[..].bindings`.
    program: GroupProgram,
    /// Rebuild counter — bumps on every recompilation, letting tests
    /// pin that each mutation path invalidated the program.
    program_version: u64,
}

/// The hash units whose digests `b` reads: its key source and any
/// compressed-key parameter. Allocation-free — every binding mutation
/// walks every binding of the group through this.
pub(crate) fn binding_units(b: &CmuBinding) -> impl Iterator<Item = usize> + '_ {
    let units = |src: KeySource| {
        let (a, b) = match src {
            KeySource::Unit(a) => (a, None),
            KeySource::Xor(a, b) => (a, Some(b)),
        };
        std::iter::once(a).chain(b)
    };
    let params = [&b.p1, &b.p2].into_iter().filter_map(|p| match p {
        ParamSource::CompressedKey(src) => Some(*src),
        _ => None,
    });
    units(b.key.source).chain(params.flat_map(units))
}

impl CmuGroup {
    /// Creates group `index` of the pipeline with the given geometry.
    ///
    /// # Panics
    /// Panics on a geometry [`GroupConfig::validate`] refuses. A zero or
    /// non-power-of-two bucket count would otherwise panic later in
    /// [`CmuGroup::addr_bits`] (`ilog2` of 0) or silently alias buckets
    /// through a floored address width, so the whole invariant is
    /// enforced here.
    pub fn new(index: usize, config: GroupConfig) -> Self {
        config.validate().unwrap_or_else(|rule| panic!("group {index}: {rule}, got {config:?}"));
        CmuGroup {
            index,
            config,
            units: (0..config.compression_units)
                // Offset unit identities by group so different groups
                // hash independently (hardware: different stages own
                // different hash blocks).
                .map(|u| HashUnit::new(index * config.compression_units + u))
                .collect(),
            cmus: (0..config.cmus)
                .map(|_| Cmu::new(config.buckets_per_cmu, config.bucket_bits))
                .collect(),
            program: GroupProgram::compile(config.buckets_per_cmu, &vec![&[][..]; config.cmus]),
            program_version: 0,
        }
    }

    /// Recompiles CMU `cmu`'s part of [`CmuGroup::program`] from its
    /// installed bindings — what a binding mutation costs: the other
    /// CMUs' compiled bindings depend on nothing that changed. The
    /// caller follows with [`CmuGroup::refresh_program`].
    fn recompile_cmu(&mut self, cmu: usize) {
        self.program.cmus[cmu].recompile(&self.cmus[cmu].bindings, self.config.buckets_per_cmu);
    }

    /// Re-derives what the program keeps about the group as a whole
    /// ([`GroupProgram::refresh`]) after some CMU was recompiled, and
    /// bumps [`CmuGroup::program_version`].
    fn refresh_program(&mut self) {
        self.program
            .refresh(self.cmus.iter().map(|c| c.bindings.as_slice()));
        self.program_version += 1;
    }

    /// Forces a recompilation of every CMU. The control plane calls this
    /// on mutation paths that bypass install/uninstall (register-only
    /// resets, restores), so *every* reconfiguration observably
    /// invalidates the compiled program — the staleness contract
    /// `tests/batch.rs` pins.
    pub(crate) fn invalidate_program(&mut self) {
        for cmu in 0..self.cmus.len() {
            self.recompile_cmu(cmu);
        }
        self.refresh_program();
    }

    /// The compiled binding program the batched datapath executes.
    pub fn program(&self) -> &GroupProgram {
        &self.program
    }

    /// How many times the program has been recompiled since construction.
    pub fn program_version(&self) -> u64 {
        self.program_version
    }

    /// A fresh compile of the current bindings, for comparison against
    /// [`CmuGroup::program`] — equality means the cached program is not
    /// stale.
    pub fn reference_program(&self) -> GroupProgram {
        let bindings: Vec<&[CmuBinding]> =
            self.cmus.iter().map(|c| c.bindings.as_slice()).collect();
        GroupProgram::compile(self.config.buckets_per_cmu, &bindings)
    }

    /// Group position in the pipeline.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The group geometry.
    pub fn config(&self) -> &GroupConfig {
        &self.config
    }

    /// The compression-stage hash units.
    pub fn units(&self) -> &[HashUnit] {
        &self.units
    }

    /// Mutable access to a hash unit (installing dynamic hash masks).
    pub fn unit_mut(&mut self, idx: usize) -> &mut HashUnit {
        &mut self.units[idx]
    }

    /// The group's CMUs.
    pub fn cmus(&self) -> &[Cmu] {
        &self.cmus
    }

    /// Mutable access to one CMU.
    pub fn cmu_mut(&mut self, idx: usize) -> &mut Cmu {
        &mut self.cmus[idx]
    }

    /// Mutable iteration over the CMUs in index order — checkpoint
    /// capture/restore walks every register in canonical order.
    pub(crate) fn cmus_mut(&mut self) -> impl Iterator<Item = &mut Cmu> {
        self.cmus.iter_mut()
    }

    /// `log2` of the register bucket count (the address width).
    pub fn addr_bits(&self) -> u8 {
        self.config.buckets_per_cmu.ilog2() as u8
    }

    /// Allocation-free compression stage: fills `out` with this group's
    /// compressed keys for `pkt`. This is the per-packet path; callers
    /// reuse one [`HashScratch`] across packets.
    pub fn compress_into(&self, pkt: &Packet, out: &mut HashScratch) {
        flymon_rmt::hash::compute_all(&self.units, pkt, out);
    }

    /// Installs a binding on CMU `cmu`: [`CmuGroup::install_all`] of one.
    pub fn install(&mut self, cmu: usize, binding: CmuBinding) -> Result<(), RmtError> {
        self.install_all(std::iter::once((cmu, &binding)))
    }

    /// Installs `(cmu, binding)` pairs — a deploy's rows on this group,
    /// a restored group's whole rule state — as one mutation: every
    /// binding is checked before the first is pushed, each touched CMU
    /// is recompiled once per run of pairs naming it, and the program
    /// is refreshed once. A refusal therefore leaves the bindings, the
    /// program and [`CmuGroup::program_version`] as they were; an empty
    /// `bindings` changes nothing either.
    ///
    /// Rejects every binding the packet path could not execute: a
    /// `prob_log2` above [`MAX_PROB_LOG2`] (the 32-bit sampling coin
    /// cannot express rates below 2⁻³², and the exponent would overflow
    /// the coin mask shift), a key or compressed-key parameter naming a
    /// hash unit the group does not have, and a preparation whose shift
    /// or modulus leaves 32 bits (a zero or oversized one-hot width,
    /// more than 32 coupons, a ρ that skips the whole key).
    pub fn install_all<'b>(
        &mut self,
        bindings: impl Iterator<Item = (usize, &'b CmuBinding)> + Clone,
    ) -> Result<(), RmtError> {
        for (cmu, binding) in bindings.clone() {
            self.check(cmu, binding)?;
        }
        let mut last = None;
        for (cmu, binding) in bindings {
            if let Some(done) = last.filter(|&c| c != cmu) {
                self.recompile_cmu(done);
            }
            self.cmus[cmu].bindings.push(binding.clone());
            self.cmus[cmu].hits.push(0);
            last = Some(cmu);
        }
        let Some(cmu) = last else { return Ok(()) };
        self.recompile_cmu(cmu);
        self.refresh_program();
        Ok(())
    }

    /// [`CmuGroup::install_all`]'s admission check of one binding.
    fn check(&self, cmu: usize, binding: &CmuBinding) -> Result<(), RmtError> {
        let below = |what, index: usize, limit: usize| {
            if index < limit {
                Ok(())
            } else {
                Err(RmtError::IndexOutOfRange { what, index, limit })
            }
        };
        below("CMU", cmu, self.cmus.len())?;
        below(
            "sampling exponent prob_log2",
            usize::from(binding.prob_log2),
            usize::from(MAX_PROB_LOG2) + 1,
        )?;
        for unit in binding_units(binding) {
            below("hash unit", unit, self.units.len())?;
        }
        match binding.prep {
            PrepAction::OneHotBit { bits } | PrepAction::OneHotBitGated { bits, .. } => {
                // The highest selectable bit; a zero width wraps past it.
                below("one-hot top bit", usize::from(bits.wrapping_sub(1)), 32)?;
            }
            PrepAction::Coupon { coupons, .. } => below("coupon count", usize::from(coupons), 33)?,
            PrepAction::Rho { skip_top, .. } => below("rho skip_top", usize::from(skip_top), 32)?,
            PrepAction::None | PrepAction::MapZero { .. } | PrepAction::IntervalGated { .. } => {}
        }
        Ok(())
    }

    /// Removes the most recently installed binding of `task` on CMU
    /// `cmu` — the precise inverse of one [`CmuGroup::install`]. Returns
    /// whether a binding was removed.
    pub fn uninstall(&mut self, cmu: usize, task: TaskId) -> bool {
        let Some(c) = self.cmus.get_mut(cmu) else {
            return false;
        };
        match c.bindings.iter().rposition(|b| b.task == task) {
            Some(pos) => {
                c.bindings.remove(pos);
                c.hits.remove(pos);
                self.recompile_cmu(cmu);
                self.refresh_program();
                true
            }
            None => false,
        }
    }

    /// Removes every binding of `task` from every CMU — the inverse of
    /// the [`CmuGroup::install_all`] that put a deploy's rows here — with
    /// one program refresh if any was found; returns how many were
    /// removed.
    pub fn remove_task(&mut self, task: TaskId) -> usize {
        let mut removed = 0;
        for ci in 0..self.cmus.len() {
            let cmu = &mut self.cmus[ci];
            let before = cmu.bindings.len();
            let mut keep = cmu.bindings.iter().map(|b| b.task != task);
            cmu.hits.retain(|_| keep.next().unwrap_or(true));
            cmu.bindings.retain(|b| b.task != task);
            if cmu.bindings.len() < before {
                removed += before - cmu.bindings.len();
                self.recompile_cmu(ci);
            }
        }
        if removed > 0 {
            self.refresh_program();
        }
        removed
    }

    /// Stage-major batch execution of this group over one packet chunk —
    /// the hot path of `FlyMon::process_batch` (DESIGN.md § "Stage-major
    /// batching").
    ///
    /// Where the [`crate::oracle`] walks one packet through all four
    /// pipeline stages, this sweeps the whole chunk through the
    /// compiled [`GroupProgram`] in three passes, each doing per packet
    /// only what depends on the packet:
    ///
    /// 1. **match + coin** once per match signature
    ///    ([`GroupProgram::match_of`] — the rows of one sketch share
    ///    one), producing a compact matched list in packet order
    ///    (packet order is what keeps same-bucket register updates
    ///    applied in arrival order);
    /// 2. **extract + digest** unit-major: each used hash unit folds the
    ///    key fields of a lane group of packets straight into their CRCs
    ///    through its compiled key plan, in lockstep
    ///    ([`HashUnit::compute_lanes`]) — every packet for a unit an
    ///    unconditional CMU reads ([`GroupProgram::dense_units`]), the
    ///    packets that matched somewhere for any other. While no
    ///    program reads PHV contexts, a gated CMU's matches then pass
    ///    its coupon gates ([`GroupProgram::gate_of`]), and a unit only
    ///    gated rows read digests just what passed;
    /// 3. **resolve + apply** per CMU, fused: one [`Salu::sweep`] per run
    ///    of matched (or passed) packets sharing a binding, with the
    ///    operand closure chosen once per run from the binding's
    ///    [`OperandKernel`] ([`sweep_binding`]), recording the forwarded
    ///    output into the packet's PHV context on the way out.
    ///
    /// Pass 3 runs per CMU *in index order* because downstream CMUs'
    /// parameters may read upstream results from the packet's context
    /// (`PrevResult`/`ChainMin`/gated preps) — the same order the serial
    /// path establishes, which is what makes the two paths bit-identical.
    /// Matching (pass 1) reads only packet fields and the coin, a
    /// stateless hash of packet fields and the task id, never the
    /// context or a register: hoisting it, and running it once for
    /// several CMUs, is unobservable. A digest slot pass 2 skips is one
    /// no compiled plan reads.
    ///
    /// `mark_executed` flags packets that executed a task here in
    /// `batch.executed` (the caller's recirculation accounting for
    /// spliced groups); `record_ctx` is the pipeline-wide "some program
    /// reads PHV contexts" flag — when false, context recording is
    /// skipped (the values would be unobservable).
    ///
    /// `lanes` is the lane-group width of pass 2 (clamped to
    /// `1..=CRC_LANES`): that many keys digested in lockstep. A width of
    /// one runs the same kernel on groups of one; every width is
    /// bit-identical (pinned by `tests/batch.rs`).
    pub fn process_chunk(
        &mut self,
        pkts: &[Packet],
        batch: &mut BatchScratch,
        mark_executed: bool,
        record_ctx: bool,
        lanes: usize,
    ) {
        if self.program.is_empty() {
            return;
        }
        let lanes = lanes.clamp(1, CRC_LANES);
        let group_index = self.index;
        let CmuGroup {
            units,
            cmus,
            program,
            ..
        } = self;
        let n = pkts.len();
        batch.begin_group(cmus.len(), n);

        // Pass 1: one matched list per match signature, built by the
        // first CMU that has it. An unconditional CMU matches every
        // packet at binding 0 and needs no list: pass 3 iterates the
        // chunk directly.
        let mut any_sparse = false;
        for (ci, cprog) in program.cmus.iter().enumerate() {
            if cprog.bindings.is_empty() || cprog.always || program.match_of[ci] != ci {
                continue;
            }
            any_sparse = true;
            let matched = &mut batch.matched[ci];
            matched.clear();
            matched.resize(n, (0, 0));
            // The loop is chosen per rule list, not per packet: a list
            // with no sampled rule runs without the coin compiled in.
            let match_rules = if cprog.sampled {
                match_rules::<true>
            } else {
                match_rules::<false>
            };
            let len = match_rules(
                &cprog.rules,
                pkts,
                &mut batch.coins[..n],
                matched,
                &mut batch.need_digest[..n],
            );
            matched.truncate(len);
        }

        // Pass 2: extract + digest, unit-major. A dense unit's domain is
        // the whole chunk; any other used unit's is the packed list of
        // packets that matched some conditional CMU. Slots outside a
        // unit's domain keep stale values no compiled plan reads
        // (exactly the serial path's lazy-zero slots). A gated step's
        // output only a recorded context could see, so without one the
        // gates run, and a unit only gated rows read waits for them.
        let gating = !record_ctx && program.cmus.iter().any(|c| c.gated);
        let late = |u: usize| gating && program.gated_units[u];
        batch.digest_idx.clear();
        if any_sparse {
            batch.digest_idx.resize(n, 0);
            let mut len = 0;
            for (pi, &need) in batch.need_digest[..n].iter().enumerate() {
                batch.digest_idx[len] = pi as u32;
                len += usize::from(need);
            }
            batch.digest_idx.truncate(len);
        }
        for (u, unit) in units.iter().enumerate() {
            if program.unit_used[u] && !late(u) {
                let domain = if program.dense_units[u] {
                    &batch.all_idx[..n]
                } else {
                    batch.digest_idx.as_slice()
                };
                digest(unit, u, domain, pkts, lanes, &mut batch.digests);
            }
        }
        if gating {
            // One gated list per (match signature, gates) over the gate
            // keys just digested, then the late units over what passed.
            batch.digest_idx.clear();
            for (ci, cprog) in program.cmus.iter().enumerate() {
                if !cprog.gated || program.gate_of[ci] != ci {
                    continue;
                }
                let (gated, late) = (&mut batch.gated[ci], &mut batch.digest_idx);
                gated.clear();
                if cprog.always {
                    let steps = (0..n as u32).map(|pi| (pi, 0));
                    gate_run(cprog.bindings[0].gate, steps, &batch.digests, gated, late);
                } else {
                    for (bi, run) in runs(&batch.matched[program.match_of[ci]]) {
                        let (gate, steps) = (cprog.bindings[bi].gate, run.iter().copied());
                        gate_run(gate, steps, &batch.digests, gated, late);
                    }
                }
            }
            for (u, unit) in units.iter().enumerate() {
                if late(u) {
                    digest(unit, u, &batch.digest_idx, pkts, lanes, &mut batch.digests);
                }
            }
        }

        // Pass 3: fused resolve + apply, per CMU in index order
        // (cross-CMU PHV deps).
        let ctxs = batch.ctxs.as_mut_slice();
        for (ci, (cmu, cprog)) in cmus.iter_mut().zip(program.cmus.iter()).enumerate() {
            let chunk = ChunkView {
                pkts,
                digests: &batch.digests,
                bucket_mask: program.bucket_mask,
                record: record_ctx.then_some((group_index, ci)),
            };
            if cprog.bindings.is_empty() {
                continue;
            }
            // A compiled binding and the installed one it came from sit
            // at the same index; the sweep reads the latter only under
            // `OperandKernel::Interpreted`.
            let Cmu {
                salu,
                bindings,
                hits,
            } = cmu;
            // Hits and recirculation count every match, gated or not: a
            // gated CMU counts its runs here, any other as it sweeps.
            let matched = batch.matched[program.match_of[ci]].as_slice();
            let gated = gating && cprog.gated;
            if cprog.always {
                hits[0] += n as u64;
                if mark_executed {
                    batch.executed[..n].fill(true);
                }
            } else {
                for (bi, run) in runs(if gated { matched } else { &[] }) {
                    hits[bi] += run.len() as u64;
                }
                if mark_executed {
                    for &(pi, _) in matched {
                        batch.executed[pi as usize] = true;
                    }
                }
            }
            // The gated or the matched list, cut into runs of one binding
            // so each run is a single sweep with one kernel (usually one
            // run: a CMU mostly holds one binding per traffic class).
            let steps = if gated {
                batch.gated[program.gate_of[ci]].as_slice()
            } else if cprog.always {
                // Dense: the packet index *is* the step index.
                sweep_binding(salu, &cprog.bindings[0], &bindings[0], n, |k| k, &chunk, ctxs);
                continue;
            } else {
                matched
            };
            for (bi, run) in runs(steps) {
                hits[bi] += if gated { 0 } else { run.len() as u64 };
                let (cb, b) = (&cprog.bindings[bi], &bindings[bi]);
                sweep_binding(salu, cb, b, run.len(), move |k| run[k].0 as usize, &chunk, ctxs);
            }
        }
    }
}

/// Pass 2 for one unit: the packets `idx` names, `lanes` at a time, into
/// column `u` of the digest matrix `out`.
fn digest(unit: &HashUnit, u: usize, idx: &[u32], pkts: &[Packet], lanes: usize, out: &mut [u32]) {
    let mut lane = [0u32; CRC_LANES];
    for idx_group in idx.chunks(lanes) {
        let lane = &mut lane[..idx_group.len()];
        unit.compute_lanes(idx_group.iter().map(|&pi| &pkts[pi as usize]), lane);
        for (&pi, &digest) in idx_group.iter().zip(lane.iter()) {
            out[pi as usize * MAX_HASH_UNITS + u] = digest;
        }
    }
}

/// A step list cut into runs of one binding, as `(binding, run)`.
fn runs(mut rest: &[(u32, u16)]) -> impl Iterator<Item = (usize, &[(u32, u16)])> {
    std::iter::from_fn(move || {
        let &(_, bi) = rest.first()?;
        let len = rest.iter().position(|&(_, b)| b != bi).unwrap_or(rest.len());
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some((usize::from(bi), run))
    })
}

/// Appends to a gated list the `steps` of one binding that its gate, if
/// any, lets through, and their packets to the `late` digest domain. A
/// gate passes few packets: the branch is predictable, the gate hoisted.
fn gate_run(
    gate: Option<Gate>,
    steps: impl Iterator<Item = (u32, u16)>,
    digests: &[u32],
    gated: &mut Vec<(u32, u16)>,
    late: &mut Vec<u32>,
) {
    let Some(gate) = gate else {
        return gated.extend(steps);
    };
    for (pi, bi) in steps {
        let p = pi as usize;
        if gate.passes(&digests[p * MAX_HASH_UNITS..(p + 1) * MAX_HASH_UNITS]) {
            gated.push((pi, bi));
            late.push(pi);
        }
    }
}

/// Pass 1 for one rule list: writes `(packet, binding)` for every packet
/// of `pkts` some rule takes into the front of `matched`, in packet
/// order, flags the packet in `need_digest`, and returns how many it
/// wrote. All three slices are as long as `pkts`.
fn match_rules<const SAMPLED: bool>(
    rules: &[MatchRule],
    pkts: &[Packet],
    coins: &mut [CoinScratch],
    matched: &mut [(u32, u16)],
    need_digest: &mut [bool],
) -> usize {
    let none = rules.len();
    let mut len = 0;
    for (pi, ((pkt, coin), need)) in pkts.iter().zip(coins).zip(need_digest).enumerate() {
        // First match wins: walked backwards, the last rule to overwrite
        // `chosen` is the first in match order, and no iteration depends
        // on the one before it. The probe set may exceed the per-packet
        // path's (it stops at its first match); filters and coins are
        // pure, so the extra probes are unobservable.
        let mut chosen = none;
        for (bi, rule) in rules.iter().enumerate().rev() {
            let mut hit = rule.filter_matches(pkt);
            if SAMPLED && rule.coin_mask != 0 && hit {
                hit = u64::from(coin.coin(pkt, rule.task)) & rule.coin_mask == 0;
            }
            if hit {
                chosen = bi;
            }
        }
        // Branch-free emission: write the slot, keep it on a hit.
        let hit = chosen != none;
        matched[len] = (pi as u32, chosen as u16);
        len += usize::from(hit);
        *need |= hit;
    }
    len
}

/// What pass 3 reads of the chunk, the same for every binding of a CMU.
#[derive(Clone, Copy)]
struct ChunkView<'a> {
    pkts: &'a [Packet],
    /// The packet-major digest matrix ([`BatchScratch::digests`]).
    digests: &'a [u32],
    bucket_mask: usize,
    /// The `(group, cmu)` to record forwarded outputs under, or `None`
    /// when no program reads PHV contexts.
    record: Option<(usize, usize)>,
}

impl ChunkView<'_> {
    #[inline]
    fn digests_of(&self, p: usize) -> &[u32] {
        &self.digests[p * MAX_HASH_UNITS..(p + 1) * MAX_HASH_UNITS]
    }
}

/// Pass 3 for `count` packets that execute binding `cb` — pipeline
/// stages 2 to 4, fused. Step `k` is packet `index(k)` of the chunk;
/// `installed` is the binding `cb` was compiled from, read only under
/// [`OperandKernel::Interpreted`].
///
/// The closure that yields a packet's prepared `(p1, p2)` is selected
/// here, outside the loop, from the binding's [`OperandKernel`]: the
/// loop itself then reads what the kernel names and nothing else. The
/// ranges the arithmetic relies on (one-hot widths and coupon counts
/// within 32 bits, ρ shifts below 32, unit indices the group has) are
/// checked by [`CmuGroup::install`].
fn sweep_binding(
    salu: &mut Salu,
    cb: &CompiledBinding,
    installed: &CmuBinding,
    count: usize,
    index: impl Fn(usize) -> usize + Copy,
    chunk: &ChunkView<'_>,
    ctxs: &mut [PacketContext],
) {
    // Every closure below owns what it reads (`move`): handed to the
    // sweep by value, its captures are the loop's own and stay in
    // registers, where a borrowed capture is re-read from the caller's
    // frame after every bucket store.
    let view = *chunk;
    let pkts = view.pkts;
    macro_rules! sweep {
        ($params:expr) => {
            fused_sweep(salu, cb, count, index, chunk, ctxs, $params)
        };
    }
    match cb.kernel {
        OperandKernel::Const(p1, p2) => sweep!(move |_, _| (p1, p2)),
        OperandKernel::Field { field, p2 } => match field {
            PacketField::Bytes => sweep!(move |_, p| (u32::from(pkts[p].len), p2)),
            PacketField::TimestampUs => sweep!(move |_, p| ((pkts[p].ts_ns / 1_000) as u32, p2)),
            PacketField::QueueLen => sweep!(move |_, p| (pkts[p].queue_len, p2)),
            PacketField::QueueDelayUs => sweep!(move |_, p| (pkts[p].queue_delay_ns / 1_000, p2)),
        },
        OperandKernel::Key { key, prep, p2 } => {
            let key = move |p: usize| key.resolve(view.digests_of(p));
            match prep {
                KeyPrep::None => sweep!(move |_, p| (key(p), p2)),
                KeyPrep::OneHotMask(mask) => sweep!(move |_, p| (1 << (key(p) & mask), p2)),
                KeyPrep::OneHotMod(bits) => sweep!(move |_, p| (1 << (key(p) % bits), p2)),
                KeyPrep::Coupon { recip, total } => {
                    sweep!(move |_, p| (coupon_bit(key(p), recip, total), p2))
                }
                KeyPrep::Rho {
                    skip_top,
                    consider_bits,
                } => sweep!(move |_, p| {
                    let rho = (key(p) << skip_top).leading_zeros().min(consider_bits) + 1;
                    (rho, p2)
                }),
            }
        }
        // The reference leaves themselves: initialization-stage
        // parameter selection, then the preparation stage.
        OperandKernel::Interpreted => sweep!(move |ctxs: &[PacketContext], p| {
            let (pkt, digests, ctx) = (&pkts[p], view.digests_of(p), &ctxs[p]);
            let p1 = installed.p1.resolve(pkt, digests, ctx);
            let p2 = installed.p2.resolve(pkt, digests, ctx);
            installed.prep.apply(p1, p2, ctx)
        }),
    }
}

/// One [`Salu::sweep`] under binding `cb`: step `k` resolves packet
/// `index(k)`'s translated address and its prepared `params(ctxs, p)`,
/// applies `cb.op`, and records the output `cb.forward` selects into
/// that packet's PHV context (a no-op sink when `chunk.record` is
/// `None`).
fn fused_sweep(
    salu: &mut Salu,
    cb: &CompiledBinding,
    count: usize,
    index: impl Fn(usize) -> usize + Copy,
    chunk: &ChunkView<'_>,
    ctxs: &mut [PacketContext],
    params: impl Fn(&[PacketContext], usize) -> (u32, u32),
) {
    let (addr, forward, view) = (cb.addr, cb.forward, *chunk);
    let operands = move |ctxs: &[PacketContext], k: usize| {
        let p = index(k);
        let (p1, p2) = params(ctxs, p);
        (addr.address(view.digests_of(p), view.bucket_mask), p1, p2)
    };
    match view.record {
        Some((group, cmu)) => salu.sweep(cb.op, count, ctxs, operands, move |ctxs, k, p1, out| {
            ctxs[index(k)].record(group, cmu, forward.select(p1, out));
        }),
        None => salu.sweep(cb.op, count, ctxs, operands, |_, _, _, _| {}),
    }
    .expect("installed ops are pre-loaded and addresses in range");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::TranslationMethod;
    use crate::oracle::PerPacketGroup;
    use flymon_packet::KeySpec;

    fn small_group() -> CmuGroup {
        let mut g = CmuGroup::new(0, GroupConfig {
            compression_units: 3,
            cmus: 3,
            buckets_per_cmu: 256,
            bucket_bits: 16,
        });
        g.unit_mut(0).set_mask(KeySpec::SRC_IP);
        g
    }

    fn count_binding(task: u32) -> CmuBinding {
        CmuBinding {
            task: TaskId(task),
            filter: TaskFilter::ANY,
            prob_log2: 0,
            key: KeySelect {
                source: KeySource::Unit(0),
                slice_shift: 0,
            },
            p1: ParamSource::Const(1),
            p2: ParamSource::Const(u32::MAX),
            prep: PrepAction::None,
            translation: AddrTranslation::IDENTITY,
            op: StatefulOp::CondAdd,
            forward: Forward::Result,
        }
    }

    #[test]
    fn frequency_counting_end_to_end() {
        let mut g = small_group();
        g.install(0, count_binding(1)).unwrap();
        let mut ctx = PacketContext::default();
        let pkt = Packet::tcp(0x0a000001, 2, 3, 4);
        for _ in 0..5 {
            ctx.reset();
            g.process(&pkt, &mut ctx);
        }
        // The last process recorded the running count.
        assert_eq!(ctx.get(crate::params::CmuRef { group: 0, cmu: 0 }), 5);
        // The bucket itself holds 5.
        let mut compressed = HashScratch::default();
        g.compress_into(&pkt, &mut compressed);
        let addr = count_binding(1).key.address(compressed.as_slice(), 8) as usize;
        assert_eq!(g.cmus()[0].register().read(addr).unwrap(), 5);
    }

    #[test]
    fn filter_isolates_tasks() {
        let mut g = small_group();
        let mut b = count_binding(1);
        b.filter = TaskFilter::src(0x0a00_0000, 8); // 10/8 only
        g.install(0, b).unwrap();
        let mut ctx = PacketContext::default();
        g.process(&Packet::tcp(0x0b00_0001, 2, 3, 4), &mut ctx); // 11.x
        // No CMU executed.
        assert_eq!(ctx.get(crate::params::CmuRef { group: 0, cmu: 0 }), 0);
        g.process(&Packet::tcp(0x0a00_0001, 2, 3, 4), &mut ctx);
        assert_eq!(ctx.get(crate::params::CmuRef { group: 0, cmu: 0 }), 1);
    }

    #[test]
    fn one_task_per_packet_per_cmu() {
        // Two all-traffic bindings on one CMU: only the first runs.
        let mut g = small_group();
        let mut second = count_binding(2);
        second.translation =
            AddrTranslation::new(1, 1, TranslationMethod::TcamBased);
        g.install(0, count_binding(1)).unwrap();
        g.install(0, second).unwrap();
        let mut ctx = PacketContext::default();
        for _ in 0..10 {
            ctx.reset();
            g.process(&Packet::tcp(1, 2, 3, 4), &mut ctx);
        }
        // Task 2's partition [128, 256) must be untouched.
        let upper = g.cmus()[0].register().read_range(128, 256).unwrap();
        assert!(upper.iter().all(|v| v == 0), "second task must not run");
    }

    #[test]
    fn partitioned_tasks_coexist() {
        let mut g = small_group();
        let mut a = count_binding(1);
        a.filter = TaskFilter::src(0x0a00_0000, 8);
        a.translation = AddrTranslation::new(1, 0, TranslationMethod::TcamBased);
        let mut b = count_binding(2);
        b.filter = TaskFilter::src(0x1400_0000, 8); // 20/8, disjoint
        b.translation = AddrTranslation::new(1, 1, TranslationMethod::TcamBased);
        g.install(0, a).unwrap();
        g.install(0, b).unwrap();
        let mut ctx = PacketContext::default();
        for i in 0..32u32 {
            g.process(&Packet::tcp(0x0a00_0000 + i, 2, 3, 4), &mut ctx);
            g.process(&Packet::tcp(0x1400_0000 + i, 2, 3, 4), &mut ctx);
        }
        let lower: u32 = g.cmus()[0].register().read_range(0, 128).unwrap().iter().sum();
        let upper: u32 = g.cmus()[0].register().read_range(128, 256).unwrap().iter().sum();
        assert_eq!(lower, 32, "task 1 counts live in its partition");
        assert_eq!(upper, 32, "task 2 counts live in its partition");
    }

    #[test]
    fn probabilistic_execution_samples() {
        let mut g = small_group();
        let mut b = count_binding(1);
        b.prob_log2 = 2; // p = 1/4
        g.install(0, b).unwrap();
        let mut ctx = PacketContext::default();
        let n = 4_000u32;
        for i in 0..n {
            let pkt = flymon_packet::PacketBuilder::new()
                .src_ip(1)
                .ts_ns(u64::from(i))
                .build();
            g.process(&pkt, &mut ctx);
        }
        let total: u32 = g.cmus()[0].register().read_range(0, 256).unwrap().iter().sum();
        let rate = f64::from(total) / f64::from(n);
        assert!(
            (rate - 0.25).abs() < 0.05,
            "sampling rate {rate} should be ~0.25"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_bucket_geometry_rejected() {
        // Regression: this used to slip past construction and panic later
        // in addr_bits() (ilog2 of 0).
        CmuGroup::new(0, GroupConfig {
            buckets_per_cmu: 0,
            ..GroupConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_geometry_rejected() {
        // Regression: 300 buckets used to be accepted and silently alias
        // buckets through the floored address width (ilog2(300) = 8).
        CmuGroup::new(0, GroupConfig {
            buckets_per_cmu: 300,
            ..GroupConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "compression_units")]
    fn zero_unit_geometry_rejected() {
        CmuGroup::new(0, GroupConfig {
            compression_units: 0,
            ..GroupConfig::default()
        });
    }

    #[test]
    fn oversized_prob_log2_rejected_at_install() {
        // Regression: prob_log2 >= 32 used to overflow `1u32 << prob_log2`
        // in coin_passes (wrap in release → the coin always passed).
        let mut g = small_group();
        let mut b = count_binding(1);
        b.prob_log2 = MAX_PROB_LOG2 + 1;
        assert!(g.install(0, b).is_err());
    }

    #[test]
    fn hostile_preparations_and_parameter_units_rejected_at_install() {
        // Regression: each of these used to install and then panic on
        // the first matching packet — a division by zero, a shift past
        // 32 bits, a digest slot the group does not have.
        use crate::params::CmuRef;
        let seen = CmuRef { group: 0, cmu: 0 };
        let key = |src| ParamSource::CompressedKey(src);
        let with_prep = |prep| CmuBinding {
            p1: key(KeySource::Unit(0)),
            prep,
            ..count_binding(1)
        };
        let mut bad_key = count_binding(1);
        bad_key.key.source = KeySource::Xor(5, 0);
        let hostile = [
            ("zero one-hot width", with_prep(PrepAction::OneHotBit { bits: 0 })),
            ("one-hot width 33", with_prep(PrepAction::OneHotBit { bits: 33 })),
            (
                "gated zero one-hot width",
                with_prep(PrepAction::OneHotBitGated { bits: 0, seen }),
            ),
            (
                "gated one-hot width 200",
                with_prep(PrepAction::OneHotBitGated { bits: 200, seen }),
            ),
            (
                "33 coupons",
                with_prep(PrepAction::Coupon { coupons: 33, space: 1 << 20 }),
            ),
            (
                "rho skipping 32 bits",
                with_prep(PrepAction::Rho { skip_top: 32, consider_bits: 16 }),
            ),
            (
                "p1 from unit 3 of 3",
                CmuBinding { p1: key(KeySource::Unit(3)), ..count_binding(1) },
            ),
            (
                "p2 from unit 7",
                CmuBinding { p2: key(KeySource::Unit(7)), ..count_binding(1) },
            ),
            (
                "p1 from 0 ^ unit 3",
                CmuBinding { p1: key(KeySource::Xor(0, 3)), ..count_binding(1) },
            ),
            ("key from 5 ^ unit 0", bad_key),
        ];
        let mut g = small_group();
        g.install(1, count_binding(9)).unwrap();
        let before = (g.program().clone(), g.program_version());
        for (what, b) in hostile {
            let err = g.install(0, b).expect_err(what);
            assert!(matches!(err, RmtError::IndexOutOfRange { .. }), "{what}: {err}");
            // Rejected before anything was pushed or recompiled.
            assert!(g.cmus()[0].bindings().is_empty(), "{what}");
            assert_eq!((g.program().clone(), g.program_version()), before, "{what}");
        }
        // The widest values that are in range install and execute.
        let edges = [
            PrepAction::OneHotBit { bits: 1 },
            PrepAction::OneHotBit { bits: 32 },
            PrepAction::Coupon { coupons: 32, space: 1 << 27 },
            PrepAction::Coupon { coupons: 32, space: 0 },
            PrepAction::Rho { skip_top: 31, consider_bits: 255 },
        ];
        for (task, prep) in edges.into_iter().enumerate() {
            let mut b = count_binding(task as u32);
            b.p1 = key(KeySource::Xor(0, 2));
            b.prep = prep.clone();
            b.op = StatefulOp::AndOr;
            let mut g = small_group();
            g.install(0, b).unwrap_or_else(|e| panic!("{prep:?}: {e}"));
            let pkts: Vec<Packet> = (0..300u32)
                .map(|i| Packet::tcp(i.wrapping_mul(0x0101_0101), 2, 3, 4))
                .collect();
            let mut batch = BatchScratch::default();
            batch.begin_chunk(pkts.len(), false);
            g.process_chunk(&pkts, &mut batch, false, false, CRC_LANES);
            let mut ctx = PacketContext::default();
            g.process(&pkts[0], &mut ctx);
        }
    }

    #[test]
    fn prob_log2_32_behaves_as_never_sample() {
        let mut g = small_group();
        let mut b = count_binding(1);
        b.prob_log2 = MAX_PROB_LOG2;
        g.install(0, b).unwrap();
        let mut ctx = PacketContext::default();
        for i in 0..10_000u32 {
            let pkt = flymon_packet::PacketBuilder::new()
                .src_ip(i)
                .ts_ns(u64::from(i))
                .build();
            g.process(&pkt, &mut ctx);
        }
        // p = 2^-32: admitting any of 10k packets is a ~2e-6 event, and
        // the coin is deterministic, so this asserts exact behavior.
        let total: u32 = g.cmus()[0].register().read_range(0, 256).unwrap().iter().sum();
        assert_eq!(total, 0, "prob_log2 = 32 must behave as never-sample");
    }

    #[test]
    fn unconfigured_cmu_is_inert() {
        let mut g = small_group();
        let mut ctx = PacketContext::default();
        g.process(&Packet::tcp(1, 2, 3, 4), &mut ctx);
        for cmu in g.cmus() {
            let sum: u32 = cmu.register().read_range(0, 256).unwrap().iter().sum();
            assert_eq!(sum, 0);
        }
    }

    #[test]
    fn remove_task_uninstalls_everywhere() {
        let mut g = small_group();
        g.install(0, count_binding(7)).unwrap();
        g.install(1, count_binding(7)).unwrap();
        g.install(2, count_binding(8)).unwrap();
        assert_eq!(g.remove_task(TaskId(7)), 2);
        assert!(g.cmus()[0].bindings().is_empty());
        assert_eq!(g.cmus()[2].bindings().len(), 1);
    }

    #[test]
    fn install_all_checks_every_binding_before_one_refresh() {
        let mut g = small_group();
        let version = g.program_version();
        let row = count_binding(1);
        g.install_all((0..3).map(|cmu| (cmu, &row))).unwrap();
        assert_eq!(g.program_version(), version + 1, "three rows, one refresh");
        assert_eq!(g.program(), &g.reference_program());
        // A refused binding anywhere in the call refuses all of it.
        let (good, mut bad) = (count_binding(2), count_binding(2));
        bad.prob_log2 = MAX_PROB_LOG2 + 1;
        let before = (g.program().clone(), g.program_version());
        assert!(g.install_all([(0, &good), (1, &bad)].into_iter()).is_err());
        assert_eq!((g.program().clone(), g.program_version()), before);
        assert!(g.cmus().iter().all(|c| c.bindings().len() == 1));
        g.install_all(std::iter::empty()).unwrap();
        assert_eq!(g.program_version(), before.1, "an empty install is no mutation");
    }

    #[test]
    fn every_binding_mutation_leaves_the_whole_program_fresh() {
        // A mutation recompiles only the CMUs it touched; the program
        // as a whole — the untouched CMUs, the unit-usage mask, the
        // context flag — must still equal a from-scratch compile, and
        // the version must move, after each one.
        use crate::params::CmuRef;
        let mut g = small_group();
        g.unit_mut(1).set_mask(KeySpec::DST_IP);
        let mut version = g.program_version();
        let mut fresh = |g: &CmuGroup, what: &str| {
            assert_eq!(g.program(), &g.reference_program(), "{what}");
            assert!(g.program_version() > version, "{what} did not bump the version");
            version = g.program_version();
        };
        let mut filtered = count_binding(1);
        filtered.filter = TaskFilter::src(0x0a00_0000, 8);
        g.install(0, filtered).unwrap();
        fresh(&g, "install on CMU 0");
        assert!(!g.program().cmus[0].always);
        assert_eq!(g.program().dense_units, [false; MAX_HASH_UNITS]);
        let mut chained = count_binding(2);
        chained.key.source = KeySource::Unit(1);
        chained.p1 = ParamSource::PrevResult(CmuRef { group: 0, cmu: 0 });
        g.install(2, chained).unwrap();
        fresh(&g, "install on CMU 2");
        assert!(g.program().reads_ctx && g.program().unit_used[1]);
        // CMU 2 is unconditional and reads unit 1; unit 0 is read by the
        // filtered CMU 0 only.
        assert_eq!(g.program().dense_units[..2], [false, true]);
        g.install(0, count_binding(2)).unwrap();
        g.install(1, count_binding(3)).unwrap();
        fresh(&g, "installs on CMUs 0 and 1");
        assert_eq!(g.program().match_of, [0, 1, 2]);
        // A second row of task 1's sketch under task 3 on CMU 1: the
        // rule lists of CMUs 0 and 1 still differ (order matters) ...
        let mut row = count_binding(1);
        row.filter = TaskFilter::src(0x0a00_0000, 8);
        g.install(1, row.clone()).unwrap();
        fresh(&g, "second install on CMU 1");
        assert_eq!(g.program().match_of, [0, 1, 2]);
        // ... and two CMUs share a matched list exactly while their
        // lists are equal, rule for rule.
        assert!(g.uninstall(1, TaskId(3)));
        g.install(1, count_binding(2)).unwrap();
        fresh(&g, "reorder CMU 1");
        assert_eq!(g.program().match_of, [0, 0, 2]);
        assert!(g.uninstall(1, TaskId(2)));
        fresh(&g, "uninstall the second rule of CMU 1");
        assert_eq!(g.program().match_of, [0, 1, 2]);
        assert!(g.uninstall(1, TaskId(1)));
        g.install(1, count_binding(3)).unwrap();
        assert!(g.uninstall(0, TaskId(1)));
        fresh(&g, "uninstall from CMU 0");
        assert!(g.program().cmus[0].always, "the unconditional binding is first now");
        assert_eq!(g.program().dense_units[..2], [true, true]);
        assert!(!g.uninstall(1, TaskId(9)));
        assert_eq!(g.remove_task(TaskId(2)), 2);
        fresh(&g, "remove_task across CMUs 0 and 2");
        assert!(!g.program().reads_ctx && !g.program().unit_used[1]);
        assert_eq!(g.program().dense_units[..2], [true, false]);
        assert_eq!(g.program().cmus[1].bindings.len(), 1);
        g.invalidate_program();
        fresh(&g, "invalidate");
    }

    /// Every binding shape `compiler::build_bindings` emits — each
    /// `Algorithm` variant, byte counts, both queue maxima, XOR keys —
    /// placed on CMUs of three 3-unit groups, then a few it does not
    /// emit; as `(label, binding, kernel)`, the last being the
    /// [`OperandKernel`] `select` gives the binding: `C`onst, `F`ield,
    /// `K`ey or `I`nterpreted. The `I`s are the whole list of recipe
    /// rows that are interpreted — each reads an upstream CMU's result
    /// off the PHV.
    fn binding_shapes() -> Vec<(String, CmuBinding, char)> {
        use crate::compiler::{build_bindings, PlacedRow};
        use crate::task::{Algorithm, Attribute, MaxParam, TaskDefinition};
        let row = |group: usize, cmu: usize, xor: bool| PlacedRow {
            group,
            cmu,
            slice_shift: 8 * cmu as u8,
            translation: AddrTranslation::new(2, 1 + cmu as u32, TranslationMethod::TcamBased),
            offset: 0,
            size: 64,
            key_source: if xor { KeySource::Xor(0, 2) } else { KeySource::Unit(0) },
            param_source: Some(if xor { KeySource::Xor(1, 2) } else { KeySource::Unit(1) }),
            bucket_max: 0xffff,
        };
        let def = |key, attribute| TaskDefinition::builder("t").key(key).attribute(attribute).build();
        let frequency = def(KeySpec::SRC_IP, Attribute::frequency_packets());
        let bytes = def(KeySpec::SRC_IP, Attribute::frequency_bytes());
        let distinct = def(KeySpec::DST_IP, Attribute::Distinct(KeySpec::SRC_IP));
        let cardinality = def(KeySpec::NONE, Attribute::Distinct(KeySpec::FIVE_TUPLE));
        let existence = def(KeySpec::NONE, Attribute::Existence(KeySpec::SRC_IP));
        let queue_len = def(KeySpec::DST_IP, Attribute::Max(MaxParam::QueueLen));
        let queue_delay = def(KeySpec::DST_IP, Attribute::Max(MaxParam::QueueDelayUs));
        let interval = def(KeySpec::FIVE_TUPLE, Attribute::Max(MaxParam::PacketIntervalUs));
        let cases = [
            (&frequency, Algorithm::Cms { d: 3 }, false, "CCC"),
            (&bytes, Algorithm::Cms { d: 2 }, false, "FF"),
            (&bytes, Algorithm::SuMaxSum { d: 3 }, true, "FII"),
            (&frequency, Algorithm::Mrac, false, "C"),
            (&frequency, Algorithm::Tower { d: 3 }, false, "CCC"),
            (&frequency, Algorithm::CounterBraids, true, "CI"),
            (&cardinality, Algorithm::Hll, false, "K"),
            (&distinct, Algorithm::Hll, true, "K"),
            (&cardinality, Algorithm::LinearCounting, true, "K"),
            (&distinct, Algorithm::BeauCoup { d: 3 }, false, "KKK"),
            (&distinct, Algorithm::BeauCoup { d: 2 }, true, "KK"),
            (&existence, Algorithm::Bloom { d: 3, bit_optimized: true }, false, "KKK"),
            (&existence, Algorithm::Bloom { d: 2, bit_optimized: true }, true, "KK"),
            (&existence, Algorithm::Bloom { d: 2, bit_optimized: false }, false, "CC"),
            (&queue_len, Algorithm::SuMaxMax { d: 2 }, false, "FF"),
            (&queue_delay, Algorithm::SuMaxMax { d: 2 }, true, "FF"),
            (&existence, Algorithm::OddSketch, false, "KI"),
            (&existence, Algorithm::OddSketch, true, "KI"),
            (&interval, Algorithm::MaxInterval { d: 1 }, false, "KFI"),
        ];
        let mut out = Vec::new();
        for (def, alg, xor, kernels) in cases {
            // Chained algorithms want ascending groups; one row per
            // group serves the single-group ones just as well.
            let rows: Vec<PlacedRow> = (0..alg.cmus_used()).map(|i| row(i / 3, i % 3, xor)).collect();
            let bindings = build_bindings(def, TaskId(7), alg, &rows).unwrap();
            assert_eq!(bindings.len(), kernels.len(), "{}", alg.name());
            for ((i, b), kernel) in bindings.into_iter().zip(kernels.chars()) {
                out.push((format!("{} row {i} (xor keys: {xor})", alg.name()), b, kernel));
            }
        }
        // What no recipe emits but `install` accepts: a second parameter
        // the preparation must override or pass through, a width that is
        // no power of two, a prepared packet field or constant.
        let shape = |p1: ParamSource, p2: u32, prep: PrepAction| CmuBinding {
            p1,
            p2: ParamSource::Const(p2),
            prep,
            ..count_binding(7)
        };
        let key = || ParamSource::CompressedKey(KeySource::Xor(1, 2));
        let coupon = PrepAction::Coupon {
            coupons: 32,
            space: 3 << 20,
        };
        let rho = PrepAction::Rho {
            skip_top: 7,
            consider_bits: 9,
        };
        for (b, kernel) in [
            (shape(key(), 0, PrepAction::OneHotBit { bits: 16 }), 'K'),
            (shape(key(), 0, PrepAction::OneHotBit { bits: 12 }), 'K'),
            (shape(key(), 0, coupon.clone()), 'K'),
            (shape(key(), 5, rho), 'K'),
            (shape(key(), 77, PrepAction::None), 'K'),
            (shape(ParamSource::PacketBytes, 0, PrepAction::OneHotBit { bits: 16 }), 'I'),
            (shape(ParamSource::QueueLen, 3, PrepAction::MapZero { when_zero: 9, otherwise: 2 }), 'I'),
            (shape(ParamSource::Const(1 << 21), 0, coupon), 'C'),
        ] {
            out.push((format!("hand-built {:?} of {:?}", b.prep, b.p1), b, kernel));
        }
        out
    }

    #[test]
    fn operand_kernels_equal_the_interpreter() {
        // For every binding shape, under its own operation and under
        // each other one (Cond-ADD's threshold and AND-OR's selector
        // make a wrong `p2` visible, XOR a wrong `p1` bit), the sweep
        // `sweep_binding` selects must leave exactly the register, the
        // dirty range and the forwarded outputs the per-packet oracle
        // leaves: `ParamSource::resolve` + `PrepAction::apply` +
        // `translate` + `Salu::execute`.
        use crate::params::CmuRef;
        use crate::program::CompiledCmu;
        use flymon_packet::{PacketBuilder, SplitMix64};
        const N: usize = 2_000;
        const BUCKETS: usize = 256;
        let mut rng = SplitMix64::new(0x0b5e_55ed);
        let pkts: Vec<Packet> = (0..N)
            .map(|_| {
                PacketBuilder::new()
                    .src_ip(rng.next_u32())
                    .dst_ip(rng.next_u32())
                    .len(rng.next_u16())
                    .ts_ns(rng.next_u64() >> (rng.next_u32() % 40))
                    .queue_len(rng.next_u32() >> (rng.next_u32() % 32))
                    .queue_delay_ns(rng.next_u32())
                    .build()
            })
            .collect();
        // Digests of every magnitude: coupon windows and ρ patterns live
        // at the small end of the hash space.
        let digests: Vec<u32> = (0..N * MAX_HASH_UNITS)
            .map(|_| rng.next_u32() >> (rng.next_u32() % 32))
            .collect();
        // Upstream results for the chained rows, zeros ("did not
        // update") included; the row under test records as (2, 2).
        let upstream: Vec<PacketContext> = (0..N)
            .map(|_| {
                let mut ctx = PacketContext::default();
                for (group, cmu) in [(0, 0), (0, 1), (0, 2), (1, 0)] {
                    match rng.next_u32() % 3 {
                        0 => {}
                        1 => ctx.record(group, cmu, 0),
                        _ => ctx.record(group, cmu, rng.next_u32() >> (rng.next_u32() % 32)),
                    }
                }
                ctx
            })
            .collect();
        let own = CmuRef { group: 2, cmu: 2 };
        let seed: Vec<u32> = (0..BUCKETS).map(|_| rng.next_u32() >> (rng.next_u32() % 32)).collect();
        let every_third: Vec<usize> = (0..N).step_by(3).collect();
        let ops = [StatefulOp::CondAdd, StatefulOp::Max, StatefulOp::AndOr, StatefulOp::Xor];

        let mut kernels = std::collections::HashSet::new();
        for (label, b, kernel) in binding_shapes() {
            let cb = CompiledCmu::compile(std::slice::from_ref(&b), BUCKETS).bindings.remove(0);
            // `select`'s decision table, row by row.
            let selected = match cb.kernel {
                OperandKernel::Const(..) => 'C',
                OperandKernel::Field { .. } => 'F',
                OperandKernel::Key { .. } => 'K',
                OperandKernel::Interpreted => 'I',
            };
            assert_eq!(selected, kernel, "{label}: {:?}", cb.kernel);
            kernels.insert(std::mem::discriminant(&cb.kernel));
            for (op, width) in ops.iter().flat_map(|&op| [(op, 16u8), (op, 32)]) {
                let (b, cb) = (CmuBinding { op, ..b.clone() }, CompiledBinding { op, ..cb });
                let fresh = || {
                    let mut cmu = Cmu::new(BUCKETS, width);
                    let max = cmu.register().max_value();
                    for (addr, &v) in seed.iter().enumerate() {
                        cmu.register_mut().write(addr, v & max).unwrap();
                    }
                    cmu.register_mut().clear_dirty();
                    cmu.salu
                };
                for steps in [&(0..N).collect::<Vec<_>>(), &every_third] {
                    let what = format!("{label} as {op:?} on {width} bits, {} steps", steps.len());
                    let mut oracle = fresh();
                    let mut expected = upstream.clone();
                    for &p in steps {
                        let compressed = &digests[p * MAX_HASH_UNITS..][..MAX_HASH_UNITS];
                        let ctx = &mut expected[p];
                        let raw = b.key.address(compressed, BUCKETS.ilog2() as u8);
                        let p1 = b.p1.resolve(&pkts[p], compressed, ctx);
                        let p2 = b.p2.resolve(&pkts[p], compressed, ctx);
                        let addr = b.translation.translate(raw, BUCKETS);
                        let (p1, p2) = b.prep.apply(p1, p2, ctx);
                        let out = oracle.execute(op, addr, p1, p2).unwrap();
                        ctx.record(own.group, own.cmu, b.forward.select(p1, out));
                    }
                    let mut swept = fresh();
                    let mut ctxs = upstream.clone();
                    let chunk = ChunkView {
                        pkts: &pkts,
                        digests: &digests,
                        bucket_mask: BUCKETS - 1,
                        record: Some((own.group, own.cmu)),
                    };
                    sweep_binding(&mut swept, &cb, &b, steps.len(), |k| steps[k], &chunk, &mut ctxs);
                    assert_eq!(
                        swept.register().read_range(0, BUCKETS).unwrap(),
                        oracle.register().read_range(0, BUCKETS).unwrap(),
                        "{what}"
                    );
                    assert_eq!(swept.register().dirty_range(), oracle.register().dirty_range(), "{what}");
                    for (p, (got, want)) in ctxs.iter().zip(&expected).enumerate() {
                        assert_eq!((got.len(), got.get(own)), (want.len(), want.get(own)), "{what}, packet {p}");
                    }
                }
            }
        }
        assert_eq!(kernels.len(), 4, "the bindings must reach all four kernels");
    }

    #[test]
    fn install_validates_indices() {
        let mut g = small_group();
        assert!(g.install(9, count_binding(1)).is_err());
        let mut bad_unit = count_binding(1);
        bad_unit.key.source = KeySource::Unit(5);
        assert!(g.install(0, bad_unit).is_err());
    }

    #[test]
    fn forward_variants() {
        // Old: a MAX recorder forwards the previous value.
        let mut g = small_group();
        let mut rec = count_binding(1);
        rec.op = StatefulOp::Max;
        rec.p1 = ParamSource::TimestampUs;
        rec.forward = Forward::Old;
        g.install(0, rec).unwrap();
        let mut ctx = PacketContext::default();
        let mk = |us: u64| {
            flymon_packet::PacketBuilder::new()
                .src_ip(1)
                .ts_ns(us * 1000)
                .build()
        };
        g.process(&mk(100), &mut ctx);
        assert_eq!(ctx.get(crate::params::CmuRef { group: 0, cmu: 0 }), 0);
        ctx.reset();
        g.process(&mk(250), &mut ctx);
        // Forwards the previous arrival time.
        assert_eq!(ctx.get(crate::params::CmuRef { group: 0, cmu: 0 }), 100);
    }
}
