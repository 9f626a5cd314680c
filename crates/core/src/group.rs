//! CMU Groups: the data-plane pipeline of §3.2 (Figure 7).
//!
//! A CMU Group spans four MAU stages. In this model each stage is a
//! phase of [`CmuGroup::process`]:
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
use crate::keysel::KeySelect;
use crate::params::{PacketContext, ParamSource};
use crate::prep::PrepAction;
use crate::program::{CompiledBinding, CompiledCmu, GroupProgram};
use crate::scratch::{BatchScratch, CoinScratch, PacketScratch};
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
    fn coin_passes(&self, pkt: &Packet, coin: &mut CoinScratch) -> bool {
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
    salu: Salu,
    bindings: Vec<CmuBinding>,
    /// Packets matched per binding (parallel to `bindings`) — the
    /// per-task hit counters an operator reads alongside the sketch.
    hits: Vec<u64>,
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
        debug_assert_eq!(hits.len(), self.bindings.len());
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
    units: Vec<HashUnit>,
    cmus: Vec<Cmu>,
    /// `unit_used[i]` ⇔ some installed binding reads unit `i`'s digest
    /// (via its key source or a compressed-key parameter). Maintained on
    /// install/uninstall so the per-packet path skips digests nothing
    /// consumes — the hardware hashes unconditionally (wires are free),
    /// but the digests are pure, so skipping unread ones is unobservable.
    unit_used: [bool; MAX_HASH_UNITS],
    /// The live bindings compiled flat for the batched datapath. Every
    /// binding mutation recompiles the CMUs it touched before it
    /// returns ([`CmuGroup::recompile_cmu`]), so this can never go stale
    /// relative to `cmus[..].bindings`.
    program: GroupProgram,
    /// Rebuild counter — bumps on every recompilation, letting tests
    /// pin that each mutation path invalidated the program.
    program_version: u64,
    /// Scratch reused by the cold-path [`CmuGroup::process`], so one-off
    /// packet calls stop paying a fresh `PacketScratch` allocation each
    /// time (the hot paths thread worker-owned scratch instead).
    cold_scratch: PacketScratch,
}

/// Recomputes which hash units any binding reads (key source or
/// compressed-key parameter) — shared by the in-place rebuild and the
/// non-mutating reference compile.
fn compute_unit_usage(cmus: &[Cmu]) -> [bool; MAX_HASH_UNITS] {
    let mut used = [false; MAX_HASH_UNITS];
    for cmu in cmus {
        for b in &cmu.bindings {
            for u in b.key.source.units() {
                used[u] = true;
            }
            for p in [&b.p1, &b.p2] {
                if let ParamSource::CompressedKey(src) = p {
                    for u in src.units() {
                        used[u] = true;
                    }
                }
            }
        }
    }
    used
}

impl CmuGroup {
    /// Creates group `index` of the pipeline with the given geometry.
    ///
    /// # Panics
    /// Panics if the bucket count is not a power of two (register
    /// constraint) or any dimension is zero. A zero or non-power-of-two
    /// bucket count would otherwise panic later in [`CmuGroup::addr_bits`]
    /// (`ilog2` of 0) or silently alias buckets through a floored address
    /// width, so the whole invariant is enforced here.
    pub fn new(index: usize, config: GroupConfig) -> Self {
        assert!(
            config.compression_units > 0,
            "group {index}: compression_units must be nonzero"
        );
        assert!(
            config.compression_units <= MAX_HASH_UNITS,
            "group {index}: {} compression units exceed the {MAX_HASH_UNITS} \
             independent hash polynomials a stage offers",
            config.compression_units
        );
        assert!(config.cmus > 0, "group {index}: cmus must be nonzero");
        assert!(
            config.buckets_per_cmu.is_power_of_two(),
            "group {index}: buckets_per_cmu must be a nonzero power of two \
             (register constraint), got {}",
            config.buckets_per_cmu
        );
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
            unit_used: [false; MAX_HASH_UNITS],
            // The empty program (what compile() yields with no bindings).
            program: GroupProgram {
                bucket_mask: config.buckets_per_cmu - 1,
                unit_used: [false; MAX_HASH_UNITS],
                cmus: vec![CompiledCmu::default(); config.cmus],
                reads_ctx: false,
            },
            program_version: 0,
            cold_scratch: PacketScratch::default(),
        }
    }

    /// Recompiles CMU `cmu`'s part of [`CmuGroup::program`] from its
    /// installed bindings — what a binding mutation costs: the other
    /// CMUs' compiled bindings depend on nothing that changed. The
    /// caller follows with [`CmuGroup::refresh_program`].
    fn recompile_cmu(&mut self, cmu: usize) {
        self.program.cmus[cmu] =
            CompiledCmu::compile(&self.cmus[cmu].bindings, self.config.buckets_per_cmu);
    }

    /// Re-derives what the program keeps about the group as a whole
    /// ([`CmuGroup::unit_used`], `reads_ctx`) after some CMU was
    /// recompiled, and bumps [`CmuGroup::program_version`].
    fn refresh_program(&mut self) {
        self.unit_used = compute_unit_usage(&self.cmus);
        self.program.unit_used = self.unit_used;
        self.program.reads_ctx = self.program.cmus.iter().any(CompiledCmu::reads_ctx);
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
        GroupProgram::compile(
            self.config.buckets_per_cmu,
            compute_unit_usage(&self.cmus),
            &bindings,
        )
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

    /// Runs the compression stage only: the compressed keys this group
    /// derives for `pkt`. Exposed so the control plane can replay the
    /// addressing path at query time.
    pub fn compressed_keys(&self, pkt: &Packet) -> Vec<u32> {
        let mut scratch = HashScratch::default();
        self.compress_into(pkt, &mut scratch);
        scratch.as_slice().to_vec()
    }

    /// Allocation-free compression stage: fills `out` with this group's
    /// compressed keys for `pkt`. This is the per-packet path; callers
    /// reuse one [`HashScratch`] across packets.
    pub fn compress_into(&self, pkt: &Packet, out: &mut HashScratch) {
        flymon_rmt::hash::compute_all(&self.units, pkt, out);
    }

    /// Installs a binding on CMU `cmu`.
    ///
    /// Rejects bindings whose `prob_log2` exceeds [`MAX_PROB_LOG2`]: the
    /// 32-bit sampling coin cannot express rates below 2⁻³², and an
    /// unchecked exponent would overflow the coin mask shift.
    pub fn install(&mut self, cmu: usize, binding: CmuBinding) -> Result<(), RmtError> {
        if cmu >= self.cmus.len() {
            return Err(RmtError::IndexOutOfRange {
                what: "CMU",
                index: cmu,
                limit: self.cmus.len(),
            });
        }
        if binding.prob_log2 > MAX_PROB_LOG2 {
            return Err(RmtError::IndexOutOfRange {
                what: "sampling exponent prob_log2",
                index: usize::from(binding.prob_log2),
                limit: usize::from(MAX_PROB_LOG2) + 1,
            });
        }
        for src in binding.key.source.units() {
            if src >= self.units.len() {
                return Err(RmtError::IndexOutOfRange {
                    what: "hash unit",
                    index: src,
                    limit: self.units.len(),
                });
            }
        }
        self.cmus[cmu].bindings.push(binding);
        self.cmus[cmu].hits.push(0);
        self.recompile_cmu(cmu);
        self.refresh_program();
        Ok(())
    }

    /// Removes the most recently installed binding of `task` on CMU
    /// `cmu` — the precise inverse of one [`CmuGroup::install`], used by
    /// transactional rollback. Returns whether a binding was removed.
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

    /// Removes every binding of `task` from every CMU; returns how many
    /// were removed.
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

    /// Processes one packet through the four stages. `ctx` carries
    /// PHV-resident results between groups; the caller processes groups
    /// in pipeline order.
    ///
    /// Convenience wrapper over [`CmuGroup::process_with_scratch`]
    /// against the group-owned cold-path scratch — one-off packet calls
    /// reset it instead of allocating a fresh `PacketScratch` per call;
    /// trace replay goes through `FlyMon`, which owns one scratch per
    /// worker.
    pub fn process(&mut self, pkt: &Packet, ctx: &mut PacketContext) {
        let mut scratch = std::mem::take(&mut self.cold_scratch);
        scratch.begin_packet();
        self.process_with_scratch(pkt, ctx, &mut scratch);
        self.cold_scratch = scratch;
    }

    /// [`CmuGroup::process`] against caller-owned per-packet scratch —
    /// the trace-replay hot path. The caller must have called
    /// [`PacketScratch::begin_packet`] at the packet boundary (shared
    /// scratch state spans groups; stale entries would alias the
    /// previous packet's keys).
    pub fn process_with_scratch(
        &mut self,
        pkt: &Packet,
        ctx: &mut PacketContext,
        scratch: &mut PacketScratch,
    ) {
        let addr_bits = self.addr_bits();
        let buckets = self.config.buckets_per_cmu;
        let group_index = self.index;
        // Destructured so the compression borrow (units) and the CMU
        // iteration (cmus) are visibly disjoint.
        let CmuGroup {
            units,
            cmus,
            unit_used,
            ..
        } = self;
        let PacketScratch { hash, keys, coin } = scratch;

        // Stage 1 (compression) runs lazily: digests are pure functions
        // of the packet, and only packets that match some binding consume
        // them, so a group whose bindings all miss does zero hash work.
        // Units no binding reads contribute a constant 0 slot — same as
        // an unconfigured unit — keeping slice indices aligned.
        let mut compressed_ready = false;
        for (ci, cmu) in cmus.iter_mut().enumerate() {
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
                for (u, used) in units.iter().zip(unit_used.iter()) {
                    hash.push(if *used { u.compute_cached(pkt, keys) } else { 0 });
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

    /// Stage-major batch execution of this group over one packet chunk —
    /// the hot path of `FlyMon::process_batch` (DESIGN.md § "Stage-major
    /// batching").
    ///
    /// Where [`CmuGroup::process_with_scratch`] walks one packet through
    /// all four pipeline stages, this sweeps the whole chunk through the
    /// compiled [`GroupProgram`] in three passes:
    ///
    /// 1. **match + coin** per CMU, producing a compact matched-index
    ///    list in packet order (packet order is what keeps same-bucket
    ///    register updates applied in arrival order);
    /// 2. **extract + digest** unit-major: each used hash unit writes the
    ///    keys of a lane group of matched packets straight from the
    ///    packets through its compiled key plan and digests them in
    ///    lockstep ([`HashUnit::compute_lanes`]), so one unit's tables
    ///    stay hot and no key is ever staged per packet;
    /// 3. **resolve + apply** per CMU, fused: one [`Salu::sweep`] per run
    ///    of matched packets sharing an operation resolves each packet's
    ///    address and parameters and applies them in the same loop,
    ///    recording the forwarded output into the packet's PHV context
    ///    on the way out.
    ///
    /// Pass 3 runs per CMU *in index order* because downstream CMUs'
    /// parameters may read upstream results from the packet's context
    /// (`PrevResult`/`ChainMin`/gated preps) — the same order the serial
    /// path establishes, which is what makes the two paths bit-identical.
    /// Matching (pass 1) reads only packet fields and the coin, never
    /// the context, so hoisting it is unobservable.
    ///
    /// `mark_executed` flags packets that executed a task here in
    /// `batch.executed` (the caller's recirculation accounting for
    /// spliced groups); `record_ctx` is the pipeline-wide "some program
    /// reads PHV contexts" flag — when false, context recording is
    /// skipped (the values would be unobservable).
    ///
    /// `lanes` is the lane-group width of passes 1 and 2 (clamped to
    /// `1..=CRC_LANES`): branch-reduced filter masks over `lanes` packets
    /// at a time, then `lanes` keys digested in lockstep. A width of one
    /// runs the same kernels on groups of one; every width is
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

        // Pass 1: match + coin, per CMU — first matching binding wins.
        // A CMU whose first binding is unconditional matches every
        // packet at binding 0: one hit-counter bump stands in for the
        // whole loop, and pass 3 will iterate the chunk directly.
        let mut any_always = false;
        for (cmu, (cprog, matched)) in cmus
            .iter_mut()
            .zip(program.cmus.iter().zip(batch.matched.iter_mut()))
        {
            if cprog.bindings.is_empty() {
                continue;
            }
            if cprog.always {
                cmu.hits[0] += n as u64;
                any_always = true;
                continue;
            }
            // Binding-outer over each lane group, tracking which lanes
            // are still unmatched in an `alive` bitmask. A lane's first
            // matching binding retires it, so the probe set per (packet,
            // binding) — including which coins get flipped — is exactly
            // the per-packet path's, and first-match-wins order is
            // preserved by appending `chosen` lanes in lane order.
            for (g, lane_pkts) in pkts.chunks(lanes).enumerate() {
                let base = g * lanes;
                let m = lane_pkts.len();
                let mut chosen = [u16::MAX; CRC_LANES];
                let mut alive: u32 = (1u32 << m) - 1;
                for (bi, cb) in cprog.bindings.iter().enumerate() {
                    if alive == 0 {
                        break;
                    }
                    // Branch-reduced filter evaluation over the lane
                    // group: both prefix compares fold into one boolean
                    // per lane, collected into a bitmask.
                    let mut filter_mask: u32 = 0;
                    for (l, pkt) in lane_pkts.iter().enumerate() {
                        let hit = ((pkt.src_ip & cb.src_mask) == cb.src_net)
                            & ((pkt.dst_ip & cb.dst_mask) == cb.dst_net);
                        filter_mask |= u32::from(hit) << l;
                    }
                    let mut cand = alive & filter_mask;
                    if cb.coin_mask != 0 && cand != 0 {
                        // Sampling coins stay per lane (the rare case):
                        // one task word folded into the packet's
                        // memoized coin state per candidate.
                        let mut passed = 0u32;
                        let mut c = cand;
                        while c != 0 {
                            let l = c.trailing_zeros() as usize;
                            c &= c - 1;
                            let coin = batch.coins[base + l].coin(&lane_pkts[l], cb.task);
                            if u64::from(coin) & cb.coin_mask == 0 {
                                passed |= 1 << l;
                            }
                        }
                        cand = passed;
                    }
                    if cand != 0 {
                        cmu.hits[bi] += u64::from(cand.count_ones());
                        let mut c = cand;
                        while c != 0 {
                            let l = c.trailing_zeros() as usize;
                            c &= c - 1;
                            chosen[l] = bi as u16;
                        }
                        alive &= !cand;
                    }
                }
                for (l, &bi) in chosen[..m].iter().enumerate() {
                    if bi != u16::MAX {
                        let pi = base + l;
                        matched.push((pi as u32, bi));
                        batch.need_digest[pi] = true;
                    }
                }
            }
        }

        // Pass 2: extract + digest, unit-major over the packed list of
        // packets that matched something. Units nothing reads keep stale
        // slots — compiled plans never index them (exactly the serial
        // path's lazy-zero slots).
        batch.digest_idx.clear();
        if any_always {
            batch.digest_idx.extend(0..n as u32);
        } else {
            for pi in 0..n {
                if batch.need_digest[pi] {
                    batch.digest_idx.push(pi as u32);
                }
            }
        }
        let mut out = [0u32; CRC_LANES];
        for (u, unit) in units.iter().enumerate() {
            if !program.unit_used[u] {
                continue;
            }
            for idx_group in batch.digest_idx.chunks(lanes) {
                let out = &mut out[..idx_group.len()];
                unit.compute_lanes(idx_group.iter().map(|&pi| &pkts[pi as usize]), out);
                for (&pi, &digest) in idx_group.iter().zip(out.iter()) {
                    batch.digests[pi as usize * MAX_HASH_UNITS + u] = digest;
                }
            }
        }

        // Pass 3: fused resolve + apply, per CMU in index order
        // (cross-CMU PHV deps).
        let bucket_mask = program.bucket_mask;
        let digests = batch.digests.as_slice();
        let digests_of = |p: usize| &digests[p * MAX_HASH_UNITS..(p + 1) * MAX_HASH_UNITS];
        let ctxs = batch.ctxs.as_mut_slice();
        for (ci, (cmu, cprog)) in cmus.iter_mut().zip(program.cmus.iter()).enumerate() {
            let record = record_ctx.then_some((group_index, ci));
            if cprog.always {
                // Dense path: packet index *is* the step index — no
                // matched list, one binding, one operation.
                let cb = &cprog.bindings[0];
                let target = |p: usize| (p, cb.forward);
                match cb.const_params {
                    // Constant parameters (every CMS row): the loop
                    // resolves nothing but the address.
                    Some((p1, p2)) => fused_sweep(
                        &mut cmu.salu,
                        cb.op,
                        n,
                        ctxs,
                        record,
                        |_, p| (cb.address(digests_of(p), bucket_mask), p1, p2),
                        target,
                    ),
                    None => fused_sweep(
                        &mut cmu.salu,
                        cb.op,
                        n,
                        ctxs,
                        record,
                        |ctxs, p| operands(cb, &pkts[p], digests_of(p), &ctxs[p], bucket_mask),
                        target,
                    ),
                }
                if mark_executed {
                    batch.executed[..n].fill(true);
                }
                continue;
            }
            // Sparse path: the matched list, cut into runs of one
            // operation so each run is a single sweep. Bindings of one
            // CMU mostly share an operation (rows of the same sketch
            // family), so a run is usually the whole list.
            let mut rest = batch.matched[ci].as_slice();
            while let Some(&(_, first)) = rest.first() {
                let op = cprog.bindings[usize::from(first)].op;
                let len = rest
                    .iter()
                    .position(|&(_, bi)| cprog.bindings[usize::from(bi)].op != op)
                    .unwrap_or(rest.len());
                let (run, tail) = rest.split_at(len);
                let entry = |k: usize| {
                    let (pi, bi) = run[k];
                    (pi as usize, &cprog.bindings[usize::from(bi)])
                };
                fused_sweep(
                    &mut cmu.salu,
                    op,
                    run.len(),
                    ctxs,
                    record,
                    |ctxs, k| {
                        let (p, cb) = entry(k);
                        operands(cb, &pkts[p], digests_of(p), &ctxs[p], bucket_mask)
                    },
                    |k| {
                        let (p, cb) = entry(k);
                        (p, cb.forward)
                    },
                );
                rest = tail;
            }
            if mark_executed {
                for &(pi, _) in &batch.matched[ci] {
                    batch.executed[pi as usize] = true;
                }
            }
        }
    }
}

/// One packet's SALU operands under `cb`: the translated register
/// address and the prepared parameters — pipeline stages 2 and 3 for the
/// matched binding.
#[inline]
fn operands(
    cb: &CompiledBinding,
    pkt: &Packet,
    digests: &[u32],
    ctx: &PacketContext,
    bucket_mask: usize,
) -> (usize, u32, u32) {
    let (p1, p2) = cb.params(pkt, digests, ctx);
    (cb.address(digests, bucket_mask), p1, p2)
}

/// One [`Salu::sweep`] of the batch path's pass 3. `operands(ctxs, k)`
/// resolves step `k`; `target(k)` names the packet whose PHV context
/// receives the step's forwarded output and the selector that picks it.
/// `record` is the `(group, cmu)` to record under, or `None` when no
/// program reads PHV contexts — the sink is then a no-op.
fn fused_sweep(
    salu: &mut Salu,
    op: StatefulOp,
    count: usize,
    ctxs: &mut [PacketContext],
    record: Option<(usize, usize)>,
    operands: impl Fn(&[PacketContext], usize) -> (usize, u32, u32),
    target: impl Fn(usize) -> (usize, Forward),
) {
    match record {
        Some((group, cmu)) => salu.sweep(op, count, ctxs, operands, |ctxs, k, p1, out| {
            let (p, forward) = target(k);
            ctxs[p].record(group, cmu, forward.select(p1, out));
        }),
        None => salu.sweep(op, count, ctxs, operands, |_, _, _, _| {}),
    }
    .expect("installed ops are pre-loaded and addresses in range");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::TranslationMethod;
    use crate::keysel::KeySource;
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
        let compressed = g.compressed_keys(&pkt);
        let addr = count_binding(1).key.address(&compressed, 8) as usize;
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
        assert!(upper.iter().all(|&v| v == 0), "second task must not run");
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
        let mut chained = count_binding(2);
        chained.key.source = KeySource::Unit(1);
        chained.p1 = ParamSource::PrevResult(CmuRef { group: 0, cmu: 0 });
        g.install(2, chained).unwrap();
        fresh(&g, "install on CMU 2");
        assert!(g.program().reads_ctx && g.program().unit_used[1]);
        g.install(0, count_binding(2)).unwrap();
        g.install(1, count_binding(3)).unwrap();
        fresh(&g, "installs on CMUs 0 and 1");
        assert!(g.uninstall(0, TaskId(1)));
        fresh(&g, "uninstall from CMU 0");
        assert!(g.program().cmus[0].always, "the unconditional binding is first now");
        assert!(!g.uninstall(1, TaskId(9)));
        assert_eq!(g.remove_task(TaskId(2)), 2);
        fresh(&g, "remove_task across CMUs 0 and 2");
        assert!(!g.program().reads_ctx && !g.program().unit_used[1]);
        assert_eq!(g.program().cmus[1].bindings.len(), 1);
        g.invalidate_program();
        fresh(&g, "invalidate");
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
