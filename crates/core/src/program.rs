//! Compiled binding programs: the install-time flattening of a CMU
//! Group's live bindings into the dense representation the stage-major
//! batch path executes (DESIGN.md § "Stage-major batching").
//!
//! The packet semantics are stated in **two tiers**, nothing between.
//! The reference leaves — `TaskFilter::matches`, the sampling coin,
//! `KeySelect::address`, [`ParamSource::resolve`], [`PrepAction::apply`],
//! `AddrTranslation::translate` — say what one packet does under one
//! installed binding; [`crate::oracle`] runs them per packet, and every
//! test of the batch path compares against that. None of the state they
//! dispatch on changes between reconfigurations, so — StreaMon-style —
//! what is hot is compiled **once per binding mutation** into a
//! [`GroupProgram`]:
//!
//! - filters become four words (`(ip & mask) == net`, source and
//!   destination), no `PrefixFilter` indirection, and the sampling coin
//!   a single pre-shifted 64-bit mask (`0` = always pass) — together a
//!   [`MatchRule`], kept apart from what the match executes so that the
//!   match loop walks a dense array and CMUs can compare rule lists;
//! - key selection becomes raw unit indices plus the slice rotation;
//! - address translation folds `translate(addr, m) = base + ((addr % m)
//!   >> p)` into a precomputed `addr_base`/`addr_shift` pair (with the
//!   group-level `bucket_mask` replacing the `% m`) — an [`AddressPlan`];
//! - the installed parameter sources and preparation are classified
//!   (`OperandKernel::select`) into an [`OperandKernel`] — constants
//!   prepared at compile time, a packet field, a compressed key through
//!   a context-free preparation with its constants pre-widened and its
//!   division strength-reduced — so the batch path picks one operand
//!   closure per (CMU, run).
//!
//! A binding `select` cannot classify gets [`OperandKernel::Interpreted`]:
//! the sweep then calls the reference leaves themselves on the installed
//! binding, per packet. There is no flattened copy of a parameter source
//! or a preparation. Of the rows `compiler::build_bindings` emits, these
//! are interpreted, each because it reads what an *upstream CMU did to
//! this packet* off the PHV context, which no per-binding constant can
//! stand for:
//!
//! - SuMax(Sum) rows 1.. — `p2 = ChainMin(rows above)`, the conservative
//!   update's running minimum;
//! - the Counter Braids high layer — `p1 = PrevResult(low layer)`
//!   through `MapZero` (carry when the low layer was saturated);
//! - the Odd Sketch parity row — `OneHotBitGated` on the Bloom row's
//!   "seen before?" output;
//! - the max-interval maximizer — `p2 = PrevResult(arrival recorder)`
//!   through `IntervalGated` on the membership row.
//!
//! (`install` also accepts shapes no recipe emits — a prepared packet
//! field, `MapZero` of one — and those are interpreted too.) Every other
//! row of every algorithm runs a context-free kernel; `group::tests`
//! holds the table, row by row.
//!
//! A BeauCoup row also compiles a [`Gate`], its coupon window. The group
//! as a whole compiles too ([`GroupProgram::refresh`]): which
//! CMUs' binding lists match (and gate) identically — every row of one
//! sketch — so the match (and the gate) runs once per task; which hash
//! units any binding reads, which an unconditional CMU reads and which
//! only gated rows read, so the others digest only the packets that
//! matched and the last only those a gate let through; and whether
//! anything reads a PHV context — the last four by one walk of the
//! installed bindings.
//!
//! The compression stage's half of the compile step lives with the hash
//! unit: `HashUnit::set_mask` compiles the `KeySpec` to a `KeyPlan`
//! (address masks + field flags), which folds the key fields straight
//! into the CRC in the batch path's digest pass.
//!
//! **Invalidation rule**: every binding mutation — `install_all` (a
//! deploy's rows on one group; `install` is its one-binding case),
//! `uninstall`, `remove_task` — recompiles the [`CompiledCmu`]s whose
//! bindings it changed before it returns, then refreshes the group-wide
//! facts (`unit_used`, `reads_ctx`, `match_of`, `dense_units`,
//! `gate_of`, `gated_units`) once and
//! bumps the version; the explicit control-plane invalidation after
//! register-only resets recompiles every CMU the same way. Checkpoint
//! restore and WAL replay reinstall bindings through those same entry
//! points, so a restored or recovered switch can never execute a stale
//! program (`tests/batch.rs` pins this for every mutation path).
//!
//! Everything here derives `PartialEq` so tests can assert
//! `group.program() == &group.reference_program()` after any mutation.

use flymon_packet::{Packet, PrefixFilter};
use flymon_rmt::hash::MAX_HASH_UNITS;
use flymon_rmt::salu::StatefulOp;

use crate::group::{binding_units, CmuBinding, Forward};
use crate::keysel::KeySource;
use crate::params::{PacketContext, ParamSource};
use crate::prep::PrepAction;
use crate::task::TaskId;

/// Sentinel unit index marking "no second key unit" in [`KeyUnits::b`].
pub const NO_UNIT: u8 = u8::MAX;

/// The hash unit(s) a 32-bit dynamic key is drawn from, as raw indices
/// into a packet's digest slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyUnits {
    /// First unit index.
    pub a: u8,
    /// Second unit index, XORed in — or [`NO_UNIT`].
    pub b: u8,
}

impl KeyUnits {
    fn compile(source: KeySource) -> KeyUnits {
        match source {
            KeySource::Unit(i) => KeyUnits {
                a: i as u8,
                b: NO_UNIT,
            },
            KeySource::Xor(i, j) => KeyUnits {
                a: i as u8,
                b: j as u8,
            },
        }
    }

    /// The key, from the packet's digest slice — exactly
    /// [`KeySource::resolve`].
    #[inline]
    pub fn resolve(self, digests: &[u32]) -> u32 {
        let a = digests[usize::from(self.a)];
        if self.b == NO_UNIT {
            a
        } else {
            a ^ digests[usize::from(self.b)]
        }
    }
}

/// The packet field an [`OperandKernel::Field`] reads as `p1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketField {
    /// Packet length in bytes.
    Bytes,
    /// Ingress timestamp in µs.
    TimestampUs,
    /// Egress queue occupancy.
    QueueLen,
    /// Queuing delay in µs.
    QueueDelayUs,
}

/// What an [`OperandKernel::Key`] does to the compressed key before it
/// becomes `p1` — the [`PrepAction`]s that read no PHV context, with
/// their constants pre-widened and their divisions strength-reduced at
/// compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyPrep {
    /// The key itself.
    None,
    /// One-hot bit on a power-of-two width: `1 << (key & mask)`.
    OneHotMask(u32),
    /// One-hot bit on any other width: `1 << (key % bits)`.
    OneHotMod(u32),
    /// BeauCoup coupon draw, branch-free: `1 << (key / space)` under
    /// `key < total`, else 0 ([`coupon_bit`]).
    Coupon {
        /// [`reciprocal`] of the per-coupon space.
        recip: u128,
        /// `space · coupons` — the draw window.
        total: u64,
    },
    /// HyperLogLog ρ.
    Rho {
        /// Bits discarded from the top.
        skip_top: u32,
        /// Bits participating in the pattern.
        consider_bits: u32,
    },
}

/// `⌈2⁶⁴ / d⌉` for a divisor `1 ≤ d < 2³²`: with it,
/// [`div_by_reciprocal`] is exact for every 32-bit numerator (Lemire,
/// Kaser & Kurz, "Faster remainder by direct computation", Theorem 1
/// with N = 32, F = 64). `d = 1` yields 2⁶⁴, hence the `u128`.
pub(crate) fn reciprocal(d: u32) -> u128 {
    u128::from(u64::MAX) / u128::from(d) + 1
}

/// `h / d`, given `recip = reciprocal(d)`: one widening multiply.
#[inline]
pub(crate) fn div_by_reciprocal(h: u32, recip: u128) -> u32 {
    ((u128::from(h) * recip) >> 64) as u32
}

/// The coupon one-hot of [`PrepAction::Coupon`] without its branch or
/// its division: coupon `h / space` when `h < total`, no bit otherwise.
/// Install-time validation caps `coupons` at 32, so the quotient of an
/// in-window `h` is a valid shift; an out-of-window quotient is wrapped
/// and then masked away.
#[inline]
pub(crate) fn coupon_bit(h: u32, recip: u128, total: u64) -> u32 {
    let in_window = u32::from(u64::from(h) < total);
    1u32.wrapping_shl(div_by_reciprocal(h, recip)) & in_window.wrapping_neg()
}

/// How the batch path obtains a packet's prepared `(p1, p2)` under one
/// binding — chosen once per binding mutation from the installed
/// parameter sources and preparation, so pass 3 selects one operand
/// closure per (CMU, run) instead of dispatching on them per packet.
///
/// Every kernel but [`OperandKernel::Interpreted`] has a constant
/// second parameter (what the preparation forces it to, or the
/// installed constant) and reads no PHV context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandKernel {
    /// Both sources constant and a context-free preparation (every CMS
    /// and plain-Bloom row): prepared at compile time, the sweep
    /// resolves nothing but the address.
    Const(u32, u32),
    /// `p1` is a packet field, unprepared (byte counts, queue maxima,
    /// arrival recorders).
    Field {
        /// The field read.
        field: PacketField,
        /// The constant second parameter.
        p2: u32,
    },
    /// `p1` is a compressed key through a context-free preparation
    /// (Bloom, BeauCoup, HLL, Linear Counting rows).
    Key {
        /// The parameter key.
        key: KeyUnits,
        /// The preparation.
        prep: KeyPrep,
        /// The second parameter after preparation.
        p2: u32,
    },
    /// Anything else — a source or preparation that reads the PHV
    /// context (`PrevResult`, `ChainMin`, gated preps), `MapZero`, a
    /// prepared packet field: [`ParamSource::resolve`] and
    /// [`PrepAction::apply`] on the installed binding, per packet.
    Interpreted,
}

impl OperandKernel {
    /// Classifies one installed binding's parameter sources and
    /// preparation. The second parameter must be a constant for any
    /// kernel; the first decides which.
    fn select(p1: &ParamSource, p2: &ParamSource, prep: &PrepAction) -> OperandKernel {
        let ParamSource::Const(c2) = *p2 else {
            return OperandKernel::Interpreted;
        };
        let field = |field| match prep {
            PrepAction::None => OperandKernel::Field { field, p2: c2 },
            _ => OperandKernel::Interpreted,
        };
        let key = |source| {
            let (prep, p2) = match *prep {
                PrepAction::None => (KeyPrep::None, c2),
                PrepAction::OneHotBit { bits } if bits.is_power_of_two() => {
                    (KeyPrep::OneHotMask(u32::from(bits) - 1), 1)
                }
                PrepAction::OneHotBit { bits } => (KeyPrep::OneHotMod(u32::from(bits)), 1),
                // An empty coupon space never draws.
                PrepAction::Coupon { space: 0, .. } => return OperandKernel::Const(0, 1),
                PrepAction::Coupon { coupons, space } => {
                    let total = u64::from(space) * u64::from(coupons);
                    (KeyPrep::Coupon { recip: reciprocal(space), total }, 1)
                }
                PrepAction::Rho {
                    skip_top,
                    consider_bits,
                } => (
                    KeyPrep::Rho {
                        skip_top: u32::from(skip_top),
                        consider_bits: u32::from(consider_bits),
                    },
                    c2,
                ),
                _ => return OperandKernel::Interpreted,
            };
            OperandKernel::Key {
                key: KeyUnits::compile(source),
                prep,
                p2,
            }
        };
        match *p1 {
            ParamSource::Const(c1) if !prep.reads_ctx() => {
                let (p1, p2) = prep.apply(c1, c2, &PacketContext::default());
                OperandKernel::Const(p1, p2)
            }
            ParamSource::PacketBytes => field(PacketField::Bytes),
            ParamSource::TimestampUs => field(PacketField::TimestampUs),
            ParamSource::QueueLen => field(PacketField::QueueLen),
            ParamSource::QueueDelayUs => field(PacketField::QueueDelayUs),
            ParamSource::CompressedKey(source) => key(source),
            _ => OperandKernel::Interpreted,
        }
    }
}

/// The coupon gate of a BeauCoup row: a `key` outside the window
/// `0..total` ORs in 0, an identity only a PHV context could see. An OR
/// of 0 (a zero-space coupon) is shut: an empty window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The coupon key.
    pub key: KeyUnits,
    /// The draw window.
    pub total: u64,
}

impl Gate {
    /// AND-OR ORs when `p2 != 0`; AND with 0 clears, so is never gated.
    fn compile(kernel: OperandKernel, op: StatefulOp, addr: KeyUnits) -> Option<Gate> {
        match kernel {
            _ if op != StatefulOp::AndOr => None,
            OperandKernel::Key {
                key,
                prep: KeyPrep::Coupon { total, .. },
                p2,
            } if p2 != 0 => Some(Gate { key, total }),
            OperandKernel::Const(0, p2) if p2 != 0 => Some(Gate { key: addr, total: 0 }),
            _ => None,
        }
    }

    /// True when the packet with `digests` draws a coupon.
    #[inline]
    pub fn passes(self, digests: &[u32]) -> bool {
        u64::from(self.key.resolve(digests)) < self.total
    }
}

/// The top `bits` bits set — the prefix mask `PrefixFilter` compares
/// under. `bits == 0` yields the all-pass mask `0`.
fn prefix_mask(bits: u8) -> u32 {
    match bits {
        0 => 0,
        b if b >= 32 => u32::MAX,
        b => u32::MAX << (32 - b),
    }
}

/// Which packets one binding takes, compiled flat: the whole input of
/// pass 1. Two CMUs whose rule lists are equal match the same packets
/// at the same binding index — the filter reads packet fields and the
/// coin is a stateless hash of packet fields and the task id — so they
/// share one matched list ([`GroupProgram::match_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchRule {
    /// Owning task (the coin's seed patch).
    pub task: TaskId,
    /// Source-prefix network, host bits zero.
    pub src_net: u32,
    /// Source-prefix mask (`0` matches everything).
    pub src_mask: u32,
    /// Destination-prefix network.
    pub dst_net: u32,
    /// Destination-prefix mask.
    pub dst_mask: u32,
    /// Pre-shifted sampling-coin mask; `0` = always pass (the common
    /// unsampled case never hashes a coin).
    pub coin_mask: u64,
}

impl MatchRule {
    fn compile(b: &CmuBinding) -> MatchRule {
        let flat = |f: &PrefixFilter| (f.net, prefix_mask(f.bits));
        let (src_net, src_mask) = flat(&b.filter.src);
        let (dst_net, dst_mask) = flat(&b.filter.dst);
        MatchRule {
            task: b.task,
            src_net,
            src_mask,
            dst_net,
            dst_mask,
            // prob_log2 == 0 means "always"; otherwise the same shift
            // CmuBinding::coin_passes computes per packet, done once.
            coin_mask: if b.prob_log2 == 0 {
                0
            } else {
                (1u64 << u32::from(b.prob_log2.min(63))) - 1
            },
        }
    }

    /// True when every packet passes this rule's filter and coin — the
    /// ubiquitous "whole-traffic, unsampled task" shape. Stage-major
    /// execution exploits it: a CMU whose *first* rule is unconditional
    /// matches every packet at binding 0 (first match wins), so the
    /// match loop and the matched list vanish entirely.
    #[inline]
    pub fn is_unconditional(&self) -> bool {
        // PrefixFilter keeps `net`'s host bits zero, so mask == 0
        // implies net == 0 — checked anyway for defense in depth.
        self.src_mask == 0
            && self.src_net == 0
            && self.dst_mask == 0
            && self.dst_net == 0
            && self.coin_mask == 0
    }

    /// The flattened filter predicate — identical to
    /// `TaskFilter::matches` (`PrefixFilter` guarantees `net` has no
    /// host bits, so `(ip & mask) == net ⇔ mask_prefix(ip, bits) == net`).
    /// Both prefix compares fold into one boolean without a branch: the
    /// match loop evaluates it for every packet.
    #[inline]
    pub fn filter_matches(&self, pkt: &Packet) -> bool {
        ((pkt.src_ip & self.src_mask) == self.src_net)
            & ((pkt.dst_ip & self.dst_mask) == self.dst_net)
    }
}

/// Key selection and address translation of one binding, compiled
/// flat — small and `Copy`, so a sweep carries it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressPlan {
    /// The addressing key.
    pub key: KeyUnits,
    /// Right-rotation applied to the 32-bit key before addressing.
    pub slice_shift: u32,
    /// `partitions_log2` of the binding's address translation.
    pub addr_shift: u32,
    /// First bucket of the binding's partition
    /// ([`crate::addr::AddrTranslation::base`]).
    pub addr_base: usize,
}

impl AddressPlan {
    /// Translated register address for `digests` — exactly
    /// `translation.translate(key.address(compressed, addr_bits), m)`:
    /// the `addr_bits` mask is subsumed by `& bucket_mask` (both equal
    /// `m - 1` for a power-of-two register), and `% m` *is*
    /// `& bucket_mask`.
    #[inline]
    pub fn address(&self, digests: &[u32], bucket_mask: usize) -> usize {
        let rotated = self.key.resolve(digests).rotate_right(self.slice_shift);
        self.addr_base + ((rotated as usize & bucket_mask) >> self.addr_shift)
    }
}

/// What a matched packet executes under one binding, compiled flat:
/// everything pipeline stages 2 to 4 need, in execution order, with no
/// further lookups — except under [`OperandKernel::Interpreted`], where
/// the sweep reads the parameters off the installed [`CmuBinding`] this
/// was compiled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledBinding {
    /// Where the packet's bucket is.
    pub addr: AddressPlan,
    /// How pass 3 obtains a packet's prepared `(p1, p2)`.
    pub kernel: OperandKernel,
    /// The stateful operation.
    pub op: StatefulOp,
    /// Which SALU output is forwarded downstream.
    pub forward: Forward,
    /// Which matched packets can change the bucket; `None`: all.
    pub gate: Option<Gate>,
}

impl CompiledBinding {
    fn compile(b: &CmuBinding, buckets: usize) -> CompiledBinding {
        let kernel = OperandKernel::select(&b.p1, &b.p2, &b.prep);
        let key = KeyUnits::compile(b.key.source);
        CompiledBinding {
            addr: AddressPlan {
                key,
                slice_shift: u32::from(b.key.slice_shift),
                addr_shift: u32::from(b.translation.partitions_log2),
                addr_base: b.translation.base(buckets),
            },
            kernel,
            op: b.op,
            forward: b.forward,
            gate: Gate::compile(kernel, b.op, key),
        }
    }
}

/// One CMU's compiled bindings, in match (install) order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledCmu {
    /// Who matches: first match wins, exactly like the interpreted path.
    pub rules: Vec<MatchRule>,
    /// What a match executes, parallel to `rules`.
    pub bindings: Vec<CompiledBinding>,
    /// `rules[0]` exists and is unconditional: every packet matches it,
    /// so stage 1 reduces to a single hit-counter bump and stages 3–4
    /// iterate the chunk directly without a matched list.
    pub always: bool,
    /// Some rule flips a sampling coin: pass 1 runs the match loop that
    /// has the coin compiled in.
    pub sampled: bool,
    /// Some binding has a [`Gate`].
    pub gated: bool,
}

impl CompiledCmu {
    /// Compiles one CMU's binding list (match order) for a register of
    /// `buckets` buckets.
    pub(crate) fn compile(bindings: &[CmuBinding], buckets: usize) -> CompiledCmu {
        let mut cmu = CompiledCmu::default();
        cmu.recompile(bindings, buckets);
        cmu
    }

    /// [`CompiledCmu::compile`] in place, into the vectors this CMU
    /// already owns: a binding mutation on a warm switch allocates
    /// nothing for it.
    pub(crate) fn recompile(&mut self, bindings: &[CmuBinding], buckets: usize) {
        self.rules.clear();
        self.rules.extend(bindings.iter().map(MatchRule::compile));
        self.bindings.clear();
        self.bindings
            .extend(bindings.iter().map(|b| CompiledBinding::compile(b, buckets)));
        self.always = self.rules.first().is_some_and(MatchRule::is_unconditional);
        self.sampled = self.rules.iter().any(|r| r.coin_mask != 0);
        self.gated = self.bindings.iter().any(|b| b.gate.is_some());
    }
}

/// A CMU Group's bindings compiled into one dense program.
///
/// Owned by [`CmuGroup`](crate::group::CmuGroup) and recompiled, one
/// CMU at a time, by every binding mutation (see the module docs for
/// the invalidation rule);
/// [`CmuGroup::program_version`](crate::group::CmuGroup::program_version)
/// counts the mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupProgram {
    /// `buckets_per_cmu - 1` — the address mask and the `% m` of the
    /// translation arithmetic in one constant.
    pub bucket_mask: usize,
    /// `unit_used[i]` ⇔ some installed binding reads unit `i`'s digest
    /// (key source or compressed-key parameter). Both the batch digest
    /// pass and the per-packet oracle compute exactly these — the
    /// hardware hashes unconditionally, but digests are pure, so
    /// skipping unread ones is unobservable.
    pub unit_used: [bool; MAX_HASH_UNITS],
    /// Per-CMU compiled bindings, indexed like the group's CMUs.
    pub cmus: Vec<CompiledCmu>,
    /// Some binding's parameters or preparation read the PHV context.
    /// When *no* group's program reads contexts, the batch path skips
    /// recording (and resetting) them altogether — results written to a
    /// context nothing reads are unobservable. The decision is taken
    /// across the whole pipeline (a downstream group may read an
    /// upstream group's results), so the control plane ORs this flag
    /// over every group before each chunk.
    pub reads_ctx: bool,
    /// `match_of[c]` is the first CMU whose rule list equals CMU `c`'s
    /// (`c` itself when none earlier does). Rows of one sketch share a
    /// task, a filter and a coin, so pass 1 builds one matched list per
    /// distinct rule list and the other rows execute from it.
    pub match_of: Vec<usize>,
    /// `dense_units[i]` ⇔ the binding an unconditional CMU executes
    /// reads unit `i`: it digests every packet of a chunk. Every other
    /// used unit digests only the packets that matched somewhere.
    pub dense_units: [bool; MAX_HASH_UNITS],
    /// `gate_of[c]` is the first CMU whose rules and gates equal gated
    /// CMU `c`'s (else `c`): one BeauCoup sketch builds one gated list.
    pub gate_of: Vec<usize>,
    /// `gated_units[i]` ⇔ only gated bindings read unit `i`, and not as
    /// a gate's key: it digests only the packets some gate let through.
    pub gated_units: [bool; MAX_HASH_UNITS],
}

impl GroupProgram {
    /// Compiles the live bindings of one group. `cmu_bindings[ci]` is
    /// CMU `ci`'s binding list in match order; `buckets` the register
    /// bucket count.
    pub(crate) fn compile(buckets: usize, cmu_bindings: &[&[CmuBinding]]) -> GroupProgram {
        let cmus: Vec<CompiledCmu> = cmu_bindings
            .iter()
            .map(|bindings| CompiledCmu::compile(bindings, buckets))
            .collect();
        let mut program = GroupProgram {
            bucket_mask: buckets - 1,
            unit_used: [false; MAX_HASH_UNITS],
            cmus,
            reads_ctx: false,
            match_of: Vec::new(),
            dense_units: [false; MAX_HASH_UNITS],
            gate_of: Vec::new(),
            gated_units: [false; MAX_HASH_UNITS],
        };
        program.refresh(cmu_bindings.iter().copied());
        program
    }

    /// Re-derives everything the program keeps about the group as a
    /// whole — after a from-scratch compile, and after every mutation
    /// recompiled the CMUs it touched. `installed` yields each CMU's
    /// binding list, parallel to `self.cmus`: which units are read, and
    /// whether a PHV context is, are facts of the installed sources, so
    /// one walk of them serves the batch path and the per-packet oracle.
    pub(crate) fn refresh<'a>(&mut self, installed: impl Iterator<Item = &'a [CmuBinding]>) {
        self.match_of.clear();
        self.gate_of.clear();
        for (ci, cmu) in self.cmus.iter().enumerate() {
            let earlier = &self.cmus[..ci];
            let first = earlier.iter().position(|e| e.rules == cmu.rules);
            self.match_of.push(first.unwrap_or(ci));
            let g = |b: &CompiledBinding| b.gate;
            let same = |e: &CompiledCmu| e.bindings.iter().map(g).eq(cmu.bindings.iter().map(g));
            let first = earlier.iter().position(|e| cmu.gated && e.rules == cmu.rules && same(e));
            self.gate_of.push(first.unwrap_or(ci));
        }
        self.reads_ctx = false;
        self.unit_used = [false; MAX_HASH_UNITS];
        self.dense_units = [false; MAX_HASH_UNITS];
        // Units read before a gate decides: by an ungated binding, or
        // as a gate's key.
        let mut ungated = [false; MAX_HASH_UNITS];
        for (cmu, bindings) in self.cmus.iter().zip(installed) {
            for (bi, (b, cb)) in bindings.iter().zip(&cmu.bindings).enumerate() {
                self.reads_ctx |= b.p1.reads_ctx() || b.p2.reads_ctx() || b.prep.reads_ctx();
                let dense = cmu.always && bi == 0;
                for unit in binding_units(b) {
                    self.unit_used[unit] = true;
                    self.dense_units[unit] |= dense;
                    ungated[unit] |= cb.gate.is_none();
                }
                let gate_key = cb.gate.iter().flat_map(|g| [g.key.a, g.key.b]);
                gate_key.filter(|&u| u != NO_UNIT).for_each(|u| ungated[usize::from(u)] = true);
            }
        }
        self.gated_units = std::array::from_fn(|u| self.unit_used[u] && !ungated[u]);
    }

    /// True when no CMU has any binding — the whole group is skipped by
    /// the batch path.
    pub fn is_empty(&self) -> bool {
        self.cmus.iter().all(|c| c.bindings.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CmuRef;
    use flymon_packet::TaskFilter;

    #[test]
    fn prefix_masks_match_filter_semantics() {
        for bits in 0..=32u8 {
            let f = PrefixFilter::new(0x0a33_55ff, bits);
            let mask = prefix_mask(bits);
            for ip in [0u32, 0x0a33_55ff, 0x0a33_55fe, 0x0a00_0000, u32::MAX] {
                assert_eq!(
                    (ip & mask) == f.net,
                    f.matches(ip),
                    "bits {bits} ip {ip:#x}"
                );
            }
        }
    }

    #[test]
    fn compiled_filter_matches_task_filter() {
        let filters = [
            TaskFilter::ANY,
            TaskFilter::src(0x0a00_0000, 8),
            TaskFilter::dst(0xc0a8_0100, 24),
            TaskFilter {
                src: PrefixFilter::new(0x0a00_0000, 9),
                dst: PrefixFilter::new(0x0a80_0000, 32),
            },
        ];
        for f in filters {
            let b = CmuBinding {
                task: TaskId(1),
                filter: f,
                prob_log2: 0,
                key: crate::keysel::KeySelect {
                    source: KeySource::Unit(0),
                    slice_shift: 0,
                },
                p1: ParamSource::Const(1),
                p2: ParamSource::Const(1),
                prep: PrepAction::None,
                translation: crate::addr::AddrTranslation::IDENTITY,
                op: StatefulOp::CondAdd,
                forward: Forward::Result,
            };
            let rule = MatchRule::compile(&b);
            assert_eq!(rule.is_unconditional(), f == TaskFilter::ANY);
            for src in [0u32, 0x0a00_0001, 0x0a80_0000, 0xc0a8_0101, u32::MAX] {
                for dst in [0u32, 0x0a80_0000, 0xc0a8_0101, 0xc0a8_01ff] {
                    let pkt = Packet::tcp(src, dst, 1, 2);
                    assert_eq!(rule.filter_matches(&pkt), f.matches(&pkt));
                }
            }
        }
    }

    #[test]
    fn compiled_address_matches_interpreted_path() {
        use crate::addr::{AddrTranslation, TranslationMethod};
        use crate::keysel::KeySelect;
        let buckets = 1024usize;
        let addr_bits = buckets.ilog2() as u8;
        for (source, shift, trans) in [
            (KeySource::Unit(0), 0u8, AddrTranslation::IDENTITY),
            (KeySource::Unit(1), 8, AddrTranslation::new(2, 3, TranslationMethod::TcamBased)),
            (KeySource::Xor(0, 2), 16, AddrTranslation::new(5, 17, TranslationMethod::ShiftBased)),
        ] {
            let key = KeySelect {
                source,
                slice_shift: shift,
            };
            let b = CmuBinding {
                task: TaskId(1),
                filter: TaskFilter::ANY,
                prob_log2: 0,
                key,
                p1: ParamSource::Const(1),
                p2: ParamSource::Const(1),
                prep: PrepAction::None,
                translation: trans,
                op: StatefulOp::CondAdd,
                forward: Forward::Result,
            };
            let cb = CompiledBinding::compile(&b, buckets);
            for digests in [
                [0u32, 0, 0, 0],
                [0xdead_beef, 0x1234_5678, 0x0bad_cafe, 7],
                [u32::MAX; 4],
            ] {
                let raw = key.address(&digests, addr_bits);
                assert_eq!(
                    cb.addr.address(&digests, buckets - 1),
                    trans.translate(raw, buckets),
                    "source {source:?} shift {shift}"
                );
            }
        }
    }

    #[test]
    fn constant_parameters_are_prepared_at_compile_time() {
        let binding = |p1: ParamSource, prep: PrepAction| CmuBinding {
            task: TaskId(1),
            filter: TaskFilter::ANY,
            prob_log2: 0,
            key: crate::keysel::KeySelect {
                source: KeySource::Unit(0),
                slice_shift: 0,
            },
            p1,
            p2: ParamSource::Const(u32::MAX),
            prep,
            translation: crate::addr::AddrTranslation::IDENTITY,
            op: StatefulOp::CondAdd,
            forward: Forward::Result,
        };
        let seen = CmuRef { group: 0, cmu: 0 };
        let pkt = Packet::tcp(1, 2, 3, 4);
        let mut ctx = PacketContext::default();
        ctx.record(0, 0, 9);
        let digests = [0u32; MAX_HASH_UNITS];
        let bytes = OperandKernel::Field {
            field: PacketField::Bytes,
            p2: u32::MAX,
        };
        for (p1, prep, kernel) in [
            (ParamSource::Const(1), PrepAction::None, OperandKernel::Const(1, u32::MAX)),
            (
                ParamSource::Const(21),
                PrepAction::OneHotBit { bits: 16 },
                OperandKernel::Const(1 << 5, 1),
            ),
            // A packet field varies per packet, and a preparation gated
            // on the PHV context has to be interpreted: nothing to hoist.
            (ParamSource::PacketBytes, PrepAction::None, bytes),
            (
                ParamSource::Const(21),
                PrepAction::OneHotBitGated { bits: 16, seen },
                OperandKernel::Interpreted,
            ),
        ] {
            let b = binding(p1, prep);
            let cb = CompiledBinding::compile(&b, 256);
            assert_eq!(cb.kernel, kernel, "{b:?}");
            // What was hoisted is what the reference resolve + prep
            // yields for any packet, digests and context.
            if let OperandKernel::Const(c1, c2) = cb.kernel {
                let r1 = b.p1.resolve(&pkt, &digests, &ctx);
                let r2 = b.p2.resolve(&pkt, &digests, &ctx);
                assert_eq!((c1, c2), b.prep.apply(r1, r2, &ctx), "{b:?}");
            }
        }
    }

    #[test]
    fn only_an_or_of_a_coupon_or_of_zero_is_gated() {
        let (key, addr) = (KeyUnits { a: 1, b: NO_UNIT }, KeyUnits { a: 0, b: 2 });
        let coupon = |p2| OperandKernel::Key {
            key,
            prep: KeyPrep::Coupon {
                recip: reciprocal(7),
                total: 21,
            },
            p2,
        };
        let window = Gate { key, total: 21 };
        let ops = [StatefulOp::CondAdd, StatefulOp::Max, StatefulOp::AndOr, StatefulOp::Xor];
        for op in ops {
            let or = op == StatefulOp::AndOr;
            let cases = [
                (coupon(1), or.then_some(window)),
                (OperandKernel::Const(0, 1), or.then_some(Gate { key: addr, total: 0 })),
                // AND with a 0 operand clears the bucket.
                (coupon(0), None),
                (OperandKernel::Const(0, 0), None),
                (OperandKernel::Const(4, 1), None),
                (OperandKernel::Interpreted, None),
            ];
            for (kernel, gate) in cases {
                assert_eq!(Gate::compile(kernel, op, addr), gate, "{kernel:?} under {op:?}");
            }
        }
        // The window is the coupon draw's: a key below `total` draws.
        let digests = |k| [0, k, 0, 0];
        assert!(window.passes(&digests(20)) && !window.passes(&digests(21)));
        assert_eq!(coupon_bit(20, reciprocal(7), 21), 1 << 2);
        assert_eq!(coupon_bit(21, reciprocal(7), 21), 0);
    }

    #[test]
    fn reciprocal_division_is_exact_at_every_boundary() {
        // The strength-reduced coupon division against the `/` it
        // replaces, where a rounded reciprocal would first go wrong:
        // either side of every multiple of the divisor the window can
        // reach, and both ends of the 32-bit range.
        let spaces = [1u32, 2, 3, 7, 1 << 4, 1 << 20, (1 << 27) - 1, 1 << 27, 1 << 31, u32::MAX];
        for space in spaces {
            let recip = reciprocal(space);
            for coupons in [1u64, 5, 16, 32] {
                let total = u64::from(space) * coupons;
                let multiples = (0..=coupons + 1).map(|k| k * u64::from(space));
                let edges = multiples
                    .flat_map(|m| [m.wrapping_sub(1), m, m + 1])
                    .chain([u64::from(space) - 1, total - 1, total, u64::from(u32::MAX)])
                    .filter_map(|h| u32::try_from(h).ok());
                for h in edges {
                    assert_eq!(div_by_reciprocal(h, recip), h / space, "{h} / {space}");
                    let action = PrepAction::Coupon {
                        coupons: coupons as u8,
                        space,
                    };
                    assert_eq!(
                        (coupon_bit(h, recip, total), 1),
                        action.apply(h, 9, &PacketContext::default()),
                        "{action:?} on {h}"
                    );
                }
            }
        }
        // ... and wherever else a random numerator lands.
        let mut rng = flymon_packet::SplitMix64::new(0x00d1_71de);
        for _ in 0..20_000 {
            let (h, space) = (rng.next_u32(), (rng.next_u32() >> (rng.next_u32() % 32)).max(1));
            assert_eq!(div_by_reciprocal(h, reciprocal(space)), h / space, "{h} / {space}");
        }
    }
}
