//! Compiled binding programs: the install-time flattening of a CMU
//! Group's live bindings into the dense representation the stage-major
//! batch path executes (DESIGN.md § "Stage-major batching").
//!
//! [`CmuGroup::process_with_scratch`](crate::group::CmuGroup::process_with_scratch)
//! re-interprets enum-heavy binding state per packet: `TaskFilter`
//! prefix matches, `ParamSource`/`PrepAction` dispatch, per-binding
//! address translation arithmetic. None of that state changes between
//! reconfigurations, so — StreaMon-style — it is compiled **once per
//! binding mutation** into a [`GroupProgram`]:
//!
//! - filters become four words (`(ip & mask) == net`, source and
//!   destination), no `PrefixFilter` indirection, and the sampling coin
//!   a single pre-shifted 64-bit mask (`0` = always pass) — together a
//!   [`MatchRule`], kept apart from what the match executes so that the
//!   match loop walks a dense array and CMUs can compare rule lists;
//! - key selection becomes raw unit indices plus the slice rotation;
//! - address translation folds `translate(addr, m) = base + ((addr % m)
//!   >> p)` into a precomputed `addr_base`/`addr_shift` pair (with the
//!   group-level `bucket_mask` replacing the `% m`);
//! - parameter and preparation plans become flat [`ParamPlan`] /
//!   [`PrepPlan`] ops with their constants pre-widened (no `u32::from`
//!   or multiply in the hot loop), and the pair is classified once into
//!   an [`OperandKernel`] — constants prepared at compile time, a packet
//!   field, a compressed key through a context-free preparation — so
//!   the batch path picks one operand closure per (CMU, chunk) and only
//!   context-reading plans are still interpreted per packet.
//!
//! The group as a whole compiles too ([`GroupProgram::refresh`]): which
//! CMUs' binding lists match identically (every row of one sketch), so
//! the match runs once per task, and which hash units an unconditional
//! CMU reads, so the others digest only the packets that matched.
//!
//! The compression stage's half of the compile step lives with the hash
//! unit: `HashUnit::set_mask` compiles the `KeySpec` to a fixed-length
//! `KeyPlan` (serialized length + address masks), which is what the
//! batch path's digest pass extracts and hashes by.
//!
//! **Invalidation rule**: every binding mutation — `install`,
//! `uninstall`, `remove_task` — recompiles the [`CompiledCmu`]s whose
//! bindings it changed before it returns, then refreshes the group-wide
//! facts (`unit_used`, `reads_ctx`, `match_of`, `dense_units`) and bumps
//! the version; the explicit control-plane invalidation after
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

use crate::group::{CmuBinding, Forward};
use crate::keysel::KeySource;
use crate::params::{CmuRef, PacketContext, ParamSource};
use crate::prep::PrepAction;
use crate::task::TaskId;

/// Sentinel unit index marking "no second key unit" in
/// [`CompiledBinding::key_b`].
pub const NO_UNIT: u8 = u8::MAX;

/// A parameter source flattened for batch execution.
///
/// Mirrors [`ParamSource`] value-for-value (the resolve semantics are
/// bit-identical) with the indirections compiled away: compressed-key
/// sources carry raw unit indices into the per-packet digest slice, and
/// the chain list is the only heap allocation (built at compile time,
/// only iterated per packet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamPlan {
    /// A control-plane constant.
    Const(u32),
    /// Packet length in bytes.
    PacketBytes,
    /// Ingress timestamp in µs.
    TimestampUs,
    /// Egress queue occupancy.
    QueueLen,
    /// Queuing delay in µs.
    QueueDelayUs,
    /// One unit's compressed key.
    KeyUnit(u8),
    /// XOR of two units' compressed keys.
    KeyXor(u8, u8),
    /// An upstream CMU's forwarded output.
    PrevResult(CmuRef),
    /// Minimum over upstream results, ignoring zeros.
    ChainMin(Vec<CmuRef>),
}

impl ParamPlan {
    /// True when resolution reads the per-packet PHV context — the batch
    /// path only maintains contexts when some plan somewhere reads one.
    fn reads_ctx(&self) -> bool {
        matches!(self, ParamPlan::PrevResult(_) | ParamPlan::ChainMin(_))
    }

    fn compile(src: &ParamSource) -> ParamPlan {
        match src {
            ParamSource::Const(v) => ParamPlan::Const(*v),
            ParamSource::PacketBytes => ParamPlan::PacketBytes,
            ParamSource::TimestampUs => ParamPlan::TimestampUs,
            ParamSource::QueueLen => ParamPlan::QueueLen,
            ParamSource::QueueDelayUs => ParamPlan::QueueDelayUs,
            ParamSource::CompressedKey(KeySource::Unit(i)) => ParamPlan::KeyUnit(*i as u8),
            ParamSource::CompressedKey(KeySource::Xor(a, b)) => {
                ParamPlan::KeyXor(*a as u8, *b as u8)
            }
            ParamSource::PrevResult(r) => ParamPlan::PrevResult(*r),
            ParamSource::ChainMin(refs) => ParamPlan::ChainMin(refs.clone()),
        }
    }

    /// Resolves the parameter for one packet. `digests` is the packet's
    /// [`MAX_HASH_UNITS`]-stride digest slice (slots of unused units are
    /// never referenced by a compiled plan). Semantics are exactly
    /// [`ParamSource::resolve`].
    #[inline]
    pub fn resolve(&self, pkt: &Packet, digests: &[u32], ctx: &PacketContext) -> u32 {
        match self {
            ParamPlan::Const(v) => *v,
            ParamPlan::PacketBytes => u32::from(pkt.len),
            ParamPlan::TimestampUs => (pkt.ts_ns / 1_000) as u32,
            ParamPlan::QueueLen => pkt.queue_len,
            ParamPlan::QueueDelayUs => pkt.queue_delay_ns / 1_000,
            ParamPlan::KeyUnit(i) => digests[usize::from(*i)],
            ParamPlan::KeyXor(a, b) => digests[usize::from(*a)] ^ digests[usize::from(*b)],
            ParamPlan::PrevResult(r) => ctx.get(*r),
            ParamPlan::ChainMin(refs) => refs
                .iter()
                .map(|&r| ctx.get(r))
                .filter(|&v| v != 0)
                .min()
                .unwrap_or(u32::MAX),
        }
    }
}

/// A preparation-stage action flattened for batch execution.
///
/// Mirrors [`PrepAction::apply`] bit-for-bit; the per-packet
/// conversions (`u32::from(bits)`, the `space · coupons` product) are
/// hoisted to compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepPlan {
    /// Pass through.
    None,
    /// `p1 ← 1 << (p1 % bits)`, `p2 ← 1`.
    OneHotBit {
        /// Addressable bits, pre-widened.
        bits: u32,
    },
    /// BeauCoup coupon draw with the total space precomputed.
    Coupon {
        /// Hash-space slice per coupon, pre-widened.
        space: u64,
        /// `space · coupons` — the draw window.
        total: u64,
    },
    /// HyperLogLog ρ.
    Rho {
        /// Bits discarded from the top, pre-widened.
        skip_top: u32,
        /// Bits participating in the pattern, pre-widened.
        consider_bits: u32,
    },
    /// Counter Braids carry.
    MapZero {
        /// Replacement when `p1 == 0`.
        when_zero: u32,
        /// Replacement otherwise.
        otherwise: u32,
    },
    /// Max-inter-arrival gate.
    IntervalGated {
        /// The membership CMU.
        seen: CmuRef,
    },
    /// First-occurrence-gated one-hot bit.
    OneHotBitGated {
        /// Addressable bits, pre-widened.
        bits: u32,
        /// The membership CMU.
        seen: CmuRef,
    },
}

impl PrepPlan {
    /// True when application reads the per-packet PHV context.
    fn reads_ctx(&self) -> bool {
        matches!(
            self,
            PrepPlan::IntervalGated { .. } | PrepPlan::OneHotBitGated { .. }
        )
    }

    fn compile(prep: &PrepAction) -> PrepPlan {
        match prep {
            PrepAction::None => PrepPlan::None,
            PrepAction::OneHotBit { bits } => PrepPlan::OneHotBit {
                bits: u32::from(*bits),
            },
            PrepAction::Coupon { coupons, space } => PrepPlan::Coupon {
                space: u64::from(*space),
                total: u64::from(*space) * u64::from(*coupons),
            },
            PrepAction::Rho {
                skip_top,
                consider_bits,
            } => PrepPlan::Rho {
                skip_top: u32::from(*skip_top),
                consider_bits: u32::from(*consider_bits),
            },
            PrepAction::MapZero {
                when_zero,
                otherwise,
            } => PrepPlan::MapZero {
                when_zero: *when_zero,
                otherwise: *otherwise,
            },
            PrepAction::IntervalGated { seen } => PrepPlan::IntervalGated { seen: *seen },
            PrepAction::OneHotBitGated { bits, seen } => PrepPlan::OneHotBitGated {
                bits: u32::from(*bits),
                seen: *seen,
            },
        }
    }

    /// Applies the transformation; semantics are exactly
    /// [`PrepAction::apply`].
    #[inline]
    pub fn apply(&self, p1: u32, p2: u32, ctx: &PacketContext) -> (u32, u32) {
        match self {
            PrepPlan::None => (p1, p2),
            PrepPlan::OneHotBit { bits } => (1u32 << (p1 % bits), 1),
            PrepPlan::Coupon { space, total } => {
                let h = u64::from(p1);
                if *space == 0 || h >= *total {
                    (0, 1)
                } else {
                    (1u32 << (h / space), 1)
                }
            }
            PrepPlan::Rho {
                skip_top,
                consider_bits,
            } => {
                let v = p1 << skip_top;
                (v.leading_zeros().min(*consider_bits) + 1, p2)
            }
            PrepPlan::MapZero {
                when_zero,
                otherwise,
            } => {
                if p1 == 0 {
                    (*when_zero, p2)
                } else {
                    (*otherwise, p2)
                }
            }
            PrepPlan::IntervalGated { seen } => {
                if ctx.get(*seen) == 0 {
                    (0, 0)
                } else {
                    (p1.saturating_sub(p2), 0)
                }
            }
            PrepPlan::OneHotBitGated { bits, seen } => {
                if ctx.get(*seen) != 0 {
                    (0, 0)
                } else {
                    (1u32 << (p1 % bits), 0)
                }
            }
        }
    }
}

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

    fn mark(self, units: &mut [bool; MAX_HASH_UNITS]) {
        units[usize::from(self.a)] = true;
        if self.b != NO_UNIT {
            units[usize::from(self.b)] = true;
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
/// becomes `p1` — the [`PrepPlan`]s that read no PHV context, with
/// their divisions strength-reduced at compile time.
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
/// binding — chosen once per binding mutation from the parameter and
/// preparation plans, so pass 3 selects one operand closure per
/// (CMU, chunk) instead of re-interpreting the plans per packet.
///
/// Every kernel but [`OperandKernel::Interpreted`] has a constant
/// second parameter (what `PrepPlan` forces it to, or the installed
/// constant) and reads no PHV context.
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
    /// prepared packet field: [`CompiledBinding::params`] per packet.
    Interpreted,
}

impl OperandKernel {
    fn select(p1: &ParamPlan, p2: &ParamPlan, prep: &PrepPlan) -> OperandKernel {
        let ParamPlan::Const(c2) = *p2 else {
            return OperandKernel::Interpreted;
        };
        let field = |field| match prep {
            PrepPlan::None => OperandKernel::Field { field, p2: c2 },
            _ => OperandKernel::Interpreted,
        };
        let key = |key| {
            let (prep, p2) = match *prep {
                PrepPlan::None => (KeyPrep::None, c2),
                PrepPlan::OneHotBit { bits } if bits.is_power_of_two() => {
                    (KeyPrep::OneHotMask(bits - 1), 1)
                }
                PrepPlan::OneHotBit { bits } => (KeyPrep::OneHotMod(bits), 1),
                // An empty coupon space never draws.
                PrepPlan::Coupon { space: 0, .. } => return OperandKernel::Const(0, 1),
                PrepPlan::Coupon { space, total } => {
                    let recip = reciprocal(space as u32);
                    (KeyPrep::Coupon { recip, total }, 1)
                }
                PrepPlan::Rho {
                    skip_top,
                    consider_bits,
                } => (
                    KeyPrep::Rho {
                        skip_top,
                        consider_bits,
                    },
                    c2,
                ),
                _ => return OperandKernel::Interpreted,
            };
            OperandKernel::Key { key, prep, p2 }
        };
        match *p1 {
            ParamPlan::Const(c1) if !prep.reads_ctx() => {
                let (p1, p2) = prep.apply(c1, c2, &PacketContext::default());
                OperandKernel::Const(p1, p2)
            }
            ParamPlan::PacketBytes => field(PacketField::Bytes),
            ParamPlan::TimestampUs => field(PacketField::TimestampUs),
            ParamPlan::QueueLen => field(PacketField::QueueLen),
            ParamPlan::QueueDelayUs => field(PacketField::QueueDelayUs),
            ParamPlan::KeyUnit(a) => key(KeyUnits { a, b: NO_UNIT }),
            ParamPlan::KeyXor(a, b) => key(KeyUnits { a, b }),
            _ => OperandKernel::Interpreted,
        }
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
/// further lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledBinding {
    /// Where the packet's bucket is.
    pub addr: AddressPlan,
    /// First parameter plan.
    pub p1: ParamPlan,
    /// Second parameter plan.
    pub p2: ParamPlan,
    /// Preparation plan.
    pub prep: PrepPlan,
    /// How pass 3 obtains a packet's prepared `(p1, p2)`, chosen from
    /// the three plans above.
    pub kernel: OperandKernel,
    /// The stateful operation.
    pub op: StatefulOp,
    /// Which SALU output is forwarded downstream.
    pub forward: Forward,
}

impl CompiledBinding {
    fn compile(b: &CmuBinding, buckets: usize) -> CompiledBinding {
        let p1 = ParamPlan::compile(&b.p1);
        let p2 = ParamPlan::compile(&b.p2);
        let prep = PrepPlan::compile(&b.prep);
        let kernel = OperandKernel::select(&p1, &p2, &prep);
        CompiledBinding {
            addr: AddressPlan {
                key: KeyUnits::compile(b.key.source),
                slice_shift: u32::from(b.key.slice_shift),
                addr_shift: u32::from(b.translation.partitions_log2),
                addr_base: b.translation.base(buckets),
            },
            p1,
            p2,
            prep,
            kernel,
            op: b.op,
            forward: b.forward,
        }
    }

    /// Flags in `units` every hash unit whose digest this binding reads
    /// (key and compressed-key parameters).
    fn mark_units_read(&self, units: &mut [bool; MAX_HASH_UNITS]) {
        self.addr.key.mark(units);
        for p in [&self.p1, &self.p2] {
            match *p {
                ParamPlan::KeyUnit(a) => KeyUnits { a, b: NO_UNIT }.mark(units),
                ParamPlan::KeyXor(a, b) => KeyUnits { a, b }.mark(units),
                _ => {}
            }
        }
    }

    /// The prepared `(p1, p2)` of one packet, interpreted from the plans
    /// — the initialization-stage parameter selection followed by the
    /// preparation stage. What [`OperandKernel::Interpreted`] runs per
    /// packet, and what every other kernel must equal.
    #[inline]
    pub fn params(&self, pkt: &Packet, digests: &[u32], ctx: &PacketContext) -> (u32, u32) {
        let p1 = self.p1.resolve(pkt, digests, ctx);
        let p2 = self.p2.resolve(pkt, digests, ctx);
        self.prep.apply(p1, p2, ctx)
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
    }

    /// Some binding's parameters or preparation read the PHV context.
    pub(crate) fn reads_ctx(&self) -> bool {
        self.bindings
            .iter()
            .any(|b| b.p1.reads_ctx() || b.p2.reads_ctx() || b.prep.reads_ctx())
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
    /// `unit_used[i]` ⇔ some compiled binding reads unit `i`'s digest.
    /// The batch digest pass computes exactly these (derived from the
    /// compiled bindings; equals `CmuGroup::unit_used`, which the
    /// per-packet path derives from the installed ones).
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
        };
        program.refresh();
        program
    }

    /// Re-derives everything the program keeps about the group as a
    /// whole from its compiled CMUs — after a from-scratch compile, and
    /// after every mutation recompiled the CMUs it touched.
    pub(crate) fn refresh(&mut self) {
        self.reads_ctx = self.cmus.iter().any(CompiledCmu::reads_ctx);
        self.match_of.clear();
        for (ci, cmu) in self.cmus.iter().enumerate() {
            let first = self.cmus[..ci]
                .iter()
                .position(|earlier| earlier.rules == cmu.rules);
            self.match_of.push(first.unwrap_or(ci));
        }
        self.unit_used = [false; MAX_HASH_UNITS];
        self.dense_units = [false; MAX_HASH_UNITS];
        for cmu in &self.cmus {
            for cb in &cmu.bindings {
                cb.mark_units_read(&mut self.unit_used);
            }
            if cmu.always {
                cmu.bindings[0].mark_units_read(&mut self.dense_units);
            }
        }
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
            // Whatever the kernel, `params` is the interpreted resolve + prep.
            let r1 = b.p1.resolve(&pkt, &digests, &ctx);
            let r2 = b.p2.resolve(&pkt, &digests, &ctx);
            assert_eq!(cb.params(&pkt, &digests, &ctx), b.prep.apply(r1, r2, &ctx));
        }
    }

    #[test]
    fn prep_plan_mirrors_prep_action() {
        let mut ctx = PacketContext::default();
        ctx.record(0, 0, 5);
        let seen = CmuRef { group: 0, cmu: 0 };
        let unseen = CmuRef { group: 1, cmu: 1 };
        let actions = [
            PrepAction::None,
            PrepAction::OneHotBit { bits: 16 },
            PrepAction::Coupon { coupons: 4, space: 1 << 20 },
            PrepAction::Coupon { coupons: 4, space: 0 },
            PrepAction::Rho { skip_top: 16, consider_bits: 16 },
            PrepAction::MapZero { when_zero: 7, otherwise: 3 },
            PrepAction::IntervalGated { seen },
            PrepAction::IntervalGated { seen: unseen },
            PrepAction::OneHotBitGated { bits: 16, seen },
            PrepAction::OneHotBitGated { bits: 16, seen: unseen },
        ];
        for a in &actions {
            let plan = PrepPlan::compile(a);
            for p1 in [0u32, 1, 21, 0x0000_8000, (1 << 21) - 1, 1 << 30, u32::MAX] {
                for p2 in [0u32, 1, 300] {
                    assert_eq!(
                        plan.apply(p1, p2, &ctx),
                        a.apply(p1, p2, &ctx),
                        "{a:?} p1={p1} p2={p2}"
                    );
                }
            }
        }
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

    #[test]
    fn param_plan_mirrors_param_source() {
        let pkt = flymon_packet::PacketBuilder::new()
            .len(1200)
            .ts_ns(3_000_000)
            .queue_len(42)
            .queue_delay_ns(7_000)
            .build();
        let mut ctx = PacketContext::default();
        ctx.record(0, 1, 77);
        ctx.record(1, 0, 0);
        let digests = [0xdead_beef, 0x1111_0000, 9, 0, 0, 0, 0, 0];
        let refs = vec![
            CmuRef { group: 0, cmu: 1 },
            CmuRef { group: 1, cmu: 0 },
        ];
        let sources = [
            ParamSource::Const(9),
            ParamSource::PacketBytes,
            ParamSource::TimestampUs,
            ParamSource::QueueLen,
            ParamSource::QueueDelayUs,
            ParamSource::CompressedKey(KeySource::Unit(1)),
            ParamSource::CompressedKey(KeySource::Xor(0, 1)),
            ParamSource::PrevResult(CmuRef { group: 0, cmu: 1 }),
            ParamSource::PrevResult(CmuRef { group: 5, cmu: 0 }),
            ParamSource::ChainMin(refs.clone()),
            ParamSource::ChainMin(vec![CmuRef { group: 1, cmu: 0 }]),
        ];
        for s in &sources {
            let plan = ParamPlan::compile(s);
            assert_eq!(
                plan.resolve(&pkt, &digests, &ctx),
                s.resolve(&pkt, &digests, &ctx),
                "{s:?}"
            );
        }
    }
}
