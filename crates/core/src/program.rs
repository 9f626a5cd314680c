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
//!   destination), no `PrefixFilter` indirection;
//! - the sampling coin becomes a single pre-shifted 64-bit mask
//!   (`0` = always pass), so unsampled bindings cost one compare;
//! - key selection becomes raw unit indices plus the slice rotation;
//! - address translation folds `translate(addr, m) = base + ((addr % m)
//!   >> p)` into a precomputed `addr_base`/`addr_shift` pair (with the
//!   group-level `bucket_mask` replacing the `% m`);
//! - parameter and preparation plans become flat [`ParamPlan`] /
//!   [`PrepPlan`] ops with their constants pre-widened (no `u32::from`
//!   or multiply in the hot loop), and all-constant parameters are
//!   prepared once into `const_params`.
//!
//! The compression stage's half of the compile step lives with the hash
//! unit: `HashUnit::set_mask` compiles the `KeySpec` to a fixed-length
//! `KeyPlan` (serialized length + address masks), which is what the
//! batch path's digest pass extracts and hashes by.
//!
//! **Invalidation rule**: every binding mutation — `install`,
//! `uninstall`, `remove_task` — recompiles the [`CompiledCmu`]s whose
//! bindings it changed before it returns, then refreshes the group-wide
//! facts (`unit_used`, `reads_ctx`) and bumps the version; the explicit
//! control-plane invalidation after register-only resets recompiles
//! every CMU the same way. Checkpoint restore and WAL replay reinstall bindings through
//! those same entry points, so a restored or recovered switch can never
//! execute a stale program (`tests/batch.rs` pins this for every
//! mutation path).
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

/// The top `bits` bits set — the prefix mask `PrefixFilter` compares
/// under. `bits == 0` yields the all-pass mask `0`.
fn prefix_mask(bits: u8) -> u32 {
    match bits {
        0 => 0,
        b if b >= 32 => u32::MAX,
        b => u32::MAX << (32 - b),
    }
}

/// One binding, compiled flat. Everything the four pipeline stages need
/// for this binding, in execution order, with no further lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledBinding {
    /// Owning task (coin seed patch + hit attribution).
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
    /// unsampled case short-circuits before hashing a coin).
    pub coin_mask: u64,
    /// First key unit index.
    pub key_a: u8,
    /// Second key unit index ([`NO_UNIT`] for single-unit keys; the
    /// digest is XORed when present).
    pub key_b: u8,
    /// Right-rotation applied to the 32-bit key before addressing.
    pub slice_shift: u32,
    /// `partitions_log2` of the binding's address translation.
    pub addr_shift: u32,
    /// First bucket of the binding's partition
    /// ([`crate::addr::AddrTranslation::base`]).
    pub addr_base: usize,
    /// First parameter plan.
    pub p1: ParamPlan,
    /// Second parameter plan.
    pub p2: ParamPlan,
    /// Preparation plan.
    pub prep: PrepPlan,
    /// The prepared `(p1, p2)` when no packet can change them — both
    /// sources constant and a preparation that reads no PHV context
    /// (every CMS and plain-Bloom row). The fused sweep then resolves
    /// nothing but the address per packet.
    pub const_params: Option<(u32, u32)>,
    /// The stateful operation.
    pub op: StatefulOp,
    /// Which SALU output is forwarded downstream.
    pub forward: Forward,
}

impl CompiledBinding {
    fn compile(b: &CmuBinding, buckets: usize) -> CompiledBinding {
        let flat = |f: &PrefixFilter| (f.net, prefix_mask(f.bits));
        let (src_net, src_mask) = flat(&b.filter.src);
        let (dst_net, dst_mask) = flat(&b.filter.dst);
        let (key_a, key_b) = match b.key.source {
            KeySource::Unit(i) => (i as u8, NO_UNIT),
            KeySource::Xor(i, j) => (i as u8, j as u8),
        };
        let p1 = ParamPlan::compile(&b.p1);
        let p2 = ParamPlan::compile(&b.p2);
        let prep = PrepPlan::compile(&b.prep);
        let const_params = match (&p1, &p2) {
            (ParamPlan::Const(c1), ParamPlan::Const(c2)) if !prep.reads_ctx() => {
                Some(prep.apply(*c1, *c2, &PacketContext::default()))
            }
            _ => None,
        };
        CompiledBinding {
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
            key_a,
            key_b,
            slice_shift: u32::from(b.key.slice_shift),
            addr_shift: u32::from(b.translation.partitions_log2),
            addr_base: b.translation.base(buckets),
            p1,
            p2,
            prep,
            const_params,
            op: b.op,
            forward: b.forward,
        }
    }

    /// True when every packet passes this binding's filter and coin —
    /// the ubiquitous "whole-traffic, unsampled task" shape. Stage-major
    /// execution exploits it: a CMU whose *first* binding is
    /// unconditional matches every packet at binding 0 (first match
    /// wins), so the per-packet match loop and the matched-index list
    /// vanish entirely.
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
    #[inline]
    pub fn filter_matches(&self, pkt: &Packet) -> bool {
        (pkt.src_ip & self.src_mask) == self.src_net
            && (pkt.dst_ip & self.dst_mask) == self.dst_net
    }

    /// The prepared `(p1, p2)` of one packet — the initialization-stage
    /// parameter selection followed by the preparation stage.
    #[inline]
    pub fn params(&self, pkt: &Packet, digests: &[u32], ctx: &PacketContext) -> (u32, u32) {
        match self.const_params {
            Some(params) => params,
            None => {
                let p1 = self.p1.resolve(pkt, digests, ctx);
                let p2 = self.p2.resolve(pkt, digests, ctx);
                self.prep.apply(p1, p2, ctx)
            }
        }
    }

    /// The binding's 32-bit dynamic key from the packet's digest slice.
    #[inline]
    pub fn key(&self, digests: &[u32]) -> u32 {
        let a = digests[usize::from(self.key_a)];
        if self.key_b == NO_UNIT {
            a
        } else {
            a ^ digests[usize::from(self.key_b)]
        }
    }

    /// Translated register address for `digests` — exactly
    /// `translation.translate(key.address(compressed, addr_bits), m)`:
    /// the `addr_bits` mask is subsumed by `& bucket_mask` (both equal
    /// `m - 1` for a power-of-two register), and `% m` *is*
    /// `& bucket_mask`.
    #[inline]
    pub fn address(&self, digests: &[u32], bucket_mask: usize) -> usize {
        let rotated = self.key(digests).rotate_right(self.slice_shift);
        self.addr_base + ((rotated as usize & bucket_mask) >> self.addr_shift)
    }
}

/// One CMU's compiled bindings, in match (install) order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledCmu {
    /// First match wins, exactly like the interpreted path.
    pub bindings: Vec<CompiledBinding>,
    /// `bindings[0]` exists and is unconditional: every packet matches
    /// it, so stage 1 reduces to a single hit-counter bump and stages
    /// 3–4 iterate the chunk directly without a matched list.
    pub always: bool,
}

impl CompiledCmu {
    /// Compiles one CMU's binding list (match order) for a register of
    /// `buckets` buckets.
    pub(crate) fn compile(bindings: &[CmuBinding], buckets: usize) -> CompiledCmu {
        let bindings: Vec<CompiledBinding> = bindings
            .iter()
            .map(|b| CompiledBinding::compile(b, buckets))
            .collect();
        let always = bindings.first().is_some_and(CompiledBinding::is_unconditional);
        CompiledCmu { bindings, always }
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
    /// The batch digest pass computes exactly these (mirrors
    /// `CmuGroup::unit_used`).
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
}

impl GroupProgram {
    /// Compiles the live bindings of one group. `cmu_bindings[ci]` is
    /// CMU `ci`'s binding list in match order; `buckets` the register
    /// bucket count; `unit_used` the group's freshly rebuilt usage mask.
    pub(crate) fn compile(
        buckets: usize,
        unit_used: [bool; MAX_HASH_UNITS],
        cmu_bindings: &[&[CmuBinding]],
    ) -> GroupProgram {
        let cmus: Vec<CompiledCmu> = cmu_bindings
            .iter()
            .map(|bindings| CompiledCmu::compile(bindings, buckets))
            .collect();
        let reads_ctx = cmus.iter().any(CompiledCmu::reads_ctx);
        GroupProgram {
            bucket_mask: buckets - 1,
            unit_used,
            cmus,
            reads_ctx,
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
            let cb = CompiledBinding::compile(&b, 256);
            for src in [0u32, 0x0a00_0001, 0x0a80_0000, 0xc0a8_0101, u32::MAX] {
                for dst in [0u32, 0x0a80_0000, 0xc0a8_0101, 0xc0a8_01ff] {
                    let pkt = Packet::tcp(src, dst, 1, 2);
                    assert_eq!(cb.filter_matches(&pkt), f.matches(&pkt));
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
                    cb.address(&digests, buckets - 1),
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
        for (p1, prep, constant) in [
            (ParamSource::Const(1), PrepAction::None, Some((1, u32::MAX))),
            (ParamSource::Const(21), PrepAction::OneHotBit { bits: 16 }, Some((1 << 5, 1))),
            // A packet field, or a preparation gated on the PHV context,
            // varies per packet: nothing to hoist.
            (ParamSource::PacketBytes, PrepAction::None, None),
            (ParamSource::Const(21), PrepAction::OneHotBitGated { bits: 16, seen }, None),
        ] {
            let b = binding(p1, prep);
            let cb = CompiledBinding::compile(&b, 256);
            assert_eq!(cb.const_params, constant, "{b:?}");
            // Hoisted or not, `params` is the interpreted resolve + prep.
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
