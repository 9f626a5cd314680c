//! Stateful ALUs and the reduced operation set (Appendix A).

use crate::register::{Bank, Cell, Register};
use crate::RmtError;

/// Maximum register actions a SALU can pre-load (§3.1.2: "each SALU in
/// Tofino can only pre-load four different operations").
pub const MAX_REGISTER_ACTIONS: usize = 4;

/// The reduced stateful operation set of Appendix A, plus a no-op.
///
/// FlyMon implements its ten built-in algorithms with only three stateful
/// operations, leaving one of the four SALU slots as expansion room (§6
/// mentions XOR for Odd Sketch as a candidate for the reserved slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatefulOp {
    /// Conditional add (Appendix A, Operation 1):
    /// `if reg[k] < p2 { reg[k] += p1; return reg[k] } else { return 0 }`.
    ///
    /// With `p2 = MAX` this degenerates to the unconditional ADD of CMS;
    /// with `p2` a threshold it implements overflow-guarded counters
    /// (TowerSketch) and conservative update (SuMax).
    CondAdd,
    /// Maximum (Appendix A, Operation 2):
    /// `if reg[k] < p1 { reg[k] = p1; return reg[k] } else { return 0 }`.
    Max,
    /// Aggregated bit-wise AND/OR (Appendix A, Operation 3):
    /// `if p2 == 0 { reg[k] &= p1 } else { reg[k] |= p1 }; return reg[k]`.
    AndOr,
    /// Bit-wise XOR: `reg[k] ^= p1; return reg[k]` — the §6 expansion
    /// example ("we can add an XOR stateful operation to implement Odd
    /// Sketch for evaluating the similarity between two traffic sets"),
    /// occupying the fourth register-action slot.
    Xor,
    /// Reserved no-op. Executes no memory update and returns the current
    /// bucket value (a plain read). Kept for CMUs that need fewer than
    /// four real operations.
    ReservedRead,
}

impl StatefulOp {
    /// Short name used in rule dumps.
    pub fn name(self) -> &'static str {
        match self {
            StatefulOp::CondAdd => "Cond-ADD",
            StatefulOp::Max => "MAX",
            StatefulOp::AndOr => "AND-OR",
            StatefulOp::Xor => "XOR",
            StatefulOp::ReservedRead => "READ",
        }
    }

    /// Appendix A's read-modify-write of a bucket holding `current`, in
    /// a register whose cells hold at most `max`: the bucket's next
    /// value and the operation's result, as `(next, result)`. The one
    /// definition [`Salu::execute`] and every [`Salu::sweep`] run; a
    /// sweep's operation is a constant, so its match folds away.
    #[inline(always)]
    fn update(self, current: u32, p1: u32, p2: u32, max: u32) -> (u32, u32) {
        match self {
            StatefulOp::CondAdd => {
                if current < p2 {
                    let next = current.wrapping_add(p1) & max;
                    (next, next)
                } else {
                    (current, 0)
                }
            }
            StatefulOp::Max => {
                let p1 = p1 & max;
                if current < p1 {
                    (p1, p1)
                } else {
                    (current, 0)
                }
            }
            StatefulOp::AndOr => {
                let next = if p2 == 0 { current & p1 } else { current | p1 } & max;
                (next, next)
            }
            StatefulOp::Xor => {
                let next = (current ^ p1) & max;
                (next, next)
            }
            StatefulOp::ReservedRead => (current, current),
        }
    }
}

/// A [`StatefulOp`] as a type — the types are in [`op`], one per
/// variant, of the same name. [`Salu::sweep`] takes its operation as
/// one, so a caller compiles a sweep loop for each operation it names
/// and for no other.
pub trait Update: Copy {
    /// The operation.
    const OP: StatefulOp;
}

/// Every [`StatefulOp`] as an [`Update`].
pub mod op {
    use super::{StatefulOp, Update};

    macro_rules! ops {
        ($($name:ident),*) => {$(
            #[doc = concat!("[`StatefulOp::", stringify!($name), "`].")]
            #[derive(Debug, Clone, Copy)]
            pub struct $name;

            impl Update for $name {
                const OP: StatefulOp = StatefulOp::$name;
            }
        )*};
    }

    ops!(CondAdd, Max, AndOr, Xor, ReservedRead);
}

/// Where a [`Salu::sweep`] takes its operands: step `k`'s `(addr, p1,
/// p2)` for every row at once, from the caller's state `X`. An
/// implementation is a small `Copy` value whose `at` is
/// `#[inline(always)]`, so every sweep loop compiles it in place instead
/// of leaving a call to LLVM's inliner — a closure's body is no
/// `#[inline(always)]` item.
pub trait Operands<X: ?Sized, const N: usize>: Copy {
    /// Step `k`'s operands, row by row.
    fn at(self, ctx: &X, k: usize) -> [(usize, u32, u32); N];
}

/// What a [`Salu::sweep`] does with each output, under the same rule as
/// [`Operands`]. `()` drops them.
pub trait Sink<X: ?Sized>: Copy {
    /// Row `row`'s output at step `k`, which ran with `p1`.
    fn take(self, ctx: &mut X, k: usize, row: usize, p1: u32, out: OpOutput);
}

impl<X: ?Sized> Sink<X> for () {
    #[inline(always)]
    fn take(self, _: &mut X, _: usize, _: usize, _: u32, _: OpOutput) {}
}

/// Output of one stateful operation.
///
/// Tofino register actions program which value leaves the SALU; FlyMon's
/// combinatorial tasks (§4: maximum inter-arrival time, existence checks
/// feeding downstream CMUs) need the *pre-update* bucket value, while the
/// Appendix A pseudo-code returns the post-update value. Both are exposed;
/// the CMU binding selects which one is forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutput {
    /// The Appendix A return value (post-update value, or 0 when the
    /// conditional did not fire).
    pub result: u32,
    /// The bucket value *before* the operation.
    pub old: u32,
}

/// A stateful ALU bound to one [`Register`].
///
/// Models the two hardware constraints FlyMon designs around:
/// 1. at most [`MAX_REGISTER_ACTIONS`] operations can be pre-loaded;
/// 2. the register is accessed **once per packet** ([`Salu::execute`]
///    performs exactly one read-modify-write), which is why tasks with
///    intersecting traffic cannot share a CMU (§3.3).
#[derive(Debug, Clone)]
pub struct Salu {
    register: Register,
    loaded: Vec<StatefulOp>,
}

impl Salu {
    /// Creates a SALU over a fresh register of the given geometry with no
    /// operations pre-loaded.
    pub fn new(buckets: usize, width_bits: u8) -> Self {
        Salu {
            register: Register::new(buckets, width_bits),
            loaded: Vec::new(),
        }
    }

    /// Pre-loads a register action. This happens at "compile time"; the
    /// set of loaded actions cannot grow past [`MAX_REGISTER_ACTIONS`].
    pub fn load_op(&mut self, op: StatefulOp) -> Result<(), RmtError> {
        if self.loaded.contains(&op) {
            return Ok(());
        }
        if self.loaded.len() >= MAX_REGISTER_ACTIONS {
            return Err(RmtError::RegisterActionsFull);
        }
        self.loaded.push(op);
        Ok(())
    }

    /// Immutable access to the bound register (control-plane readout).
    pub fn register(&self) -> &Register {
        &self.register
    }

    /// Mutable access to the bound register (control-plane resets).
    pub fn register_mut(&mut self) -> &mut Register {
        &mut self.register
    }

    /// Executes one pre-loaded stateful operation at `addr` with
    /// parameters `p1`, `p2`; returns the operation's result value.
    ///
    /// Exactly one register access occurs. Attempting to execute an
    /// operation that was not pre-loaded is a programming error surfaced
    /// as [`RmtError::NoSuchEntity`] — the data plane cannot invent
    /// register actions at runtime.
    pub fn execute(
        &mut self,
        op: StatefulOp,
        addr: usize,
        p1: u32,
        p2: u32,
    ) -> Result<OpOutput, RmtError> {
        if !self.loaded.contains(&op) {
            return Err(RmtError::NoSuchEntity("pre-loaded register action"));
        }
        let max = self.register.max_value();
        let current = self.register.read(addr)?;
        let (next, result) = op.update(current, p1, p2, max);
        if next != current {
            self.register.write(addr, next)?;
        }
        Ok(OpOutput {
            result,
            old: current,
        })
    }

    /// The fused resolve+apply sweep of the batched datapath over a row
    /// set: `count` steps of one pre-loaded operation `U` on each of `N`
    /// SALUs, each step on each SALU semantically one [`Salu::execute`]
    /// — same read-modify-write, same Appendix A results, same
    /// one-memory-access-per-packet discipline (each step *is* one
    /// packet's access to each register). A lone SALU is `N = 1`.
    ///
    /// Step `k` takes every row's `(addr, p1, p2)` at once from
    /// `operands.at(ctx, k)`, so the caller resolves what the rows share
    /// — the packet's compressed key — once per step; then, row by row
    /// in index order, it applies the update and hands the outcome to
    /// `sink.take(ctx, k, row, p1, output)`. The caller resolves
    /// operands and consumes outputs inside the loop instead of staging
    /// either in a buffer; `ctx` is whatever state the two share (the
    /// PHV contexts a chained attribute reads and writes). A caller
    /// with no use for the outputs passes `()` and the loop collapses
    /// to the register updates.
    ///
    /// One loop is compiled per operation type, [`Operands`] and
    /// [`Sink`] type, row count and [`crate::register::Cell`] width of
    /// the registers (which must share one width) — so what a caller
    /// names is what it pays for in code, and the operation's arms fold
    /// into the loop. What is per-op in `execute` is hoisted out of it:
    /// the loaded-op check runs once per SALU, the width mask is
    /// computed once, and each register's dirty watermark is marked
    /// once with the running `(min, max)` of its written addresses (a
    /// union of marks equals the mark of the union, so delta
    /// checkpoints cannot tell the difference). The bounds check stays
    /// per step and row.
    ///
    /// On an out-of-range address the updates before the offending one
    /// remain applied and are reflected in the dirty marks — the same
    /// partial state a caller of the scalar path would have produced.
    pub fn sweep<U: Update, const N: usize, X: ?Sized>(
        salus: [&mut Salu; N],
        _op: U,
        count: usize,
        ctx: &mut X,
        operands: impl Operands<X, N>,
        sink: impl Sink<X>,
    ) -> Result<(), RmtError> {
        if salus.iter().any(|s| !s.loaded.contains(&U::OP)) {
            return Err(RmtError::NoSuchEntity("pre-loaded register action"));
        }
        let max = salus[0].register.max_value();
        if salus.iter().any(|s| s.register.max_value() != max) {
            return Err(RmtError::NoSuchEntity("register of the sweep's width"));
        }
        let mut registers = salus.map(|s| &mut s.register);
        macro_rules! cells {
            ($variant:ident) => {
                registers.each_mut().map(|r| match r.bank_mut() {
                    Bank::$variant(cells) => cells.as_mut_slice(),
                    _ => unreachable!("a sweep's registers share one width"),
                })
            };
        }
        let (dirty, res) = if matches!(registers[0].bank_mut(), Bank::U16(_)) {
            sweep_cells::<U, N, X, _>(cells!(U16), max, count, ctx, operands, sink)
        } else {
            sweep_cells::<U, N, X, _>(cells!(U32), max, count, ctx, operands, sink)
        };
        for (register, (lo, hi)) in registers.into_iter().zip(dirty) {
            register.mark_dirty(lo, hi);
        }
        res
    }
}

/// The loop of [`Salu::sweep`] over the registers' cells, whose width
/// mask is `max`. Returns each row's `(min, max)` watermark of the
/// buckets it wrote, and the error of an address that stopped it.
fn sweep_cells<U: Update, const N: usize, X: ?Sized, C: Cell>(
    mut rows: [&mut [C]; N],
    max: u32,
    count: usize,
    ctx: &mut X,
    operands: impl Operands<X, N>,
    sink: impl Sink<X>,
) -> ([(usize, usize); N], Result<(), RmtError>) {
    let mut dirty = [(usize::MAX, 0usize); N];
    for k in 0..count {
        let steps = operands.at(ctx, k);
        for (r, (cells, (addr, p1, p2))) in rows.iter_mut().zip(steps).enumerate() {
            let limit = cells.len();
            let Some(slot) = cells.get_mut(addr) else {
                let error = RmtError::IndexOutOfRange { what: "bucket", index: addr, limit };
                return (dirty, Err(error));
            };
            let old: u32 = (*slot).into();
            let (next, result) = U::OP.update(old, p1, p2, max);
            if next != old {
                // `update` masks to the register width, so `next` fits.
                *slot = C::truncate(next);
                dirty[r] = (dirty[r].0.min(addr), dirty[r].1.max(addr + 1));
            }
            sink.take(ctx, k, r, p1, OpOutput { result, old });
        }
    }
    (dirty, Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn salu_with(ops: &[StatefulOp]) -> Salu {
        let mut s = Salu::new(16, 16);
        for &op in ops {
            s.load_op(op).unwrap();
        }
        s
    }

    /// Step `k`'s operands are the list's entry `k`.
    #[derive(Clone, Copy)]
    struct Listed<'a, const N: usize>(&'a [[(usize, u32, u32); N]]);

    impl<X: ?Sized, const N: usize> Operands<X, N> for Listed<'_, N> {
        #[inline(always)]
        fn at(self, _: &X, k: usize) -> [(usize, u32, u32); N] {
            self.0[k]
        }
    }

    /// Every output, appended as `(k, row, p1, output)`.
    #[derive(Clone, Copy)]
    struct Push;

    type Outputs = Vec<(usize, usize, u32, OpOutput)>;

    impl Sink<Outputs> for Push {
        #[inline(always)]
        fn take(self, outs: &mut Outputs, k: usize, row: usize, p1: u32, out: OpOutput) {
            outs.push((k, row, p1, out));
        }
    }

    /// [`Salu::sweep`] under the [`Update`] type of `op`.
    fn sweep<const N: usize, X: ?Sized>(
        salus: [&mut Salu; N],
        op: StatefulOp,
        ctx: &mut X,
        steps: &[[(usize, u32, u32); N]],
        sink: impl Sink<X>,
    ) -> Result<(), RmtError> {
        let (n, steps) = (steps.len(), Listed(steps));
        match op {
            StatefulOp::CondAdd => Salu::sweep(salus, op::CondAdd, n, ctx, steps, sink),
            StatefulOp::Max => Salu::sweep(salus, op::Max, n, ctx, steps, sink),
            StatefulOp::AndOr => Salu::sweep(salus, op::AndOr, n, ctx, steps, sink),
            StatefulOp::Xor => Salu::sweep(salus, op::Xor, n, ctx, steps, sink),
            StatefulOp::ReservedRead => Salu::sweep(salus, op::ReservedRead, n, ctx, steps, sink),
        }
    }

    #[test]
    fn cond_add_matches_appendix_a() {
        let mut s = salu_with(&[StatefulOp::CondAdd]);
        // Below threshold: add and return new value.
        assert_eq!(s.execute(StatefulOp::CondAdd, 0, 5, 100).unwrap().result, 5);
        assert_eq!(s.execute(StatefulOp::CondAdd, 0, 5, 100).unwrap().result, 10);
        // At/above threshold: no update, return 0.
        assert_eq!(s.execute(StatefulOp::CondAdd, 0, 5, 10).unwrap().result, 0);
        assert_eq!(s.register().read(0).unwrap(), 10);
    }

    #[test]
    fn cond_add_with_max_threshold_is_unconditional_add() {
        let mut s = salu_with(&[StatefulOp::CondAdd]);
        for _ in 0..3 {
            s.execute(StatefulOp::CondAdd, 1, 7, u32::MAX).unwrap();
        }
        assert_eq!(s.register().read(1).unwrap(), 21);
    }

    #[test]
    fn cond_add_wraps_at_register_width() {
        let mut s = salu_with(&[StatefulOp::CondAdd]);
        s.execute(StatefulOp::CondAdd, 0, 0xffff, u32::MAX).unwrap();
        // 0xffff + 2 wraps to 1 in a 16-bit register.
        assert_eq!(s.execute(StatefulOp::CondAdd, 0, 2, u32::MAX).unwrap().result, 1);
    }

    #[test]
    fn max_matches_appendix_a() {
        let mut s = salu_with(&[StatefulOp::Max]);
        assert_eq!(s.execute(StatefulOp::Max, 2, 9, 0).unwrap().result, 9);
        // Smaller value: no update, return 0.
        assert_eq!(s.execute(StatefulOp::Max, 2, 4, 0).unwrap().result, 0);
        assert_eq!(s.register().read(2).unwrap(), 9);
        assert_eq!(s.execute(StatefulOp::Max, 2, 11, 0).unwrap().result, 11);
    }

    #[test]
    fn and_or_matches_appendix_a() {
        let mut s = salu_with(&[StatefulOp::AndOr]);
        // p2 != 0 -> OR
        assert_eq!(s.execute(StatefulOp::AndOr, 0, 0b0101, 1).unwrap().result, 0b0101);
        assert_eq!(s.execute(StatefulOp::AndOr, 0, 0b0010, 1).unwrap().result, 0b0111);
        // p2 == 0 -> AND
        assert_eq!(s.execute(StatefulOp::AndOr, 0, 0b0011, 0).unwrap().result, 0b0011);
    }

    #[test]
    fn xor_toggles_bits() {
        let mut s = salu_with(&[StatefulOp::Xor]);
        assert_eq!(s.execute(StatefulOp::Xor, 0, 0b0110, 0).unwrap().result, 0b0110);
        assert_eq!(s.execute(StatefulOp::Xor, 0, 0b0010, 0).unwrap().result, 0b0100);
        // Toggling the same bit twice restores the bucket (the Odd
        // Sketch's defining property).
        assert_eq!(s.execute(StatefulOp::Xor, 0, 0b0100, 0).unwrap().result, 0);
        // Masked to register width.
        assert_eq!(
            s.execute(StatefulOp::Xor, 1, 0xdead_beef, 0).unwrap().result,
            0xbeef
        );
    }

    #[test]
    fn reserved_read_is_pure() {
        let mut s = salu_with(&[StatefulOp::CondAdd, StatefulOp::ReservedRead]);
        s.execute(StatefulOp::CondAdd, 5, 42, u32::MAX).unwrap();
        assert_eq!(s.execute(StatefulOp::ReservedRead, 5, 0, 0).unwrap().result, 42);
        assert_eq!(s.register().read(5).unwrap(), 42);
    }

    #[test]
    fn at_most_four_register_actions() {
        let mut s = Salu::new(4, 16);
        s.load_op(StatefulOp::CondAdd).unwrap();
        s.load_op(StatefulOp::Max).unwrap();
        s.load_op(StatefulOp::AndOr).unwrap();
        s.load_op(StatefulOp::ReservedRead).unwrap();
        // Re-loading an existing op is idempotent, not a fifth slot.
        s.load_op(StatefulOp::Max).unwrap();
        assert_eq!(s.loaded.len(), 4);
    }

    #[test]
    fn executing_unloaded_op_is_rejected() {
        let mut s = salu_with(&[StatefulOp::Max]);
        assert!(matches!(
            s.execute(StatefulOp::CondAdd, 0, 1, 1),
            Err(RmtError::NoSuchEntity(_))
        ));
    }

    #[test]
    fn max_masks_parameter_to_width() {
        let mut s = salu_with(&[StatefulOp::Max]);
        // 0x12345 masked to 16 bits is 0x2345.
        assert_eq!(s.execute(StatefulOp::Max, 0, 0x1_2345, 0).unwrap().result, 0x2345);
    }

    #[test]
    fn sweep_matches_scalar_execution_bit_for_bit() {
        // The fused entry point must be indistinguishable from one
        // scalar execute per step: same outputs, same register image,
        // same dirty watermark — for every operation, on a 16-bit
        // register (parameters get masked) and a 32-bit one (they don't).
        let all = [
            StatefulOp::CondAdd,
            StatefulOp::Max,
            StatefulOp::AndOr,
            StatefulOp::Xor,
            StatefulOp::ReservedRead,
        ];
        for width in [16u8, 32] {
            for op in all {
                let mut scalar = Salu::new(16, width);
                let mut fused = Salu::new(16, width);
                for s in [&mut scalar, &mut fused] {
                    s.load_op(op).unwrap();
                    s.load_op(StatefulOp::Xor).unwrap();
                    // Seed buckets 2..11 so conditionals take both
                    // branches and ReservedRead has something to read;
                    // the dirty range then has to grow at both ends.
                    for addr in 2..11 {
                        s.execute(StatefulOp::Xor, addr, 0x0001_0300 + addr as u32, 0)
                            .unwrap();
                    }
                }
                // A deterministic pseudo-random operand mix over a small
                // register so addresses collide.
                let mut x = 0x243f_6a88u32;
                let steps: Vec<[(usize, u32, u32); 1]> = (0..500)
                    .map(|_| {
                        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                        let p2 = if x & 1 == 0 { u32::MAX } else { x >> 21 };
                        [((x >> 4) as usize % 16, x >> 7, p2 & (x >> 3 | 1))]
                    })
                    .collect();
                let scalar_out: Outputs = steps
                    .iter()
                    .enumerate()
                    .map(|(k, &[(addr, p1, p2)])| {
                        (k, 0, p1, scalar.execute(op, addr, p1, p2).unwrap())
                    })
                    .collect();
                let mut fused_out = Vec::new();
                sweep([&mut fused], op, &mut fused_out, &steps, Push).unwrap();
                assert_eq!(scalar_out, fused_out, "{op:?} at {width} bits");
                assert_eq!(
                    scalar.register().read_range(0, 16).unwrap(),
                    fused.register().read_range(0, 16).unwrap(),
                    "{op:?} at {width} bits"
                );
                assert_eq!(
                    scalar.register().dirty_range(),
                    fused.register().dirty_range(),
                    "{op:?} at {width} bits"
                );
            }
        }
    }

    #[test]
    fn sweep_rejects_unloaded_op_and_bad_address() {
        let mut s = salu_with(&[StatefulOp::Max]);
        let untouched = |s: &Salu| s.register().read_range(0, 16).unwrap().iter().all(|v| v == 0);
        assert!(matches!(
            sweep(
                [&mut s],
                StatefulOp::CondAdd,
                &mut (),
                &[[(0, 1, 1)]; 3],
                ()
            ),
            Err(RmtError::NoSuchEntity(_))
        ));
        assert!(untouched(&s), "an unloaded op must not run a single step");
        // Steps before the bad address stay applied, like a scalar loop
        // that stopped at the error.
        let steps = [[(3usize, 7u32, 0u32)], [(99, 1, 0)], [(4, 9, 0)]];
        assert!(matches!(
            sweep([&mut s], StatefulOp::Max, &mut (), &steps, ()),
            Err(RmtError::IndexOutOfRange { index: 99, limit: 16, .. })
        ));
        assert_eq!(s.register().read(3).unwrap(), 7);
        assert_eq!(s.register().read(4).unwrap(), 0);
        assert_eq!(s.register().dirty_range(), Some((3, 4)));
    }

    #[test]
    fn a_row_set_sweep_is_each_row_executed_in_step_order() {
        // Three registers swept as one set: each step hands every row
        // its own operands, and each row must end exactly as one scalar
        // execute per step left it — outputs row by row in index order,
        // registers and dirty watermarks row by row.
        for width in [16u8, 32] {
            for op in [StatefulOp::CondAdd, StatefulOp::Max, StatefulOp::AndOr, StatefulOp::Xor] {
                let fresh = || {
                    let mut s = Salu::new(32, width);
                    s.load_op(op).unwrap();
                    s
                };
                let mut x = 0x9e37_79b9u32;
                let steps: Vec<[(usize, u32, u32); 3]> = (0..400)
                    .map(|_| {
                        std::array::from_fn(|r| {
                            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                            // Row r reaches buckets 8r..8r+16: the rows'
                            // watermarks differ.
                            (8 * r + (x >> 5) as usize % 16, x >> 9, (x >> 3) & 0xffff)
                        })
                    })
                    .collect();
                let mut scalar = [fresh(), fresh(), fresh()];
                let mut expected = Vec::new();
                for (k, step) in steps.iter().enumerate() {
                    for (r, (s, &(addr, p1, p2))) in scalar.iter_mut().zip(step).enumerate() {
                        expected.push((k, r, p1, s.execute(op, addr, p1, p2).unwrap()));
                    }
                }
                let [mut a, mut b, mut c] = [fresh(), fresh(), fresh()];
                let mut got = Vec::new();
                sweep([&mut a, &mut b, &mut c], op, &mut got, &steps, Push).unwrap();
                assert_eq!(got, expected, "{op:?} at {width} bits");
                for (r, (swept, s)) in [a, b, c].iter().zip(&scalar).enumerate() {
                    let (got, want) = (swept.register(), s.register());
                    assert_eq!(got.read_range(0, 32).unwrap(), want.read_range(0, 32).unwrap());
                    let what = format!("{op:?} row {r} at {width} bits");
                    assert_eq!(got.dirty_range(), want.dirty_range(), "{what}");
                }
            }
        }
    }

    #[test]
    fn a_row_set_sweep_rejects_an_unloaded_row_a_second_width_and_a_bad_row_address() {
        let (mut a, mut b) = (salu_with(&[StatefulOp::Max]), salu_with(&[StatefulOp::CondAdd]));
        let op = StatefulOp::Max;
        let run = |a: &mut Salu, b: &mut Salu| sweep([a, b], op, &mut (), &[[(1, 5, 0); 2]; 2], ());
        assert!(matches!(run(&mut a, &mut b), Err(RmtError::NoSuchEntity(_))));
        let mut wide = Salu::new(16, 32);
        wide.load_op(op).unwrap();
        assert!(matches!(run(&mut a, &mut wide), Err(RmtError::NoSuchEntity(_))));
        assert_eq!(a.register().dirty_range(), None, "a refused set must not run a single step");
        // Row 1's address at step 1 is out of range: step 0 on both rows
        // and step 1 on row 0 stay applied, as a scalar loop would leave them.
        b.load_op(op).unwrap();
        let steps: [[(usize, u32, u32); 2]; 3] =
            [[(3, 7, 0), (4, 8, 0)], [(5, 9, 0), (99, 1, 0)], [(6, 9, 0), (6, 9, 0)]];
        let res = sweep([&mut a, &mut b], op, &mut (), &steps, ());
        assert!(matches!(res, Err(RmtError::IndexOutOfRange { index: 99, limit: 16, .. })));
        let dirty = (a.register().dirty_range(), b.register().dirty_range());
        assert_eq!(dirty, (Some((3, 6)), Some((4, 5))));
        assert_eq!(a.register().read(6).unwrap(), 0);
    }
}
