//! Expression and statement forms of the IR.
//!
//! The IR plays the role that .NET CIL plays in the Emu toolchain (§3.1):
//! it is the single program representation produced from the high-level
//! source (here, the builder DSL in [`crate::dsl`]) and consumed by every
//! back end — the sequential interpreter (the paper's x86 target), the
//! Kiwi-style FSM compiler (the FPGA target), and the Mininet-analogue
//! network simulator.
//!
//! Semantics are deliberately hardware-shaped: all values are unsigned
//! fixed-width words (see [`emu_types::Bits`]), arithmetic is modular in
//! the result width, and `Pause` marks a clock-cycle boundary exactly like
//! `Kiwi.Pause()` in the paper (§3.2(ii), Figure 2 line 11).
//!
//! # Shared sub-expressions
//!
//! An [`Expr`]'s children are [`Arc`]s, so a clone copies one node and
//! is otherwise a pointer copy: a helper that uses its argument four
//! times (`emu_core::csum::fold16`) holds it once, and a chain of five
//! checksum updates is 151 nodes, not the 26 599 a copied tree would
//! spell out. One image is shared by every shard thread, hence `Arc`
//! rather than `Rc`.
//!
//! Node identity is an optimisation, never semantics. A shared node
//! means what its copies would: every consumer must give a shared tree
//! the result it gives the fully copied one. The walks on the build
//! path visit a shared node once — [`Expr::width`] and [`Expr::delay`]
//! once per call, the compiled backend's lowering once per statement —
//! by memoising on the node's address. The reference machines
//! ([`crate::interp::eval`], the FSM), the resource estimate and the
//! Verilog emitter still walk every use, and so describe the inlined
//! logic.

use crate::program::{ArrId, Program, SigId, VarId};
use emu_types::Bits;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement in the operand's width.
    Not,
    /// Two's-complement negation in the operand's width.
    Neg,
    /// OR-reduction to a single bit (`|x` in Verilog).
    RedOr,
}

/// Binary operators.
///
/// Arithmetic/logic operators produce `max(lhs, rhs)` bits (operands are
/// zero-extended); shifts keep the left operand's width; comparisons are
/// unsigned and produce a single bit.
///
/// # The shift width rule
///
/// `Shl`/`Shr` are deliberately **asymmetric**: where every other binary
/// op widens both operands to the result width, a shift uses the
/// *unresized* left operand and its result keeps `width(lhs)` —
/// whatever the width or value of the right operand. Consequences every
/// backend must honour identically:
///
/// * `Shl` bits shifted at or past `width(lhs)` are lost — a wider
///   right operand does **not** widen the left before shifting
///   (`shl(8'h80, 16'h1) == 8'h0`, not `16'h100`);
/// * a shift amount ≥ `width(lhs)` yields zero;
/// * the shift amount is the right operand's low 64 bits, saturating at
///   `u32::MAX` (which always exceeds any legal width).
///
/// This mirrors Verilog's self-determined shift semantics when the
/// expression is truncated to the left operand's width, which is why
/// the Verilog emitter masks `<<` results to `width(lhs)` — see
/// `kiwi::verilog`. The rule is pinned across the tree-walking
/// interpreter, the compiled micro-op backend, and the RTL executor by
/// directed tests (`shift_rule_*` in this crate and
/// `tests/backend_equiv.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Modular addition.
    Add,
    /// Modular subtraction.
    Sub,
    /// Modular multiplication (low bits).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left; shift amount taken modulo nothing (≥ width ⇒ 0).
    Shl,
    /// Logical shift right.
    Shr,
    /// Equality (1 bit).
    Eq,
    /// Inequality (1 bit).
    Ne,
    /// Unsigned less-than (1 bit).
    Lt,
    /// Unsigned less-or-equal (1 bit).
    Le,
    /// Unsigned greater-than (1 bit).
    Gt,
    /// Unsigned greater-or-equal (1 bit).
    Ge,
}

impl BinOp {
    /// True for the comparison operators (1-bit results).
    pub(crate) fn is_compare(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal.
    Const(Bits),
    /// A register read.
    Var(VarId),
    /// An array element read (`arr[idx]`); out-of-range reads yield zero,
    /// matching hardware address decoding with undriven outputs tied low.
    ArrRead(ArrId, Arc<Expr>),
    /// An input-signal sample (IP block output or platform input).
    SigRead(SigId),
    /// Unary operation.
    Un(UnOp, Arc<Expr>),
    /// Binary operation.
    Bin(BinOp, Arc<Expr>, Arc<Expr>),
    /// Two-way multiplexer: `cond ? then : else` (cond ≠ 0 selects `then`).
    Mux(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// Bit slice `[hi:lo]`, inclusive, Verilog order.
    Slice(Arc<Expr>, u16, u16),
    /// Concatenation `{hi, lo}`.
    Concat(Arc<Expr>, Arc<Expr>),
    /// Zero-extension or truncation to an explicit width.
    Resize(Arc<Expr>, u16),
}

/// Errors from IR validation or lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError(pub String);

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR error: {}", self.0)
    }
}

impl std::error::Error for IrError {}

/// Convenience alias.
pub type IrResult<T> = Result<T, IrError>;

/// A value computed at shared nodes during one walk, keyed by node
/// identity (see the module docs).
type NodeMemo<T> = HashMap<*const Expr, T>;

/// Computes `f` at `node`, once per walk when the node is shared: a node
/// only one parent holds is reached once anyway, so it skips the memo.
fn once<T: Clone>(
    node: &Arc<Expr>,
    memo: &mut NodeMemo<T>,
    f: impl FnOnce(&Expr, &mut NodeMemo<T>) -> T,
) -> T {
    if Arc::strong_count(node) == 1 {
        return f(node, memo);
    }
    let key = Arc::as_ptr(node);
    if let Some(v) = memo.get(&key) {
        return v.clone();
    }
    let v = f(node, memo);
    memo.insert(key, v.clone());
    v
}

impl Expr {
    /// Computes the width of this expression in `prog`'s declaration
    /// context, validating sub-expressions along the way. A shared node
    /// is visited once.
    pub fn width(&self, prog: &Program) -> IrResult<u16> {
        self.width_in(prog, &mut NodeMemo::new())
    }

    fn width_in(&self, prog: &Program, memo: &mut NodeMemo<IrResult<u16>>) -> IrResult<u16> {
        let mut width = |e: &Arc<Expr>| once(e, memo, |e, m| e.width_in(prog, m));
        match self {
            Expr::Const(b) => Ok(b.width()),
            Expr::Var(v) => prog
                .var(*v)
                .map(|d| d.width)
                .ok_or_else(|| IrError(format!("unknown var {v:?}"))),
            Expr::ArrRead(a, idx) => {
                width(idx)?;
                prog.array(*a)
                    .map(|d| d.elem_width)
                    .ok_or_else(|| IrError(format!("unknown array {a:?}")))
            }
            Expr::SigRead(s) => {
                let d = prog
                    .signal(*s)
                    .ok_or_else(|| IrError(format!("unknown signal {s:?}")))?;
                Ok(d.width)
            }
            Expr::Un(op, e) => {
                let w = width(e)?;
                Ok(match op {
                    UnOp::Not | UnOp::Neg => w,
                    UnOp::RedOr => 1,
                })
            }
            Expr::Bin(op, l, r) => {
                let wl = width(l)?;
                let wr = width(r)?;
                Ok(match op {
                    _ if op.is_compare() => 1,
                    BinOp::Shl | BinOp::Shr => wl,
                    _ => wl.max(wr),
                })
            }
            Expr::Mux(c, t, e) => {
                width(c)?;
                let wt = width(t)?;
                let we = width(e)?;
                Ok(wt.max(we))
            }
            Expr::Slice(e, hi, lo) => {
                let w = width(e)?;
                if hi < lo || *hi >= w {
                    return Err(IrError(format!(
                        "slice [{hi}:{lo}] out of range for width {w}"
                    )));
                }
                Ok(hi - lo + 1)
            }
            Expr::Concat(h, l) => {
                let w = width(h)? + width(l)?;
                if w > emu_types::bits::MAX_WIDTH {
                    return Err(IrError(format!("concat width {w} exceeds maximum")));
                }
                Ok(w)
            }
            Expr::Resize(e, w) => {
                width(e)?;
                if *w == 0 || *w > emu_types::bits::MAX_WIDTH {
                    return Err(IrError(format!("resize to invalid width {w}")));
                }
                Ok(*w)
            }
        }
    }

    /// Estimated combinational delay of this expression in "gate units",
    /// used by the Kiwi scheduler's clock-period budget (§3.4: "If Kiwi
    /// schedules too little computation, it is inefficient; if it schedules
    /// too much, the implementation on the target FPGA device fails").
    ///
    /// The model is a crude depth estimate: carry chains cost proportional
    /// to `log2(width)`, logic costs 1, muxes/array reads cost address-decode
    /// depth. Absolute values are calibrated in `kiwi::resources`. A depth
    /// does not depend on how often a node is shared, so a shared node is
    /// visited once.
    pub fn delay(&self, prog: &Program) -> u32 {
        self.delay_in(prog, &mut NodeMemo::new(), &mut NodeMemo::new())
    }

    fn delay_in(
        &self,
        prog: &Program,
        memo: &mut NodeMemo<u32>,
        widths: &mut NodeMemo<IrResult<u16>>,
    ) -> u32 {
        let mut delay = |e: &Arc<Expr>| once(e, memo, |e, m| e.delay_in(prog, m, widths));
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::SigRead(_) => 0,
            Expr::ArrRead(a, idx) => {
                let decode = prog
                    .array(*a)
                    .map(|d| (usize::BITS - d.len.leading_zeros()).max(1))
                    .unwrap_or(1);
                delay(idx) + decode
            }
            Expr::Un(op, e) => {
                delay(e)
                    + match op {
                        UnOp::Not => 1,
                        UnOp::Neg => 4,
                        UnOp::RedOr => 3,
                    }
            }
            Expr::Bin(op, l, r) => {
                let base = delay(l).max(delay(r));
                let w = u32::from(self.width_in(prog, widths).unwrap_or(64));
                let logw = (32 - w.leading_zeros()).max(1);
                base + match op {
                    BinOp::And | BinOp::Or | BinOp::Xor => 1,
                    BinOp::Add | BinOp::Sub => logw,
                    BinOp::Mul => 2 * logw,
                    BinOp::Shl | BinOp::Shr => logw,
                    BinOp::Eq | BinOp::Ne => logw,
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => logw + 1,
                }
            }
            Expr::Mux(c, t, e) => delay(c).max(delay(t)).max(delay(e)) + 1,
            Expr::Slice(e, _, _) => delay(e),
            Expr::Concat(h, l) => delay(h).max(delay(l)),
            Expr::Resize(e, _) => delay(e),
        }
    }

    /// Visits every sub-expression (including `self`), pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::SigRead(_) => {}
            Expr::ArrRead(_, e) | Expr::Un(_, e) | Expr::Slice(e, _, _) | Expr::Resize(e, _) => {
                e.visit(f)
            }
            Expr::Bin(_, l, r) | Expr::Concat(l, r) => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Mux(c, t, e) => {
                c.visit(f);
                t.visit(f);
                e.visit(f);
            }
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Register assignment; the value is resized to the register's width.
    Assign(VarId, Expr),
    /// Array element write; out-of-range writes are dropped (hardware:
    /// write-enable decoded to no row).
    ArrWrite(ArrId, Expr, Expr),
    /// Drive an output signal for the current cycle onward.
    SigWrite(SigId, Expr),
    /// Conditional.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// Pre-tested loop.
    While(Expr, Vec<Stmt>),
    /// End the current clock cycle (`Kiwi.Pause()`).
    Pause,
    /// Named program point (breakpoint anchor, FSM state naming, and the
    /// paper's `break L` direction command target).
    Label(String),
    /// Debug extension point (§3.5): a hole where the direction controller
    /// can be attached. `ExtPoint(id)` is a no-op until the transformation
    /// pass in the `direction` crate fills it.
    ExtPoint(u32),
    /// Exit the innermost loop.
    Break,
    /// Re-test the innermost loop.
    Continue,
    /// Stop this thread permanently.
    Halt,
}

#[cfg(test)]
mod tests {
    use crate::dsl::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn widths_follow_rules() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 16);
        let p = pb.build().unwrap();

        assert_eq!(add(var(a), var(b)).width(&p).unwrap(), 16);
        assert_eq!(eq(var(a), var(b)).width(&p).unwrap(), 1);
        assert_eq!(shl(var(b), lit(3, 8)).width(&p).unwrap(), 16);
        assert_eq!(concat(var(a), var(b)).width(&p).unwrap(), 24);
        assert_eq!(slice(var(b), 11, 4).width(&p).unwrap(), 8);
        assert_eq!(resize(var(a), 64).width(&p).unwrap(), 64);
        assert_eq!(
            mux(eq(var(a), lit(0, 8)), var(a), var(b))
                .width(&p)
                .unwrap(),
            16
        );
    }

    #[test]
    fn shift_rule_width_is_left_operand() {
        // The documented asymmetry: shifts keep width(lhs) whatever the
        // right operand's width, while other ops take the max.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 16);
        let p = pb.build().unwrap();
        assert_eq!(shl(var(a), var(b)).width(&p).unwrap(), 8);
        assert_eq!(shr(var(a), var(b)).width(&p).unwrap(), 8);
        assert_eq!(shl(var(b), var(a)).width(&p).unwrap(), 16);
        assert_eq!(add(var(a), var(b)).width(&p).unwrap(), 16);
    }

    #[test]
    fn bad_slice_rejected() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.reg("a", 8);
        let p = pb.build().unwrap();
        assert!(slice(var(a), 8, 0).width(&p).is_err());
        assert!(slice(var(a), 2, 5).width(&p).is_err());
    }

    #[test]
    fn delay_grows_with_depth() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.reg("a", 32);
        let p = pb.build().unwrap();
        let shallow = add(var(a), lit(1, 32));
        let deep = add(
            add(add(var(a), var(a)), add(var(a), var(a))),
            shallow.clone(),
        );
        assert!(deep.delay(&p) > shallow.delay(&p));
    }
}
