//! Free-function builder DSL for writing Emu services.
//!
//! This plays the role of C# in the paper: services in `emu-services` are
//! written by composing these constructors, then handed to the back ends.
//! Compare Figure 2 of the paper with the learning switch source in
//! `emu-services::switch` — the structure (and even the comments) map
//! one-to-one.
//!
//! Naming follows the paper's C# fragments where a direct analogue exists
//! (`pause()` for `Kiwi.Pause()`), otherwise standard Rust conventions.

use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::program::{ArrId, SigId, VarId};
use emu_types::Bits;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

/// Literal with explicit width.
pub fn lit(v: u64, width: u16) -> Expr {
    Expr::Const(Bits::from_u64(v, width))
}

/// Literal from a pre-built [`Bits`] value.
pub fn lit_bits(b: Bits) -> Expr {
    Expr::Const(b)
}

/// A 1-bit true.
pub fn tru() -> Expr {
    lit(1, 1)
}

/// A 1-bit false.
pub fn fls() -> Expr {
    lit(0, 1)
}

/// Register read.
pub fn var(v: VarId) -> Expr {
    Expr::Var(v)
}

/// Array element read.
pub fn arr_read(a: ArrId, idx: Expr) -> Expr {
    Expr::ArrRead(a, Arc::new(idx))
}

/// Input-signal sample.
pub fn sig(s: SigId) -> Expr {
    Expr::SigRead(s)
}

/// Bitwise NOT.
pub fn not(e: Expr) -> Expr {
    Expr::Un(UnOp::Not, Arc::new(e))
}

/// Two's-complement negation.
pub fn neg(e: Expr) -> Expr {
    Expr::Un(UnOp::Neg, Arc::new(e))
}

/// OR-reduction to one bit; the idiomatic "is non-zero" test.
pub fn nonzero(e: Expr) -> Expr {
    Expr::Un(UnOp::RedOr, Arc::new(e))
}

/// Logical negation of a 1-bit value (or of a reduction).
pub fn lnot(e: Expr) -> Expr {
    Expr::Bin(BinOp::Eq, Arc::new(e), Arc::new(lit(0, 1)))
}

macro_rules! binop_fn {
    ($(#[$doc:meta])* $name:ident, $op:ident) => {
        $(#[$doc])*
        pub fn $name(l: Expr, r: Expr) -> Expr {
            Expr::Bin(BinOp::$op, Arc::new(l), Arc::new(r))
        }
    };
}

binop_fn!(/// Modular addition.
    add, Add);
binop_fn!(/// Modular subtraction.
    sub, Sub);
binop_fn!(/// Modular multiplication (low bits).
    mul, Mul);
binop_fn!(/// Bitwise AND.
    band, And);
binop_fn!(/// Bitwise OR.
    bor, Or);
binop_fn!(/// Bitwise XOR.
    bxor, Xor);
binop_fn!(/// Logical shift left.
    shl, Shl);
binop_fn!(/// Logical shift right.
    shr, Shr);
binop_fn!(/// Equality.
    eq, Eq);
binop_fn!(/// Inequality.
    ne, Ne);
binop_fn!(/// Unsigned less-than.
    lt, Lt);
binop_fn!(/// Unsigned less-or-equal.
    le, Le);
binop_fn!(/// Unsigned greater-than.
    gt, Gt);
binop_fn!(/// Unsigned greater-or-equal.
    ge, Ge);

/// Two-way mux: `cond ? t : e`.
pub fn mux(cond: Expr, t: Expr, e: Expr) -> Expr {
    Expr::Mux(Arc::new(cond), Arc::new(t), Arc::new(e))
}

/// Bit slice `[hi:lo]` (inclusive, Verilog order).
pub fn slice(e: Expr, hi: u16, lo: u16) -> Expr {
    Expr::Slice(Arc::new(e), hi, lo)
}

/// Concatenation `{hi, lo}`.
pub fn concat(hi: Expr, lo: Expr) -> Expr {
    Expr::Concat(Arc::new(hi), Arc::new(lo))
}

/// Concatenation of many parts, first argument highest.
pub fn concat_all<I: IntoIterator<Item = Expr>>(parts: I) -> Expr {
    let mut it = parts.into_iter();
    let first = it.next().expect("concat_all needs at least one part");
    it.fold(first, concat)
}

/// Zero-extend or truncate to `width`.
pub fn resize(e: Expr, width: u16) -> Expr {
    Expr::Resize(Arc::new(e), width)
}

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

/// Register assignment.
pub fn assign(dst: VarId, val: Expr) -> Stmt {
    Stmt::Assign(dst, val)
}

/// Array element write.
pub fn arr_write(arr: ArrId, idx: Expr, val: Expr) -> Stmt {
    Stmt::ArrWrite(arr, idx, val)
}

/// Output-signal drive.
pub fn sig_write(s: SigId, val: Expr) -> Stmt {
    Stmt::SigWrite(s, val)
}

/// Two-armed conditional.
pub fn if_else(cond: Expr, then_: Vec<Stmt>, else_: Vec<Stmt>) -> Stmt {
    Stmt::If(cond, then_, else_)
}

/// One-armed conditional.
pub fn if_then(cond: Expr, then_: Vec<Stmt>) -> Stmt {
    Stmt::If(cond, then_, Vec::new())
}

/// Pre-tested loop.
pub fn while_loop(cond: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::While(cond, body)
}

/// Infinite loop — the shape of every service main loop.
pub fn forever(body: Vec<Stmt>) -> Stmt {
    Stmt::While(tru(), body)
}

/// Clock-cycle boundary (`Kiwi.Pause()`, §3.2(ii)).
pub fn pause() -> Stmt {
    Stmt::Pause
}

/// Named program point for breakpoints and FSM state naming.
pub fn label(name: &str) -> Stmt {
    Stmt::Label(name.to_string())
}

/// Debug extension point (§3.5).
pub fn ext_point(id: u32) -> Stmt {
    Stmt::ExtPoint(id)
}

/// Exit the innermost loop.
pub fn break_loop() -> Stmt {
    Stmt::Break
}

/// Re-test the innermost loop.
pub fn continue_loop() -> Stmt {
    Stmt::Continue
}

/// Stop the thread.
pub fn halt() -> Stmt {
    Stmt::Halt
}

/// Busy-wait until `cond` holds, pausing each cycle — the DSL rendering of
/// the paper's `while (!ready) { Kiwi.Pause(); }` idiom (Figure 5).
pub fn wait_until(cond: Expr) -> Stmt {
    Stmt::While(lnot(nonzero(cond)), vec![Stmt::Pause])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn concat_all_orders_parts() {
        let e = concat_all([lit(0xa, 4), lit(0xb, 4), lit(0xc, 4)]);
        let mut pb = ProgramBuilder::new("t");
        pb.thread("main", vec![halt()]);
        let p = pb.build().unwrap();
        assert_eq!(e.width(&p).unwrap(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn concat_all_empty_panics() {
        let _ = concat_all([]);
    }

    #[test]
    fn wait_until_contains_pause() {
        let Stmt::While(_, body) = wait_until(lit(0, 1)) else {
            panic!("wait_until is a loop");
        };
        assert_eq!(body, [Stmt::Pause]);
    }
}
