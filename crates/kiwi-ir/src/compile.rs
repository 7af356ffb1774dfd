//! The compiled software backend: lowering [`FlatThread`] op streams to a
//! register-based micro-op bytecode executed by a tight, non-recursive
//! loop.
//!
//! The tree-walking interpreter in [`crate::interp`] is the *reference*
//! software semantics: simple, obviously faithful to [`crate::ast`], and
//! slow — it re-decodes the same `Box<Expr>` nodes every frame, clones a
//! multi-limb [`Bits`] at every node, and re-resolves widths on every
//! binary op. This module trades that tree for a **pre-decoded linear
//! program** over explicit scratch-slot registers:
//!
//! * every `VarId` / `ArrId` / `SigId` is resolved to a plain index at
//!   lowering time,
//! * every operand and result width is pre-computed, with the width rules
//!   of [`crate::ast`] baked into per-op masks,
//! * values of width ≤ 64 live in a `u64` scratch file (the fast path —
//!   all frame bytes and almost every service register), while wider
//!   values fall back to [`Bits`] scratch slots,
//! * execution is a single `match` over compact micro-ops — no recursion,
//!   no per-node clones, no heap traffic on the fast path.
//!
//! Lowering feeds the pass pipeline in [`crate::opt`] (constant folding,
//! array-access strength reduction, redundant-load and
//! common-subexpression elimination, adjacent-load pair fusion, copy
//! propagation, dead scratch elimination) before the bytecode is frozen
//! into a [`CompiledProgram`].
//!
//! [`CompiledMachine`] mirrors [`crate::interp::Machine`] exactly:
//! pause-to-pause cycles, the same [`Env`]/[`Observer`] hooks, the same
//! op budget, the same [`MachineState`] (including the `arr_high`
//! high-water contract). Every observable — register values, array
//! contents, signal drives, observer callbacks, cycle and op counts —
//! is byte-identical to the tree-walker by construction, and the
//! differential suites assert it.

use crate::ast::{BinOp, IrError, IrResult, UnOp};
use crate::flat::{FlatProgram, FlatThread, Op};
use crate::interp::{Env, MachineState, Observer};
use crate::program::{Program, SigDir};
use emu_types::Bits;

/// Index of a scratch slot (small and wide slots are separate files).
pub type Slot = u32;

// ---------------------------------------------------------------------
// Shared ALU helpers
//
// Both the executor and the constant folder in `opt.rs` go through these
// functions, so folding can never diverge from execution.
// ---------------------------------------------------------------------

/// Bit mask covering the low `w` bits (`w >= 64` saturates to all-ones).
#[inline]
pub(crate) fn mask_of(w: u16) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Small-path arithmetic/logic in the result width encoded by `mask`.
#[inline]
pub(crate) fn bin_s(op: BinOp, a: u64, b: u64, mask: u64) -> u64 {
    match op {
        BinOp::Add => a.wrapping_add(b) & mask,
        BinOp::Sub => a.wrapping_sub(b) & mask,
        BinOp::Mul => a.wrapping_mul(b) & mask,
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        _ => unreachable!("bin_s on non-arith op {op:?}"),
    }
}

/// Small-path unsigned comparison (operands are canonical, so raw `u64`
/// comparison equals comparison at the common width).
#[inline]
pub(crate) fn cmp_s(op: BinOp, a: u64, b: u64) -> u64 {
    u64::from(match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => unreachable!("cmp_s on non-compare op {op:?}"),
    })
}

/// Small-path `<<` in the left operand's width (`mask`); shifts at or
/// beyond 64 bits yield zero, and `(a << n) & mask` zeroes everything
/// shifted past the operand width, matching [`Bits::shl`].
#[inline]
pub(crate) fn shl_s(a: u64, n: u64, mask: u64) -> u64 {
    if n >= 64 {
        0
    } else {
        (a << n) & mask
    }
}

/// Small-path `>>`; operands are canonical so no mask is needed.
#[inline]
pub(crate) fn shr_s(a: u64, n: u64) -> u64 {
    if n >= 64 {
        0
    } else {
        a >> n
    }
}

/// Wide-path arithmetic/logic; operands have been resized to the common
/// result width already.
#[inline]
pub(crate) fn bin_w(op: BinOp, a: &Bits, b: &Bits) -> Bits {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::And => a.and(b),
        BinOp::Or => a.or(b),
        BinOp::Xor => a.xor(b),
        _ => unreachable!("bin_w on non-arith op {op:?}"),
    }
}

/// Wide-path comparison on operands resized to the common width.
#[inline]
pub(crate) fn cmp_w(op: BinOp, a: &Bits, b: &Bits) -> u64 {
    use std::cmp::Ordering::*;
    u64::from(match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a.cmp_u(b) == Less,
        BinOp::Le => a.cmp_u(b) != Greater,
        BinOp::Gt => a.cmp_u(b) == Greater,
        BinOp::Ge => a.cmp_u(b) != Less,
        _ => unreachable!("cmp_w on non-compare op {op:?}"),
    })
}

/// Wide-path shift amount clamp, mirroring `eval`'s
/// `rv.to_u64().min(u32::MAX)`.
#[inline]
pub(crate) fn shift_amount(n: u64) -> u32 {
    n.min(u64::from(u32::MAX)) as u32
}

// ---------------------------------------------------------------------
// The micro-op ISA
// ---------------------------------------------------------------------

/// One pre-decoded micro-op.
///
/// Naming convention: a trailing `S` operates on the small (`u64`)
/// scratch file, `W` on the wide ([`Bits`]) file. `St*` / control ops are
/// *terminals* — each corresponds to exactly one source [`Op`], which is
/// where the op budget and `ops_executed` are counted, keeping profiling
/// and trap behaviour aligned with the tree-walker.
#[derive(Debug, Clone, PartialEq)]
pub enum MOp {
    /// Load a constant into a small slot.
    ConstS {
        /// Destination slot.
        dst: Slot,
        /// Canonical value.
        v: u64,
    },
    /// Load a constant into a wide slot.
    ConstW {
        /// Destination slot.
        dst: Slot,
        /// The constant (carries its exact width).
        v: Bits,
    },
    /// Read a register (width ≤ 64).
    LdVarS {
        /// Destination slot.
        dst: Slot,
        /// Register index.
        var: u32,
    },
    /// Read a register (width > 64).
    LdVarW {
        /// Destination slot.
        dst: Slot,
        /// Register index.
        var: u32,
    },
    /// Sample a signal (width ≤ 64).
    LdSigS {
        /// Destination slot.
        dst: Slot,
        /// Signal index.
        sig: u32,
        /// Sample `sigs_out` instead of `sigs_in`.
        out: bool,
    },
    /// Sample a signal (width > 64).
    LdSigW {
        /// Destination slot.
        dst: Slot,
        /// Signal index.
        sig: u32,
        /// Sample `sigs_out` instead of `sigs_in`.
        out: bool,
    },
    /// Array element read, elements ≤ 64 bits; out-of-range reads zero.
    LdArrS {
        /// Destination slot.
        dst: Slot,
        /// Array index.
        arr: u32,
        /// Small slot holding the element index.
        idx: Slot,
    },
    /// Array element read, elements > 64 bits.
    LdArrW {
        /// Destination slot.
        dst: Slot,
        /// Array index.
        arr: u32,
        /// Small slot holding the element index.
        idx: Slot,
        /// Element width (for the out-of-range zero).
        w: u16,
    },
    /// Array element read at a compile-time-constant, in-bounds index
    /// (elements ≤ 64 bits). Produced by
    /// [`ArrayStrength`](crate::opt::Pass::ArrayStrength): the index
    /// slot and its `ConstS` feeder disappear entirely.
    LdArrCS {
        /// Destination slot.
        dst: Slot,
        /// Array index.
        arr: u32,
        /// Constant element index, proven in bounds at compile time.
        idx: u32,
    },
    /// Fused read of two adjacent array elements (≤ 64 bits each),
    /// concatenated high-to-low: with `i = (idx + off) & mask` and
    /// `j = (i + 1) & mask`, `dst = (a[i] << bw) | a[j]`. The offset
    /// add, wrap masks, and both loads reproduce the index arithmetic
    /// the fusion replaced, micro-op for micro-op. Produced by
    /// [`FusePairs`](crate::opt::Pass::FusePairs) from a `ConcatS` of
    /// two loads at consecutive indices; each element reads the
    /// architectural zero when out of range, exactly like the two
    /// `LdArrS` it replaces.
    LdArrPairS {
        /// Destination slot.
        dst: Slot,
        /// Small slot holding the base index.
        idx: Slot,
        /// Array index.
        arr: u32,
        /// Constant offset the replaced index add applied to `idx`.
        off: u64,
        /// Wrap mask the replaced index arithmetic applied.
        mask: u64,
        /// Element width in bits (the concat's low-part width).
        bw: u16,
    },
    /// Fused read of two adjacent array elements at compile-time-
    /// constant indices: `dst = (a[idx] << bw) | a[idx + 1]`, both
    /// indices proven in bounds at compile time.
    LdArrPairCS {
        /// Destination slot.
        dst: Slot,
        /// Array index.
        arr: u32,
        /// Constant first element index (`idx + 1` is in bounds too).
        idx: u32,
        /// Element width in bits.
        bw: u16,
    },
    /// Fused concat whose low part is an array load at a compile-time-
    /// constant, in-bounds index: `dst = (a << bw) | arr[#idx]`.
    /// Produced by [`FusePairs`](crate::opt::Pass::FusePairs) for the
    /// inner steps of multi-byte concat towers, where the high part is
    /// itself an accumulated value rather than a single load.
    ConcatLdCS {
        /// Destination slot.
        dst: Slot,
        /// High-part slot.
        a: Slot,
        /// Array index.
        arr: u32,
        /// Constant element index, proven in bounds at compile time.
        idx: u32,
        /// Width of the low part.
        bw: u16,
    },
    /// Small-to-small move (identity resize; fodder for copy propagation).
    CopyS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
    },
    /// Wide-to-wide move.
    CopyW {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
    },
    /// Small value into a wide slot of width `w` (zero-extension).
    Widen {
        /// Destination slot (wide).
        dst: Slot,
        /// Source slot (small).
        a: Slot,
        /// Exact result width.
        w: u16,
    },
    /// Wide value truncated into a small slot (`mask` = result width).
    Narrow {
        /// Destination slot (small).
        dst: Slot,
        /// Source slot (wide).
        a: Slot,
        /// Mask of the result width.
        mask: u64,
    },
    /// Small resize/truncate: `dst = a & mask`.
    MaskS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// Mask of the result width.
        mask: u64,
    },
    /// Wide-to-wide resize to width `w`.
    ResizeW {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// Result width.
        w: u16,
    },
    /// Small bitwise NOT in the operand width.
    NotS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// Mask of the operand width.
        mask: u64,
    },
    /// Small two's-complement negation in the operand width.
    NegS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// Mask of the operand width.
        mask: u64,
    },
    /// Small OR-reduction to one bit.
    RedOrS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
    },
    /// Wide bitwise NOT.
    NotW {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
    },
    /// Wide two's-complement negation.
    NegW {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
    },
    /// Wide OR-reduction into a small 1-bit slot.
    RedOrW {
        /// Destination slot (small).
        dst: Slot,
        /// Source slot (wide).
        a: Slot,
    },
    /// Small arithmetic/logic at the pre-computed result width.
    BinS {
        /// Destination slot.
        dst: Slot,
        /// Operator (arith/logic subset).
        op: BinOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
        /// Mask of the result width.
        mask: u64,
    },
    /// Small unsigned comparison (1-bit result).
    CmpS {
        /// Destination slot.
        dst: Slot,
        /// Comparison operator.
        op: BinOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Small `<<` in the left operand's width.
    ShlS {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Shift-amount slot.
        b: Slot,
        /// Mask of the left operand's width.
        mask: u64,
    },
    /// Small `>>`.
    ShrS {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Shift-amount slot.
        b: Slot,
    },
    /// Small concatenation: `dst = (a << bw) | b`.
    ConcatS {
        /// Destination slot.
        dst: Slot,
        /// High part slot.
        a: Slot,
        /// Low part slot.
        b: Slot,
        /// Width of the low part.
        bw: u16,
    },
    /// Small slice: `dst = (a >> lo) & mask`.
    SliceS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// Low bit of the slice.
        lo: u16,
        /// Mask of the slice width.
        mask: u64,
    },
    /// Slice of a wide value into a small slot.
    SliceWS {
        /// Destination slot (small).
        dst: Slot,
        /// Source slot (wide).
        a: Slot,
        /// Low bit of the slice.
        lo: u16,
        /// Mask of the slice width.
        mask: u64,
    },
    /// Slice of a wide value into a wide slot.
    SliceW {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// High bit of the slice (inclusive).
        hi: u16,
        /// Low bit of the slice.
        lo: u16,
    },
    /// Wide arithmetic/logic; operands pre-resized to the result width.
    BinW {
        /// Destination slot.
        dst: Slot,
        /// Operator (arith/logic subset).
        op: BinOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Wide comparison into a small 1-bit slot; operands pre-resized.
    CmpW {
        /// Destination slot (small).
        dst: Slot,
        /// Comparison operator.
        op: BinOp,
        /// Left operand slot (wide).
        a: Slot,
        /// Right operand slot (wide).
        b: Slot,
    },
    /// Wide `<<` in the (unresized) left operand's width.
    ShlW {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot (wide).
        a: Slot,
        /// Shift-amount slot (small).
        b: Slot,
    },
    /// Wide `>>`.
    ShrW {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot (wide).
        a: Slot,
        /// Shift-amount slot (small).
        b: Slot,
    },
    /// Wide concatenation; operand widths are carried by the values.
    ConcatW {
        /// Destination slot.
        dst: Slot,
        /// High part slot.
        a: Slot,
        /// Low part slot.
        b: Slot,
    },
    /// Small two-way mux (operands canonical at the result width).
    MuxS {
        /// Destination slot.
        dst: Slot,
        /// Condition slot (small; non-zero selects `t`).
        c: Slot,
        /// Then-value slot.
        t: Slot,
        /// Else-value slot.
        e: Slot,
    },
    /// Wide two-way mux; arms pre-resized to the result width.
    MuxW {
        /// Destination slot.
        dst: Slot,
        /// Condition slot (small).
        c: Slot,
        /// Then-value slot (wide).
        t: Slot,
        /// Else-value slot (wide).
        e: Slot,
    },
    /// Terminal: register assignment from a small slot.
    StVarS {
        /// Register index.
        var: u32,
        /// Value slot.
        a: Slot,
        /// Register width.
        w: u16,
    },
    /// Terminal: register assignment from a wide slot.
    StVarW {
        /// Register index.
        var: u32,
        /// Value slot.
        a: Slot,
        /// Register width.
        w: u16,
    },
    /// Terminal: array element write from a small slot.
    StArrS {
        /// Array index.
        arr: u32,
        /// Small slot holding the element index.
        idx: Slot,
        /// Value slot.
        a: Slot,
        /// Element width.
        w: u16,
    },
    /// Terminal: array element write from a wide slot.
    StArrW {
        /// Array index.
        arr: u32,
        /// Small slot holding the element index.
        idx: Slot,
        /// Value slot.
        a: Slot,
        /// Element width.
        w: u16,
    },
    /// Terminal: array element write from a small slot at a
    /// compile-time-constant index, proven in bounds by
    /// [`crate::opt::Pass::ArrayStrength`] (no index slot to read, no
    /// bounds check to run). Budget-wise identical to [`MOp::StArrS`].
    StArrCS {
        /// Array index.
        arr: u32,
        /// Constant element index.
        idx: u32,
        /// Value slot.
        a: Slot,
        /// Element width.
        w: u16,
    },
    /// Terminal: output-signal drive from a small slot.
    StSigS {
        /// Signal index.
        sig: u32,
        /// Value slot.
        a: Slot,
        /// Signal width.
        w: u16,
    },
    /// Terminal: output-signal drive from a wide slot.
    StSigW {
        /// Signal index.
        sig: u32,
        /// Value slot.
        a: Slot,
        /// Signal width.
        w: u16,
    },
    /// Terminal: fall through when the slot is non-zero, else jump.
    BranchZ {
        /// Condition slot (small).
        c: Slot,
        /// Micro-op index taken when the condition is zero.
        target: u32,
    },
    /// Terminal: unconditional jump.
    Jmp {
        /// Micro-op target index.
        target: u32,
    },
    /// Terminal: end of clock cycle.
    PauseOp,
    /// Terminal: named program point (index into the thread's label
    /// table).
    LabelOp {
        /// Label table index.
        id: u32,
    },
    /// Terminal: debug extension point.
    ExtOp {
        /// Extension-point id.
        id: u32,
    },
    /// Terminal: thread stops.
    HaltOp,
}

impl MOp {
    /// The scratch slot this op defines, with its file (`true` = wide).
    /// Terminals define nothing.
    pub(crate) fn dst(&self) -> Option<(Slot, bool)> {
        self.clone().dst_mut().map(|(d, wide)| (*d, wide))
    }

    /// Visits every scratch-slot operand as `(&mut slot, wide)`.
    pub(crate) fn uses_mut(&mut self, f: &mut dyn FnMut(&mut Slot, bool)) {
        use MOp::*;
        match self {
            ConstS { .. }
            | ConstW { .. }
            | LdVarS { .. }
            | LdVarW { .. }
            | LdSigS { .. }
            | LdSigW { .. }
            | LdArrCS { .. }
            | LdArrPairCS { .. }
            | Jmp { .. }
            | PauseOp
            | LabelOp { .. }
            | ExtOp { .. }
            | HaltOp => {}
            LdArrS { idx, .. } | LdArrW { idx, .. } | LdArrPairS { idx, .. } => f(idx, false),
            ConcatLdCS { a, .. } => f(a, false),
            CopyS { a, .. }
            | MaskS { a, .. }
            | NotS { a, .. }
            | NegS { a, .. }
            | RedOrS { a, .. }
            | SliceS { a, .. }
            | Widen { a, .. }
            | StVarS { a, .. }
            | StArrCS { a, .. }
            | StSigS { a, .. } => f(a, false),
            CopyW { a, .. }
            | Narrow { a, .. }
            | ResizeW { a, .. }
            | NotW { a, .. }
            | NegW { a, .. }
            | RedOrW { a, .. }
            | SliceWS { a, .. }
            | SliceW { a, .. }
            | StVarW { a, .. }
            | StSigW { a, .. } => f(a, true),
            BinS { a, b, .. }
            | CmpS { a, b, .. }
            | ShlS { a, b, .. }
            | ShrS { a, b, .. }
            | ConcatS { a, b, .. } => {
                f(a, false);
                f(b, false);
            }
            BinW { a, b, .. } | CmpW { a, b, .. } | ConcatW { a, b, .. } => {
                f(a, true);
                f(b, true);
            }
            ShlW { a, b, .. } | ShrW { a, b, .. } => {
                f(a, true);
                f(b, false);
            }
            MuxS { c, t, e, .. } => {
                f(c, false);
                f(t, false);
                f(e, false);
            }
            MuxW { c, t, e, .. } => {
                f(c, false);
                f(t, true);
                f(e, true);
            }
            StArrS { idx, a, .. } => {
                f(idx, false);
                f(a, false);
            }
            StArrW { idx, a, .. } => {
                f(idx, false);
                f(a, true);
            }
            BranchZ { c, .. } => f(c, false),
        }
    }

    /// Visits every scratch-slot operand as `(slot, wide)`.
    pub(crate) fn uses(&self, f: &mut dyn FnMut(Slot, bool)) {
        let mut me = self.clone();
        me.uses_mut(&mut |s, w| f(*s, w));
    }

    /// Mutable access to the destination slot, with its file
    /// (`true` = wide) — the one table of which ops define what; the
    /// region-widening renumbering in [`crate::opt`] uses it to shift
    /// whole slot ranges.
    pub(crate) fn dst_mut(&mut self) -> Option<(&mut Slot, bool)> {
        use MOp::*;
        match self {
            ConstS { dst, .. }
            | LdVarS { dst, .. }
            | LdSigS { dst, .. }
            | LdArrS { dst, .. }
            | LdArrCS { dst, .. }
            | LdArrPairS { dst, .. }
            | LdArrPairCS { dst, .. }
            | ConcatLdCS { dst, .. }
            | CopyS { dst, .. }
            | Narrow { dst, .. }
            | MaskS { dst, .. }
            | NotS { dst, .. }
            | NegS { dst, .. }
            | RedOrS { dst, .. }
            | RedOrW { dst, .. }
            | BinS { dst, .. }
            | CmpS { dst, .. }
            | ShlS { dst, .. }
            | ShrS { dst, .. }
            | ConcatS { dst, .. }
            | SliceS { dst, .. }
            | SliceWS { dst, .. }
            | CmpW { dst, .. }
            | MuxS { dst, .. } => Some((dst, false)),
            ConstW { dst, .. }
            | LdVarW { dst, .. }
            | LdSigW { dst, .. }
            | LdArrW { dst, .. }
            | CopyW { dst, .. }
            | Widen { dst, .. }
            | ResizeW { dst, .. }
            | NotW { dst, .. }
            | NegW { dst, .. }
            | BinW { dst, .. }
            | ShlW { dst, .. }
            | ShrW { dst, .. }
            | ConcatW { dst, .. }
            | SliceW { dst, .. }
            | MuxW { dst, .. } => Some((dst, true)),
            StVarS { .. }
            | StVarW { .. }
            | StArrS { .. }
            | StArrW { .. }
            | StArrCS { .. }
            | StSigS { .. }
            | StSigW { .. }
            | BranchZ { .. }
            | Jmp { .. }
            | PauseOp
            | LabelOp { .. }
            | ExtOp { .. }
            | HaltOp => None,
        }
    }
}

// ---------------------------------------------------------------------
// Compiled containers
// ---------------------------------------------------------------------

/// One widened optimization region of a compiled thread
/// ([`mops_to_string`] prints each with a summary of its externally
/// visible effects).
///
/// Lowering initially produces one region per source statement; the
/// observer-visibility analysis in [`crate::opt`] then merges runs of
/// consecutive statements whose boundaries no branch targets and whose
/// terminals cannot let the outside world *mutate* machine state
/// (observer callbacks and signal drives only read; `pause` and `ext`
/// hand control to the environment and therefore end a region). Passes
/// optimize freely inside one widened region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionInfo {
    /// First micro-op of the region (index into `mops`).
    pub start: u32,
    /// Half-open range of source-op indices the region covers.
    pub stmts: (u32, u32),
}

/// One thread lowered to micro-ops.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledThread {
    /// Thread name, copied from the source thread.
    pub name: String,
    /// The micro-op stream (branch targets are micro-op indices).
    pub mops: Vec<MOp>,
    /// Label strings referenced by [`MOp::LabelOp`].
    pub labels: Vec<String>,
    /// Small (`u64`) scratch slots required.
    pub n_small: usize,
    /// Wide ([`Bits`]) scratch slots required.
    pub n_wide: usize,
    /// Widened optimization regions, in program order (annotation and
    /// diagnostics; execution never consults this).
    pub regions: Vec<RegionInfo>,
}

/// A program lowered to micro-op bytecode: declarations plus one
/// [`CompiledThread`] per source thread.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The source declarations (shared with every other backend).
    pub prog: Program,
    /// One entry per source thread.
    pub threads: Vec<CompiledThread>,
}

/// Lowers a flattened program through the ambient optimization pipeline:
/// [`crate::opt::default_pipeline`] unless the `EMU_CPU_PASSES`
/// environment variable overrides it (see [`crate::opt::env_pipeline`]).
/// Callers that must pin an exact pipeline regardless of the environment
/// use [`compile_with_passes`].
pub fn compile(flat: &FlatProgram) -> IrResult<CompiledProgram> {
    compile_with_passes(flat, &crate::opt::env_pipeline())
}

/// Lowers a flattened program, running exactly the given passes — the
/// hook the pass-pipeline tests use (`&[]` gives the naive lowering).
///
/// When the `EMU_CPU_DUMP_MOPS` environment variable is set (to
/// anything non-empty), every compiled thread's annotated listing is
/// dumped to stderr — the quickest way to see what the pass pipeline
/// did to a service.
pub fn compile_with_passes(
    flat: &FlatProgram,
    passes: &[crate::opt::Pass],
) -> IrResult<CompiledProgram> {
    let mut threads = Vec::with_capacity(flat.threads.len());
    for t in &flat.threads {
        threads.push(compile_thread(t, &flat.prog, passes)?);
    }
    let cp = CompiledProgram {
        prog: flat.prog.clone(),
        threads,
    };
    if std::env::var("EMU_CPU_DUMP_MOPS").is_ok_and(|v| !v.is_empty()) {
        for t in &cp.threads {
            eprintln!("{}", mops_to_string(t, &cp.prog));
        }
    }
    Ok(cp)
}

/// A compile-time value: which slot it lives in, its exact width, and
/// which scratch file holds it.
#[derive(Debug, Clone, Copy)]
struct Val {
    slot: Slot,
    w: u16,
    wide: bool,
}

struct ThreadCompiler<'a> {
    prog: &'a Program,
    cur: Vec<MOp>,
    labels: Vec<String>,
    next_small: Slot,
    next_wide: Slot,
}

impl<'a> ThreadCompiler<'a> {
    fn s(&mut self) -> Slot {
        let s = self.next_small;
        self.next_small += 1;
        s
    }

    fn w(&mut self) -> Slot {
        let s = self.next_wide;
        self.next_wide += 1;
        s
    }

    fn push(&mut self, m: MOp) {
        self.cur.push(m);
    }

    /// Ensures `v` sits in a wide slot resized to exactly `w`.
    fn wide_slot(&mut self, v: Val, w: u16) -> Slot {
        if v.wide && v.w == w {
            return v.slot;
        }
        let dst = self.w();
        if v.wide {
            self.push(MOp::ResizeW { dst, a: v.slot, w });
        } else {
            self.push(MOp::Widen { dst, a: v.slot, w });
        }
        dst
    }

    /// Ensures `v` sits in a wide slot at its own width (for concat
    /// operands, whose widths must be exact).
    fn wide_slot_exact(&mut self, v: Val) -> Slot {
        if v.wide {
            v.slot
        } else {
            let dst = self.w();
            self.push(MOp::Widen {
                dst,
                a: v.slot,
                w: v.w,
            });
            dst
        }
    }

    /// The low 64 bits of `v` in a small slot (array indices and shift
    /// amounts, mirroring `eval`'s `to_u64()`).
    fn low64(&mut self, v: Val) -> Slot {
        if !v.wide {
            return v.slot;
        }
        let dst = self.s();
        self.push(MOp::Narrow {
            dst,
            a: v.slot,
            mask: u64::MAX,
        });
        dst
    }

    /// A small slot whose non-zero-ness equals `v.to_bool()`.
    fn cond_slot(&mut self, v: Val) -> Slot {
        if !v.wide {
            return v.slot;
        }
        let dst = self.s();
        self.push(MOp::RedOrW { dst, a: v.slot });
        dst
    }

    fn expr(&mut self, e: &crate::ast::Expr) -> IrResult<Val> {
        use crate::ast::Expr;
        Ok(match e {
            Expr::Const(b) => {
                let w = b.width();
                if w <= 64 {
                    let dst = self.s();
                    self.push(MOp::ConstS { dst, v: b.to_u64() });
                    Val {
                        slot: dst,
                        w,
                        wide: false,
                    }
                } else {
                    let dst = self.w();
                    self.push(MOp::ConstW { dst, v: b.clone() });
                    Val {
                        slot: dst,
                        w,
                        wide: true,
                    }
                }
            }
            Expr::Var(v) => {
                let w = self
                    .prog
                    .var(*v)
                    .ok_or_else(|| IrError(format!("unknown var {v:?}")))?
                    .width;
                if w <= 64 {
                    let dst = self.s();
                    self.push(MOp::LdVarS { dst, var: v.0 });
                    Val {
                        slot: dst,
                        w,
                        wide: false,
                    }
                } else {
                    let dst = self.w();
                    self.push(MOp::LdVarW { dst, var: v.0 });
                    Val {
                        slot: dst,
                        w,
                        wide: true,
                    }
                }
            }
            Expr::SigRead(s) => {
                let d = self
                    .prog
                    .signal(*s)
                    .ok_or_else(|| IrError(format!("unknown signal {s:?}")))?;
                let out = d.dir == SigDir::Out;
                if d.width <= 64 {
                    let dst = self.s();
                    self.push(MOp::LdSigS { dst, sig: s.0, out });
                    Val {
                        slot: dst,
                        w: d.width,
                        wide: false,
                    }
                } else {
                    let dst = self.w();
                    self.push(MOp::LdSigW { dst, sig: s.0, out });
                    Val {
                        slot: dst,
                        w: d.width,
                        wide: true,
                    }
                }
            }
            Expr::ArrRead(a, idx) => {
                let decl = self
                    .prog
                    .array(*a)
                    .ok_or_else(|| IrError(format!("unknown array {a:?}")))?;
                let (ew, arr) = (decl.elem_width, a.0);
                let iv = self.expr(idx)?;
                let islot = self.low64(iv);
                if ew <= 64 {
                    let dst = self.s();
                    self.push(MOp::LdArrS {
                        dst,
                        arr,
                        idx: islot,
                    });
                    Val {
                        slot: dst,
                        w: ew,
                        wide: false,
                    }
                } else {
                    let dst = self.w();
                    self.push(MOp::LdArrW {
                        dst,
                        arr,
                        idx: islot,
                        w: ew,
                    });
                    Val {
                        slot: dst,
                        w: ew,
                        wide: true,
                    }
                }
            }
            Expr::Un(op, x) => {
                let v = self.expr(x)?;
                match op {
                    UnOp::RedOr => {
                        let dst = self.s();
                        if v.wide {
                            self.push(MOp::RedOrW { dst, a: v.slot });
                        } else {
                            self.push(MOp::RedOrS { dst, a: v.slot });
                        }
                        Val {
                            slot: dst,
                            w: 1,
                            wide: false,
                        }
                    }
                    UnOp::Not | UnOp::Neg => {
                        if v.wide {
                            let dst = self.w();
                            self.push(match op {
                                UnOp::Not => MOp::NotW { dst, a: v.slot },
                                _ => MOp::NegW { dst, a: v.slot },
                            });
                            Val {
                                slot: dst,
                                w: v.w,
                                wide: true,
                            }
                        } else {
                            let dst = self.s();
                            let mask = mask_of(v.w);
                            self.push(match op {
                                UnOp::Not => MOp::NotS {
                                    dst,
                                    a: v.slot,
                                    mask,
                                },
                                _ => MOp::NegS {
                                    dst,
                                    a: v.slot,
                                    mask,
                                },
                            });
                            Val {
                                slot: dst,
                                w: v.w,
                                wide: false,
                            }
                        }
                    }
                }
            }
            Expr::Bin(op, l, r) => {
                let lv = self.expr(l)?;
                let rv = self.expr(r)?;
                match op {
                    // Shifts: the left operand is NOT widened — the
                    // result keeps `wl` and bits shifted past it are
                    // lost (see the shift rule in `crate::ast::BinOp`).
                    BinOp::Shl | BinOp::Shr => {
                        let n = self.low64(rv);
                        if lv.wide {
                            let dst = self.w();
                            self.push(match op {
                                BinOp::Shl => MOp::ShlW {
                                    dst,
                                    a: lv.slot,
                                    b: n,
                                },
                                _ => MOp::ShrW {
                                    dst,
                                    a: lv.slot,
                                    b: n,
                                },
                            });
                            Val {
                                slot: dst,
                                w: lv.w,
                                wide: true,
                            }
                        } else {
                            let dst = self.s();
                            self.push(match op {
                                BinOp::Shl => MOp::ShlS {
                                    dst,
                                    a: lv.slot,
                                    b: n,
                                    mask: mask_of(lv.w),
                                },
                                _ => MOp::ShrS {
                                    dst,
                                    a: lv.slot,
                                    b: n,
                                },
                            });
                            Val {
                                slot: dst,
                                w: lv.w,
                                wide: false,
                            }
                        }
                    }
                    _ if op.is_compare() => {
                        let dst = self.s();
                        if !lv.wide && !rv.wide {
                            self.push(MOp::CmpS {
                                dst,
                                op: *op,
                                a: lv.slot,
                                b: rv.slot,
                            });
                        } else {
                            let w = lv.w.max(rv.w);
                            let a = self.wide_slot(lv, w);
                            let b = self.wide_slot(rv, w);
                            self.push(MOp::CmpW { dst, op: *op, a, b });
                        }
                        Val {
                            slot: dst,
                            w: 1,
                            wide: false,
                        }
                    }
                    _ => {
                        let w = lv.w.max(rv.w);
                        if w <= 64 {
                            let dst = self.s();
                            self.push(MOp::BinS {
                                dst,
                                op: *op,
                                a: lv.slot,
                                b: rv.slot,
                                mask: mask_of(w),
                            });
                            Val {
                                slot: dst,
                                w,
                                wide: false,
                            }
                        } else {
                            let a = self.wide_slot(lv, w);
                            let b = self.wide_slot(rv, w);
                            let dst = self.w();
                            self.push(MOp::BinW { dst, op: *op, a, b });
                            Val {
                                slot: dst,
                                w,
                                wide: true,
                            }
                        }
                    }
                }
            }
            Expr::Mux(c, t, e2) => {
                // Same evaluation order as `eval`: both arms, then the
                // condition (all expressions are pure, so only the
                // values matter).
                let tv = self.expr(t)?;
                let ev = self.expr(e2)?;
                let cv = self.expr(c)?;
                let cond = self.cond_slot(cv);
                let w = tv.w.max(ev.w);
                if w <= 64 {
                    let dst = self.s();
                    self.push(MOp::MuxS {
                        dst,
                        c: cond,
                        t: tv.slot,
                        e: ev.slot,
                    });
                    Val {
                        slot: dst,
                        w,
                        wide: false,
                    }
                } else {
                    let t = self.wide_slot(tv, w);
                    let e = self.wide_slot(ev, w);
                    let dst = self.w();
                    self.push(MOp::MuxW { dst, c: cond, t, e });
                    Val {
                        slot: dst,
                        w,
                        wide: true,
                    }
                }
            }
            Expr::Slice(x, hi, lo) => {
                let v = self.expr(x)?;
                let ow = hi - lo + 1;
                if !v.wide {
                    let dst = self.s();
                    self.push(MOp::SliceS {
                        dst,
                        a: v.slot,
                        lo: *lo,
                        mask: mask_of(ow),
                    });
                    Val {
                        slot: dst,
                        w: ow,
                        wide: false,
                    }
                } else if ow <= 64 {
                    let dst = self.s();
                    self.push(MOp::SliceWS {
                        dst,
                        a: v.slot,
                        lo: *lo,
                        mask: mask_of(ow),
                    });
                    Val {
                        slot: dst,
                        w: ow,
                        wide: false,
                    }
                } else {
                    let dst = self.w();
                    self.push(MOp::SliceW {
                        dst,
                        a: v.slot,
                        hi: *hi,
                        lo: *lo,
                    });
                    Val {
                        slot: dst,
                        w: ow,
                        wide: true,
                    }
                }
            }
            Expr::Concat(h, l) => {
                let hv = self.expr(h)?;
                let lv = self.expr(l)?;
                let w = hv.w + lv.w;
                if w <= 64 {
                    let dst = self.s();
                    self.push(MOp::ConcatS {
                        dst,
                        a: hv.slot,
                        b: lv.slot,
                        bw: lv.w,
                    });
                    Val {
                        slot: dst,
                        w,
                        wide: false,
                    }
                } else {
                    let a = self.wide_slot_exact(hv);
                    let b = self.wide_slot_exact(lv);
                    let dst = self.w();
                    self.push(MOp::ConcatW { dst, a, b });
                    Val {
                        slot: dst,
                        w,
                        wide: true,
                    }
                }
            }
            Expr::Resize(x, w) => {
                let v = self.expr(x)?;
                match (v.wide, *w > 64) {
                    (false, false) => {
                        let dst = self.s();
                        if *w >= v.w {
                            // Zero-extension of a canonical small value
                            // is the identity.
                            self.push(MOp::CopyS { dst, a: v.slot });
                        } else {
                            self.push(MOp::MaskS {
                                dst,
                                a: v.slot,
                                mask: mask_of(*w),
                            });
                        }
                        Val {
                            slot: dst,
                            w: *w,
                            wide: false,
                        }
                    }
                    (false, true) => {
                        let dst = self.w();
                        self.push(MOp::Widen {
                            dst,
                            a: v.slot,
                            w: *w,
                        });
                        Val {
                            slot: dst,
                            w: *w,
                            wide: true,
                        }
                    }
                    (true, false) => {
                        let dst = self.s();
                        self.push(MOp::Narrow {
                            dst,
                            a: v.slot,
                            mask: mask_of(*w),
                        });
                        Val {
                            slot: dst,
                            w: *w,
                            wide: false,
                        }
                    }
                    (true, true) => {
                        let dst = self.w();
                        if *w == v.w {
                            self.push(MOp::CopyW { dst, a: v.slot });
                        } else {
                            self.push(MOp::ResizeW {
                                dst,
                                a: v.slot,
                                w: *w,
                            });
                        }
                        Val {
                            slot: dst,
                            w: *w,
                            wide: true,
                        }
                    }
                }
            }
        })
    }

    /// Compiles one source op into `self.cur` (ending in its terminal).
    fn op(&mut self, op: &Op) -> IrResult<()> {
        match op {
            Op::Assign(dst, e) => {
                let w = self
                    .prog
                    .var(*dst)
                    .ok_or_else(|| IrError(format!("unknown var {dst:?}")))?
                    .width;
                let v = self.expr(e)?;
                self.push(if v.wide {
                    MOp::StVarW {
                        var: dst.0,
                        a: v.slot,
                        w,
                    }
                } else {
                    MOp::StVarS {
                        var: dst.0,
                        a: v.slot,
                        w,
                    }
                });
            }
            Op::ArrWrite(arr, idx, val) => {
                let w = self
                    .prog
                    .array(*arr)
                    .ok_or_else(|| IrError(format!("unknown array {arr:?}")))?
                    .elem_width;
                let iv = self.expr(idx)?;
                let islot = self.low64(iv);
                let v = self.expr(val)?;
                self.push(if v.wide {
                    MOp::StArrW {
                        arr: arr.0,
                        idx: islot,
                        a: v.slot,
                        w,
                    }
                } else {
                    MOp::StArrS {
                        arr: arr.0,
                        idx: islot,
                        a: v.slot,
                        w,
                    }
                });
            }
            Op::SigWrite(sig, e) => {
                let w = self
                    .prog
                    .signal(*sig)
                    .ok_or_else(|| IrError(format!("unknown signal {sig:?}")))?
                    .width;
                let v = self.expr(e)?;
                self.push(if v.wide {
                    MOp::StSigW {
                        sig: sig.0,
                        a: v.slot,
                        w,
                    }
                } else {
                    MOp::StSigS {
                        sig: sig.0,
                        a: v.slot,
                        w,
                    }
                });
            }
            Op::Branch(c, if_false) => {
                let cv = self.expr(c)?;
                let cond = self.cond_slot(cv);
                self.push(MOp::BranchZ {
                    c: cond,
                    target: *if_false as u32,
                });
            }
            Op::Jump(t) => self.push(MOp::Jmp { target: *t as u32 }),
            Op::Pause => self.push(MOp::PauseOp),
            Op::Label(name) => {
                let id = self.labels.len() as u32;
                self.labels.push(name.clone());
                self.push(MOp::LabelOp { id });
            }
            Op::ExtPoint(id) => self.push(MOp::ExtOp { id: *id }),
            Op::Halt => self.push(MOp::HaltOp),
        }
        Ok(())
    }
}

/// Compiles one thread: lower each source op into a region, optimize the
/// regions, then flatten and retarget branches to micro-op indices.
fn compile_thread(
    t: &FlatThread,
    prog: &Program,
    passes: &[crate::opt::Pass],
) -> IrResult<CompiledThread> {
    t.check_targets()?;
    let mut c = ThreadCompiler {
        prog,
        cur: Vec::new(),
        labels: Vec::new(),
        next_small: 0,
        next_wide: 0,
    };
    // One region per source op; scratch slots are written-before-read
    // within a region (fresh slots per statement), which is the
    // invariant the passes rely on.
    let mut regions: Vec<Vec<MOp>> = Vec::with_capacity(t.ops.len());
    for op in &t.ops {
        c.next_small = 0;
        c.next_wide = 0;
        c.op(op)?;
        regions.push(std::mem::take(&mut c.cur));
    }

    // Observer-visibility widening: merge statement runs that no branch
    // targets and that contain no point where the outside world can
    // mutate state (pause/ext). Merged tails become empty vecs, so the
    // `starts` bookkeeping below still maps every *reachable* source-op
    // index to the right micro-op. Slot renumbering restores the
    // written-once-before-read invariant across each widened region.
    crate::opt::widen_regions(&mut regions);

    crate::opt::run(&mut regions, passes, prog);

    // Flatten, recording region starts, then retarget branches from
    // source-op indices to micro-op indices (a target equal to the op
    // count maps past the end, which the executor treats as halt).
    let mut starts = Vec::with_capacity(regions.len() + 1);
    let mut mops = Vec::new();
    for r in &regions {
        starts.push(mops.len() as u32);
        mops.extend(r.iter().cloned());
    }
    starts.push(mops.len() as u32);

    // Region table: every non-empty region is a widened-region head
    // (merged tails were drained into their head), covering the source
    // statements up to the next head.
    let mut region_info = Vec::new();
    let heads: Vec<usize> = (0..regions.len())
        .filter(|&i| !regions[i].is_empty())
        .collect();
    for (k, &h) in heads.iter().enumerate() {
        let end = heads.get(k + 1).copied().unwrap_or(regions.len());
        region_info.push(RegionInfo {
            start: starts[h],
            stmts: (h as u32, end as u32),
        });
    }
    for m in &mut mops {
        match m {
            MOp::BranchZ { target, .. } | MOp::Jmp { target, .. } => {
                *target = starts[*target as usize];
            }
            _ => {}
        }
    }

    // Scratch-file sizes: the passes may have shrunk them.
    let (n_small, n_wide) = crate::opt::region_slots(&mops);

    Ok(CompiledThread {
        name: t.name.clone(),
        mops,
        labels: c.labels,
        n_small: n_small as usize,
        n_wide: n_wide as usize,
        regions: region_info,
    })
}

/// Summarizes what a widened region exposes to the outside world: vars
/// whose assignments observers see, signals it drives, arrays it
/// writes, and the terminal that ends it. This is the output of the
/// visibility analysis rendered for listings and debug dumps.
fn region_visibility(region: &[MOp], prog: &Program, labels: &[String]) -> String {
    let mut tags: Vec<String> = Vec::new();
    let add = |t: String, tags: &mut Vec<String>| {
        if !tags.contains(&t) {
            tags.push(t);
        }
    };
    let var = |i: u32| {
        prog.vars()
            .get(i as usize)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("?v{i}"))
    };
    for m in region {
        match m {
            MOp::StVarS { var: v, .. } | MOp::StVarW { var: v, .. } => {
                add(format!("var {}", var(*v)), &mut tags)
            }
            MOp::StSigS { sig, .. } | MOp::StSigW { sig, .. } => {
                let name = prog
                    .signals()
                    .get(*sig as usize)
                    .map(|d| d.name.clone())
                    .unwrap_or_else(|| format!("?s{sig}"));
                add(format!("${name}"), &mut tags);
            }
            MOp::StArrS { arr, .. } | MOp::StArrW { arr, .. } | MOp::StArrCS { arr, .. } => {
                let name = prog
                    .arrays()
                    .get(*arr as usize)
                    .map(|d| d.name.clone())
                    .unwrap_or_else(|| format!("?a{arr}"));
                add(format!("{name}[.]"), &mut tags);
            }
            MOp::LabelOp { id } => add(
                format!(
                    "label {}",
                    labels.get(*id as usize).cloned().unwrap_or_default()
                ),
                &mut tags,
            ),
            MOp::BranchZ { .. } => add("branch".into(), &mut tags),
            MOp::Jmp { .. } => add("jump".into(), &mut tags),
            MOp::PauseOp => add("pause(env)".into(), &mut tags),
            MOp::ExtOp { .. } => add("ext(env)".into(), &mut tags),
            MOp::HaltOp => add("halt".into(), &mut tags),
            _ => {}
        }
    }
    if tags.is_empty() {
        "internal".into()
    } else {
        tags.join(", ")
    }
}

// ---------------------------------------------------------------------
// Pretty printing (pass-pipeline diagnostics and tests)
// ---------------------------------------------------------------------

/// Renders a compiled thread as a numbered micro-op listing. Small slots
/// print as `sN`, wide slots as `wN`; this is the form the pass tests in
/// [`crate::opt`] assert against.
pub fn mops_to_string(t: &CompiledThread, prog: &Program) -> String {
    use std::fmt::Write as _;
    let var = |i: u32| {
        prog.vars()
            .get(i as usize)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("?v{i}"))
    };
    let arr = |i: u32| {
        prog.arrays()
            .get(i as usize)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("?a{i}"))
    };
    let sig = |i: u32| {
        prog.signals()
            .get(i as usize)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("?s{i}"))
    };
    let mut out = format!(
        "compiled thread {} ({} small, {} wide):\n",
        t.name, t.n_small, t.n_wide
    );
    let mut next_region = 0usize;
    for (i, m) in t.mops.iter().enumerate() {
        while let Some(r) = t.regions.get(next_region) {
            if r.start as usize != i {
                break;
            }
            next_region += 1;
            let end = t
                .regions
                .get(next_region)
                .map_or(t.mops.len(), |n| n.start as usize);
            let _ = writeln!(
                out,
                "  -- region stmts {}..{} | vis: {}",
                r.stmts.0,
                r.stmts.1,
                region_visibility(&t.mops[i..end], prog, &t.labels)
            );
        }
        let body = match m {
            MOp::ConstS { dst, v } => format!("s{dst} <- const {v:#x}"),
            MOp::ConstW { dst, v } => format!("w{dst} <- const {v}"),
            MOp::LdVarS { dst, var: v } => format!("s{dst} <- var {}", var(*v)),
            MOp::LdVarW { dst, var: v } => format!("w{dst} <- var {}", var(*v)),
            MOp::LdSigS { dst, sig: s, out } => {
                format!(
                    "s{dst} <- sig{} {}",
                    if *out { "_out" } else { "" },
                    sig(*s)
                )
            }
            MOp::LdSigW { dst, sig: s, out } => {
                format!(
                    "w{dst} <- sig{} {}",
                    if *out { "_out" } else { "" },
                    sig(*s)
                )
            }
            MOp::LdArrS { dst, arr: a, idx } => format!("s{dst} <- {}[s{idx}]", arr(*a)),
            MOp::LdArrW {
                dst, arr: a, idx, ..
            } => format!("w{dst} <- {}[s{idx}]", arr(*a)),
            MOp::LdArrCS { dst, arr: a, idx } => format!("s{dst} <- {}[#{idx}]", arr(*a)),
            MOp::LdArrPairS {
                dst,
                idx,
                arr: a,
                off,
                mask,
                bw,
            } => {
                let n = arr(*a);
                format!("s{dst} <- {{{n}[(s{idx}+{off:#x}) & {mask:#x}], {n}[+1]:u{bw}}}")
            }
            MOp::LdArrPairCS {
                dst,
                arr: a,
                idx,
                bw,
            } => {
                let n = arr(*a);
                format!("s{dst} <- {{{n}[#{idx}], {n}[#{}]:u{bw}}}", idx + 1)
            }
            MOp::ConcatLdCS {
                dst,
                a: hi,
                arr: a,
                idx,
                bw,
            } => format!("s{dst} <- {{s{hi}, {}[#{idx}]:u{bw}}}", arr(*a)),
            MOp::CopyS { dst, a } => format!("s{dst} <- s{a}"),
            MOp::CopyW { dst, a } => format!("w{dst} <- w{a}"),
            MOp::Widen { dst, a, w } => format!("w{dst} <- widen s{a} to u{w}"),
            MOp::Narrow { dst, a, mask } => format!("s{dst} <- narrow w{a} & {mask:#x}"),
            MOp::MaskS { dst, a, mask } => format!("s{dst} <- s{a} & {mask:#x}"),
            MOp::ResizeW { dst, a, w } => format!("w{dst} <- resize w{a} to u{w}"),
            MOp::NotS { dst, a, mask } => format!("s{dst} <- ~s{a} & {mask:#x}"),
            MOp::NegS { dst, a, mask } => format!("s{dst} <- -s{a} & {mask:#x}"),
            MOp::RedOrS { dst, a } => format!("s{dst} <- |s{a}"),
            MOp::NotW { dst, a } => format!("w{dst} <- ~w{a}"),
            MOp::NegW { dst, a } => format!("w{dst} <- -w{a}"),
            MOp::RedOrW { dst, a } => format!("s{dst} <- |w{a}"),
            MOp::BinS {
                dst,
                op,
                a,
                b,
                mask,
            } => format!("s{dst} <- s{a} {op:?} s{b} & {mask:#x}"),
            MOp::CmpS { dst, op, a, b } => format!("s{dst} <- s{a} {op:?} s{b}"),
            MOp::ShlS { dst, a, b, mask } => format!("s{dst} <- s{a} << s{b} & {mask:#x}"),
            MOp::ShrS { dst, a, b } => format!("s{dst} <- s{a} >> s{b}"),
            MOp::ConcatS { dst, a, b, bw } => format!("s{dst} <- {{s{a}, s{b}:u{bw}}}"),
            MOp::SliceS { dst, a, lo, mask } => format!("s{dst} <- s{a} >> {lo} & {mask:#x}"),
            MOp::SliceWS { dst, a, lo, mask } => format!("s{dst} <- w{a} >> {lo} & {mask:#x}"),
            MOp::SliceW { dst, a, hi, lo } => format!("w{dst} <- w{a}[{hi}:{lo}]"),
            MOp::BinW { dst, op, a, b } => format!("w{dst} <- w{a} {op:?} w{b}"),
            MOp::CmpW { dst, op, a, b } => format!("s{dst} <- w{a} {op:?} w{b}"),
            MOp::ShlW { dst, a, b } => format!("w{dst} <- w{a} << s{b}"),
            MOp::ShrW { dst, a, b } => format!("w{dst} <- w{a} >> s{b}"),
            MOp::ConcatW { dst, a, b } => format!("w{dst} <- {{w{a}, w{b}}}"),
            MOp::MuxS { dst, c, t, e } => format!("s{dst} <- s{c} ? s{t} : s{e}"),
            MOp::MuxW { dst, c, t, e } => format!("w{dst} <- s{c} ? w{t} : w{e}"),
            MOp::StVarS { var: v, a, .. } => format!("var {} := s{a}", var(*v)),
            MOp::StVarW { var: v, a, .. } => format!("var {} := w{a}", var(*v)),
            MOp::StArrCS {
                arr: ar, idx, a, ..
            } => format!("{}[#{idx}] := s{a}", arr(*ar)),
            MOp::StArrS {
                arr: ar, idx, a, ..
            } => format!("{}[s{idx}] := s{a}", arr(*ar)),
            MOp::StArrW {
                arr: ar, idx, a, ..
            } => format!("{}[s{idx}] := w{a}", arr(*ar)),
            MOp::StSigS { sig: s, a, .. } => format!("${} := s{a}", sig(*s)),
            MOp::StSigW { sig: s, a, .. } => format!("${} := w{a}", sig(*s)),
            MOp::BranchZ { c, target } => format!("brz s{c} -> {target}"),
            MOp::Jmp { target } => format!("jmp -> {target}"),
            MOp::PauseOp => "pause".into(),
            MOp::LabelOp { id } => format!(
                "label {}",
                t.labels.get(*id as usize).cloned().unwrap_or_default()
            ),
            MOp::ExtOp { id } => format!("ext #{id}"),
            MOp::HaltOp => "halt".into(),
        };
        let _ = writeln!(out, "  {i:4}: {body}");
    }
    out
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ThreadCtx {
    pc: usize,
    halted: bool,
}

/// Micro-op executor for one compiled program — the fast software
/// backend, a drop-in for [`crate::interp::Machine`].
pub struct CompiledMachine {
    cp: CompiledProgram,
    state: MachineState,
    threads: Vec<ThreadCtx>,
    small: Vec<u64>,
    wide: Vec<Bits>,
    cycle: u64,
    ops_executed: u64,
    /// Abort threshold for a single thread-cycle without a pause,
    /// counted in *source* ops (terminals), identical to the
    /// tree-walker's accounting.
    pub max_ops_per_cycle: u64,
}

/// Panic message of the const-index array micro-ops: their indices are
/// proven in bounds when the op is built, so a miss is a compiler bug.
const CONST_IDX: &str = "const array index proven in bounds at compile time";

impl CompiledMachine {
    /// Builds a machine from compiled bytecode.
    pub fn new(cp: CompiledProgram) -> Self {
        let state = MachineState::init(&cp.prog);
        let threads = cp
            .threads
            .iter()
            .map(|_| ThreadCtx {
                pc: 0,
                halted: false,
            })
            .collect();
        let n_small = cp.threads.iter().map(|t| t.n_small).max().unwrap_or(0);
        let n_wide = cp.threads.iter().map(|t| t.n_wide).max().unwrap_or(0);
        CompiledMachine {
            small: vec![0; n_small],
            wide: vec![Bits::zero(1); n_wide],
            state,
            threads,
            cycle: 0,
            ops_executed: 0,
            max_ops_per_cycle: 100_000,
            cp,
        }
    }

    /// Flattens and compiles `prog` in one step.
    pub fn from_program(prog: &Program) -> IrResult<Self> {
        Ok(CompiledMachine::new(compile(&crate::flat::flatten(prog)?)?))
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.cp.prog
    }

    /// The compiled bytecode.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.cp
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total source-level ops executed (matches the tree-walker's count
    /// for the same run).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Immutable state access.
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Mutable state access (environment-side pokes between cycles).
    pub fn state_mut(&mut self) -> &mut MachineState {
        &mut self.state
    }

    /// True when every thread has halted.
    pub fn halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Runs one clock cycle: each live thread executes until it pauses
    /// or halts, then `env.tick` runs once — the exact contract of
    /// [`crate::interp::Machine::step_cycle`].
    ///
    /// Called with concrete types (a known environment, `NullObserver`)
    /// the executor's hot loop monomorphizes and the observer hooks
    /// inline away; trait objects work too (`?Sized`).
    pub fn step_cycle<E: Env + ?Sized, O: Observer + ?Sized>(
        &mut self,
        env: &mut E,
        obs: &mut O,
    ) -> IrResult<()> {
        for ti in 0..self.threads.len() {
            self.run_thread_to_pause(ti, obs)?;
        }
        self.cycle += 1;
        env.tick(self.cycle, &self.cp.prog, &mut self.state);
        Ok(())
    }

    /// Runs `n` cycles (stops early if all threads halt).
    pub fn run_cycles(
        &mut self,
        n: u64,
        env: &mut dyn Env,
        obs: &mut dyn Observer,
    ) -> IrResult<u64> {
        for i in 0..n {
            if self.halted() {
                return Ok(i);
            }
            self.step_cycle(env, obs)?;
        }
        Ok(n)
    }

    // `budget` is deliberately decremented even by terminals that return
    // (pause/halt), so op accounting matches the tree-walker exactly.
    #[allow(unused_assignments)]
    fn run_thread_to_pause<O: Observer + ?Sized>(
        &mut self,
        ti: usize,
        obs: &mut O,
    ) -> IrResult<()> {
        if self.threads[ti].halted {
            return Ok(());
        }
        let max_ops = self.max_ops_per_cycle;
        let CompiledMachine {
            cp,
            state,
            threads,
            small,
            wide,
            ops_executed,
            ..
        } = self;
        let thread = &cp.threads[ti];
        let ctx = &mut threads[ti];
        let mops = &thread.mops[..];
        let mut pc = ctx.pc;
        let mut budget = max_ops;

        // One budget unit per *terminal* (= one source op), so op counts
        // and missing-pause traps match the tree-walker exactly.
        macro_rules! tick {
            () => {
                *ops_executed += 1;
                budget = budget.checked_sub(1).ok_or_else(|| {
                    IrError(format!(
                        "thread {} exceeded {} ops without pausing (missing pause()?)",
                        thread.name, max_ops
                    ))
                })?;
            };
        }

        loop {
            let Some(op) = mops.get(pc) else {
                ctx.pc = pc;
                ctx.halted = true;
                return Ok(());
            };
            match op {
                MOp::ConstS { dst, v } => small[*dst as usize] = *v,
                MOp::ConstW { dst, v } => wide[*dst as usize] = v.clone(),
                MOp::LdVarS { dst, var } => {
                    small[*dst as usize] = state.vars[*var as usize].to_u64()
                }
                MOp::LdVarW { dst, var } => wide[*dst as usize] = state.vars[*var as usize].clone(),
                MOp::LdSigS { dst, sig, out } => {
                    let sigs = if *out {
                        &state.sigs_out
                    } else {
                        &state.sigs_in
                    };
                    small[*dst as usize] = sigs[*sig as usize].to_u64();
                }
                MOp::LdSigW { dst, sig, out } => {
                    let sigs = if *out {
                        &state.sigs_out
                    } else {
                        &state.sigs_in
                    };
                    wide[*dst as usize] = sigs[*sig as usize].clone();
                }
                MOp::LdArrS { dst, arr, idx } => {
                    let i = small[*idx as usize] as usize;
                    small[*dst as usize] = state.arrays[*arr as usize].get_u64(i).unwrap_or(0);
                }
                MOp::LdArrW { dst, arr, idx, w } => {
                    let i = small[*idx as usize] as usize;
                    wide[*dst as usize] = state.arrays[*arr as usize]
                        .get(i)
                        .unwrap_or_else(|| Bits::zero(*w));
                }
                // Const-index loads are proven in bounds at compile
                // time (array lengths are fixed at declaration).
                MOp::LdArrCS { dst, arr, idx } => {
                    small[*dst as usize] = state.arrays[*arr as usize]
                        .get_u64(*idx as usize)
                        .expect(CONST_IDX);
                }
                MOp::LdArrPairS {
                    dst,
                    idx,
                    arr,
                    off,
                    mask,
                    bw,
                } => {
                    let a = &state.arrays[*arr as usize];
                    let i = small[*idx as usize].wrapping_add(*off) & mask;
                    let hi = a.get_u64(i as usize).unwrap_or(0);
                    let j = i.wrapping_add(1) & mask;
                    let lo = a.get_u64(j as usize).unwrap_or(0);
                    small[*dst as usize] = (hi << bw) | lo;
                }
                MOp::LdArrPairCS { dst, arr, idx, bw } => {
                    let a = &state.arrays[*arr as usize];
                    let i = *idx as usize;
                    let hi = a.get_u64(i).expect(CONST_IDX);
                    let lo = a.get_u64(i + 1).expect(CONST_IDX);
                    small[*dst as usize] = (hi << bw) | lo;
                }
                MOp::ConcatLdCS {
                    dst,
                    a,
                    arr,
                    idx,
                    bw,
                } => {
                    let lo = state.arrays[*arr as usize]
                        .get_u64(*idx as usize)
                        .expect(CONST_IDX);
                    small[*dst as usize] = (small[*a as usize] << bw) | lo;
                }
                MOp::CopyS { dst, a } => small[*dst as usize] = small[*a as usize],
                MOp::CopyW { dst, a } => wide[*dst as usize] = wide[*a as usize].clone(),
                MOp::Widen { dst, a, w } => {
                    wide[*dst as usize] = Bits::from_u64(small[*a as usize], *w)
                }
                MOp::Narrow { dst, a, mask } => {
                    small[*dst as usize] = wide[*a as usize].to_u64() & mask
                }
                MOp::MaskS { dst, a, mask } => small[*dst as usize] = small[*a as usize] & mask,
                MOp::ResizeW { dst, a, w } => wide[*dst as usize] = wide[*a as usize].resize(*w),
                MOp::NotS { dst, a, mask } => small[*dst as usize] = !small[*a as usize] & mask,
                MOp::NegS { dst, a, mask } => {
                    small[*dst as usize] = small[*a as usize].wrapping_neg() & mask
                }
                MOp::RedOrS { dst, a } => small[*dst as usize] = u64::from(small[*a as usize] != 0),
                MOp::NotW { dst, a } => wide[*dst as usize] = wide[*a as usize].not(),
                MOp::NegW { dst, a } => {
                    let v = &wide[*a as usize];
                    wide[*dst as usize] = Bits::zero(v.width()).wrapping_sub(v);
                }
                MOp::RedOrW { dst, a } => {
                    small[*dst as usize] = u64::from(!wide[*a as usize].is_zero())
                }
                MOp::BinS {
                    dst,
                    op,
                    a,
                    b,
                    mask,
                } => {
                    small[*dst as usize] = bin_s(*op, small[*a as usize], small[*b as usize], *mask)
                }
                MOp::CmpS { dst, op, a, b } => {
                    small[*dst as usize] = cmp_s(*op, small[*a as usize], small[*b as usize])
                }
                MOp::ShlS { dst, a, b, mask } => {
                    small[*dst as usize] = shl_s(small[*a as usize], small[*b as usize], *mask)
                }
                MOp::ShrS { dst, a, b } => {
                    small[*dst as usize] = shr_s(small[*a as usize], small[*b as usize])
                }
                MOp::ConcatS { dst, a, b, bw } => {
                    small[*dst as usize] = (small[*a as usize] << bw) | small[*b as usize]
                }
                MOp::SliceS { dst, a, lo, mask } => {
                    small[*dst as usize] = (small[*a as usize] >> lo) & mask
                }
                MOp::SliceWS { dst, a, lo, mask } => {
                    small[*dst as usize] = wide[*a as usize].shr(u32::from(*lo)).to_u64() & mask
                }
                MOp::SliceW { dst, a, hi, lo } => {
                    wide[*dst as usize] = wide[*a as usize].slice(*hi, *lo)
                }
                MOp::BinW { dst, op, a, b } => {
                    wide[*dst as usize] = bin_w(*op, &wide[*a as usize], &wide[*b as usize])
                }
                MOp::CmpW { dst, op, a, b } => {
                    small[*dst as usize] = cmp_w(*op, &wide[*a as usize], &wide[*b as usize])
                }
                MOp::ShlW { dst, a, b } => {
                    wide[*dst as usize] = wide[*a as usize].shl(shift_amount(small[*b as usize]))
                }
                MOp::ShrW { dst, a, b } => {
                    wide[*dst as usize] = wide[*a as usize].shr(shift_amount(small[*b as usize]))
                }
                MOp::ConcatW { dst, a, b } => {
                    wide[*dst as usize] = wide[*a as usize].concat(&wide[*b as usize])
                }
                MOp::MuxS { dst, c, t, e } => {
                    small[*dst as usize] = if small[*c as usize] != 0 {
                        small[*t as usize]
                    } else {
                        small[*e as usize]
                    }
                }
                MOp::MuxW { dst, c, t, e } => {
                    let src = if small[*c as usize] != 0 { t } else { e };
                    wide[*dst as usize] = wide[*src as usize].clone();
                }
                MOp::StVarS { var, a, w } => {
                    tick!();
                    let new = Bits::from_u64(small[*a as usize], *w);
                    let i = *var as usize;
                    obs.on_assign(*var, &state.vars[i], &new);
                    state.vars[i] = new;
                }
                MOp::StVarW { var, a, w } => {
                    tick!();
                    let new = wide[*a as usize].resize(*w);
                    let i = *var as usize;
                    obs.on_assign(*var, &state.vars[i], &new);
                    state.vars[i] = new;
                }
                // Array stores mask to the declared element width inside
                // `Cells` (the op's `w` is that same width) and report
                // whether the index was in range.
                MOp::StArrS { arr, idx, a, .. } => {
                    tick!();
                    let i = small[*idx as usize] as usize;
                    let ai = *arr as usize;
                    if state.arrays[ai].set_u64(i, small[*a as usize]) {
                        state.note_arr_write(ai, i);
                    }
                }
                // Const-index stores are proven in bounds at compile
                // time, like the const-index loads above.
                MOp::StArrCS { arr, idx, a, .. } => {
                    tick!();
                    let (ai, i) = (*arr as usize, *idx as usize);
                    let stored = state.arrays[ai].set_u64(i, small[*a as usize]);
                    assert!(stored, "{CONST_IDX}");
                    state.note_arr_write(ai, i);
                }
                MOp::StArrW { arr, idx, a, .. } => {
                    tick!();
                    let i = small[*idx as usize] as usize;
                    let ai = *arr as usize;
                    if state.arrays[ai].set(i, &wide[*a as usize]) {
                        state.note_arr_write(ai, i);
                    }
                }
                MOp::StSigS { sig, a, w } => {
                    tick!();
                    state.sigs_out[*sig as usize] = Bits::from_u64(small[*a as usize], *w);
                }
                MOp::StSigW { sig, a, w } => {
                    tick!();
                    state.sigs_out[*sig as usize] = wide[*a as usize].resize(*w);
                }
                MOp::BranchZ { c, target } => {
                    tick!();
                    if small[*c as usize] == 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                MOp::Jmp { target } => {
                    tick!();
                    pc = *target as usize;
                    continue;
                }
                MOp::PauseOp => {
                    tick!();
                    ctx.pc = pc + 1;
                    return Ok(());
                }
                MOp::LabelOp { id } => {
                    tick!();
                    obs.on_label(&thread.labels[*id as usize]);
                }
                MOp::ExtOp { id } => {
                    tick!();
                    obs.on_ext_point(*id, state);
                }
                MOp::HaltOp => {
                    tick!();
                    ctx.pc = pc;
                    ctx.halted = true;
                    return Ok(());
                }
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::flat::flatten;
    use crate::interp::{Machine, NullEnv, NullObserver};
    use crate::program::{ArrayBacking, ProgramBuilder};

    fn compiled(pb: &ProgramBuilder) -> CompiledMachine {
        CompiledMachine::from_program(&pb.clone().build().unwrap()).unwrap()
    }

    fn both(pb: &ProgramBuilder) -> (Machine, CompiledMachine) {
        let prog = pb.clone().build().unwrap();
        (
            Machine::new(flatten(&prog).unwrap()),
            CompiledMachine::from_program(&prog).unwrap(),
        )
    }

    /// Runs both machines to halt (or `cap` cycles) and asserts the full
    /// machine state — vars, arrays, output signals, high-water marks —
    /// plus cycle and op counts match.
    fn assert_lockstep(pb: &ProgramBuilder, cap: u64) {
        let (mut tw, mut cm) = both(pb);
        for _ in 0..cap {
            if tw.halted() {
                break;
            }
            tw.step_cycle(&mut NullEnv, &mut NullObserver).unwrap();
            cm.step_cycle(&mut NullEnv, &mut NullObserver).unwrap();
            assert_eq!(tw.state().vars, cm.state().vars, "vars diverged");
            assert_eq!(tw.state().arrays, cm.state().arrays, "arrays diverged");
            assert_eq!(tw.state().sigs_out, cm.state().sigs_out, "sigs diverged");
            assert_eq!(
                tw.state().arr_high,
                cm.state().arr_high,
                "arr_high diverged"
            );
        }
        assert_eq!(tw.halted(), cm.halted());
        assert_eq!(tw.cycle(), cm.cycle());
        assert_eq!(tw.ops_executed(), cm.ops_executed());
    }

    #[test]
    fn counter_counts() {
        let mut pb = ProgramBuilder::new("counter");
        let c = pb.reg("c", 32);
        pb.thread(
            "main",
            vec![forever(vec![assign(c, add(var(c), lit(1, 32))), pause()])],
        );
        let mut m = compiled(&pb);
        m.run_cycles(10, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[0].to_u64(), 10);
        assert_eq!(m.cycle(), 10);
        assert_lockstep(&pb, 10);
    }

    #[test]
    fn arrays_oob_and_high_water() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 16);
        let t = pb.array("t", 16, 4, ArrayBacking::LutRam);
        pb.thread(
            "main",
            vec![
                arr_write(t, lit(2, 8), lit(0xbeef, 16)),
                arr_write(t, lit(200, 8), lit(0xdead, 16)), // dropped
                assign(a, arr_read(t, lit(2, 8))),
                assign(a, add(var(a), arr_read(t, lit(99, 8)))), // oob read = 0
                halt(),
            ],
        );
        let mut m = compiled(&pb);
        m.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[0].to_u64(), 0xbeef);
        assert_eq!(m.state().arr_high[0], 3, "high-water lifted by slot 2");
        assert_lockstep(&pb, 5);
    }

    #[test]
    fn wide_values_round_trip() {
        // 128/512-bit registers exercise every wide micro-op class.
        let mut pb = ProgramBuilder::new("wide");
        let a = pb.reg("a", 128);
        let b = pb.reg("b", 512);
        let c = pb.reg("c", 16);
        pb.thread(
            "main",
            vec![
                assign(a, shl(lit(0xdead, 128), lit(100, 8))),
                assign(b, mul(resize(var(a), 512), lit(3, 8))),
                assign(b, bxor(var(b), not(resize(var(a), 512)))),
                assign(c, slice(var(b), 111, 96)),
                assign(
                    a,
                    mux(gt(var(b), lit(0, 8)), concat(var(c), lit(0, 112)), var(a)),
                ),
                halt(),
            ],
        );
        assert_lockstep(&pb, 5);
    }

    #[test]
    fn shift_rule_matches_treewalk() {
        // Directed pin of the shift width rule: results keep the left
        // operand's width; wider right operands do NOT widen the left.
        let mut pb = ProgramBuilder::new("shifts");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 16);
        let c = pb.reg("c", 64);
        pb.thread(
            "main",
            vec![
                assign(a, shl(lit(0x80, 8), lit(1, 16))), // falls off width 8
                assign(b, shl(lit(1, 16), lit(9, 8))),    // stays in width 16
                assign(c, shr(lit(0x300, 16), lit(4, 64))),
                assign(c, shl(var(c), lit(1 << 40, 64))), // huge amount -> 0
                halt(),
            ],
        );
        let (mut tw, mut cm) = both(&pb);
        tw.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        cm.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(tw.state().vars, cm.state().vars);
        assert_eq!(cm.state().vars[0].to_u64(), 0);
        assert_eq!(cm.state().vars[1].to_u64(), 0x200);
        assert_eq!(cm.state().vars[2].to_u64(), 0);
    }

    #[test]
    fn signal_handshake_and_two_threads() {
        let mut pb = ProgramBuilder::new("p");
        let ready = pb.sig_in("ready", 1);
        let done = pb.sig_out("done", 8);
        let x = pb.reg("x", 32);
        pb.thread(
            "main",
            vec![wait_until(sig(ready)), sig_write(done, lit(7, 8)), halt()],
        );
        pb.thread(
            "side",
            vec![forever(vec![assign(x, add(var(x), lit(2, 32))), pause()])],
        );

        struct RaiseAt(u64, crate::SigId);
        impl Env for RaiseAt {
            fn tick(&mut self, cycle: u64, _prog: &Program, st: &mut MachineState) {
                if cycle >= self.0 {
                    st.sigs_in[self.1 .0 as usize] = Bits::from_u64(1, 1);
                }
            }
        }
        let mut m = compiled(&pb);
        m.run_cycles(10, &mut RaiseAt(3, ready), &mut NullObserver)
            .unwrap();
        assert_eq!(m.state().sigs_out[1].to_u64(), 7);
        assert!(m.cycle() >= 3);
        assert!(m.state().vars[0].to_u64() >= 6);
    }

    #[test]
    fn observer_trace_matches_treewalk() {
        #[derive(Default, PartialEq, Debug)]
        struct Trace {
            assigns: Vec<(u32, u64)>,
            labels: Vec<String>,
            exts: Vec<u32>,
        }
        impl Observer for Trace {
            fn on_assign(&mut self, v: u32, _o: &Bits, n: &Bits) {
                self.assigns.push((v, n.to_u64()));
            }
            fn on_label(&mut self, n: &str) {
                self.labels.push(n.into());
            }
            fn on_ext_point(&mut self, id: u32, _s: &mut MachineState) {
                self.exts.push(id);
            }
        }
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![
                label("start"),
                assign(a, lit(1, 8)),
                ext_point(7),
                if_else(
                    eq(var(a), lit(1, 8)),
                    vec![assign(a, lit(2, 8))],
                    vec![assign(a, lit(3, 8))],
                ),
                halt(),
            ],
        );
        let (mut tw, mut cm) = both(&pb);
        let (mut ta, mut tb) = (Trace::default(), Trace::default());
        tw.run_cycles(5, &mut NullEnv, &mut ta).unwrap();
        cm.run_cycles(5, &mut NullEnv, &mut tb).unwrap();
        assert_eq!(ta, tb);
        assert_eq!(ta.labels, vec!["start".to_string()]);
        assert_eq!(ta.exts, vec![7]);
    }

    #[test]
    fn missing_pause_detected_with_same_message() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![forever(vec![assign(a, add(var(a), lit(1, 8)))])],
        );
        let (mut tw, mut cm) = both(&pb);
        tw.max_ops_per_cycle = 1000;
        cm.max_ops_per_cycle = 1000;
        let e1 = tw.step_cycle(&mut NullEnv, &mut NullObserver).unwrap_err();
        let e2 = cm.step_cycle(&mut NullEnv, &mut NullObserver).unwrap_err();
        assert_eq!(e1, e2, "trap messages must match");
    }

    #[test]
    fn loops_breaks_and_dynamic_indexing_lockstep() {
        let mut pb = ProgramBuilder::new("p");
        let i = pb.reg("i", 8);
        let acc = pb.reg("acc", 64);
        let t = pb.array("t", 32, 8, ArrayBacking::BlockRam);
        pb.thread(
            "main",
            vec![
                while_loop(
                    lt(var(i), lit(12, 8)),
                    vec![
                        if_then(eq(var(i), lit(9, 8)), vec![break_loop()]),
                        arr_write(t, band(var(i), lit(7, 8)), mul(var(i), var(i))),
                        assign(acc, add(var(acc), arr_read(t, band(var(i), lit(3, 8))))),
                        assign(i, add(var(i), lit(1, 8))),
                        pause(),
                    ],
                ),
                halt(),
            ],
        );
        assert_lockstep(&pb, 50);
    }

    #[test]
    fn pretty_printer_renders_mops() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread("main", vec![assign(a, add(var(a), lit(1, 8))), halt()]);
        let cp = compile(&flatten(&pb.build().unwrap()).unwrap()).unwrap();
        let text = mops_to_string(&cp.threads[0], &cp.prog);
        assert!(text.contains("var a"), "{text}");
        assert!(text.contains("halt"), "{text}");
    }
}
