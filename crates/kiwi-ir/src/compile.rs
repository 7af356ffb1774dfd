//! The compiled software backend: lowering [`FlatThread`] op streams to a
//! register-based micro-op bytecode executed by a tight, non-recursive
//! loop.
//!
//! The tree-walking interpreter in [`crate::interp`] is the *reference*
//! software semantics: simple, obviously faithful to [`crate::ast`], and
//! slow — it re-decodes the same `Expr` nodes every frame, builds a
//! [`Bits`] at every node, and re-resolves widths on every binary op.
//! This module trades that tree for a **pre-decoded linear program** of
//! 29 micro-ops ([`MOp`]) over one file of `u64` slots:
//!
//! * every `VarId` / `ArrId` / `SigId` is resolved to a plain index at
//!   lowering time,
//! * every operand and result width is pre-computed, with the width rules
//!   of [`crate::ast`] baked into per-op masks,
//! * execution is a single `match` over compact operations — no
//!   recursion, no per-node clones, no heap traffic.
//!
//! # Micro-ops and the execution encoding
//!
//! [`MOp`] is the IR of the passes: what lowering emits, what
//! `opt` rewrites, what `EMU_CPU_DUMP_MOPS` lists and what
//! `tests/pass_census.rs` counts. It is not what runs. Once per image,
//! after the passes and the slot layout, each thread's final micro-ops
//! are lowered once more, into an execution encoding held beside them
//! ([`CompiledThread`]'s `exec`), and the executor runs only that.
//! It differs from the micro-ops in four ways:
//!
//! * **One variant per operator.** `BinS` and `CmpS` carry a [`BinOp`];
//!   the encoding has `Add`, `Sub`, …, `Eq`, `Lt`, …, so the executor
//!   matches once per operation, not once more on the operator.
//! * **Fused adjacent pairs.** A `SliceS` stored by a `StArrCS`, a
//!   `CmpS` tested by a `BranchZ` (for the compares that occur: `==`,
//!   `!=`, `<` and `>=`), an add `BinS` stored by a `StVarS` and an add
//!   `BinS` that is the index of a `StArrS` (a store at `base + k`) each
//!   run as one operation, which leaves the first one's slot unwritten.
//!   So a pair fuses only when its terminal is the slot's only read in
//!   its region, both lie in one region, and no branch lands between
//!   them. The fused operation ticks the op budget once, where its
//!   terminal stood. They are the most frequent adjacent pairs of
//!   memcached's dynamic micro-op stream.
//! * **Frame fields as words.** A service parses and rewrites header
//!   fields one byte of `frame` at a time. A field read is a micro-op of
//!   its own, [`MOp::LdBytesCS`] (see
//!   [`ValueNumbering`](crate::opt::Pass::ValueNumbering)), and runs as
//!   one big-endian load of a word, `LdBytesC`. A field write stays a run of
//!   `SliceS` → `StArrCS` byte pairs of one source, the index rising by
//!   one and `lo` falling by eight, and only the encoding makes it one
//!   store, `StBytesC`. The store moves the eight bytes from its first
//!   index as one word and writes the bytes past the run back as they
//!   were, so it fires only eight bytes or more from the array's end. The
//!   slots it skips follow the pairs' rule. It holds one terminal per
//!   byte and ticks once per byte, so a budget that runs out inside it
//!   stores the bytes the tree-walker would have stored and traps at the
//!   same op.
//! * **The op count in a register.** The budget left is the thread's
//!   op count, added to the instance's only where the thread leaves the
//!   executor: at a pause, a halt, the end of its code or a trap. The
//!   tree-walker keeps the same rule.
//!
//! A form lives in the encoding only when it is a fact about dispatch,
//! not a value: a fused pair skips a slot write, and a store run ticks
//! once for each terminal it stands for. A pass would have to treat such
//! a form as the micro-ops it stands for, and the listings, the census
//! and the pinned listing digests would describe what a pass never sees.
//! A form that is a value, such as a frame field's load, is a micro-op
//! that the passes form and see.
//!
//! `EMU_CPU_DUMP_MOPS` prints, after each thread's listing, how many of
//! each encoding variant the thread holds. Each part pays on emubench's
//! `l7-memcached`; CHANGES.md has the drop-one measurements.
//!
//! # Registers, signals, scratch and constant pool
//!
//! The slot file is the [`MachineState`]'s word file, in five parts:
//!
//! * **Registers.** Slot `v` is register `v` (see the
//!   [`MachineState`] docs): a read of a register of at most 64 bits
//!   lowers to its slot and nothing else, and [`MOp::StVarS`] is a
//!   masked store of a slot into it.
//! * **Signals** ([`CompiledProgram::sig_base`] up): slot
//!   `sig_base + s` is signal `s`, read and stored the same way — a
//!   read of a signal of at most 64 bits is its slot, and
//!   [`MOp::StSigS`] is a masked store into it. The environment drives
//!   an input between cycles by writing the same word. Register and
//!   signal slots are the slots written more than once, by every store
//!   to them, so no pass carries a read of one past a store to it.
//! * **Runs**, above the signals: the limbs of each register or signal
//!   wider than 64 bits. No micro-op names a word of a run, or the own
//!   word of a value that wide: such a value is evaluated (below).
//! * **Scratch** ([`CompiledProgram::scratch_base`] up): every thread's
//!   regions number their values from there, each written once before
//!   it is read within a region, and the threads share them (a thread
//!   runs to its pause before the next starts). A scratch slot is one
//!   micro-op lowering emitted: a node an expression shares is lowered
//!   once per statement and its slot read by every use, so a thread
//!   never needs more scratch than its naive lowering has micro-ops.
//! * **The constant pool** ([`CompiledProgram::pool`], from
//!   [`CompiledProgram::pool_base`]), above every thread's scratch: each
//!   distinct constant of the program has one slot there. A literal
//!   lowers to its pool slot and nothing else, and so does the one value
//!   lowering folds: an array read at a literal index out of range is
//!   the zero's pool slot.
//!
//! [`crate::Core::new`] extends the state's file with the scratch and
//! the pool once per running copy. Only the register stores write a
//! register slot and only the signal stores a signal slot, no micro-op
//! writes a pool slot and none loads a constant at run time
//! (`tests/pass_census.rs` checks all of these on every shipped
//! program).
//!
//! # What is lowered and what is evaluated
//!
//! The machine is 64 bits wide and nothing else. A sub-expression is
//! **lowered** to micro-ops when it and every one of its operands is at
//! most 64 bits wide — all frame bytes and almost every service
//! register (98.6 % of the shipped services' bytecode). The *maximal*
//! sub-expression that is wider than 64 bits, or that sits directly on
//! top of an operand that is, is **evaluated**: lowering stores the
//! [`Expr`] in the thread's side table ([`CompiledThread::exprs`]) and
//! emits one micro-op that calls the reference [`eval`] on
//! [`MachineState`] at that point in program order —
//! [`MOp::EvalS`] when the result fits a slot (a compare, reduction,
//! slice or narrowing of something wider; an array index, shift amount
//! or branch condition that is itself wider), [`MOp::StVarE`] /
//! [`MOp::StArrE`] / [`MOp::StSigE`] when the statement's value is
//! itself wider (or, for `StVarE` / `StSigE`, the register or signal it
//! stores to is), in
//! which case the micro-op *is* the tree-walker's
//! store ([`MachineState::assign`] and friends). There is no second
//! implementation of arithmetic beyond 64 bits for the spec to disagree
//! with.
//!
//! Lowering emits an array access at a literal index in range at its
//! constant index ([`MOp::LdArrCS`], [`MOp::StArrCS`]), and feeds the
//! pass pipeline in `opt` (value numbering, then dead scratch
//! elimination) before the bytecode is frozen
//! into a [`CompiledProgram`] and the pool is laid out above the
//! scratch. The passes treat the four evaluating
//! micro-ops as opaque: they read machine state where they stand, and
//! the stores among them invalidate what any store does.
//!
//! The bytecode runs as [`crate::Code::Compiled`] on the same
//! [`crate::Core`] shell as the tree-walker: pause-to-pause cycles, the
//! same [`crate::Env`]/[`Observer`] hooks, the same op budget, the same
//! [`MachineState`] (including the `arr_high` high-water contract); this
//! module contributes only the per-thread executor loop over the
//! encoding. Every
//! observable — register values, array contents, signal drives,
//! observer callbacks, cycle and op counts — is byte-identical to the
//! tree-walker by construction, and the differential suites assert it.
//!
//! [`MachineState`]: crate::MachineState
//! [`MachineState::assign`]: crate::MachineState::assign

use crate::ast::{BinOp, Expr, IrError, IrResult, UnOp};
use crate::flat::{FlatProgram, FlatThread, Op};
use crate::interp::{eval, Observer};
use crate::machine::{missing_pause, Instance, MAX_OPS_PER_CYCLE};
use crate::program::{ArrId, Program, SigId, VarId};
use emu_types::Bits;
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a slot in the word file: a register, a signal, a scratch
/// slot, or a constant-pool slot (see the module docs).
pub(crate) type Slot = u32;

/// Marks a pool slot between lowering and layout: pool entry `k` is
/// slot `POOL | k` until [`compile_with_passes`] places the pool above
/// every thread's scratch.
const POOL: Slot = 1 << 31;

/// Marks a register or signal slot between lowering and layout:
/// register `v` is slot `REG | v` until [`compile_with_passes`] moves
/// the scratch above the registers and signals and register `v` becomes
/// slot `v`.
const REG: Slot = 1 << 30;

/// Beside [`REG`], marks a signal slot between lowering and layout:
/// signal `s` is slot `REG | SIG | s` until layout puts it above the
/// registers.
const SIG: Slot = 1 << 29;

/// Numbers no slot has before layout (both marks set): the passes'
/// names for the values register and signal stores leave
/// (`opt::Values`).
pub(crate) const UNSLOTTED: Slot = POOL | REG;

/// Whether `s` names a constant-pool slot (before layout).
#[inline]
pub(crate) fn is_pool(s: Slot) -> bool {
    s & (POOL | REG) == POOL
}

/// Whether `s` names a register or signal slot (before layout): one
/// that every store to it writes again.
#[inline]
pub(crate) fn is_reg(s: Slot) -> bool {
    s & (POOL | REG) == REG
}

/// Whether `s` names a scratch slot (before layout): written once, by
/// the one micro-op that defines it, before any reads in its region.
#[inline]
pub(crate) fn is_scratch(s: Slot) -> bool {
    s & (POOL | REG) == 0
}

/// The slot of register `var` (before layout).
#[inline]
pub(crate) fn reg_slot(var: u32) -> Slot {
    REG | var
}

/// The slot of signal `sig` (before layout).
#[inline]
pub(crate) fn sig_slot(sig: u32) -> Slot {
    REG | SIG | sig
}

/// The element the constant index `k` selects in array `arr`; `None`
/// when it is out of range.
pub(crate) fn element(prog: &Program, arr: u32, k: u64) -> Option<u32> {
    let len = prog.arrays().get(arr as usize).map_or(0, |d| d.len);
    u32::try_from(k).ok().filter(|&k| (k as usize) < len)
}

/// The constants of one program under compilation, each distinct value
/// once (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Pool {
    values: Vec<u64>,
    index: HashMap<u64, Slot>,
}

impl Pool {
    /// The pool slot holding `v`, added on first use.
    pub(crate) fn slot(&mut self, v: u64) -> Slot {
        *self.index.entry(v).or_insert_with(|| {
            self.values.push(v);
            POOL | (self.values.len() - 1) as Slot
        })
    }

    /// The value of pool slot `s`; `None` for any other slot.
    pub(crate) fn value(&self, s: Slot) -> Option<u64> {
        is_pool(s).then(|| self.values[(s & !POOL) as usize])
    }
}

// ---------------------------------------------------------------------
// ALU helpers
//
// The executor's arithmetic; `opt.rs` bounds a value's set bits with the
// two shifts.
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

/// `<<` in the left operand's width (`mask`); shifts at or beyond 64
/// bits yield zero, and `(a << n) & mask` zeroes everything shifted past
/// the operand width, matching [`Bits::shl`].
#[inline]
pub(crate) fn shl_s(a: u64, n: u64, mask: u64) -> u64 {
    if n >= 64 {
        0
    } else {
        (a << n) & mask
    }
}

/// `>>`; operands are canonical so no mask is needed.
#[inline]
pub(crate) fn shr_s(a: u64, n: u64) -> u64 {
    if n >= 64 {
        0
    } else {
        a >> n
    }
}

// ---------------------------------------------------------------------
// The micro-op ISA
// ---------------------------------------------------------------------

/// One pre-decoded micro-op of the 64-bit machine.
///
/// Naming convention: a trailing `S` computes in the `u64` slot file;
/// a trailing `E` hands a side-table [`Expr`] to the reference [`eval`]
/// (see the module docs for which sub-expressions those are). `St*` /
/// control ops are *terminals* — each corresponds to exactly one source
/// [`Op`], which is where the op budget and `ops_executed` are counted,
/// keeping profiling and trap behaviour aligned with the tree-walker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MOp {
    /// Array element read, elements ≤ 64 bits; out-of-range reads zero.
    LdArrS {
        /// Destination slot.
        dst: Slot,
        /// Array index.
        arr: u32,
        /// Slot holding the element index.
        idx: Slot,
    },
    /// Array element read at a compile-time-constant, in-bounds index.
    /// Lowering emits it for a literal index: there is no index slot to
    /// read and no bounds check to run.
    LdArrCS {
        /// Destination slot.
        dst: Slot,
        /// Array index.
        arr: u32,
        /// Constant element index, proven in bounds at compile time.
        idx: u32,
    },
    /// Big-endian read of `n` adjacent bytes, `2 <= n <= 8`, of a byte
    /// array at constant indices: `dst = {a[idx], …, a[idx + n - 1]}`.
    /// Produced by [`ValueNumbering`](crate::opt::Pass::ValueNumbering)
    /// from the `ConcatS` tower a big-endian field lowers to, only eight
    /// bytes or more from the array's end, so it runs as one load of a
    /// word.
    LdBytesCS {
        /// Destination slot.
        dst: Slot,
        /// Array index.
        arr: u32,
        /// Constant index of the first, most significant byte; the
        /// eight bytes from it are in bounds.
        idx: u32,
        /// Bytes read.
        n: u8,
    },
    /// Slot-to-slot move (identity resize; value numbering reads its uses
    /// through it).
    CopyS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
    },
    /// Resize/truncate: `dst = a & mask`.
    MaskS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// Mask of the result width.
        mask: u64,
    },
    /// Bitwise NOT in the operand width.
    NotS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// Mask of the operand width.
        mask: u64,
    },
    /// Two's-complement negation in the operand width.
    NegS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
        /// Mask of the operand width.
        mask: u64,
    },
    /// OR-reduction to one bit.
    RedOrS {
        /// Destination slot.
        dst: Slot,
        /// Source slot.
        a: Slot,
    },
    /// Arithmetic/logic at the pre-computed result width.
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
    /// Unsigned comparison (1-bit result).
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
    /// `<<` in the left operand's width.
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
    /// `>>`.
    ShrS {
        /// Destination slot.
        dst: Slot,
        /// Left operand slot.
        a: Slot,
        /// Shift-amount slot.
        b: Slot,
    },
    /// Concatenation: `dst = (a << bw) | b`.
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
    /// Slice: `dst = (a >> lo) & mask`.
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
    /// Two-way mux (operands canonical at the result width).
    MuxS {
        /// Destination slot.
        dst: Slot,
        /// Condition slot (non-zero selects `t`).
        c: Slot,
        /// Then-value slot.
        t: Slot,
        /// Else-value slot.
        e: Slot,
    },
    /// The low 64 bits of a side-table expression, computed by the
    /// reference [`eval`] on the machine state as it stands: the whole
    /// value when the expression is at most 64 bits wide (a compare,
    /// reduction, slice or narrowing of an operand that is wider), the
    /// `to_u64()` the tree-walker itself takes when it is an array
    /// index that is wider. Not a terminal: no tick.
    EvalS {
        /// Destination slot.
        dst: Slot,
        /// Index into [`CompiledThread::exprs`].
        e: u32,
    },
    /// Terminal: register assignment from a slot — the value masked to
    /// the register's width, stored in the register's own slot.
    StVarS {
        /// Register index (and, after layout, its slot).
        var: u32,
        /// Value slot.
        a: Slot,
        /// Register width.
        w: u16,
    },
    /// Terminal: register assignment of a side-table expression wider
    /// than 64 bits, or to a register wider than 64 bits — the
    /// tree-walker's own `Assign` step
    /// ([`MachineState::assign`](crate::MachineState::assign)).
    StVarE {
        /// Register index.
        var: u32,
        /// Index into [`CompiledThread::exprs`].
        e: u32,
    },
    /// Terminal: array element write from a slot.
    StArrS {
        /// Array index.
        arr: u32,
        /// Slot holding the element index.
        idx: Slot,
        /// Value slot.
        a: Slot,
        /// Element width.
        w: u16,
    },
    /// Terminal: array element write from a slot at a
    /// compile-time-constant, in-bounds index, which lowering emits for
    /// a literal index (no index slot to read, no bounds check to run).
    /// Budget-wise identical to [`MOp::StArrS`].
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
    /// Terminal: array element write of a side-table expression wider
    /// than 64 bits — the tree-walker's own `ArrWrite` step
    /// ([`MachineState::arr_write`](crate::MachineState::arr_write)) at
    /// the index in `idx`.
    StArrE {
        /// Array index.
        arr: u32,
        /// Slot holding the element index.
        idx: Slot,
        /// Index into [`CompiledThread::exprs`].
        e: u32,
    },
    /// Terminal: output-signal drive from a slot — the value masked to
    /// the signal's width, stored in the signal's own slot.
    StSigS {
        /// Signal index; after layout, its slot.
        sig: u32,
        /// Value slot.
        a: Slot,
        /// Signal width.
        w: u16,
    },
    /// Terminal: output-signal drive of a side-table expression wider
    /// than 64 bits, or to a signal wider than 64 bits — the
    /// tree-walker's own `SigWrite` step
    /// ([`MachineState::sig_write`](crate::MachineState::sig_write)).
    StSigE {
        /// Signal index.
        sig: u32,
        /// Index into [`CompiledThread::exprs`].
        e: u32,
    },
    /// Terminal: fall through when the slot is non-zero, else jump.
    BranchZ {
        /// Condition slot.
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
    /// The scratch slot this op defines. Terminals define nothing (a
    /// register or signal store writes its register or signal, named by
    /// `var` or `sig`).
    pub fn dst(mut self) -> Option<Slot> {
        self.dst_mut().map(|d| *d)
    }

    /// Visits every slot operand (register, scratch or pool).
    pub(crate) fn uses_mut(&mut self, f: &mut dyn FnMut(&mut Slot)) {
        use MOp::*;
        match self {
            LdArrCS { .. }
            | LdBytesCS { .. }
            | EvalS { .. }
            | StVarE { .. }
            | StSigE { .. }
            | Jmp { .. }
            | PauseOp
            | LabelOp { .. }
            | ExtOp { .. }
            | HaltOp => {}
            LdArrS { idx, .. } | StArrE { idx, .. } => f(idx),
            CopyS { a, .. }
            | MaskS { a, .. }
            | NotS { a, .. }
            | NegS { a, .. }
            | RedOrS { a, .. }
            | SliceS { a, .. }
            | StVarS { a, .. }
            | StArrCS { a, .. }
            | StSigS { a, .. } => f(a),
            BinS { a, b, .. }
            | CmpS { a, b, .. }
            | ShlS { a, b, .. }
            | ShrS { a, b, .. }
            | ConcatS { a, b, .. } => {
                f(a);
                f(b);
            }
            MuxS { c, t, e, .. } => {
                f(c);
                f(t);
                f(e);
            }
            StArrS { idx, a, .. } => {
                f(idx);
                f(a);
            }
            BranchZ { c, .. } => f(c),
        }
    }

    /// Visits every slot operand (register, scratch or pool) by value.
    pub fn uses(mut self, f: &mut dyn FnMut(Slot)) {
        self.uses_mut(&mut |s| f(*s));
    }

    /// Mutable access to the destination slot — the one table of which
    /// ops define what; the region-widening renumbering in
    /// `opt` uses it to shift whole slot ranges.
    pub(crate) fn dst_mut(&mut self) -> Option<&mut Slot> {
        use MOp::*;
        match self {
            LdArrS { dst, .. }
            | LdArrCS { dst, .. }
            | LdBytesCS { dst, .. }
            | CopyS { dst, .. }
            | MaskS { dst, .. }
            | NotS { dst, .. }
            | NegS { dst, .. }
            | RedOrS { dst, .. }
            | BinS { dst, .. }
            | CmpS { dst, .. }
            | ShlS { dst, .. }
            | ShrS { dst, .. }
            | ConcatS { dst, .. }
            | SliceS { dst, .. }
            | MuxS { dst, .. }
            | EvalS { dst, .. } => Some(dst),
            StVarS { .. }
            | StVarE { .. }
            | StArrS { .. }
            | StArrCS { .. }
            | StArrE { .. }
            | StSigS { .. }
            | StSigE { .. }
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
/// observer-visibility analysis in `opt` then merges runs of
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
    /// The evaluated sub-expressions referenced by [`MOp::EvalS`] and
    /// the `St*E` terminals (see the module docs).
    pub exprs: Vec<Expr>,
    /// Scratch slots required.
    pub n_slots: usize,
    /// Widened optimization regions, in program order (annotation,
    /// diagnostics, and where the execution encoding may fuse a pair;
    /// the executor never consults this).
    pub regions: Vec<RegionInfo>,
    /// The execution encoding of `mops`: what [`exec_thread`] runs.
    pub(crate) exec: Vec<XOp>,
}

impl CompiledThread {
    /// Every variant of the execution encoding by name, each with how
    /// many this thread's encoding holds (none for most).
    pub fn exec_census(&self) -> Vec<(&'static str, usize)> {
        XOp::NAMES
            .iter()
            .map(|&name| (name, self.exec.iter().filter(|x| x.name() == name).count()))
            .collect()
    }
}

/// A program lowered to micro-op bytecode: declarations, one
/// [`CompiledThread`] per source thread, and the constant pool.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The source declarations (shared with every other backend).
    pub prog: Program,
    /// One entry per source thread.
    pub threads: Vec<CompiledThread>,
    /// The constant pool, one distinct value per entry: entry `k` is
    /// slot [`CompiledProgram::pool_base`]` + k`.
    pub pool: Vec<u64>,
}

impl CompiledProgram {
    /// The first signal slot: the registers lie below it, one slot each.
    pub fn sig_base(&self) -> usize {
        self.prog.vars().len()
    }

    /// The first scratch slot: the registers, the signals and the runs
    /// lie below it, laid out as [`crate::MachineState`]'s word file.
    pub fn scratch_base(&self) -> usize {
        crate::interp::word_file(&self.prog).1
    }

    /// The first pool slot: every thread's scratch lies below it.
    pub fn pool_base(&self) -> usize {
        self.scratch_base() + self.threads.iter().map(|t| t.n_slots).max().unwrap_or(0)
    }

    /// Extends a running copy's word file, which holds its registers,
    /// signals and runs, to the whole slot file: the scratch (zero), then
    /// the pool, which no micro-op writes.
    pub(crate) fn extend_file(&self, words: &mut Vec<u64>) {
        debug_assert_eq!(
            words.len(),
            self.scratch_base(),
            "one word per register and per signal, then the runs of the wide ones"
        );
        words.resize(self.pool_base(), 0);
        words.extend_from_slice(&self.pool);
    }
}

/// Lowers a flattened program through the ambient optimization pipeline:
/// [`crate::opt::default_pipeline`] unless the `EMU_CPU_PASSES`
/// environment variable overrides it (see `env_pipeline`).
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
    let mut pool = Pool::default();
    let mut threads = Vec::with_capacity(flat.threads.len());
    for t in &flat.threads {
        threads.push(compile_thread(t, &flat.prog, passes, &mut pool)?);
    }
    let mut cp = CompiledProgram {
        prog: flat.prog.clone(),
        threads,
        pool: Vec::new(),
    };
    // Lay the file out: registers at their own index, the signals above
    // them, the runs (which no micro-op names) above those, every
    // thread's scratch above the runs, and the pool above that, keeping
    // only the constants a micro-op still reads, in order of first use.
    let (sigs, scratch) = (cp.sig_base() as Slot, cp.scratch_base() as Slot);
    let base = cp.pool_base();
    let mut placed: HashMap<Slot, Slot> = HashMap::new();
    for m in cp.threads.iter_mut().flat_map(|t| &mut t.mops) {
        if let Some(d) = m.dst_mut() {
            *d += scratch;
        }
        if let MOp::StSigS { sig, .. } = m {
            *sig += sigs;
        }
        m.uses_mut(&mut |s| {
            if let Some(v) = pool.value(*s) {
                *s = *placed.entry(*s).or_insert_with(|| {
                    cp.pool.push(v);
                    (base + cp.pool.len() - 1) as Slot
                });
            } else if *s & (REG | SIG) == REG | SIG {
                *s = sigs + (*s & !(REG | SIG));
            } else if is_reg(*s) {
                *s &= !REG;
            } else {
                *s += scratch;
            }
        });
    }
    for t in &mut cp.threads {
        t.exec = encode(t, scratch, &cp.prog);
    }
    if std::env::var("EMU_CPU_DUMP_MOPS").is_ok_and(|v| !v.is_empty()) {
        for (ti, t) in cp.threads.iter().enumerate() {
            let census: Vec<String> = t
                .exec_census()
                .into_iter()
                .filter(|&(_, n)| n > 0)
                .map(|(v, n)| format!("{v} {n}"))
                .collect();
            eprintln!("{}", mops_to_string(&cp, ti));
            eprintln!("encoding of thread {}: {}", t.name, census.join(", "));
        }
    }
    Ok(cp)
}

/// A compile-time value: its exact width and, when that is at most 64
/// bits, the slot it was lowered into (a value beyond 64 bits is never
/// lowered, so its `slot` means nothing and is never read).
#[derive(Debug, Clone, Copy)]
struct Val {
    slot: Slot,
    w: u16,
}

struct ThreadCompiler<'a> {
    prog: &'a Program,
    pool: &'a mut Pool,
    cur: Vec<MOp>,
    labels: Vec<String>,
    exprs: Vec<Expr>,
    next: Slot,
    /// The statement's shared nodes lowered so far, by identity, and the
    /// order they were lowered in (see [`ThreadCompiler::operand`]).
    memo: HashMap<*const Expr, Val>,
    memo_log: Vec<*const Expr>,
}

/// Where lowering stood before a node: micro-ops, next scratch slot and
/// memo entries, all three taken back together by
/// [`ThreadCompiler::rewind`].
type Mark = (usize, Slot, usize);

impl<'a> ThreadCompiler<'a> {
    fn s(&mut self) -> Slot {
        let s = self.next;
        self.next += 1;
        s
    }

    fn push(&mut self, m: MOp) {
        self.cur.push(m);
    }

    /// Starts a statement: fresh scratch slots, and no node lowered yet —
    /// a store may have come between this statement and a node an
    /// earlier one lowered.
    fn begin_statement(&mut self) {
        self.next = 0;
        self.memo.clear();
        self.memo_log.clear();
    }

    fn mark(&self) -> Mark {
        (self.cur.len(), self.next, self.memo_log.len())
    }

    /// Takes back everything lowered since `mark`, the memo entries too:
    /// a node lowered there has no micro-ops any more.
    fn rewind(&mut self, mark: Mark) {
        self.cur.truncate(mark.0);
        self.next = mark.1;
        for key in self.memo_log.drain(mark.2..) {
            self.memo.remove(&key);
        }
    }

    /// Lowers the operand `x`, once per statement when it is shared: a
    /// second use of the node reads the slot the first one's lowering
    /// left, and numbers nothing. Reads have no side effect and nothing
    /// in a statement stores before its terminal, so the reuse cannot be
    /// seen, and every scratch slot is one micro-op lowering emitted.
    fn operand(&mut self, x: &Arc<Expr>) -> IrResult<Val> {
        if Arc::strong_count(x) == 1 {
            return self.expr(x);
        }
        let key = Arc::as_ptr(x);
        if let Some(&v) = self.memo.get(&key) {
            return Ok(v);
        }
        let v = self.expr(x)?;
        self.memo.insert(key, v);
        self.memo_log.push(key);
        Ok(v)
    }

    /// Files `e` in the side table the evaluating micro-ops index.
    fn side(&mut self, e: Expr) -> u32 {
        self.exprs.push(e);
        (self.exprs.len() - 1) as u32
    }

    /// Emits the [`MOp::EvalS`] that leaves the low 64 bits of `e` in a
    /// fresh slot.
    fn eval_s(&mut self, e: Expr) -> Slot {
        let dst = self.s();
        let e = self.side(e);
        self.push(MOp::EvalS { dst, e });
        dst
    }

    /// Lowers `e` when it and all of its operands are at most 64 bits
    /// wide. Otherwise nothing below `e` is lowered: at most 64 bits
    /// wide itself, `e` is the maximal sub-expression on top of an
    /// operand beyond 64 bits and becomes one [`MOp::EvalS`]; beyond 64
    /// bits itself, it only reports its width, and the node or statement
    /// above it takes it in.
    fn expr(&mut self, e: &Expr) -> IrResult<Val> {
        let mark = self.mark();
        // Operands first, in `eval`'s order; `widest` is the widest of
        // them. Then the node's width and the micro-op that computes it
        // from the operand slots — built even when an operand has no
        // slot, and dropped below in that case.
        let mut widest = 0;
        let mut operand = |c: &mut Self, x: &Arc<Expr>| -> IrResult<Val> {
            let v = c.operand(x)?;
            widest = v.w.max(widest);
            Ok(v)
        };
        let (w, m) = match e {
            // A literal is its pool slot: nothing runs to load it.
            Expr::Const(b) => {
                let w = b.width();
                let slot = if w <= 64 {
                    self.pool.slot(b.to_u64())
                } else {
                    Slot::MAX
                };
                return Ok(Val { slot, w });
            }
            // A register is its slot: nothing runs to read it.
            Expr::Var(v) => {
                let w = self
                    .prog
                    .var(*v)
                    .ok_or_else(|| IrError(format!("unknown var {v:?}")))?
                    .width;
                let slot = if w <= 64 { reg_slot(v.0) } else { Slot::MAX };
                return Ok(Val { slot, w });
            }
            // A signal is its slot too.
            Expr::SigRead(s) => {
                let w = self
                    .prog
                    .signal(*s)
                    .ok_or_else(|| IrError(format!("unknown signal {s:?}")))?
                    .width;
                let slot = if w <= 64 { sig_slot(s.0) } else { Slot::MAX };
                return Ok(Val { slot, w });
            }
            Expr::ArrRead(a, idx) => {
                let ew = self
                    .prog
                    .array(*a)
                    .ok_or_else(|| IrError(format!("unknown array {a:?}")))?
                    .elem_width;
                let (idx, arr) = (operand(self, idx)?.slot, a.0);
                // A literal index selects its element here: one in range
                // is loaded at its constant index, and one out of range
                // reads the architectural zero, the zero's pool slot.
                let at = self.pool.value(idx).map(|k| element(self.prog, arr, k));
                if at == Some(None) && ew <= 64 {
                    let slot = self.pool.slot(0);
                    return Ok(Val { slot, w: ew });
                }
                let dst = self.s();
                match at {
                    Some(Some(idx)) => (ew, MOp::LdArrCS { dst, arr, idx }),
                    _ => (ew, MOp::LdArrS { dst, arr, idx }),
                }
            }
            Expr::Un(op, x) => {
                let v = operand(self, x)?;
                let (dst, a, mask) = (self.s(), v.slot, mask_of(v.w));
                match op {
                    UnOp::RedOr => (1, MOp::RedOrS { dst, a }),
                    UnOp::Not => (v.w, MOp::NotS { dst, a, mask }),
                    UnOp::Neg => (v.w, MOp::NegS { dst, a, mask }),
                }
            }
            Expr::Bin(op, l, r) => {
                let (lv, rv) = (operand(self, l)?, operand(self, r)?);
                let (dst, op, a, b) = (self.s(), *op, lv.slot, rv.slot);
                match op {
                    // Shifts: the left operand is NOT widened — the
                    // result keeps `wl` and bits shifted past it are
                    // lost (see the shift rule in `crate::ast::BinOp`).
                    BinOp::Shl => {
                        let mask = mask_of(lv.w);
                        (lv.w, MOp::ShlS { dst, a, b, mask })
                    }
                    BinOp::Shr => (lv.w, MOp::ShrS { dst, a, b }),
                    _ if op.is_compare() => (1, MOp::CmpS { dst, op, a, b }),
                    _ => {
                        let w = lv.w.max(rv.w);
                        let mask = mask_of(w);
                        let m = MOp::BinS {
                            dst,
                            op,
                            a,
                            b,
                            mask,
                        };
                        (w, m)
                    }
                }
            }
            Expr::Mux(c, t, e2) => {
                // Same evaluation order as `eval`: both arms, then the
                // condition (all expressions are pure, so only the
                // values matter).
                let (tv, ev) = (operand(self, t)?, operand(self, e2)?);
                let c = operand(self, c)?.slot;
                let (dst, t, e) = (self.s(), tv.slot, ev.slot);
                let m = MOp::MuxS { dst, c, t, e };
                (tv.w.max(ev.w), m)
            }
            Expr::Slice(x, hi, lo) => {
                let a = operand(self, x)?.slot;
                let (dst, lo, ow) = (self.s(), *lo, hi - lo + 1);
                let mask = mask_of(ow);
                (ow, MOp::SliceS { dst, a, lo, mask })
            }
            Expr::Concat(h, l) => {
                let (hv, lv) = (operand(self, h)?, operand(self, l)?);
                let (dst, a, b, bw) = (self.s(), hv.slot, lv.slot, lv.w);
                (hv.w + lv.w, MOp::ConcatS { dst, a, b, bw })
            }
            Expr::Resize(x, w) => {
                let v = operand(self, x)?;
                if *w >= v.w && *w <= 64 && is_pool(v.slot) {
                    // A constant zero-extended is that constant: its
                    // pool slot, not a copy of it.
                    return Ok(Val {
                        slot: v.slot,
                        w: *w,
                    });
                }
                let (dst, a) = (self.s(), v.slot);
                let m = if *w >= v.w {
                    // Zero-extension of a canonical value is the
                    // identity.
                    MOp::CopyS { dst, a }
                } else {
                    let mask = mask_of(*w);
                    MOp::MaskS { dst, a, mask }
                };
                (*w, m)
            }
        };
        if w.max(widest) <= 64 {
            let slot = m.dst().expect("expression micro-ops define a slot");
            self.push(m);
            return Ok(Val { slot, w });
        }
        // Beyond 64 bits here or one level down: whatever was lowered
        // under this node is dead, so take it back.
        self.rewind(mark);
        let slot = if w <= 64 {
            self.eval_s(e.clone())
        } else {
            Slot::MAX
        };
        Ok(Val { slot, w })
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
                // A register beyond 64 bits has no slot: its store is
                // the tree-walker's, whatever the value's width.
                let mark = self.mark();
                let (var, v) = (dst.0, self.expr(e)?);
                let m = if v.w <= 64 && w <= 64 {
                    MOp::StVarS { var, a: v.slot, w }
                } else {
                    self.rewind(mark);
                    let e = self.side(e.clone());
                    MOp::StVarE { var, e }
                };
                self.push(m);
            }
            Op::ArrWrite(arr, idx, val) => {
                let w = self
                    .prog
                    .array(*arr)
                    .ok_or_else(|| IrError(format!("unknown array {arr:?}")))?
                    .elem_width;
                // An index beyond 64 bits addresses by its low 64, the
                // `to_u64()` the tree-walker takes.
                let iv = self.expr(idx)?;
                let idx = if iv.w <= 64 {
                    iv.slot
                } else {
                    self.eval_s(idx.clone())
                };
                let (arr, v) = (arr.0, self.expr(val)?);
                let m = if v.w > 64 {
                    let e = self.side(val.clone());
                    MOp::StArrE { arr, idx, e }
                } else {
                    // A store at a literal index in range names its element.
                    let (a, k) = (v.slot, self.pool.value(idx));
                    match k.and_then(|k| element(self.prog, arr, k)) {
                        Some(idx) => MOp::StArrCS { arr, idx, a, w },
                        None => MOp::StArrS { arr, idx, a, w },
                    }
                };
                self.push(m);
            }
            Op::SigWrite(sig, e) => {
                let w = self
                    .prog
                    .signal(*sig)
                    .ok_or_else(|| IrError(format!("unknown signal {sig:?}")))?
                    .width;
                // A signal beyond 64 bits has no slot: its store is the
                // tree-walker's, whatever the value's width.
                let mark = self.mark();
                let (sig, v) = (sig.0, self.expr(e)?);
                let m = if v.w <= 64 && w <= 64 {
                    MOp::StSigS { sig, a: v.slot, w }
                } else {
                    self.rewind(mark);
                    let e = self.side(e.clone());
                    MOp::StSigE { sig, e }
                };
                self.push(m);
            }
            Op::Branch(cond, if_false) => {
                // A condition beyond 64 bits is true when any bit is
                // set, not when one of the low 64 is.
                let cv = self.expr(cond)?;
                let c = if cv.w <= 64 {
                    cv.slot
                } else {
                    self.eval_s(Expr::Un(UnOp::RedOr, Arc::new(cond.clone())))
                };
                let target = *if_false as u32;
                self.push(MOp::BranchZ { c, target });
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
    pool: &mut Pool,
) -> IrResult<CompiledThread> {
    t.check_targets()?;
    let mut c = ThreadCompiler {
        prog,
        pool,
        cur: Vec::new(),
        labels: Vec::new(),
        exprs: Vec::new(),
        next: 0,
        memo: HashMap::new(),
        memo_log: Vec::new(),
    };
    // One region per source op; scratch slots are written-before-read
    // within a region (fresh slots per statement), which is the
    // invariant the passes rely on.
    let mut regions: Vec<Vec<MOp>> = Vec::with_capacity(t.ops.len());
    for op in &t.ops {
        c.begin_statement();
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

    crate::opt::run(&mut regions, passes, prog, c.pool);

    // Flatten, recording region starts, then retarget branches from
    // source-op indices to micro-op indices (a target equal to the op
    // count maps past the end, which the executor treats as halt).
    let mut starts = Vec::with_capacity(regions.len() + 1);
    let mut mops = Vec::new();
    for r in &regions {
        starts.push(mops.len() as u32);
        mops.extend_from_slice(r);
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

    // Scratch-file size (pool slots aside): the passes may have shrunk
    // it.
    let n_slots = crate::opt::region_slots(&mops) as usize;

    Ok(CompiledThread {
        name: t.name.clone(),
        mops,
        labels: c.labels,
        exprs: c.exprs,
        n_slots,
        regions: region_info,
        exec: Vec::new(),
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
    let sig = |i: u32| {
        prog.signals()
            .get(i as usize)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("?s{i}"))
    };
    for m in region {
        match m {
            MOp::StVarS { var: v, .. } | MOp::StVarE { var: v, .. } => {
                add(format!("var {}", var(*v)), &mut tags)
            }
            // A laid-out `StSigS` names its signal by its slot.
            MOp::StSigS { sig: s, .. } => {
                add(format!("${}", sig(s - prog.vars().len() as u32)), &mut tags)
            }
            MOp::StSigE { sig: s, .. } => add(format!("${}", sig(*s)), &mut tags),
            MOp::StArrS { arr, .. } | MOp::StArrCS { arr, .. } | MOp::StArrE { arr, .. } => {
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

/// Renders compiled thread `ti` of `cp` as a numbered micro-op listing.
/// Register slots print as the register's name, signal slots as `$`
/// and the signal's name, scratch slots as `sN` (numbered from the
/// first scratch slot), pool slots as the constant they hold, evaluated
/// sub-expressions as `eval(<expr>)`; this is the form the pass tests
/// in `opt` assert against.
pub fn mops_to_string(cp: &CompiledProgram, ti: usize) -> String {
    use std::fmt::Write as _;
    let (t, prog) = (&cp.threads[ti], &cp.prog);
    let (sigs, scratch, base) = (cp.sig_base(), cp.scratch_base(), cp.pool_base());
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
    let ev = |i: u32| match t.exprs.get(i as usize) {
        Some(e) => format!("eval({})", crate::pretty::expr_to_string(e, prog)),
        None => format!("eval(?e{i})"),
    };
    let o = |s: &Slot| match *s as usize {
        s if s < sigs => var(s as u32),
        s if s < sigs + prog.signals().len() => format!("${}", sig((s - sigs) as u32)),
        s if s < scratch => format!("run{}", s - sigs - prog.signals().len()),
        s if s >= base => format!("{:#x}", cp.pool[s - base]),
        s => format!("s{}", s - scratch),
    };
    let mut out = format!("compiled thread {} ({} slots):\n", t.name, t.n_slots);
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
            MOp::LdArrS { dst, arr: a, idx } => format!("{} <- {}[{}]", o(dst), arr(*a), o(idx)),
            MOp::LdArrCS { dst, arr: a, idx } => format!("{} <- {}[#{idx}]", o(dst), arr(*a)),
            MOp::LdBytesCS {
                dst,
                arr: a,
                idx,
                n,
            } => {
                format!(
                    "{} <- {}[#{idx}..#{}]",
                    o(dst),
                    arr(*a),
                    idx + u32::from(*n)
                )
            }
            MOp::CopyS { dst, a } => format!("{} <- {}", o(dst), o(a)),
            MOp::MaskS { dst, a, mask } => format!("{} <- {} & {mask:#x}", o(dst), o(a)),
            MOp::NotS { dst, a, mask } => format!("{} <- ~{} & {mask:#x}", o(dst), o(a)),
            MOp::NegS { dst, a, mask } => format!("{} <- -{} & {mask:#x}", o(dst), o(a)),
            MOp::RedOrS { dst, a } => format!("{} <- |{}", o(dst), o(a)),
            MOp::BinS {
                dst,
                op,
                a,
                b,
                mask,
            } => format!("{} <- {} {op:?} {} & {mask:#x}", o(dst), o(a), o(b)),
            MOp::CmpS { dst, op, a, b } => format!("{} <- {} {op:?} {}", o(dst), o(a), o(b)),
            MOp::ShlS { dst, a, b, mask } => {
                format!("{} <- {} << {} & {mask:#x}", o(dst), o(a), o(b))
            }
            MOp::ShrS { dst, a, b } => format!("{} <- {} >> {}", o(dst), o(a), o(b)),
            MOp::ConcatS { dst, a, b, bw } => format!("{} <- {{{}, {}:u{bw}}}", o(dst), o(a), o(b)),
            MOp::SliceS { dst, a, lo, mask } => {
                format!("{} <- {} >> {lo} & {mask:#x}", o(dst), o(a))
            }
            MOp::MuxS { dst, c, t, e } => format!("{} <- {} ? {} : {}", o(dst), o(c), o(t), o(e)),
            MOp::EvalS { dst, e } => format!("{} <- {}", o(dst), ev(*e)),
            MOp::StVarS { var: v, a, .. } => format!("var {} := {}", var(*v), o(a)),
            MOp::StVarE { var: v, e } => format!("var {} := {}", var(*v), ev(*e)),
            MOp::StArrCS {
                arr: ar, idx, a, ..
            } => format!("{}[#{idx}] := {}", arr(*ar), o(a)),
            MOp::StArrS {
                arr: ar, idx, a, ..
            } => format!("{}[{}] := {}", arr(*ar), o(idx), o(a)),
            MOp::StArrE { arr: ar, idx, e } => format!("{}[{}] := {}", arr(*ar), o(idx), ev(*e)),
            MOp::StSigS { sig: s, a, .. } => format!("{} := {}", o(s), o(a)),
            MOp::StSigE { sig: s, e } => format!("${} := {}", sig(*s), ev(*e)),
            MOp::BranchZ { c, target } => format!("brz {} -> {target}", o(c)),
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
// The execution encoding
// ---------------------------------------------------------------------

/// Declares [`XOp`] and its variant names ([`XOp::NAMES`], [`XOp::name`])
/// from one list, so the census in `tests/pass_census.rs` sees every
/// variant there is.
macro_rules! encoding {
    ($($(#[$doc:meta])* $name:ident $({ $($field:ident: $ty:ty),* $(,)? })?,)*) => {
        /// One operation of the execution encoding, the form of a
        /// thread's micro-ops that [`exec_thread`] runs (see [`encode`]).
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(crate) enum XOp {
            $($(#[$doc])* $name $({ $($field: $ty),* })?,)*
        }

        impl XOp {
            /// Every variant's name, in declaration order.
            const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];

            /// This operation's variant name.
            fn name(&self) -> &'static str {
                match self {
                    $(XOp::$name { .. } => stringify!($name),)*
                }
            }
        }
    };
}

encoding! {
    /// [`MOp::LdArrS`].
    LdArr { dst: Slot, arr: u32, idx: Slot },
    /// [`MOp::LdArrCS`].
    LdArrC { dst: Slot, arr: u32, idx: u32 },
    /// [`MOp::LdBytesCS`]: the word's first `n` bytes, big-endian.
    LdBytesC { dst: Slot, arr: u32, idx: u32, n: u8 },
    /// [`MOp::CopyS`].
    Copy { dst: Slot, a: Slot },
    /// [`MOp::MaskS`].
    Mask { dst: Slot, a: Slot, mask: u64 },
    /// [`MOp::NotS`].
    Not { dst: Slot, a: Slot, mask: u64 },
    /// [`MOp::NegS`].
    Neg { dst: Slot, a: Slot, mask: u64 },
    /// [`MOp::RedOrS`].
    RedOr { dst: Slot, a: Slot },
    /// [`MOp::BinS`] of `+`, masked to the result width.
    Add { dst: Slot, a: Slot, b: Slot, mask: u64 },
    /// [`MOp::BinS`] of `-`, masked to the result width.
    Sub { dst: Slot, a: Slot, b: Slot, mask: u64 },
    /// [`MOp::BinS`] of `*`, masked to the result width.
    Mul { dst: Slot, a: Slot, b: Slot, mask: u64 },
    /// [`MOp::BinS`] of `&` (canonical operands need no mask).
    And { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::BinS`] of `|`.
    Or { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::BinS`] of `^`.
    Xor { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::CmpS`] of `==` (canonical operands compare as `u64`s).
    Eq { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::CmpS`] of `!=`.
    Ne { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::CmpS`] of `<`.
    Lt { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::CmpS`] of `<=`.
    Le { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::CmpS`] of `>`.
    Gt { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::CmpS`] of `>=`.
    Ge { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::ShlS`].
    Shl { dst: Slot, a: Slot, b: Slot, mask: u64 },
    /// [`MOp::ShrS`].
    Shr { dst: Slot, a: Slot, b: Slot },
    /// [`MOp::ConcatS`].
    Concat { dst: Slot, a: Slot, b: Slot, bw: u16 },
    /// [`MOp::SliceS`].
    Slice { dst: Slot, a: Slot, lo: u16, mask: u64 },
    /// [`MOp::MuxS`].
    Mux { dst: Slot, c: Slot, t: Slot, e: Slot },
    /// [`MOp::EvalS`].
    Eval { dst: Slot, e: u32 },
    /// [`MOp::StVarS`].
    StVar { var: u32, a: Slot, w: u16 },
    /// [`MOp::StVarE`].
    StVarE { var: u32, e: u32 },
    /// [`MOp::StArrS`] (the array masks to its element width itself).
    StArr { arr: u32, idx: Slot, a: Slot },
    /// [`MOp::StArrCS`].
    StArrC { arr: u32, idx: u32, a: Slot },
    /// [`MOp::StArrE`].
    StArrE { arr: u32, idx: Slot, e: u32 },
    /// [`MOp::StSigS`].
    StSig { sig: u32, a: Slot, w: u16 },
    /// [`MOp::StSigE`].
    StSigE { sig: u32, e: u32 },
    /// [`MOp::BranchZ`]; `target` indexes the encoding.
    BranchZ { c: Slot, target: u32 },
    /// [`MOp::Jmp`]; `target` indexes the encoding.
    Jmp { target: u32 },
    /// [`MOp::PauseOp`].
    Pause,
    /// [`MOp::LabelOp`].
    Label { id: u32 },
    /// [`MOp::ExtOp`].
    Ext { id: u32 },
    /// [`MOp::HaltOp`].
    Halt,
    /// Fused `SliceS` → `StArrCS`: `arr[#idx] := (a >> lo) & mask`,
    /// the slice's slot unwritten.
    SliceStArrC { a: Slot, lo: u16, mask: u64, arr: u32, idx: u32 },
    /// Fused `CmpS` of `==` → `BranchZ`: jumps unless `a == b`.
    BrzEq { a: Slot, b: Slot, target: u32 },
    /// Fused `CmpS` of `!=` → `BranchZ`: jumps unless `a != b`.
    BrzNe { a: Slot, b: Slot, target: u32 },
    /// Fused `CmpS` of `<` → `BranchZ`: jumps unless `a < b`.
    BrzLt { a: Slot, b: Slot, target: u32 },
    /// Fused `CmpS` of `>=` → `BranchZ`: jumps unless `a >= b`.
    BrzGe { a: Slot, b: Slot, target: u32 },
    /// Fused `BinS` of `+` → `StVarS`: `var := (a + b) & mask`, where
    /// `mask` is the sum's and the register's width at once, and `w` the
    /// register's width.
    AddStVar { a: Slot, b: Slot, mask: u64, var: u32, w: u16 },
    /// Fused `BinS` of `+` → `StArrS` at that index:
    /// `arr[(a + b) & mask_of(w)] := v`, the sum's slot unwritten.
    AddStArr { a: Slot, b: Slot, w: u16, arr: u32, v: Slot },
    /// A byte-store run, `n >= 2` `SliceS` → `StArrCS` pairs of one
    /// source: `arr[#idx + k] := (a >> (lo + 8 * (n - 1 - k))) & 0xff`,
    /// the slices' slots unwritten. It ticks once per byte, and stores
    /// only the bytes before the tick that finds the budget spent.
    StBytesC { a: Slot, lo: u16, arr: u32, idx: u32, n: u8 },
}

// An operation is three words, like a micro-op: no fused form carries
// more than one 64-bit immediate.
const _: () = assert!(std::mem::size_of::<XOp>() == 24);

impl XOp {
    /// The one-for-one encoding of `m`.
    fn of(m: MOp) -> XOp {
        match m {
            MOp::LdArrS { dst, arr, idx } => XOp::LdArr { dst, arr, idx },
            MOp::LdArrCS { dst, arr, idx } => XOp::LdArrC { dst, arr, idx },
            MOp::LdBytesCS { dst, arr, idx, n } => XOp::LdBytesC { dst, arr, idx, n },
            MOp::CopyS { dst, a } => XOp::Copy { dst, a },
            MOp::MaskS { dst, a, mask } => XOp::Mask { dst, a, mask },
            MOp::NotS { dst, a, mask } => XOp::Not { dst, a, mask },
            MOp::NegS { dst, a, mask } => XOp::Neg { dst, a, mask },
            MOp::RedOrS { dst, a } => XOp::RedOr { dst, a },
            MOp::BinS {
                dst,
                op,
                a,
                b,
                mask,
            } => match op {
                BinOp::Add => XOp::Add { dst, a, b, mask },
                BinOp::Sub => XOp::Sub { dst, a, b, mask },
                BinOp::Mul => XOp::Mul { dst, a, b, mask },
                BinOp::And => XOp::And { dst, a, b },
                BinOp::Or => XOp::Or { dst, a, b },
                BinOp::Xor => XOp::Xor { dst, a, b },
                _ => unreachable!("BinS of non-arith op {op:?}"),
            },
            MOp::CmpS { dst, op, a, b } => match op {
                BinOp::Eq => XOp::Eq { dst, a, b },
                BinOp::Ne => XOp::Ne { dst, a, b },
                BinOp::Lt => XOp::Lt { dst, a, b },
                BinOp::Le => XOp::Le { dst, a, b },
                BinOp::Gt => XOp::Gt { dst, a, b },
                BinOp::Ge => XOp::Ge { dst, a, b },
                _ => unreachable!("CmpS of non-compare op {op:?}"),
            },
            MOp::ShlS { dst, a, b, mask } => XOp::Shl { dst, a, b, mask },
            MOp::ShrS { dst, a, b } => XOp::Shr { dst, a, b },
            MOp::ConcatS { dst, a, b, bw } => XOp::Concat { dst, a, b, bw },
            MOp::SliceS { dst, a, lo, mask } => XOp::Slice { dst, a, lo, mask },
            MOp::MuxS { dst, c, t, e } => XOp::Mux { dst, c, t, e },
            MOp::EvalS { dst, e } => XOp::Eval { dst, e },
            MOp::StVarS { var, a, w } => XOp::StVar { var, a, w },
            MOp::StVarE { var, e } => XOp::StVarE { var, e },
            MOp::StArrS { arr, idx, a, .. } => XOp::StArr { arr, idx, a },
            MOp::StArrCS { arr, idx, a, .. } => XOp::StArrC { arr, idx, a },
            MOp::StArrE { arr, idx, e } => XOp::StArrE { arr, idx, e },
            MOp::StSigS { sig, a, w } => XOp::StSig { sig, a, w },
            MOp::StSigE { sig, e } => XOp::StSigE { sig, e },
            MOp::BranchZ { c, target } => XOp::BranchZ { c, target },
            MOp::Jmp { target } => XOp::Jmp { target },
            MOp::PauseOp => XOp::Pause,
            MOp::LabelOp { id } => XOp::Label { id },
            MOp::ExtOp { id } => XOp::Ext { id },
            MOp::HaltOp => XOp::Halt,
        }
    }

    /// Adjacent `SliceS` → `StArrCS` pairs of one source into a byte
    /// array, each slice a byte, `lo` falling by 8 and the index rising
    /// by 1 from pair to pair, each slice's slot read only by its store:
    /// [`XOp::StBytesC`], when there are at least two and the eight bytes
    /// from the first index, which it writes as one word, are in bounds.
    fn store_run(
        mops: &[MOp],
        prog: &Program,
        sole_read: impl Fn(Slot) -> bool,
    ) -> Option<(XOp, usize)> {
        let byte = |pair: &[MOp]| match *pair {
            [MOp::SliceS {
                dst,
                a,
                lo,
                mask: 0xff,
            }, MOp::StArrCS {
                arr,
                idx,
                a: v,
                w: 8,
            }] if v == dst && sole_read(dst) => Some((a, lo, arr, idx)),
            _ => None,
        };
        let mut pairs = mops.chunks_exact(2).map(byte);
        let (a, lo, arr, idx) = pairs.next()??;
        if idx as usize + 8 > prog.arrays()[arr as usize].len {
            return None;
        }
        let mut n = 1u8;
        for (a2, lo2, arr2, idx2) in pairs.map_while(|p| p) {
            if (a2, arr2) != (a, arr) || idx2 != idx + u32::from(n) || lo2 + 8 * u16::from(n) != lo
            {
                break;
            }
            n += 1;
        }
        (n > 1).then_some((
            XOp::StBytesC {
                a,
                lo: lo - 8 * u16::from(n - 1),
                arr,
                idx,
                n,
            },
            2 * usize::from(n),
        ))
    }

    /// The fused form of the adjacent pair `first`, `then`, when there is
    /// one: `then` is the terminal that reads `first`'s slot, and no other
    /// micro-op of the region reads it (`sole_read`), so the slot need not
    /// be written.
    fn fused_pair(first: MOp, then: MOp, sole_read: impl Fn(Slot) -> bool) -> Option<XOp> {
        let x = match (first, then) {
            (MOp::SliceS { dst, a, lo, mask }, MOp::StArrCS { arr, idx, a: v, .. }) if v == dst => {
                XOp::SliceStArrC {
                    a,
                    lo,
                    mask,
                    arr,
                    idx,
                }
            }
            (MOp::CmpS { dst, op, a, b }, MOp::BranchZ { c, target }) if c == dst => match op {
                BinOp::Eq => XOp::BrzEq { a, b, target },
                BinOp::Ne => XOp::BrzNe { a, b, target },
                BinOp::Lt => XOp::BrzLt { a, b, target },
                BinOp::Ge => XOp::BrzGe { a, b, target },
                _ => return None,
            },
            (
                MOp::BinS {
                    dst,
                    op: BinOp::Add,
                    a,
                    b,
                    mask,
                },
                MOp::StVarS { var, a: v, w },
            ) if v == dst => XOp::AddStVar {
                a,
                b,
                mask: mask & mask_of(w),
                var,
                w,
            },
            (
                MOp::BinS {
                    dst,
                    op: BinOp::Add,
                    a,
                    b,
                    mask,
                },
                MOp::StArrS { arr, idx, a: v, .. },
            ) if idx == dst => XOp::AddStArr {
                a,
                b,
                w: mask.count_ones() as u16,
                arr,
                v,
            },
            _ => return None,
        };
        sole_read(first.dst()?).then_some(x)
    }

    /// The branch target this operation holds, if any.
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            XOp::BranchZ { target, .. }
            | XOp::Jmp { target }
            | XOp::BrzEq { target, .. }
            | XOp::BrzNe { target, .. }
            | XOp::BrzLt { target, .. }
            | XOp::BrzGe { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// Lowers thread `t` of `prog`, its micro-ops laid out (scratch from
/// slot `scratch` up), to the execution encoding, once per image and in
/// time linear in the thread: one operation per micro-op, but the
/// adjacent micro-ops of one fused form — a byte-store run
/// ([`XOp::store_run`]), else a pair ([`XOp::fused_pair`]) — become one
/// when
///
/// * all lie in one region (scratch is numbered per region), so no
///   branch lands inside the form: every branch target starts a region,
///   since the widening merges no statement a branch lands on; and
/// * each slot the form leaves unwritten has the form's next micro-op
///   as its only read in the region, counted once per region.
///
/// A fused operation runs where its last terminal stood, so it ticks the
/// budget once, there; a byte-store run, which holds one terminal per
/// byte, ticks once per byte. Branch targets are renumbered to the
/// encoding.
fn encode(t: &CompiledThread, scratch: Slot, prog: &Program) -> Vec<XOp> {
    let mops = &t.mops;
    let n = mops.len();
    let mut bounds: Vec<usize> = t.regions.iter().map(|r| r.start as usize).collect();
    if bounds.first() != Some(&0) {
        bounds.insert(0, 0);
    }
    bounds.push(n);
    debug_assert!(
        mops.iter().all(|m| match m {
            MOp::BranchZ { target, .. } | MOp::Jmp { target } => {
                bounds.binary_search(&(*target as usize)).is_ok()
            }
            _ => true,
        }),
        "thread {}: a branch lands inside a region",
        t.name
    );
    // Reads of each scratch slot in the region at hand, zeroed again
    // after it.
    let mut reads = vec![0u32; t.n_slots];
    let scratch_index = |s: Slot| Some(s.checked_sub(scratch)? as usize).filter(|&k| k < t.n_slots);
    let mut at = vec![0u32; n + 1];
    let mut out = Vec::with_capacity(n);
    for w in bounds.windows(2) {
        let (start, end) = (w[0], w[1]);
        for m in &mops[start..end] {
            m.uses(&mut |s| {
                if let Some(k) = scratch_index(s) {
                    reads[k] += 1;
                }
            });
        }
        let mut i = start;
        while i < end {
            let sole_read = |s: Slot| scratch_index(s).is_some_and(|k| reads[k] == 1);
            let here = out.len() as u32;
            let rest = &mops[i..end];
            let fused = XOp::store_run(rest, prog, sole_read).or_else(|| match rest {
                [first, then, ..] => Some((XOp::fused_pair(*first, *then, sole_read)?, 2)),
                _ => None,
            });
            let (x, taken) = fused.unwrap_or_else(|| (XOp::of(mops[i]), 1));
            at[i..i + taken].fill(here);
            out.push(x);
            i += taken;
        }
        for m in &mops[start..end] {
            m.uses(&mut |s| {
                if let Some(k) = scratch_index(s) {
                    reads[k] = 0;
                }
            });
        }
    }
    at[n] = out.len() as u32;
    for x in &mut out {
        if let Some(target) = x.target_mut() {
            *target = at[*target as usize];
        }
    }
    out
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

/// Panic message of the const-index array micro-ops: their indices are
/// proven in bounds when the op is built, so a miss is a compiler bug.
const CONST_IDX: &str = "const array index proven in bounds at compile time";

/// The trap of a byte-store run of `n` bytes of `v` from index `i` of a
/// byte array's `cells` that the budget runs out inside, `left` bytes
/// in: those are stored, lifting the high-water mark `high`, and the
/// next one traps. Out of line, so the executor's loop keeps its
/// registers.
#[cold]
#[inline(never)]
fn run_out_in_a_run(
    cells: &mut crate::Cells,
    high: &mut usize,
    (i, n, left): (usize, usize, usize),
    v: u64,
    thread: &str,
    ops_executed: &mut u64,
) -> IrError {
    if left > 0 {
        cells
            .bytes_mut()
            .and_then(|d| d.get_mut(i..i + left))
            .expect(CONST_IDX)
            .copy_from_slice(&v.to_be_bytes()[8 - n..][..left]);
        *high = (*high).max(i + left);
    }
    missing_pause(thread, ops_executed)
}

/// Compiled thread `ti`'s share of a cycle: executes its encoding from
/// its pc until it pauses or halts.
///
/// The slot file is the state's word file, held as a local slice so its
/// base and length stay in machine registers across the dispatch loop
/// (read through the state on every access, they are reloaded from
/// memory after each store). The inner loop runs every operation that
/// reaches the rest of the state through its other fields; the ones
/// that hand the whole [`MachineState`] to the reference code —
/// `Eval`, the `St*E` stores and `Ext` — leave it, run in the outer
/// loop, and the file is taken again after them.
///
/// Every terminal, pause and halt included, spends one unit of the
/// budget, so op accounting matches the tree-walker exactly; the ops run
/// are the budget spent, added to `ops_executed` only where the thread
/// leaves (see [`missing_pause`]).
pub(crate) fn exec_thread<O: Observer + ?Sized>(
    cp: &CompiledProgram,
    ti: usize,
    inst: &mut Instance,
    obs: &mut O,
) -> IrResult<()> {
    let thread = &cp.threads[ti];
    let Instance {
        state,
        threads,
        ops_executed,
        ..
    } = inst;
    let ctx = &mut threads[ti];
    let ops = &thread.exec[..];
    let mut pc = ctx.pc;
    let mut budget = MAX_OPS_PER_CYCLE;

    // One budget unit per *terminal* (= one source op), so op counts
    // and missing-pause traps match the tree-walker exactly.
    macro_rules! tick {
        () => {
            budget = match budget.checked_sub(1) {
                Some(left) => left,
                None => return Err(missing_pause(&thread.name, ops_executed)),
            };
        };
    }
    // A compare fused with the branch on it: on when it holds, else to
    // `target`.
    macro_rules! branch_unless {
        ($holds:expr, $target:expr) => {
            tick!();
            if !$holds {
                pc = *$target as usize;
                continue;
            }
        };
    }

    loop {
        let file: &mut [u64] = &mut state.words;
        let whole = loop {
            let Some(op) = ops.get(pc) else {
                ctx.halted = true;
                break None;
            };
            match op {
                XOp::LdArr { dst, arr, idx } => {
                    let i = file[*idx as usize] as usize;
                    file[*dst as usize] = state.arrays[*arr as usize].get_u64(i).unwrap_or(0);
                }
                // Const-index loads are proven in bounds at compile
                // time (array lengths are fixed at declaration).
                XOp::LdArrC { dst, arr, idx } => {
                    file[*dst as usize] = state.arrays[*arr as usize]
                        .get_u64(*idx as usize)
                        .expect(CONST_IDX);
                }
                // The field is the word's first `n` bytes.
                XOp::LdBytesC { dst, arr, idx, n } => {
                    let word = state.arrays[*arr as usize]
                        .bytes()
                        .and_then(|d| d.get(*idx as usize..)?.first_chunk::<8>())
                        .expect(CONST_IDX);
                    file[*dst as usize] = u64::from_be_bytes(*word) >> (64 - 8 * n);
                }
                XOp::Copy { dst, a } => file[*dst as usize] = file[*a as usize],
                XOp::Mask { dst, a, mask } => file[*dst as usize] = file[*a as usize] & mask,
                XOp::Not { dst, a, mask } => file[*dst as usize] = !file[*a as usize] & mask,
                XOp::Neg { dst, a, mask } => {
                    file[*dst as usize] = file[*a as usize].wrapping_neg() & mask
                }
                XOp::RedOr { dst, a } => file[*dst as usize] = u64::from(file[*a as usize] != 0),
                XOp::Add { dst, a, b, mask } => {
                    file[*dst as usize] = file[*a as usize].wrapping_add(file[*b as usize]) & mask
                }
                XOp::Sub { dst, a, b, mask } => {
                    file[*dst as usize] = file[*a as usize].wrapping_sub(file[*b as usize]) & mask
                }
                XOp::Mul { dst, a, b, mask } => {
                    file[*dst as usize] = file[*a as usize].wrapping_mul(file[*b as usize]) & mask
                }
                XOp::And { dst, a, b } => {
                    file[*dst as usize] = file[*a as usize] & file[*b as usize]
                }
                XOp::Or { dst, a, b } => {
                    file[*dst as usize] = file[*a as usize] | file[*b as usize]
                }
                XOp::Xor { dst, a, b } => {
                    file[*dst as usize] = file[*a as usize] ^ file[*b as usize]
                }
                XOp::Eq { dst, a, b } => {
                    file[*dst as usize] = u64::from(file[*a as usize] == file[*b as usize])
                }
                XOp::Ne { dst, a, b } => {
                    file[*dst as usize] = u64::from(file[*a as usize] != file[*b as usize])
                }
                XOp::Lt { dst, a, b } => {
                    file[*dst as usize] = u64::from(file[*a as usize] < file[*b as usize])
                }
                XOp::Le { dst, a, b } => {
                    file[*dst as usize] = u64::from(file[*a as usize] <= file[*b as usize])
                }
                XOp::Gt { dst, a, b } => {
                    file[*dst as usize] = u64::from(file[*a as usize] > file[*b as usize])
                }
                XOp::Ge { dst, a, b } => {
                    file[*dst as usize] = u64::from(file[*a as usize] >= file[*b as usize])
                }
                XOp::Shl { dst, a, b, mask } => {
                    file[*dst as usize] = shl_s(file[*a as usize], file[*b as usize], *mask)
                }
                XOp::Shr { dst, a, b } => {
                    file[*dst as usize] = shr_s(file[*a as usize], file[*b as usize])
                }
                XOp::Concat { dst, a, b, bw } => {
                    file[*dst as usize] = (file[*a as usize] << bw) | file[*b as usize]
                }
                XOp::Slice { dst, a, lo, mask } => {
                    file[*dst as usize] = (file[*a as usize] >> lo) & mask
                }
                XOp::Mux { dst, c, t, e } => {
                    file[*dst as usize] = if file[*c as usize] != 0 {
                        file[*t as usize]
                    } else {
                        file[*e as usize]
                    }
                }
                // A register store masks the value to the register's
                // width (`1..=64`) and writes it in the register's slot.
                XOp::StVar { var, a, w } => {
                    tick!();
                    let (r, w) = (*var as usize, *w);
                    let v = file[*a as usize] & (u64::MAX >> (64 - w));
                    obs.on_assign(*var, &Bits::from_u64(file[r], w), &Bits::from_u64(v, w));
                    file[r] = v;
                }
                XOp::AddStVar { a, b, mask, var, w } => {
                    tick!();
                    let (r, w) = (*var as usize, *w);
                    let v = file[*a as usize].wrapping_add(file[*b as usize]) & mask;
                    obs.on_assign(*var, &Bits::from_u64(file[r], w), &Bits::from_u64(v, w));
                    file[r] = v;
                }
                // Array stores mask to the declared element width inside
                // `Cells` and report whether the index was in range; one
                // that was lifts the high-water mark
                // (`MachineState::note_arr_write`, spelt out here, where
                // the file is held).
                XOp::StArr { arr, idx, a } => {
                    tick!();
                    let i = file[*idx as usize] as usize;
                    let ai = *arr as usize;
                    if state.arrays[ai].set_u64(i, file[*a as usize]) {
                        state.arr_high[ai] = state.arr_high[ai].max(i + 1);
                    }
                }
                XOp::AddStArr { a, b, w, arr, v } => {
                    tick!();
                    let sum = file[*a as usize].wrapping_add(file[*b as usize]);
                    let i = (sum & (u64::MAX >> (64 - w))) as usize;
                    let ai = *arr as usize;
                    if state.arrays[ai].set_u64(i, file[*v as usize]) {
                        state.arr_high[ai] = state.arr_high[ai].max(i + 1);
                    }
                }
                // Const-index stores are proven in bounds at compile
                // time, like the const-index loads above.
                XOp::StArrC { arr, idx, a } => {
                    tick!();
                    let (ai, i) = (*arr as usize, *idx as usize);
                    let stored = state.arrays[ai].set_u64(i, file[*a as usize]);
                    assert!(stored, "{CONST_IDX}");
                    state.arr_high[ai] = state.arr_high[ai].max(i + 1);
                }
                XOp::SliceStArrC {
                    a,
                    lo,
                    mask,
                    arr,
                    idx,
                } => {
                    tick!();
                    let (ai, i) = (*arr as usize, *idx as usize);
                    let stored = state.arrays[ai].set_u64(i, (file[*a as usize] >> lo) & mask);
                    assert!(stored, "{CONST_IDX}");
                    state.arr_high[ai] = state.arr_high[ai].max(i + 1);
                }
                // One tick per byte. A budget that runs out inside the
                // run stores the bytes before the one that found it
                // spent, and that one traps.
                XOp::StBytesC { a, lo, arr, idx, n } => {
                    let (ai, i, n) = (*arr as usize, *idx as usize, u32::from(*n));
                    let v = file[*a as usize] >> lo;
                    let Some(left) = budget.checked_sub(u64::from(n)) else {
                        let (cells, high) = (&mut state.arrays[ai], &mut state.arr_high[ai]);
                        let run = (i, n as usize, budget as usize);
                        return Err(run_out_in_a_run(
                            cells,
                            high,
                            run,
                            v,
                            &thread.name,
                            ops_executed,
                        ));
                    };
                    budget = left;
                    // The run is the word's first `n` bytes; the others
                    // are written back as they were.
                    let word = state.arrays[ai]
                        .bytes_mut()
                        .and_then(|d| d.get_mut(i..)?.first_chunk_mut::<8>())
                        .expect(CONST_IDX);
                    let others =
                        u64::from_be_bytes(*word) & u64::MAX.checked_shr(8 * n).unwrap_or(0);
                    *word = ((v << (64 - 8 * n)) | others).to_be_bytes();
                    state.arr_high[ai] = state.arr_high[ai].max(i + n as usize);
                }
                // A signal store likewise, in the signal's slot.
                XOp::StSig { sig, a, w } => {
                    tick!();
                    file[*sig as usize] = file[*a as usize] & (u64::MAX >> (64 - w));
                }
                XOp::BranchZ { c, target } => {
                    branch_unless!(file[*c as usize] != 0, target);
                }
                XOp::BrzEq { a, b, target } => {
                    branch_unless!(file[*a as usize] == file[*b as usize], target);
                }
                XOp::BrzNe { a, b, target } => {
                    branch_unless!(file[*a as usize] != file[*b as usize], target);
                }
                XOp::BrzLt { a, b, target } => {
                    branch_unless!(file[*a as usize] < file[*b as usize], target);
                }
                XOp::BrzGe { a, b, target } => {
                    branch_unless!(file[*a as usize] >= file[*b as usize], target);
                }
                XOp::Jmp { target } => {
                    tick!();
                    pc = *target as usize;
                    continue;
                }
                XOp::Pause => {
                    tick!();
                    pc += 1;
                    break None;
                }
                XOp::Label { id } => {
                    tick!();
                    obs.on_label(&thread.labels[*id as usize]);
                }
                XOp::Halt => {
                    tick!();
                    ctx.halted = true;
                    break None;
                }
                XOp::Eval { .. }
                | XOp::StVarE { .. }
                | XOp::StArrE { .. }
                | XOp::StSigE { .. }
                | XOp::Ext { .. } => break Some(op),
            }
            pc += 1;
        };
        match whole {
            // The thread paused (`pc` past the pause) or halted (`pc` at
            // the halt, or past the end).
            None => {
                ctx.pc = pc;
                *ops_executed += MAX_OPS_PER_CYCLE - budget;
                return Ok(());
            }
            Some(XOp::Eval { dst, e }) => {
                let v = eval(&thread.exprs[*e as usize], state).to_u64();
                state.words[*dst as usize] = v;
            }
            // The `St*E` terminals are the tree-walker's own stores.
            Some(XOp::StVarE { var, e }) => {
                tick!();
                state.assign(VarId(*var), &thread.exprs[*e as usize], obs);
            }
            Some(XOp::StArrE { arr, idx, e }) => {
                tick!();
                let i = state.words[*idx as usize] as usize;
                state.arr_write(ArrId(*arr), i, &thread.exprs[*e as usize]);
            }
            Some(XOp::StSigE { sig, e }) => {
                tick!();
                state.sig_write(SigId(*sig), &thread.exprs[*e as usize]);
            }
            Some(XOp::Ext { id }) => {
                tick!();
                obs.on_ext_point(*id, state);
            }
            Some(_) => unreachable!("the inner loop runs every other operation"),
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::flat::flatten;
    use crate::interp::{Env, MachineState, NullEnv, NullObserver};
    use crate::machine::{Code, Core};
    use crate::program::{ArrayBacking, ProgramBuilder, VarId};

    fn compiled(pb: &ProgramBuilder) -> Core {
        let flat = flatten(&pb.clone().build().unwrap()).unwrap();
        Core::new(Code::Compiled(compile(&flat).unwrap()))
    }

    fn both(pb: &ProgramBuilder) -> (Core, Core) {
        let flat = flatten(&pb.clone().build().unwrap()).unwrap();
        let cp = compile(&flat).unwrap();
        (
            Core::new(Code::TreeWalk(flat)),
            Core::new(Code::Compiled(cp)),
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
            assert_eq!(tw.state().regs(), cm.state().regs(), "vars diverged");
            assert_eq!(tw.state().arrays, cm.state().arrays, "arrays diverged");
            assert_eq!(tw.state().sigs(), cm.state().sigs(), "sigs diverged");
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 10);
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 0xbeef);
        assert_eq!(m.state().arr_high[0], 3, "high-water lifted by slot 2");
        assert_lockstep(&pb, 5);
    }

    #[test]
    fn wide_values_round_trip() {
        // 128/512-bit registers: every statement goes through the
        // evaluating micro-ops (`St*E`, `EvalS`).
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
        assert_eq!(tw.state().regs(), cm.state().regs());
        assert_eq!(cm.state().reg(VarId(0)).to_u64(), 0);
        assert_eq!(cm.state().reg(VarId(1)).to_u64(), 0x200);
        assert_eq!(cm.state().reg(VarId(2)).to_u64(), 0);
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
                    st.set_sig(self.1, Bits::from_u64(1, 1));
                }
            }
        }
        let mut m = compiled(&pb);
        m.run_cycles(10, &mut RaiseAt(3, ready), &mut NullObserver)
            .unwrap();
        assert_eq!(m.state().sig(done).to_u64(), 7);
        assert!(m.cycle() >= 3);
        assert!(m.state().reg(VarId(0)).to_u64() >= 6);
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
        // The loop body is one fused add-store and its jump back, so the
        // trap falls on the fused operation: its tick is the op that
        // found the budget spent, and it counts.
        let Code::Compiled(cp) = &**cm.code() else {
            unreachable!()
        };
        assert!(cp.threads[0].exec.contains(&XOp::AddStVar {
            a: 0,
            b: cp.pool_base() as Slot,
            mask: 0xff,
            var: 0,
            w: 8,
        }));
        let e1 = tw.step_cycle(&mut NullEnv, &mut NullObserver).unwrap_err();
        let e2 = cm.step_cycle(&mut NullEnv, &mut NullObserver).unwrap_err();
        assert_eq!(e1, e2, "trap messages must match");
        assert_eq!(tw.ops_executed(), MAX_OPS_PER_CYCLE + 1);
        assert_eq!(
            cm.ops_executed(),
            tw.ops_executed(),
            "op counts at the trap"
        );
    }

    #[test]
    fn budget_runs_out_inside_a_byte_run() {
        // A pause-free loop of thirteen ops: the header's branch, a
        // six-byte run of `x`, a store to `x`, four more stores and the
        // jump back. The budget leaves four ops for the last trip, so the
        // trap falls on the run's fourth byte: three bytes of the new `x`
        // are stored, the last three still hold the trip before's.
        let mut pb = ProgramBuilder::new("p");
        let x = pb.reg_init("x", 48, Bits::from_u64(0x0102_0304_0506, 48));
        let n = pb.reg("n", 8);
        let t = pb.array("t", 8, 8, ArrayBacking::BlockRam);
        let mut body: Vec<_> = (0..6u16)
            .map(|k| arr_write(t, lit(k.into(), 3), slice(var(x), 47 - 8 * k, 40 - 8 * k)))
            .collect();
        body.push(assign(x, add(var(x), lit(0x0101_0101_0101, 48))));
        body.extend((0..4).map(|_| assign(n, add(var(n), lit(1, 8)))));
        pb.thread("main", vec![forever(body)]);
        // The default pipeline, whatever `EMU_CPU_PASSES` says: the run
        // is made of the constant-index stores it leaves.
        let flat = flatten(&pb.build().unwrap()).unwrap();
        let cp = compile_with_passes(&flat, crate::opt::default_pipeline()).unwrap();
        assert!(cp.threads[0].exec.contains(&XOp::StBytesC {
            a: 0,
            lo: 0,
            arr: 0,
            idx: 0,
            n: 6,
        }));
        let mut tw = Core::new(Code::TreeWalk(flat));
        let mut cm = Core::new(Code::Compiled(cp));
        let e1 = tw.step_cycle(&mut NullEnv, &mut NullObserver).unwrap_err();
        let e2 = cm.step_cycle(&mut NullEnv, &mut NullObserver).unwrap_err();
        assert_eq!(e1, e2, "trap messages must match");
        assert_eq!(
            cm.ops_executed(),
            tw.ops_executed(),
            "op counts at the trap"
        );
        assert_eq!(
            tw.state().arrays,
            cm.state().arrays,
            "frame bytes at the trap"
        );
        assert_eq!(tw.state().arr_high, cm.state().arr_high);
        let now = cm.state().reg(VarId(0)).to_u64().to_be_bytes();
        let before = (cm.state().reg(VarId(0)).to_u64() - 0x0101_0101_0101).to_be_bytes();
        let bytes = cm.state().arrays[0].bytes().unwrap();
        assert_eq!(bytes[..3], now[2..5], "the bytes stored before the trap");
        assert_eq!(bytes[3..6], before[5..8], "the bytes the trap kept out");
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
    fn shared_doublings_number_one_slot_per_micro_op() {
        // Forty doublings, each adding two resizes of the one shared
        // node below: a hundred-odd nodes whose every-use expansion
        // would be 2^40 of them. Each node lowers once, and each scratch
        // slot is one micro-op lowering emitted.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.reg_init("a", 64, Bits::from_u64(1, 64));
        let e = (0..40).fold(var(a), |e, _| {
            let x = resize(e, 64);
            add(x.clone(), x)
        });
        pb.thread("main", vec![assign(a, e), pause(), halt()]);
        let flat = flatten(&pb.build().unwrap()).unwrap();
        for passes in [&[][..], crate::opt::default_pipeline()] {
            let cp = compile_with_passes(&flat, passes).unwrap();
            let t = &cp.threads[0];
            assert!(t.n_slots <= 120, "{passes:?}: {} slots", t.n_slots);
            let mut m = Core::new(Code::Compiled(cp));
            m.run_cycles(1, &mut NullEnv, &mut NullObserver).unwrap();
            assert_eq!(m.state().reg(VarId(0)).to_u64(), 1 << 40);
        }
        let naive = compile_with_passes(&flat, &[]).unwrap();
        // Two copies and an add per doubling, each in a slot of its own.
        let t = &naive.threads[0];
        assert_eq!(t.mops.iter().filter(|m| m.dst().is_some()).count(), 120);
        assert_eq!(t.n_slots, 120);
    }

    #[test]
    fn pretty_printer_renders_mops() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread("main", vec![assign(a, add(var(a), lit(1, 8))), halt()]);
        let cp = compile(&flatten(&pb.build().unwrap()).unwrap()).unwrap();
        let text = mops_to_string(&cp, 0);
        // The register is an operand named like itself; nothing loads it.
        assert!(text.contains("0: s0 <- a Add 0x1 & 0xff\n"), "{text}");
        assert!(text.contains("1: var a := s0\n"), "{text}");
        assert!(text.contains("halt"), "{text}");
    }
}
