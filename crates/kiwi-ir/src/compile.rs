//! The compiled software backend: lowering [`FlatThread`] op streams to a
//! register-based micro-op bytecode executed by a tight, non-recursive
//! loop.
//!
//! The tree-walking interpreter in [`crate::interp`] is the *reference*
//! software semantics: simple, obviously faithful to [`crate::ast`], and
//! slow — it re-decodes the same `Expr` nodes every frame, builds a
//! [`Bits`] at every node, and re-resolves widths on every binary op.
//! This module trades that tree for a **pre-decoded linear program** of
//! 30 micro-ops ([`MOp`]) over one file of `u64` slots:
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
//! [`crate::opt`] rewrites, what `EMU_CPU_DUMP_MOPS` lists and what
//! `tests/pass_census.rs` counts. It is not what runs. Once per image,
//! after the passes and the slot layout, each thread's final micro-ops
//! are lowered once more, into an execution encoding held beside them
//! ([`CompiledThread`]'s `exec`), and the executor runs only that.
//! It differs from the micro-ops in three ways:
//!
//! * **One variant per operator.** `BinS` and `CmpS` carry a [`BinOp`];
//!   the encoding has `Add`, `Sub`, …, `Eq`, `Lt`, …, so the executor
//!   matches once per operation, not once more on the operator.
//! * **Three fused adjacent pairs.** A `SliceS` stored by a `StArrCS`,
//!   a `CmpS` tested by a `BranchZ` (for the compares that occur: `==`,
//!   `!=`, `<` and `>=`) and an add `BinS` stored by a `StVarS` each run
//!   as one operation, which leaves the first one's slot unwritten. So a
//!   pair fuses only when its terminal is the slot's only read in its
//!   region, both lie in one region, and no branch lands between them.
//!   The fused operation ticks the op budget once, where its terminal
//!   stood. They are the most frequent adjacent pairs of memcached's
//!   dynamic micro-op stream.
//! * **The op count in a register.** The budget left is the thread's
//!   op count, added to the instance's only where the thread leaves the
//!   executor: at a pause, a halt, the end of its code or a trap. The
//!   tree-walker keeps the same rule.
//!
//! The fused forms live only in the encoding because they are a fact
//! about dispatch, not about values: a pass would have to treat each one
//! as two micro-ops, and the listings, the census and the pinned listing
//! digests would describe what a pass never sees. Each part pays on
//! emubench's `l7-memcached`; CHANGES.md has the drop-one measurements.
//!
//! # Registers, signals, scratch and constant pool
//!
//! The slot file is the [`MachineState`]'s word file, in four parts:
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
//!   lowers to its pool slot and nothing else; the one value a pass
//!   folds (an out-of-range constant-index read, to zero) becomes a
//!   copy of the zero's pool slot, which copy propagation and
//!   dead-scratch elimination then remove.
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
//! Lowering feeds the pass pipeline in [`crate::opt`] (array-access
//! strength reduction, redundant-load and common-subexpression
//! elimination, constant-index pair fusion, copy propagation, dead
//! scratch elimination) before the bytecode is frozen
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
pub type Slot = u32;

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
    s & POOL != 0
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

    /// The value of pool slot `s`; `None` for a scratch slot.
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
    /// Produced by [`ArrayStrength`](crate::opt::Pass::ArrayStrength):
    /// the read of the index slot disappears.
    LdArrCS {
        /// Destination slot.
        dst: Slot,
        /// Array index.
        arr: u32,
        /// Constant element index, proven in bounds at compile time.
        idx: u32,
    },
    /// Fused read of two adjacent array elements at compile-time-
    /// constant indices: `dst = (a[idx] << bw) | a[idx + 1]`, both
    /// indices proven in bounds at compile time. Produced by
    /// [`FusePairs`](crate::opt::Pass::FusePairs) from a `ConcatS` of
    /// two such loads.
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
    /// Slot-to-slot move (identity resize; fodder for copy propagation).
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
            | LdArrPairCS { .. }
            | EvalS { .. }
            | StVarE { .. }
            | StSigE { .. }
            | Jmp { .. }
            | PauseOp
            | LabelOp { .. }
            | ExtOp { .. }
            | HaltOp => {}
            LdArrS { idx, .. } | StArrE { idx, .. } => f(idx),
            ConcatLdCS { a, .. }
            | CopyS { a, .. }
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
    /// [`crate::opt`] uses it to shift whole slot ranges.
    pub(crate) fn dst_mut(&mut self) -> Option<&mut Slot> {
        use MOp::*;
        match self {
            LdArrS { dst, .. }
            | LdArrCS { dst, .. }
            | LdArrPairCS { dst, .. }
            | ConcatLdCS { dst, .. }
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

    /// The first scratch slot: the registers and then the signals lie
    /// below it, one slot each.
    pub fn scratch_base(&self) -> usize {
        self.sig_base() + self.prog.signals().len()
    }

    /// The first pool slot: every thread's scratch lies below it.
    pub fn pool_base(&self) -> usize {
        self.scratch_base() + self.threads.iter().map(|t| t.n_slots).max().unwrap_or(0)
    }

    /// Extends a running copy's word file, which holds its registers and
    /// signals, to the whole slot file: the scratch (zero), then the
    /// pool, which no micro-op writes.
    pub(crate) fn extend_file(&self, words: &mut Vec<u64>) {
        debug_assert_eq!(
            words.len(),
            self.scratch_base(),
            "one word per register and per signal"
        );
        words.resize(self.pool_base(), 0);
        words.extend_from_slice(&self.pool);
    }
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
    // them, every thread's scratch above those, and the pool above that,
    // keeping only the constants a micro-op still reads, in order of
    // first use.
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
        t.exec = encode(t, scratch);
    }
    if std::env::var("EMU_CPU_DUMP_MOPS").is_ok_and(|v| !v.is_empty()) {
        for ti in 0..cp.threads.len() {
            eprintln!("{}", mops_to_string(&cp, ti));
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
                let idx = operand(self, idx)?.slot;
                let (dst, arr) = (self.s(), a.0);
                (ew, MOp::LdArrS { dst, arr, idx })
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
                let m = if v.w <= 64 {
                    let a = v.slot;
                    MOp::StArrS { arr, idx, a, w }
                } else {
                    let e = self.side(val.clone());
                    MOp::StArrE { arr, idx, e }
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
/// in [`crate::opt`] assert against.
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
        s if s < scratch => format!("${}", sig((s - sigs) as u32)),
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
            MOp::LdArrPairCS {
                dst,
                arr: a,
                idx,
                bw,
            } => {
                let n = arr(*a);
                format!("{} <- {{{n}[#{idx}], {n}[#{}]:u{bw}}}", o(dst), idx + 1)
            }
            MOp::ConcatLdCS {
                dst,
                a: hi,
                arr: a,
                idx,
                bw,
            } => format!("{} <- {{{}, {}[#{idx}]:u{bw}}}", o(dst), o(hi), arr(*a)),
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
    /// [`MOp::LdArrPairCS`].
    LdArrPairC { dst: Slot, arr: u32, idx: u32, bw: u16 },
    /// [`MOp::ConcatLdCS`].
    ConcatLdC { dst: Slot, a: Slot, arr: u32, idx: u32, bw: u16 },
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
}

impl XOp {
    /// The one-for-one encoding of `m`.
    fn of(m: MOp) -> XOp {
        match m {
            MOp::LdArrS { dst, arr, idx } => XOp::LdArr { dst, arr, idx },
            MOp::LdArrCS { dst, arr, idx } => XOp::LdArrC { dst, arr, idx },
            MOp::LdArrPairCS { dst, arr, idx, bw } => XOp::LdArrPairC { dst, arr, idx, bw },
            MOp::ConcatLdCS {
                dst,
                a,
                arr,
                idx,
                bw,
            } => XOp::ConcatLdC {
                dst,
                a,
                arr,
                idx,
                bw,
            },
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

    /// The fused form of the adjacent pair `first`, `then`, when there is
    /// one: `then` is the terminal that reads `first`'s slot, and no other
    /// micro-op of the region reads it (`sole_read`), so the slot need not
    /// be written.
    fn fused(first: MOp, then: MOp, sole_read: impl Fn(Slot) -> bool) -> Option<XOp> {
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

/// Lowers thread `t`'s laid-out micro-ops (scratch from slot `scratch`
/// up) to the execution encoding, once per image and in time linear in
/// the thread: one operation per micro-op, but an adjacent pair of
/// [`XOp::fused`] becomes one when
///
/// * both lie in one region (scratch is numbered per region), so no
///   branch lands on the second: every branch target starts a region,
///   since the widening merges no statement a branch lands on; and
/// * the pair's terminal is the only read of the first one's slot in
///   the region, counted once per region.
///
/// A fused operation runs where its terminal stood, so it ticks the
/// budget once, there. Branch targets are renumbered to the encoding.
fn encode(t: &CompiledThread, scratch: Slot) -> Vec<XOp> {
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
            at[i] = out.len() as u32;
            let sole_read = |s: Slot| scratch_index(s).is_some_and(|k| reads[k] == 1);
            let fused = if i + 1 < end {
                XOp::fused(mops[i], mops[i + 1], sole_read)
            } else {
                None
            };
            if let Some(x) = fused {
                at[i + 1] = out.len() as u32;
                out.push(x);
                i += 2;
            } else {
                out.push(XOp::of(mops[i]));
                i += 1;
            }
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
                XOp::LdArrPairC { dst, arr, idx, bw } => {
                    let a = &state.arrays[*arr as usize];
                    let i = *idx as usize;
                    let hi = a.get_u64(i).expect(CONST_IDX);
                    let lo = a.get_u64(i + 1).expect(CONST_IDX);
                    file[*dst as usize] = (hi << bw) | lo;
                }
                XOp::ConcatLdC {
                    dst,
                    a,
                    arr,
                    idx,
                    bw,
                } => {
                    let lo = state.arrays[*arr as usize]
                        .get_u64(*idx as usize)
                        .expect(CONST_IDX);
                    file[*dst as usize] = (file[*a as usize] << bw) | lo;
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
