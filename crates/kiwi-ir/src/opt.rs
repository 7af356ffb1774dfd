//! The micro-op optimizer.
//!
//! It runs at lowering time, between [`mod@crate::compile`]'s naive
//! per-statement lowering and the final flatten/retarget step, on
//! **regions** of `Vec<MOp>`. Lowering produces one region per source
//! [`crate::flat::Op`]; before the passes run, `widen_regions` merges
//! runs of consecutive statement regions into single *widened* regions,
//! inside which scratch slots are written exactly once before use
//! (region-local SSA, restored by slot renumbering during the merge).
//!
//! Register and signal slots are the exception. A read of a register
//! or a signal is an operand naming its own slot
//! ([`mod@crate::compile`]), and every store to it writes that slot, so
//! one such slot holds a new value after each store. The passes never
//! renumber a register or signal slot nor count it as scratch, and
//! [`ValueNumbering`](Pass::ValueNumbering), which reuses reads, numbers
//! values so that a read before a store to the slot is never taken for
//! one after: it carries no read of a register or a signal past a store
//! to it.
//!
//! # The observer-visibility analysis
//!
//! Widening is driven by what the outside world can *see or touch* at
//! each statement boundary:
//!
//! * `pause` — [`crate::interp::Env::tick`] may mutate any machine
//!   state (signals, registers, arrays), so a region always **ends**
//!   after a `PauseOp`; so does every other thread, which runs between
//!   this thread's pauses.
//! * `ext` — [`crate::interp::Observer::on_ext_point`] receives
//!   `&mut MachineState`, so `ExtOp` likewise ends a region.
//! * `jmp` / `halt` — control leaves the straight-line run.
//! * branch *targets* — a region another op jumps to must keep its own
//!   entry point, so it always starts a fresh widened region.
//!
//! Everything else is fair game to sit *inside* a widened region:
//! register/array/signal stores and labels fire observer callbacks
//! ([`crate::interp::Observer::on_assign`],
//! [`crate::interp::Observer::on_label`]) that can inspect the reported
//! values but **cannot mutate** machine state, and an interior
//! `BranchZ` only ever *exits* the region early (extra pure loads on
//! the not-taken path compute into scratch slots no one observes).
//! Terminal micro-ops are never added, removed, or reordered by any
//! pass, so the sequence of observer callbacks, op-budget ticks, and
//! trap points — the externally visible trace — is byte-identical to
//! the naive lowering's.
//!
//! Threads only interleave at pause boundaries (the executor runs each
//! thread to its next pause), so cross-thread interference cannot
//! observe mid-region state either.
//!
//! # Pipelines
//!
//! The default pipeline is [`ValueNumbering`](Pass::ValueNumbering) →
//! [`DeadScratch`](Pass::DeadScratch): one forward scan that turns an op
//! into a copy of a value some slot already holds, or a byte-field tower
//! into one load, and reads every use through the copies; then one
//! backward scan that drops every op whose slot nothing reads. An array
//! access at a literal index needs no pass: lowering emits it at its
//! constant index. Each pass is sound on its own and in either order (a
//! proptest in `tests/backend_equiv.rs` draws random subsets and
//! orders), the pipeline is a fixpoint (run twice, it compiles every
//! shipped program to the same micro-ops; `tests/pass_census.rs`), and
//! every rewrite the scan makes paid on emubench's throughput when left
//! out alone (the drop-one runs in CHANGES.md). A constant folder saved
//! at most a dozen static micro-ops per service and no throughput, so
//! there is none. The `EMU_CPU_PASSES` environment variable (see
//! `env_pipeline`) selects the pipeline for [`crate::compile::compile`];
//! `EMU_CPU_DUMP_MOPS=1` dumps the annotated listings of every compiled
//! thread to stderr.
//!
//! # Before / after
//!
//! The statement `a := resize(resize(a + 1, 16), 8)` on an 8-bit
//! register lowers naively to the listing below; the register `a` and
//! the literal `1` are slots of their own, printed as the register's
//! name and the constant's value, and no micro-op loads either:
//!
//! ```text
//!   0: s0 <- a Add 0x1 & 0xff
//!   1: s1 <- s0            // resize 8 -> 16: identity copy
//!   2: s2 <- s1 & 0xff     // resize 16 -> 8: mask
//!   3: var a := s2
//! ```
//!
//! after the pipeline the mask reads through the copy and the copy's
//! dead slot disappears:
//!
//! ```text
//!   0: s0 <- a Add 0x1 & 0xff
//!   1: s2 <- s0 & 0xff
//!   2: var a := s2
//! ```
//!
//! (each pass is individually testable — see the tests below, which
//! assert on exactly these pretty-printed listings).

use crate::ast::BinOp;
use crate::compile::{
    element, is_scratch, mask_of, reg_slot, shl_s, shr_s, sig_slot, MOp, Pool, Slot, UNSLOTTED,
};
use crate::program::Program;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// One optimization pass over the lowered regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Value numbering: one forward scan over a widened region that,
    /// for each micro-op in order,
    ///
    /// 1. **reuses a value a slot holds.** An array load of an element
    ///    an earlier load read, or an earlier store wrote, becomes a copy
    ///    of that slot; a pure op computing what an earlier one did
    ///    becomes a copy of its result. Two ops compute one value when
    ///    they share kind, immediates and operand value numbers (copies
    ///    resolved, a constant its one pool slot, a register or signal
    ///    read numbered by the stores to it before the op, commutative
    ///    operands in canonical order); a load's index is its constant or
    ///    the number of the slot holding it. A stored value is reused
    ///    only when it provably fits the element width, since stores
    ///    truncate.
    /// 2. **fuses a byte field.** A `ConcatS` whose low part is one byte
    ///    becomes one `LdBytesCS` of `n + 1` bytes when its high operand
    ///    is a constant-index load of `n` bytes (an `LdArrCS`, or an
    ///    `LdBytesCS` this step made) and its low operand the `LdArrCS`
    ///    of the next byte of the same array: the tower a big-endian
    ///    field at a fixed offset lowers to drops from `2n - 1` micro-ops
    ///    to one. The fused load reads the eight bytes from its first
    ///    index as one word, so it is formed only eight bytes or more
    ///    from the array's end, for at most eight bytes, and never after
    ///    a store into the array since either load, since it re-reads the
    ///    bytes. Fusion follows load reuse: a field every statement
    ///    re-reads is loaded once.
    /// 3. **drops what a store changes.** An array store drops every
    ///    load it may alias (at a known in-range index, only that
    ///    element's and the computed-index ones) and then offers its own
    ///    value; a register or signal store drops every reuse of its
    ///    slot, which no longer holds the stored value.
    /// 4. **reads uses through copies**, up to a store into a copy's
    ///    source register or signal, past which a use keeps the copy.
    ///    The copies themselves die in [`Pass::DeadScratch`].
    ///
    /// A pause or ext point, which hands the environment the whole
    /// state, always ends a region, so nothing is reused past one.
    ///
    /// ```text
    ///   0: s0 <- t[#2]                  0: s0 <- t[#2]
    ///   1: s1 <- s0 Add 0x1 & 0xff      1: s1 <- s0 Add 0x1 & 0xff
    ///   2: t[#3] := s1                  2: t[#3] := s1
    ///   3: s2 <- t[#3]             =>   3: s2 <- s1
    ///   4: s3 <- t[#2]                  4: s3 <- s0
    ///   5: s4 <- s3 Add 0x1 & 0xff      5: s4 <- s1
    ///   6: var a := s4                  6: var a := s1
    /// ```
    ValueNumbering,
    /// Remove producer ops whose destination slot is never read.
    DeadScratch,
}

/// The default pipeline, in order: [`Pass::DeadScratch`] goes last to
/// sweep up the copies and orphans [`Pass::ValueNumbering`] leaves.
pub fn default_pipeline() -> &'static [Pass] {
    &[Pass::ValueNumbering, Pass::DeadScratch]
}

/// Parses an `EMU_CPU_PASSES`-style pipeline spec: `default` (or
/// empty), `none`, or a comma-separated list of pass names
/// (`value_numbering`, `dead_scratch`).
pub(crate) fn parse_passes(spec: &str) -> Result<Vec<Pass>, String> {
    match spec.trim() {
        "" | "default" => return Ok(default_pipeline().to_vec()),
        "none" => return Ok(Vec::new()),
        _ => {}
    }
    spec.split(',')
        .map(|name| match name.trim() {
            "value_numbering" => Ok(Pass::ValueNumbering),
            "dead_scratch" => Ok(Pass::DeadScratch),
            other => Err(format!("unknown pass `{other}`")),
        })
        .collect()
}

/// The pipeline selected by the `EMU_CPU_PASSES` environment variable,
/// falling back to [`default_pipeline`] when unset. Panics on an
/// unrecognized value — a typo'd pipeline silently falling back would
/// invalidate a differential run.
pub(crate) fn env_pipeline() -> Vec<Pass> {
    match std::env::var("EMU_CPU_PASSES") {
        Ok(v) => parse_passes(&v).unwrap_or_else(|e| {
            panic!(
                "EMU_CPU_PASSES: {e} (accepted: `none`, `default`, or a \
                 comma-separated pass list)"
            )
        }),
        Err(_) => default_pipeline().to_vec(),
    }
}

/// Merges runs of consecutive statement regions into widened regions,
/// per the visibility rules in the module docs: a run breaks at branch
/// targets (which must keep their entry points) and after any region
/// ending in `pause`/`ext`/`jmp`/`halt`. Merged tails are drained into
/// their head (left as empty vecs so source-op indexing survives), and
/// their slots are renumbered past the head's so the merged region is
/// again written-once-before-read.
pub(crate) fn widen_regions(regions: &mut [Vec<MOp>]) {
    let n = regions.len();
    let mut is_target = vec![false; n + 1];
    for r in regions.iter() {
        for m in r {
            if let MOp::BranchZ { target, .. } | MOp::Jmp { target } = m {
                is_target[*target as usize] = true;
            }
        }
    }
    let mut head = 0usize;
    let mut off = 0u32;
    for i in 0..n {
        let barrier_after = matches!(
            regions[i].last(),
            None | Some(MOp::PauseOp | MOp::ExtOp { .. } | MOp::Jmp { .. } | MOp::HaltOp)
        );
        if i == head || is_target[i] {
            head = i;
            off = region_slots(&regions[i]);
        } else {
            let used = region_slots(&regions[i]);
            let mut moved = std::mem::take(&mut regions[i]);
            for m in &mut moved {
                if let Some(d) = m.dst_mut() {
                    *d += off;
                }
                m.uses_mut(&mut |s| {
                    if is_scratch(*s) {
                        *s += off;
                    }
                });
            }
            regions[head].extend(moved);
            off += used;
        }
        if barrier_after {
            head = i + 1;
        }
    }
}

/// Scratch-file size used by one run of micro-ops (register and pool
/// slots are not scratch).
pub(crate) fn region_slots(region: &[MOp]) -> u32 {
    let mut n = 0u32;
    for m in region {
        let mut bump = |s: Slot| {
            if is_scratch(s) {
                n = n.max(s + 1);
            }
        };
        if let Some(d) = m.dst() {
            bump(d);
        }
        m.uses(&mut bump);
    }
    n
}

/// Runs `passes` over the (widened) regions, in order. The passes read
/// constants from `pool`.
pub(crate) fn run(regions: &mut [Vec<MOp>], passes: &[Pass], prog: &Program, pool: &Pool) {
    for pass in passes {
        for region in regions.iter_mut() {
            match pass {
                Pass::ValueNumbering => value_numbering(region, prog, pool),
                Pass::DeadScratch => dead_scratch(region),
            }
        }
    }
}

/// The values a forward scan over a region sees in its slots, each as
/// one number. A scratch or pool slot holds one value (it is written
/// once, or never) and is its own number; a register or signal slot
/// holds a new value after every store to it, numbered past every slot
/// ([`UNSLOTTED`]); a copy's destination holds its source's value as of
/// the copy. Two operands with the same number hold the same value
/// wherever they are read, which is what lets the scan reuse one for the
/// other — and a read of a register or signal before a store to it
/// never has the number of a read after it.
#[derive(Default)]
struct Values {
    /// Per register or signal slot stored to so far, the number of the
    /// value its last store left.
    stored: HashMap<Slot, Slot>,
    /// Per copy destination, the slot it copied (itself read through
    /// earlier copies) and that slot's number at the copy.
    copies: HashMap<Slot, (Slot, Slot)>,
    /// Register and signal stores seen so far.
    stores: u32,
}

impl Values {
    /// The number of the value in `s` at this point of the scan.
    fn of(&self, s: Slot) -> Slot {
        match self.copies.get(&s) {
            Some(&(_, v)) => v,
            None => self.stored.get(&s).copied().unwrap_or(s),
        }
    }

    /// The slot a use of `s` reads instead: the source of the copy that
    /// filled `s`, while no store has changed that source since.
    fn source(&self, s: Slot) -> Slot {
        match self.copies.get(&s) {
            Some(&(src, v)) if self.of(src) == v => src,
            _ => s,
        }
    }

    /// The constant in `s`, when it holds a pool slot's value.
    fn constant(&self, pool: &Pool, s: Slot) -> Option<u64> {
        pool.value(self.of(s))
    }

    /// Records what `op` changes: a copy's destination, or the
    /// register or signal a store writes.
    fn note(&mut self, op: &MOp) {
        if let MOp::CopyS { dst, a } = *op {
            self.copies.insert(dst, (self.source(a), self.of(a)));
        } else if let Some(s) = stored_slot(op) {
            self.stores += 1;
            self.stored.insert(s, UNSLOTTED | self.stores);
        }
    }
}

/// The register or signal slot `op` stores to, if it is such a store.
fn stored_slot(op: &MOp) -> Option<Slot> {
    match *op {
        MOp::StVarS { var, .. } | MOp::StVarE { var, .. } => Some(reg_slot(var)),
        MOp::StSigS { sig, .. } | MOp::StSigE { sig, .. } => Some(sig_slot(sig)),
        _ => None,
    }
}

/// The array `op` stores into and the element it writes (`None`: any
/// element); `None` for an op that stores into no array, or at a known
/// index out of range, which the executor drops.
fn array_store(op: &MOp, prog: &Program, pool: &Pool, vals: &Values) -> Option<(u32, Option<u32>)> {
    match *op {
        MOp::StArrCS { arr, idx, .. } => Some((arr, Some(idx))),
        MOp::StArrS { arr, idx, .. } | MOp::StArrE { arr, idx, .. } => {
            match vals.constant(pool, idx) {
                Some(k) => Some((arr, Some(element(prog, arr, k)?))),
                None => Some((arr, None)),
            }
        }
        _ => None,
    }
}

/// What a load or a pure op computes: a kind, then up to four operand
/// value numbers ([`Values`]) and immediates. Two ops with one key
/// compute one value. A load is keyed by its array and its index: the
/// constant ([`LOAD_AT`]), or the number of the slot holding it
/// ([`LOAD_DYN`]).
type Key = (u8, u64, u64, u64, u64);

/// The kind of a load's [`Key`] at a constant index.
const LOAD_AT: u8 = 0;

/// The kind of a load's [`Key`] at a computed index.
const LOAD_DYN: u8 = 1;

/// The key of `op` and the slot it defines, when it is a load or a
/// pure op. Operand order is irrelevant for the commutative operators,
/// so their operand numbers are keyed in canonical order. `EvalS` reads
/// state and is not keyed.
fn key(op: &MOp, vals: &Values) -> Option<(Key, Slot)> {
    let n = |s: Slot| u64::from(vals.of(s));
    let key = match *op {
        MOp::LdArrCS { arr, idx, .. } => (LOAD_AT, arr.into(), idx.into(), 0, 0),
        MOp::LdArrS { arr, idx, .. } => (LOAD_DYN, arr.into(), n(idx), 0, 0),
        MOp::MaskS { a, mask, .. } => (2, n(a), mask, 0, 0),
        MOp::NotS { a, mask, .. } => (3, n(a), mask, 0, 0),
        MOp::NegS { a, mask, .. } => (4, n(a), mask, 0, 0),
        MOp::RedOrS { a, .. } => (5, n(a), 0, 0, 0),
        MOp::BinS { op, a, b, mask, .. } => {
            let (mut x, mut y) = (n(a), n(b));
            if commutes(op) && x > y {
                std::mem::swap(&mut x, &mut y);
            }
            (6, op as u64, x, y, mask)
        }
        MOp::CmpS { op, a, b, .. } => (7, op as u64, n(a), n(b), 0),
        MOp::ShlS { a, b, mask, .. } => (8, n(a), n(b), mask, 0),
        MOp::ShrS { a, b, .. } => (9, n(a), n(b), 0, 0),
        MOp::ConcatS { a, b, bw, .. } => (10, n(a), n(b), bw.into(), 0),
        MOp::SliceS { a, lo, mask, .. } => (11, n(a), lo.into(), mask, 0),
        MOp::MuxS { c, t, e, .. } => (12, n(c), n(t), n(e), 0),
        _ => return None,
    };
    Some((key, op.dst()?))
}

/// Whether `a op b` is always `b op a`.
fn commutes(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

/// Value numbering within one widened region (see
/// [`Pass::ValueNumbering`]). Sound across interior stores, labels and
/// branch exits: scratch slots are written once before use, a register
/// or signal read after a store never keys like one before it, a store
/// drops every load it may alias, and an interior `BranchZ` only ever
/// *leaves* the region — any op that executes is preceded by every
/// earlier op in the region.
fn value_numbering(region: &mut [MOp], prog: &Program, pool: &Pool) {
    // The slot holding each value computed so far, by key.
    let mut avail: HashMap<Key, Slot> = HashMap::new();
    // Per slot a constant-index load filled, the bytes it holds (array,
    // first index, count), while no store into the array has come since.
    let mut fields: HashMap<Slot, (u32, u32, u8)> = HashMap::new();
    let mut vals = Values::default();
    let mut nz = SetBits::default();
    for op in region.iter_mut() {
        // 1. Reuse a value a slot holds.
        if let Some((key, dst)) = key(op, &vals) {
            match avail.entry(key) {
                Entry::Occupied(e) => *op = MOp::CopyS { dst, a: *e.get() },
                Entry::Vacant(e) => {
                    e.insert(dst);
                }
            }
        }

        // 2. Fuse a byte field.
        if let MOp::ConcatS { dst, a, b, bw: 8 } = *op {
            let field = |s: Slot| fields.get(&vals.of(s)).copied();
            if let (Some((arr, idx, n)), Some(low)) = (field(a), field(b)) {
                if low == (arr, idx + u32::from(n), 1)
                    && n < 8
                    && element(prog, arr, u64::from(idx) + 7).is_some()
                {
                    *op = MOp::LdBytesCS {
                        dst,
                        arr,
                        idx,
                        n: n + 1,
                    };
                }
            }
        }

        // 3. What the op leaves in its slot, and what a store changes.
        if let Some(d) = op.dst() {
            nz.0.insert(d, value_mask(op, &nz, pool, &vals));
        }
        match *op {
            MOp::LdArrCS { dst, arr, idx } => {
                fields.insert(dst, (arr, idx, 1));
            }
            MOp::LdBytesCS { dst, arr, idx, n } => {
                fields.insert(dst, (arr, idx, n));
            }
            _ => {}
        }
        if let Some((arr, at)) = array_store(op, prog, pool, &vals) {
            fields.retain(|_, f| f.0 != arr);
            avail.retain(|k, _| !aliased(k, arr, at));
            if let (Some(c), MOp::StArrS { a, w, .. } | MOp::StArrCS { a, w, .. }) = (at, *op) {
                if nz.get(pool, a) & !mask_of(w) == 0 {
                    avail.insert((LOAD_AT, arr.into(), c.into(), 0, 0), a);
                }
            }
        }
        if let Some(r) = stored_slot(op) {
            avail.retain(|_, s| *s != r);
        }

        // 4. Read uses through copies, as they stood before the op's
        // own store.
        op.uses_mut(&mut |s| *s = vals.source(*s));
        vals.note(op);
    }
}

/// Whether a store into element `at` of `arr` (`None`: any element) may
/// change what the load keyed `k` read: a load at a computed index of
/// the array always, one at a constant index when it is that element.
fn aliased(k: &Key, arr: u32, at: Option<u32>) -> bool {
    k.1 == u64::from(arr)
        && match k.0 {
            LOAD_DYN => true,
            LOAD_AT => at.is_none_or(|c| k.2 == u64::from(c)),
            _ => false,
        }
}

/// Per slot, an upper bound on the bits its value can have set: a pool
/// slot's value itself, a scratch slot's as [`value_mask`] found it, and
/// all bits for a slot not seen.
#[derive(Default)]
struct SetBits(HashMap<Slot, u64>);

impl SetBits {
    fn get(&self, pool: &Pool, s: Slot) -> u64 {
        pool.value(s)
            .or_else(|| self.0.get(&s).copied())
            .unwrap_or(u64::MAX)
    }
}

/// An upper bound on the bits a slot's value can have set, used to
/// decide whether store forwarding is exact. Loads (and `EvalS`, which
/// reads state too) get `u64::MAX`: drivers may poke machine state
/// between regions, so declared widths are not trusted for values
/// *read* from state — only for values the region computes itself.
fn value_mask(op: &MOp, nz: &SetBits, pool: &Pool, vals: &Values) -> u64 {
    let g = |s: &Slot| nz.get(pool, *s);
    match op {
        MOp::CopyS { a, .. } => g(a),
        MOp::MaskS { a, mask, .. } => g(a) & mask,
        MOp::NotS { mask, .. }
        | MOp::NegS { mask, .. }
        | MOp::ShlS { mask, .. }
        | MOp::SliceS { mask, .. } => *mask,
        MOp::RedOrS { .. } | MOp::CmpS { .. } => 1,
        MOp::BinS {
            op: BinOp::And,
            a,
            b,
            ..
        } => g(a) & g(b),
        MOp::BinS {
            op: BinOp::Or | BinOp::Xor,
            a,
            b,
            ..
        } => g(a) | g(b),
        MOp::BinS { mask, .. } => *mask,
        MOp::ShrS { a, b, .. } => match vals.constant(pool, *b) {
            Some(n) => shr_s(g(a), n),
            None => smear_down(g(a)),
        },
        MOp::ConcatS { a, b, bw, .. } => shl_s(g(a), u64::from(*bw), u64::MAX) | g(b),
        MOp::MuxS { t, e, .. } => g(t) | g(e),
        _ => u64::MAX,
    }
}

/// All bits at or below the highest set bit of `m` (the bound for a
/// right shift by an unknown amount).
fn smear_down(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        u64::MAX >> m.leading_zeros()
    }
}

/// Dead scratch elimination: backward liveness within the region;
/// terminals are the roots.
fn dead_scratch(region: &mut Vec<MOp>) {
    let mut live: HashSet<Slot> = HashSet::new();
    let mut keep = vec![true; region.len()];
    for i in (0..region.len()).rev() {
        let op = &region[i];
        // Terminals define nothing and are always kept.
        if op.dst().is_some_and(|d| !live.contains(&d)) {
            keep[i] = false;
            continue;
        }
        op.uses(&mut |s| {
            live.insert(s);
        });
    }
    let mut it = keep.iter();
    region.retain(|_| *it.next().expect("keep mask sized to region"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_with_passes, mops_to_string, CompiledProgram};
    use crate::dsl::*;
    use crate::flat::flatten;
    use crate::flat::FlatProgram;
    use crate::interp::{Env, MachineState, NullEnv, NullObserver};
    use crate::machine::{Code, Core};
    use crate::program::{ArrayBacking, ProgramBuilder, VarId};
    use emu_types::Bits;

    /// Compiles `pb`'s program under the given passes.
    fn lower(pb: &ProgramBuilder, passes: &[Pass]) -> CompiledProgram {
        compile_with_passes(&flatten(&pb.clone().build().unwrap()).unwrap(), passes).unwrap()
    }

    fn treewalk(flat: FlatProgram) -> Core {
        Core::new(Code::TreeWalk(flat))
    }

    fn compiled(cp: CompiledProgram) -> Core {
        Core::new(Code::Compiled(cp))
    }

    fn listing(cp: &CompiledProgram) -> String {
        mops_to_string(cp, 0)
    }

    /// Runs the tree-walker and the fully optimized compiled backend
    /// for `cycles` and asserts identical register/array/signal state.
    fn assert_lockstep(pb: &ProgramBuilder, cycles: u64) {
        let flat = flatten(&pb.clone().build().unwrap()).unwrap();
        let mut tw = treewalk(flat);
        tw.run_cycles(cycles, &mut NullEnv, &mut NullObserver)
            .unwrap();
        let mut cm = compiled(lower(pb, default_pipeline()));
        cm.run_cycles(cycles, &mut NullEnv, &mut NullObserver)
            .unwrap();
        assert_eq!(tw.state().regs(), cm.state().regs());
        assert_eq!(tw.state().arrays, cm.state().arrays);
        assert_eq!(tw.state().sigs(), cm.state().sigs());
    }

    /// The doc-example program: `a := resize(resize(a + 1, 16), 8)`.
    fn resize_tower() -> ProgramBuilder {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![
                assign(a, resize(resize(add(var(a), lit(1, 8)), 16), 8)),
                halt(),
            ],
        );
        pb
    }

    #[test]
    fn copy_prop_bypasses_identity_resizes() {
        let naive = lower(&resize_tower(), &[]);
        let text = listing(&naive);
        assert!(text.contains("s1 <- s0\n"), "naive keeps the copy:\n{text}");
        let prop = lower(&resize_tower(), &[Pass::ValueNumbering]);
        let text = listing(&prop);
        // The mask now reads the Add's slot directly.
        assert!(text.contains("s2 <- s0 & 0xff"), "{text}");
    }

    #[test]
    fn dead_scratch_removes_orphans() {
        let prop = lower(&resize_tower(), &[Pass::ValueNumbering]);
        let n_before = prop.threads[0].mops.len();
        let full = lower(&resize_tower(), default_pipeline());
        let n_after = full.threads[0].mops.len();
        assert!(n_after < n_before, "{n_before} -> {n_after}");
        // The orphaned copy is gone; the terminal survives.
        let text = listing(&full);
        assert!(!text.contains("s1 <- s0\n"), "{text}");
        assert!(text.contains("var a :="), "{text}");
    }

    #[test]
    fn full_pipeline_preserves_semantics() {
        // The doc example end-to-end: optimized and unoptimized bytecode
        // both agree with the tree-walker.
        for passes in [&[][..], default_pipeline()] {
            let mut cm = compiled(lower(&resize_tower(), passes));
            cm.state_mut().set_reg(VarId(0), Bits::from_u64(0xfe, 8));
            cm.run_cycles(3, &mut NullEnv, &mut NullObserver).unwrap();
            assert_eq!(cm.state().reg(VarId(0)).to_u64(), 0xff);
        }
    }

    // ------------------------------------------------------------------
    // Cross-statement passes over widened regions
    // ------------------------------------------------------------------

    #[test]
    fn store_forwarding_spans_statements() {
        // `a := a + 1; b := a + 2`: the second statement reads `a`'s
        // slot, which the first statement's store has just written —
        // the stored sum, with no register load on either side.
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 8);
        pb.thread(
            "main",
            vec![
                assign(a, add(var(a), lit(1, 8))),
                assign(b, add(var(a), lit(2, 8))),
                halt(),
            ],
        );
        let text = listing(&lower(&pb, default_pipeline()));
        assert!(text.contains("1: var a := s0\n"), "{text}");
        assert!(text.contains("2: s1 <- a Add 0x2 & 0xff\n"), "{text}");
        assert_lockstep(&pb, 3);
    }

    #[test]
    fn redundant_const_array_loads_collapse() {
        // Two reads of t[2] in different statements become one LdArrCS
        // (lowering emits both at their constant index, so they unify
        // by index value).
        let mut pb = ProgramBuilder::new("p");
        let t = pb.array_init(
            "t",
            8,
            4,
            ArrayBacking::LutRam,
            vec![(2, Bits::from_u64(0x5a, 8))],
        );
        let x = pb.reg("x", 8);
        let y = pb.reg("y", 8);
        pb.thread(
            "main",
            vec![
                assign(x, arr_read(t, lit(2, 3))),
                assign(y, arr_read(t, lit(2, 3))),
                halt(),
            ],
        );
        let text = listing(&lower(&pb, default_pipeline()));
        assert_eq!(text.matches("t[#2]").count(), 1, "{text}");
        assert_eq!(text.matches("<- t[").count(), 1, "{text}");
        assert_lockstep(&pb, 3);
    }

    #[test]
    fn aliasing_array_write_blocks_reuse() {
        // A dynamic-index store between two dynamic-index loads of the
        // same array may alias them: the second load must stay.
        let mut pb = ProgramBuilder::new("p");
        let t = pb.array("t", 8, 4, ArrayBacking::LutRam);
        let i = pb.reg_init("i", 3, Bits::from_u64(1, 3));
        let x = pb.reg("x", 8);
        let y = pb.reg("y", 8);
        pb.thread(
            "main",
            vec![
                assign(x, arr_read(t, var(i))),
                arr_write(t, var(i), lit(7, 8)),
                assign(y, arr_read(t, var(i))),
                halt(),
            ],
        );
        let text = listing(&lower(&pb, default_pipeline()));
        assert_eq!(text.matches("<- t[").count(), 2, "store must kill:\n{text}");
        assert_lockstep(&pb, 3);

        // Control: without the store the loads unify through the shared
        // (copy-resolved) index slot.
        let mut pb2 = ProgramBuilder::new("p");
        let t = pb2.array("t", 8, 4, ArrayBacking::LutRam);
        let i = pb2.reg_init("i", 3, Bits::from_u64(1, 3));
        let x = pb2.reg("x", 8);
        let y = pb2.reg("y", 8);
        pb2.thread(
            "main",
            vec![
                assign(x, arr_read(t, var(i))),
                assign(y, arr_read(t, var(i))),
                halt(),
            ],
        );
        let text = listing(&lower(&pb2, default_pipeline()));
        assert_eq!(text.matches("<- t[").count(), 1, "{text}");
        assert_lockstep(&pb2, 3);
    }

    #[test]
    fn pause_blocks_cross_statement_reuse() {
        // The env can rewrite input signals at every pause, so a signal
        // read after a pause must see the new value: both reads are the
        // signal's slot, which the env writes.
        struct SigTick;
        impl Env for SigTick {
            fn tick(&mut self, cycle: u64, _prog: &Program, st: &mut MachineState) {
                st.set_sig(crate::SigId(0), Bits::from_u64(0x11 + cycle, 8));
            }
        }
        let mut pb = ProgramBuilder::new("p");
        let s = pb.sig_in("s", 8);
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 8);
        pb.thread(
            "main",
            vec![assign(a, sig(s)), pause(), assign(b, sig(s)), halt()],
        );
        let text = listing(&lower(&pb, default_pipeline()));
        assert_eq!(text.matches(" := $s\n").count(), 2, "{text}");
        let mut tw = treewalk(flatten(&pb.clone().build().unwrap()).unwrap());
        tw.run_cycles(4, &mut SigTick, &mut NullObserver).unwrap();
        let mut cm = compiled(lower(&pb, default_pipeline()));
        cm.run_cycles(4, &mut SigTick, &mut NullObserver).unwrap();
        assert_eq!(tw.state().regs(), cm.state().regs());
        assert_ne!(
            cm.state().reg(VarId(0)),
            cm.state().reg(VarId(1)),
            "tick was visible"
        );
    }

    #[test]
    fn oob_const_array_read_folds_to_zero() {
        let mut pb = ProgramBuilder::new("p");
        let t = pb.array("t", 8, 4, ArrayBacking::LutRam);
        let x = pb.reg("x", 8);
        pb.thread("main", vec![assign(x, arr_read(t, lit(9, 4))), halt()]);
        let text = listing(&lower(&pb, default_pipeline()));
        assert!(!text.contains("<- t["), "read folds away:\n{text}");
        assert_lockstep(&pb, 3);
    }

    #[test]
    fn dead_scratch_keeps_cross_statement_values() {
        // Regression for the widened DeadScratch: a slot produced under
        // one source statement and read (after redundant-load
        // forwarding) by a later statement's store must survive.
        let mut pb = ProgramBuilder::new("p");
        let x = pb.reg_init("x", 8, Bits::from_u64(0x21, 8));
        let a = pb.reg("a", 8);
        let y = pb.reg("y", 8);
        pb.thread(
            "main",
            vec![assign(a, add(var(x), lit(1, 8))), assign(y, var(a)), halt()],
        );
        let text = listing(&lower(&pb, default_pipeline()));
        // `y` takes `a` from its slot...
        assert!(text.contains("var y := a\n"), "{text}");
        // ...but the producing Add must survive for both stores.
        assert_eq!(text.matches("Add").count(), 1, "{text}");
        let mut cm = compiled(lower(&pb, default_pipeline()));
        cm.run_cycles(3, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(cm.state().reg(VarId(2)).to_u64(), 0x22);
        assert_lockstep(&pb, 3);
    }

    #[test]
    fn parse_passes_accepts_knob_forms() {
        assert_eq!(parse_passes("").unwrap(), default_pipeline().to_vec());
        assert_eq!(
            parse_passes("default").unwrap(),
            default_pipeline().to_vec()
        );
        assert_eq!(parse_passes("none").unwrap(), Vec::new());
        assert_eq!(
            parse_passes("dead_scratch, value_numbering").unwrap(),
            vec![Pass::DeadScratch, Pass::ValueNumbering]
        );
        assert!(parse_passes("value_numbering,bogus").is_err());
        // A pass that is gone is an unknown name, not a silent no-op.
        for gone in [
            "const_fold",
            "array_strength",
            "redundant_load",
            "cse",
            "fuse_pairs",
            "copy_prop",
        ] {
            let err = parse_passes(gone).unwrap_err();
            assert_eq!(err, format!("unknown pass `{gone}`"));
        }
    }

    #[test]
    fn disabled_passes_still_agree_with_treewalker() {
        // `none` still widens regions (renumbering only) — a semantics
        // no-op that must stay in lockstep.
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 8);
        pb.thread(
            "main",
            vec![
                assign(a, add(var(a), lit(1, 8))),
                assign(b, add(var(a), var(b))),
                pause(),
                assign(a, mul(var(a), lit(3, 8))),
                halt(),
            ],
        );
        let flat = flatten(&pb.clone().build().unwrap()).unwrap();
        let mut tw = treewalk(flat);
        tw.run_cycles(4, &mut NullEnv, &mut NullObserver).unwrap();
        for passes in [&[][..], default_pipeline()] {
            let mut cm = compiled(lower(&pb, passes));
            cm.run_cycles(4, &mut NullEnv, &mut NullObserver).unwrap();
            assert_eq!(tw.state().regs(), cm.state().regs(), "passes = {passes:?}");
        }
    }

    #[test]
    fn cse_merges_duplicate_computations() {
        // Two statements compute `a + 2` from `a`'s slot; value
        // numbering leaves a single Add.
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg_init("a", 8, Bits::from_u64(7, 8));
        let b = pb.reg("b", 8);
        let c = pb.reg("c", 8);
        pb.thread(
            "main",
            vec![
                assign(b, add(var(a), lit(2, 8))),
                assign(c, add(var(a), lit(2, 8))),
                halt(),
            ],
        );
        let text = listing(&lower(&pb, default_pipeline()));
        assert_eq!(text.matches("Add").count(), 1, "{text}");
        assert_lockstep(&pb, 3);
    }

    #[test]
    fn cse_canonicalizes_commutative_operands() {
        // `a + b` and `b + a` are the same value number; `a - b` and
        // `b - a` are not.
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg_init("a", 8, Bits::from_u64(9, 8));
        let b = pb.reg_init("b", 8, Bits::from_u64(4, 8));
        let x = pb.reg("x", 8);
        let y = pb.reg("y", 8);
        pb.thread(
            "main",
            vec![
                assign(x, add(var(a), var(b))),
                assign(y, add(var(b), var(a))),
                halt(),
            ],
        );
        let text = listing(&lower(&pb, default_pipeline()));
        assert_eq!(text.matches("Add").count(), 1, "{text}");
        assert_lockstep(&pb, 3);

        let mut pb2 = ProgramBuilder::new("p");
        let a = pb2.reg_init("a", 8, Bits::from_u64(9, 8));
        let b = pb2.reg_init("b", 8, Bits::from_u64(4, 8));
        let x = pb2.reg("x", 8);
        let y = pb2.reg("y", 8);
        pb2.thread(
            "main",
            vec![
                assign(x, sub(var(a), var(b))),
                assign(y, sub(var(b), var(a))),
                halt(),
            ],
        );
        let text = listing(&lower(&pb2, default_pipeline()));
        assert_eq!(text.matches("Sub").count(), 2, "{text}");
        assert_lockstep(&pb2, 3);
    }

    #[test]
    fn a_repeated_literal_is_one_pool_slot() {
        // The same literal in two statements is read from one pool slot
        // under any pipeline, and no micro-op loads it.
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg_init("a", 8, Bits::from_u64(3, 8));
        let b = pb.reg("b", 8);
        let c = pb.reg("c", 8);
        pb.thread(
            "main",
            vec![
                assign(b, add(var(a), lit(0x2d, 8))),
                assign(c, bxor(var(a), lit(0x2d, 8))),
                halt(),
            ],
        );
        for passes in [&[][..], default_pipeline()] {
            let cp = lower(&pb, passes);
            assert_eq!(cp.pool.iter().filter(|&&v| v == 0x2d).count(), 1);
            let text = listing(&cp);
            assert_eq!(text.matches(" 0x2d ").count(), 2, "{text}");
            assert_eq!(text.matches("<- 0x2d").count(), 0, "{text}");
        }
        assert_lockstep(&pb, 3);
    }

    /// A program over an 8-bit array `t` of `len` elements whose first
    /// four hold 0x12, 0x34, 0x56 and 0x78.
    fn byte_array(len: usize) -> (ProgramBuilder, crate::program::ArrId) {
        let mut pb = ProgramBuilder::new("p");
        let init = [0x12, 0x34, 0x56, 0x78].into_iter().enumerate();
        let init = init.map(|(k, v)| (k, Bits::from_u64(v, 8))).collect();
        let t = pb.array_init("t", 8, len, ArrayBacking::LutRam, init);
        (pb, t)
    }

    #[test]
    fn fuse_pairs_fuses_const_adjacent_loads() {
        // A big-endian 16-bit field read over two constant indices — two
        // loads and a concat — becomes one load of both bytes, and the
        // displaced loads die. Within eight bytes of the array's end,
        // where no word can be read, nothing fuses.
        for (len, fused) in [(16, true), (4, false)] {
            let (mut pb, t) = byte_array(len);
            let x = pb.reg("x", 16);
            let field = concat(arr_read(t, lit(2, 5)), arr_read(t, lit(3, 5)));
            pb.thread("main", vec![assign(x, field), halt()]);
            let text = listing(&lower(&pb, default_pipeline()));
            let fields = usize::from(fused);
            assert_eq!(text.matches("<- t[#2..#4]\n").count(), fields, "{text}");
            assert_eq!(text.matches("<- t[#").count(), 2 - fields, "{text}");
            assert_lockstep(&pb, 3);
        }
    }

    #[test]
    fn fuse_pairs_leaves_computed_index_pairs_alone() {
        // The Internet-checksum shape: a pair read at `(i + 2, i + 3)`
        // computed as a masked offset add plus a `+ 1` add. Only
        // constant-index pairs fuse, so both loads stay as they are.
        let (mut pb, t) = byte_array(16);
        let i = pb.reg("i", 4);
        let x = pb.reg("x", 16);
        let base = add(var(i), lit(2, 4));
        pb.thread(
            "main",
            vec![
                assign(
                    x,
                    concat(arr_read(t, base.clone()), arr_read(t, add(base, lit(1, 4)))),
                ),
                halt(),
            ],
        );
        let text = listing(&lower(&pb, default_pipeline()));
        assert_eq!(text.matches("<- t[s").count(), 2, "{text}");
        assert_eq!(text.matches("..#").count(), 0, "nothing fuses:\n{text}");
        assert_lockstep(&pb, 3);
    }

    #[test]
    fn fuse_pairs_tower_low_byte_rides_concat() {
        // A 3-byte tower: the innermost pair fuses, the last byte rides
        // its concat into one load of all three, and neither the pair
        // nor any byte load survives on its own. Within eight bytes of
        // the array's end nothing fuses.
        for (len, fused) in [(16, true), (4, false)] {
            let (mut pb, t) = byte_array(len);
            let x = pb.reg("x", 24);
            let at = |k: u64| arr_read(t, lit(k, 5));
            pb.thread(
                "main",
                vec![assign(x, concat(concat(at(0), at(1)), at(2))), halt()],
            );
            let text = listing(&lower(&pb, default_pipeline()));
            let fields = usize::from(fused);
            assert_eq!(text.matches("<- t[#0..#3]\n").count(), fields, "{text}");
            assert_eq!(text.matches("..#").count(), fields, "{text}");
            assert_eq!(text.matches("<- t[#").count(), 3 - 2 * fields, "{text}");
            assert_lockstep(&pb, 3);
            let mut cm = compiled(lower(&pb, default_pipeline()));
            cm.run_cycles(3, &mut NullEnv, &mut NullObserver).unwrap();
            assert_eq!(cm.state().reg(VarId(0)).to_u64(), 0x12_3456);
        }
    }

    #[test]
    fn store_between_loads_blocks_pair_fusion() {
        // `a := t[0]; t[1] := w; x := {t[0], t[1]}`: after widening, the
        // last statement's `t[0]` is the first statement's load,
        // forwarded past the store, which cannot alias it; `t[1]` is
        // loaded again after the store (`w` is not provably a byte, so
        // the store forwards nothing). A fused load would re-read `t[0]`
        // at the concat, after a store into its array, so the store
        // keeps the concat as it is, whatever index it hits. Without the
        // store the pair fuses on the long array, so there the store is
        // what blocks it; within eight bytes of the end nothing fuses.
        for (len, store, fused) in [(16, true, false), (16, false, true), (4, true, false)] {
            let (mut pb, t) = byte_array(len);
            let w = pb.reg_init("w", 8, Bits::from_u64(0x99, 8));
            let a = pb.reg("a", 8);
            let x = pb.reg("x", 16);
            let mut body = vec![assign(a, arr_read(t, lit(0, 5)))];
            if store {
                body.push(arr_write(t, lit(1, 5), var(w)));
            }
            let field = concat(arr_read(t, lit(0, 5)), arr_read(t, lit(1, 5)));
            body.extend([assign(x, field), halt()]);
            pb.thread("main", body);
            let text = listing(&lower(&pb, default_pipeline()));
            let fields = usize::from(fused);
            assert_eq!(text.matches("<- t[#0..#2]\n").count(), fields, "{text}");
            assert_eq!(text.matches("..#").count(), fields, "{text}");
            assert_lockstep(&pb, 5);
            // x sees the stored low byte.
            let mut cm = compiled(lower(&pb, default_pipeline()));
            cm.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
            let low = if store { 0x99 } else { 0x34 };
            assert_eq!(cm.state().reg(VarId(2)).to_u64(), 0x1200 | low);
        }
    }
}
