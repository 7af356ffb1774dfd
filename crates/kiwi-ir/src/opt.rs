//! The micro-op optimization pass pipeline.
//!
//! Passes run at lowering time, between [`mod@crate::compile`]'s naive
//! per-statement lowering and the final flatten/retarget step. They
//! operate on **regions** of `Vec<MOp>`. Lowering produces one region
//! per source [`crate::flat::Op`]; before the passes run,
//! `widen_regions` merges runs of consecutive statement regions into
//! single *widened* regions, inside which scratch slots are written
//! exactly once before use (region-local SSA, restored by slot
//! renumbering during the merge).
//!
//! Register and signal slots are the exception. A read of a register
//! or a signal is an operand naming its own slot
//! ([`mod@crate::compile`]), and every store to it writes that slot, so
//! one such slot holds a new value after each store. The passes never
//! renumber a register or signal slot nor count it as scratch, and the
//! ones that reuse a read — [`Cse`](Pass::Cse),
//! [`CopyProp`](Pass::CopyProp), and
//! [`RedundantLoad`](Pass::RedundantLoad) for what it forwards — number
//! values so that a read before a store to the slot is never taken for
//! one after: no pass carries a read of a register or a signal past a
//! store to it.
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
//! The default pipeline is
//! [`ArrayStrength`](Pass::ArrayStrength) →
//! [`RedundantLoad`](Pass::RedundantLoad) → [`Cse`](Pass::Cse) →
//! [`FusePairs`](Pass::FusePairs) → [`CopyProp`](Pass::CopyProp) →
//! [`DeadScratch`](Pass::DeadScratch).
//! Every pass is sound on its own and in any order (a proptest in
//! `tests/backend_equiv.rs` draws random subsets and orders), and each
//! one stays because it pays: removing it changes the bytecode of a
//! shipped service (`tests/pass_census.rs` fails otherwise), and
//! removing it costs throughput. Measured on emubench's `l7-memcached`
//! (seed `0xe11b`, 5 s runs, alternating sides, a 2-vCPU host), the
//! median `ops_per_s` against the default pipeline falls by 17.4 %
//! without `DeadScratch`, 15.2 % without `ArrayStrength`, 6.8 % without
//! `Cse`, 4.9 % without `CopyProp`, 4.4 % without `RedundantLoad` and
//! 2.0 % without `FusePairs` (5.6 % on `min64-switch`), and by 21.0 %
//! with no pass at all. A constant folder saved at most a dozen static
//! micro-ops per service and no throughput there, so there is none. The
//! `EMU_CPU_PASSES` environment variable (see `env_pipeline`) selects
//! the pipeline for [`crate::compile::compile`]; `EMU_CPU_DUMP_MOPS=1`
//! dumps the annotated listings of every compiled thread to stderr.
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
//! after the pipeline the copy is propagated and its dead slot
//! disappears:
//!
//! ```text
//!   0: s0 <- a Add 0x1 & 0xff
//!   1: s2 <- s0 & 0xff
//!   2: var a := s2
//! ```
//!
//! (each pass is individually testable — see the tests below, which
//! assert on exactly these pretty-printed listings; each `Pass` variant
//! documents its own before/after).

use crate::ast::BinOp;
use crate::compile::{
    is_scratch, mask_of, reg_slot, shl_s, shr_s, sig_slot, MOp, Pool, Slot, UNSLOTTED,
};
use crate::program::Program;
use std::collections::{HashMap, HashSet};

/// One optimization pass over the lowered regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Array-access strength reduction: an element access whose index
    /// is a known constant becomes a direct `LdArrCS` (or `StArrCS`)
    /// with the bounds check discharged at compile time. An
    /// out-of-range constant *read* folds to the architectural zero; an
    /// out-of-range constant *store* is left dynamic — it is a terminal
    /// (it ticks the op budget) whose only effect is being dropped,
    /// which the executor's bounds check already provides.
    ///
    /// ```text
    ///   0: s0 <- t[0x2]      =>   0: s0 <- t[#2]
    ///   1: t[0x2] := s0           1: t[#2] := s0
    /// ```
    ArrayStrength,
    /// Redundant-load/store elimination across the statements of a
    /// widened region: a second read of the same array element becomes
    /// a copy of the first, and a read following a store forwards the
    /// stored slot (when the stored value provably fits the declared
    /// width). Stores, pauses, and ext points invalidate exactly what
    /// they can touch; a register or signal store drops every forward of
    /// that register's or signal's slot. Registers and signals need
    /// neither rewrite: their reads are their slots, which after a store
    /// hold the stored value.
    ///
    /// ```text
    ///   0: s0 <- t[#2]              0: s0 <- t[#2]
    ///   1: s1 <- s0 Add 0x1 & 0xff  1: s1 <- s0 Add 0x1 & 0xff
    ///   2: t[#3] := s1         =>   2: t[#3] := s1
    ///   3: s2 <- t[#3]              3: s2 <- s1
    ///   4: s3 <- t[#2]              4: s3 <- s0
    /// ```
    RedundantLoad,
    /// Local value numbering over the pure micro-ops of a widened
    /// region: an op recomputing a value an earlier op already produced
    /// (same opcode, same copy-resolved operands, commutative operand
    /// order canonicalized) becomes a copy of the earlier result; a
    /// constant operand is its one pool slot, and a register or signal
    /// operand is numbered by the stores to it before the op, so `x + y`
    /// after a store to `x` is a new value. Loads are deliberately *not*
    /// value-numbered — [`Pass::RedundantLoad`] owns them, with the
    /// store-invalidation logic that makes them sound.
    ///
    /// ```text
    ///   0: s2 <- s0 Add s1 & 0xffff   0: s2 <- s0 Add s1 & 0xffff
    ///   1: var a := s2                1: var a := s2
    ///   2: s3 <- s1 Add s0 & 0xffff   2: s3 <- s2
    ///   3: ...                   =>   3: ...
    /// ```
    Cse,
    /// Byte-field fusion, at constant indices only: a `ConcatS` whose
    /// low part is one byte becomes one `LdBytesCS` of `n + 1` bytes when
    /// its high operand is a constant-index load of `n` bytes (an
    /// `LdArrCS` [`Pass::ArrayStrength`] made, or an `LdBytesCS` this pass
    /// made) and its low operand the `LdArrCS` of the next byte of the
    /// same array. This is the tower every big-endian header field at a
    /// fixed offset lowers to: an `n`-byte field drops from `2n - 1`
    /// micro-ops to one. The displaced loads and the tower's inner steps
    /// die in [`Pass::DeadScratch`] when nothing else reads them; one that
    /// is read again stays a load of its own. The fused load reads the
    /// eight bytes from its first index as one word, so it is formed only
    /// eight bytes or more from the array's end, and for at most eight
    /// bytes. A store into the array between a fused load and the concat
    /// blocks the fusion, since the fused op re-reads the bytes. Loads at
    /// a computed index, and a concat whose high part is no such load,
    /// are left as they are.
    ///
    /// ```text
    ///   0: s0 <- frame[#12]            0: s0 <- frame[#12]
    ///   1: s1 <- frame[#13]       =>   1: s1 <- frame[#13]
    ///   2: s2 <- {s0, s1:u8}           2: s2 <- frame[#12..#14]
    ///                                     // 0-1 die when otherwise unread
    /// ```
    FusePairs,
    /// Rewrite uses of `CopyS` destinations to their sources (the
    /// copies themselves die in [`Pass::DeadScratch`]) — up to a store
    /// into a source register or signal, past which a use keeps the
    /// copy.
    CopyProp,
    /// Remove producer ops whose destination slot is never read.
    DeadScratch,
}

/// The default pipeline, in order. `ArrayStrength` goes first so
/// constant-index accesses reach `RedundantLoad` as such and unify by
/// index value; `Cse` runs after `RedundantLoad` so loads it unified
/// feed value numbering as one slot; `FusePairs` fuses the
/// constant-index loads `ArrayStrength` made; `CopyProp` and
/// `DeadScratch` go last to sweep up the copies and orphans the others
/// leave behind. Each pass stays because it pays (see the module docs).
pub fn default_pipeline() -> &'static [Pass] {
    &[
        Pass::ArrayStrength,
        Pass::RedundantLoad,
        Pass::Cse,
        Pass::FusePairs,
        Pass::CopyProp,
        Pass::DeadScratch,
    ]
}

/// Parses an `EMU_CPU_PASSES`-style pipeline spec: `default` (or
/// empty), `none`, or a comma-separated list of pass names
/// (`array_strength`, `redundant_load`, `cse`, `fuse_pairs`,
/// `copy_prop`, `dead_scratch`).
pub(crate) fn parse_passes(spec: &str) -> Result<Vec<Pass>, String> {
    match spec.trim() {
        "" | "default" => return Ok(default_pipeline().to_vec()),
        "none" => return Ok(Vec::new()),
        _ => {}
    }
    spec.split(',')
        .map(|name| match name.trim() {
            "array_strength" => Ok(Pass::ArrayStrength),
            "redundant_load" => Ok(Pass::RedundantLoad),
            "cse" => Ok(Pass::Cse),
            "fuse_pairs" => Ok(Pass::FusePairs),
            "copy_prop" => Ok(Pass::CopyProp),
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
/// constants from `pool`; `ArrayStrength` adds the zero it folds an
/// out-of-range read to.
pub(crate) fn run(regions: &mut [Vec<MOp>], passes: &[Pass], prog: &Program, pool: &mut Pool) {
    for pass in passes {
        for region in regions.iter_mut() {
            match pass {
                Pass::ArrayStrength => array_strength(region, prog, pool),
                Pass::RedundantLoad => redundant_load(region, prog, pool),
                Pass::Cse => cse(region),
                Pass::FusePairs => fuse_pairs(region, prog),
                Pass::CopyProp => copy_prop(region),
                Pass::DeadScratch => dead_scratch(region),
            }
        }
    }
}

/// The constants a forward scan over a region knows: every pool slot,
/// and each scratch slot an earlier copy filled from a known constant.
#[derive(Default)]
struct Consts(HashMap<Slot, u64>);

impl Consts {
    fn get(&self, pool: &Pool, s: Slot) -> Option<u64> {
        pool.value(s).or_else(|| self.0.get(&s).copied())
    }

    /// Records the constant `op` leaves in its destination, if it copies
    /// one.
    fn note(&mut self, pool: &Pool, op: &MOp) {
        if let MOp::CopyS { dst, a } = *op {
            if let Some(v) = self.get(pool, a) {
                self.0.insert(dst, v);
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
/// wherever they are read, which is what lets a pass reuse one for the
/// other — and a read of a register or signal before a store to it
/// never has the number of a read after it.
#[derive(Default)]
struct Values {
    /// Per register or signal slot stored to so far, the number of the
    /// value its last store left.
    stored: HashMap<Slot, Slot>,
    /// Per copy destination, the number of the value it copied.
    copies: HashMap<Slot, Slot>,
    /// Register and signal stores seen so far.
    stores: u32,
}

impl Values {
    /// The number of the value in `s` at this point of the scan.
    fn of(&self, s: Slot) -> Slot {
        let known = self.copies.get(&s).or_else(|| self.stored.get(&s));
        known.copied().unwrap_or(s)
    }

    /// Records what `op` changes: a copy's destination, or the
    /// register or signal a store writes.
    fn note(&mut self, op: &MOp) {
        if let MOp::CopyS { dst, a } = *op {
            let v = self.of(a);
            self.copies.insert(dst, v);
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

/// Array-access strength reduction: loads and stores with constant
/// in-range indices become direct `LdArrCS`/`StArrCS` (bounds
/// discharged at compile time); an out-of-range constant load folds to
/// the architectural zero. Out-of-range constant stores stay dynamic:
/// they are terminals, so they must keep ticking the op budget, and the
/// executor's bounds check drops them exactly as before.
fn array_strength(region: &mut [MOp], prog: &Program, pool: &mut Pool) {
    let mut consts = Consts::default();
    let in_range = |prog: &Program, arr: u32, c: u64| {
        c < arr_len(prog, arr) as u64 && c <= u64::from(u32::MAX)
    };
    for op in region.iter_mut() {
        let rep = match &*op {
            MOp::LdArrS { dst, arr, idx } => consts.get(pool, *idx).map(|c| {
                if in_range(prog, *arr, c) {
                    MOp::LdArrCS {
                        dst: *dst,
                        arr: *arr,
                        idx: c as u32,
                    }
                } else {
                    MOp::CopyS {
                        dst: *dst,
                        a: pool.slot(0),
                    }
                }
            }),
            MOp::StArrS { arr, idx, a, w } => match consts.get(pool, *idx) {
                Some(c) if in_range(prog, *arr, c) => Some(MOp::StArrCS {
                    arr: *arr,
                    idx: c as u32,
                    a: *a,
                    w: *w,
                }),
                _ => None,
            },
            _ => None,
        };
        if let Some(r) = rep {
            *op = r;
        }
        consts.note(pool, op);
    }
}

fn arr_len(prog: &Program, arr: u32) -> usize {
    prog.arrays().get(arr as usize).map_or(0, |d| d.len)
}

/// How an array-load caches in the availability maps: by constant index
/// value, or by the number ([`Values`]) of the value holding a dynamic
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum IdxKey {
    Const(u32),
    Dyn(Slot),
}

/// Redundant-load/store elimination within one widened region (see
/// [`Pass::RedundantLoad`]). Forward scan over availability maps; a
/// store invalidates exactly the locations it can alias, then forwards
/// its own value when it provably fits the declared width (stores
/// truncate, so forwarding a slot with bits beyond it would disagree
/// with a reload). A register or signal store drops every entry that
/// forwards its own slot, which no longer holds the value stored from
/// it. `pause`/`ext` hand the environment a mutable view of all machine
/// state and clear everything.
fn redundant_load(region: &mut [MOp], prog: &Program, pool: &Pool) {
    let mut arr_s: HashMap<(u32, IdxKey), Slot> = HashMap::new();
    // Known possibly-set bits per slot (for store forwarding), known
    // constants, and value numbers (for index resolution).
    let mut nz = SetBits::default();
    let mut consts = Consts::default();
    let mut vals = Values::default();
    let fits = |nz: &SetBits, a: Slot, w: u16| nz.get(pool, a) & !mask_of(w) == 0;

    for op in region.iter_mut() {
        // 1. Replace loads whose value is already in a slot.
        let rep = match &*op {
            MOp::LdArrCS { dst, arr, idx } => arr_s
                .get(&(*arr, IdxKey::Const(*idx)))
                .map(|&a| MOp::CopyS { dst: *dst, a }),
            MOp::LdArrS { dst, arr, idx } => arr_s
                .get(&(*arr, IdxKey::Dyn(vals.of(*idx))))
                .map(|&a| MOp::CopyS { dst: *dst, a }),
            _ => None,
        };
        if let Some(r) = rep {
            *op = r;
        }

        // 2. Value bookkeeping for the (possibly rewritten) op.
        if let Some(d) = op.dst() {
            let m = value_mask(op, &nz, pool, &consts);
            nz.0.insert(d, m);
        }
        vals.note(op);
        consts.note(pool, op);

        // 3. Availability and invalidation.
        match &*op {
            MOp::LdArrCS { dst, arr, idx } => {
                arr_s.insert((*arr, IdxKey::Const(*idx)), *dst);
            }
            MOp::LdArrS { dst, arr, idx } => {
                arr_s.insert((*arr, IdxKey::Dyn(vals.of(*idx))), *dst);
            }
            // A store kills what it may alias, then forwards its own
            // slot when it has one (the `St*E` terminals store a value
            // no slot holds).
            MOp::StVarS { .. } | MOp::StVarE { .. } | MOp::StSigS { .. } | MOp::StSigE { .. } => {
                let r = stored_slot(op);
                arr_s.retain(|_, s| Some(*s) != r);
            }
            MOp::StArrS { arr, idx, .. } | MOp::StArrE { arr, idx, .. } => {
                match consts.get(pool, *idx) {
                    Some(c) if c < arr_len(prog, *arr) as u64 && c <= u64::from(u32::MAX) => {
                        invalidate_arr(&mut arr_s, *arr, Some(c as u32));
                        if let MOp::StArrS { a, w, .. } = &*op {
                            if fits(&nz, *a, *w) {
                                arr_s.insert((*arr, IdxKey::Const(c as u32)), *a);
                            }
                        }
                    }
                    // Constant out-of-range store: the executor drops
                    // it, so nothing it could alias changes.
                    Some(_) => {}
                    None => invalidate_arr(&mut arr_s, *arr, None),
                }
            }
            // Const-index stores (from ArrayStrength) are in range by
            // construction: invalidate and forward like an in-range
            // StArrS with a known index.
            MOp::StArrCS { arr, idx, a, w } => {
                invalidate_arr(&mut arr_s, *arr, Some(*idx));
                if fits(&nz, *a, *w) {
                    arr_s.insert((*arr, IdxKey::Const(*idx)), *a);
                }
            }
            MOp::PauseOp | MOp::ExtOp { .. } => arr_s.clear(),
            _ => {}
        }
    }
}

/// Drops availability entries a store to `arr` may alias: with a known
/// in-range index `Some(c)`, every dynamic-index entry plus the entry
/// for `c` itself (other constant indices cannot alias); with an
/// unknown index, everything for the array.
fn invalidate_arr(arr_s: &mut HashMap<(u32, IdxKey), Slot>, arr: u32, known_idx: Option<u32>) {
    let stale = |k: &(u32, IdxKey)| {
        k.0 == arr
            && match (known_idx, k.1) {
                (Some(c), IdxKey::Const(c2)) => c2 == c,
                (Some(_), IdxKey::Dyn(_)) | (None, _) => true,
            }
    };
    arr_s.retain(|k, _| !stale(k));
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
fn value_mask(op: &MOp, nz: &SetBits, pool: &Pool, consts: &Consts) -> u64 {
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
        MOp::ShrS { a, b, .. } => match consts.get(pool, *b) {
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

/// Operand order is irrelevant for these, so [`Pass::Cse`] sorts the
/// copy-resolved operand pair into a canonical order before keying.
fn commutes(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

/// Local value numbering within one widened region (see [`Pass::Cse`]).
/// Forward scan: each pure op is keyed on a kind discriminant plus its
/// operands' value numbers ([`Values`]: copies resolved, a constant its
/// one pool slot, a register or signal read numbered by the stores
/// before it) and immediates; a key hit rewrites the op to a copy of the
/// first computation's slot. Sound across interior stores, labels, and
/// branch exits because scratch slots are written once before use, a
/// register or signal read after a store never keys like one before it,
/// and an interior
/// `BranchZ` only ever *leaves* the region — any op that executes is
/// preceded by every earlier op in the region. Loads and `EvalS` read
/// machine state and are left alone.
fn cse(region: &mut [MOp]) {
    // kind discriminant + up to four packed operand/immediate words.
    type Key = (u8, u64, u64, u64, u64);
    let mut avail: HashMap<Key, Slot> = HashMap::new();
    let mut vals = Values::default();
    for op in region.iter_mut() {
        let rs = |s: &Slot| u64::from(vals.of(*s));
        let keyed: Option<(Key, Slot)> = match &*op {
            MOp::MaskS { dst, a, mask } => Some(((1, rs(a), *mask, 0, 0), *dst)),
            MOp::NotS { dst, a, mask } => Some(((2, rs(a), *mask, 0, 0), *dst)),
            MOp::NegS { dst, a, mask } => Some(((3, rs(a), *mask, 0, 0), *dst)),
            MOp::RedOrS { dst, a } => Some(((4, rs(a), 0, 0, 0), *dst)),
            MOp::BinS {
                dst,
                op: bop,
                a,
                b,
                mask,
            } => {
                let (mut x, mut y) = (rs(a), rs(b));
                if commutes(*bop) && x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                Some(((5, *bop as u64, x, y, *mask), *dst))
            }
            MOp::CmpS { dst, op: cop, a, b } => Some(((6, *cop as u64, rs(a), rs(b), 0), *dst)),
            MOp::ShlS { dst, a, b, mask } => Some(((7, rs(a), rs(b), *mask, 0), *dst)),
            MOp::ShrS { dst, a, b } => Some(((8, rs(a), rs(b), 0, 0), *dst)),
            MOp::ConcatS { dst, a, b, bw } => Some(((9, rs(a), rs(b), u64::from(*bw), 0), *dst)),
            MOp::SliceS { dst, a, lo, mask } => Some(((10, rs(a), u64::from(*lo), *mask, 0), *dst)),
            MOp::MuxS { dst, c, t, e } => Some(((11, rs(c), rs(t), rs(e), 0), *dst)),
            _ => None,
        };
        if let Some((key, dst)) = keyed {
            if let Some(&prev) = avail.get(&key) {
                *op = MOp::CopyS { dst, a: prev };
            } else {
                avail.insert(key, dst);
            }
        }
        vals.note(op);
    }
}

/// Byte-field fusion (see [`Pass::FusePairs`]). Forward scan recording
/// the defining op of every value ([`Values`]) and the last store into
/// each array; a `ConcatS` of a byte load onto the load of the bytes just
/// before it becomes one load of them all. Safety is re-read
/// equivalence: the fused op samples the bytes at the concat site, so a
/// store into the array after either load keeps the concat as it is. (A
/// pause or ext point, which hands the environment the whole state,
/// always ends a region, so no concat follows one.)
fn fuse_pairs(region: &mut [MOp], prog: &Program) {
    let mut def: HashMap<Slot, usize> = HashMap::new();
    let mut vals = Values::default();
    let mut dirty: HashMap<u32, usize> = HashMap::new();
    for p in 0..region.len() {
        if let MOp::ConcatS { dst, a, b, bw: 8 } = region[p] {
            // The constant-index load of `n` bytes that defined `s`, with
            // no store into its array since. A load an 8-bit low part
            // reads is of an array stored as bytes.
            let load = |s: Slot| {
                let q = *def.get(&vals.of(s))?;
                let (arr, idx, n) = match region[q] {
                    MOp::LdArrCS { arr, idx, .. } => (arr, idx, 1),
                    MOp::LdBytesCS { arr, idx, n, .. } => (arr, idx, n),
                    _ => return None,
                };
                let clean = dirty.get(&arr).is_none_or(|&st| st < q);
                clean.then_some((arr, idx, n))
            };
            if let (Some((arr, idx, n)), Some(low)) = (load(a), load(b)) {
                if low == (arr, idx + u32::from(n), 1)
                    && n < 8
                    && idx as usize + 8 <= arr_len(prog, arr)
                {
                    region[p] = MOp::LdBytesCS {
                        dst,
                        arr,
                        idx,
                        n: n + 1,
                    };
                }
            }
        }
        if let MOp::StArrS { arr, .. } | MOp::StArrCS { arr, .. } | MOp::StArrE { arr, .. } =
            region[p]
        {
            dirty.insert(arr, p);
        }
        vals.note(&region[p]);
        // A copy's destination numbers as its source, whose definition
        // it is not.
        if let Some(d) = region[p]
            .dst()
            .filter(|_| !matches!(region[p], MOp::CopyS { .. }))
        {
            def.insert(d, p);
        }
    }
}

/// Copy propagation: substitute copy sources into later uses — up to
/// the next store into a source register or signal, after which it no
/// longer holds what was copied and the copy's own slot stays in use.
fn copy_prop(region: &mut [MOp]) {
    let mut map: HashMap<Slot, Slot> = HashMap::new();
    for op in region.iter_mut() {
        op.uses_mut(&mut |slot| {
            if let Some(&r) = map.get(slot) {
                *slot = r;
            }
        });
        // Record after rewriting, so chains resolve transitively.
        if let MOp::CopyS { dst, a } = op {
            map.insert(*dst, *a);
        }
        if let Some(r) = stored_slot(op) {
            map.retain(|_, src| *src != r);
        }
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
        let prop = lower(&resize_tower(), &[Pass::CopyProp]);
        let text = listing(&prop);
        // The mask now reads the Add's slot directly.
        assert!(text.contains("s2 <- s0 & 0xff"), "{text}");
    }

    #[test]
    fn dead_scratch_removes_orphans() {
        let prop = lower(&resize_tower(), &[Pass::CopyProp]);
        let n_before = prop.threads[0].mops.len();
        let full = lower(&resize_tower(), &[Pass::CopyProp, Pass::DeadScratch]);
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
        // Two reads of t[2] in different statements become one LdArrC
        // (ArrayStrength first turns both into constant-index loads so
        // they unify by index value).
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
            parse_passes("array_strength, dead_scratch").unwrap(),
            vec![Pass::ArrayStrength, Pass::DeadScratch]
        );
        assert!(parse_passes("cse,bogus").is_err());
        // A pass that is gone is an unknown name, not a silent no-op.
        assert!(parse_passes("const_fold").is_err());
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
        // Two statements compute `a + 2`; after RedundantLoad unifies
        // the operand loads, value numbering leaves a single Add.
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
