//! Cross-backend equivalence for the CPU execution backends.
//!
//! Random IR programs generated over `kiwi_ir::dsl` must behave
//! identically under all three executions of the same `Program`:
//!
//! one [`Core`] each, on the tree-walker's ops (`Code::TreeWalk`, the
//! reference), the compiled micro-op bytecode (`Code::Compiled`, the
//! production CPU path) and the scheduled FSM (`Code::Fpga`, the
//! hardware target), comparing full [`MachineState`] snapshots —
//! registers, arrays, signals, and the `arr_high` high-water marks
//! platform drivers rely on — plus the complete [`Observer`] trace
//! (assignments with old/new values, labels, extension points, in
//! order).
//!
//! The soak-level leg drives whole `emu-traffic` mixes through
//! `Engine`s built on [`Backend::Compiled`] and [`Backend::TreeWalk`]
//! and asserts the resulting [`BatchReport`]s agree outcome-for-outcome
//! (including error variants and per-shard cycle accounting) for all
//! five soak services.

mod common;

use common::soak_pairings;
use emu::prelude::*;
use emu::services as s;
use emu_traffic::{FlowChurn, MacChurn, TrafficGen};
use emu_types::Bits;
use kiwi_ir::compile::MOp;
use kiwi_ir::dsl::*;
// `dsl::sig` would be shadowed by `sig: &Sig` parameters below.
use kiwi_ir::dsl::sig as dsl_sig;
use kiwi_ir::interp::{Env, MachineState, NullEnv, Observer};
use kiwi_ir::program::{ArrId, ArrayBacking, Program, SigDir, SigId, VarId};
use kiwi_ir::{flatten, Code, CompiledProgram, Core, Expr, Stmt};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Random program generation over the builder DSL.
// ---------------------------------------------------------------------

/// Deterministic entropy source: a finite byte tape, consumed cyclically
/// so any prefix proptest shrinks to is still a valid program seed.
struct Tape {
    bytes: Vec<u8>,
    i: usize,
}

impl Tape {
    fn new(bytes: &[u8]) -> Self {
        let bytes = if bytes.is_empty() {
            vec![0]
        } else {
            bytes.to_vec()
        };
        Tape { bytes, i: 0 }
    }

    fn next(&mut self) -> u8 {
        let b = self.bytes[self.i % self.bytes.len()];
        self.i += 1;
        b
    }

    fn pick(&mut self, n: usize) -> usize {
        usize::from(self.next()) % n
    }

    fn val(&mut self) -> u64 {
        let mut v = 0u64;
        for _ in 0..8 {
            v = (v << 8) | u64::from(self.next());
        }
        v
    }
}

/// The fixed declaration signature every generated program shares:
/// registers and array elements span narrow, word-size, and wide (>64)
/// widths so both the u64 fast path and the `Bits` limb path of the
/// compiled backend are exercised, and the three arrays land in the
/// three storage classes of `kiwi_ir::Cells` (`u8`, `u64`, `Bits`).
struct Sig {
    regs: Vec<(VarId, u16)>,
    arrs: Vec<(ArrId, u16, u64)>,
    ins: Vec<SigId>,
    outs: Vec<SigId>,
    /// Loop counters, reserved: never assigned by random statements.
    ctrs: Vec<VarId>,
}

const REG_WIDTHS: [u16; 7] = [1, 8, 13, 32, 64, 80, 128];

fn declare(pb: &mut kiwi_ir::ProgramBuilder, threads: usize) -> Sig {
    let regs = REG_WIDTHS
        .iter()
        .enumerate()
        .map(|(i, &w)| (pb.reg(&format!("r{i}"), w), w))
        .collect();
    let arrs = vec![
        (pb.array("mem8", 8, 16, ArrayBacking::LutRam), 8, 16),
        (pb.array("mem24", 24, 8, ArrayBacking::LutRam), 24, 8),
        (pb.array("memw", 96, 4, ArrayBacking::BlockRam), 96, 4),
    ];
    let ins = vec![pb.sig_in("in_a", 32), pb.sig_in("in_b", 80)];
    let outs = vec![pb.sig_out("out_a", 24), pb.sig_out("out_b", 128)];
    let ctrs = (0..threads * 2)
        .map(|i| pb.reg(&format!("ctr{i}"), 8))
        .collect();
    Sig {
        regs,
        arrs,
        ins,
        outs,
        ctrs,
    }
}

/// Builds a random expression of bounded depth. Every produced tree is
/// width-valid by construction (slices go through an explicit resize;
/// concat operands are capped so no width exceeds 128 < `MAX_WIDTH`).
fn expr(t: &mut Tape, sig: &Sig, depth: u32) -> Expr {
    if depth == 0 {
        return match t.pick(4) {
            0 => {
                let w = 1 + t.pick(96) as u16;
                lit_bits(Bits::from_u64(t.val(), w))
            }
            1 | 2 => var(sig.regs[t.pick(sig.regs.len())].0),
            _ => dsl_sig(sig.ins[t.pick(sig.ins.len())]),
        };
    }
    match t.pick(15) {
        0 => add(expr(t, sig, depth - 1), expr(t, sig, depth - 1)),
        1 => sub(expr(t, sig, depth - 1), expr(t, sig, depth - 1)),
        2 => mul(expr(t, sig, depth - 1), expr(t, sig, depth - 1)),
        3 => band(expr(t, sig, depth - 1), expr(t, sig, depth - 1)),
        4 => bor(expr(t, sig, depth - 1), expr(t, sig, depth - 1)),
        5 => bxor(expr(t, sig, depth - 1), expr(t, sig, depth - 1)),
        // Shifts: both small literal and arbitrary-expression amounts,
        // pinning the documented shift width rule on random shapes.
        6 => shl(expr(t, sig, depth - 1), expr(t, sig, depth - 1)),
        7 => shr(expr(t, sig, depth - 1), expr(t, sig, depth - 1)),
        8 => {
            let l = expr(t, sig, depth - 1);
            let r = expr(t, sig, depth - 1);
            match t.pick(6) {
                0 => eq(l, r),
                1 => ne(l, r),
                2 => lt(l, r),
                3 => le(l, r),
                4 => gt(l, r),
                _ => ge(l, r),
            }
        }
        9 => mux(
            expr(t, sig, depth - 1),
            expr(t, sig, depth - 1),
            expr(t, sig, depth - 1),
        ),
        10 => match t.pick(3) {
            0 => not(expr(t, sig, depth - 1)),
            1 => neg(expr(t, sig, depth - 1)),
            _ => nonzero(expr(t, sig, depth - 1)),
        },
        11 => {
            let lo = t.pick(32) as u16;
            let hi = lo + t.pick(32 - usize::from(lo)) as u16;
            slice(resize(expr(t, sig, depth - 1), 32), hi, lo)
        }
        12 => {
            let wh = 1 + t.pick(64) as u16;
            let wl = 1 + t.pick(64) as u16;
            concat(
                resize(expr(t, sig, depth - 1), wh),
                resize(expr(t, sig, depth - 1), wl),
            )
        }
        13 => resize(expr(t, sig, depth - 1), 1 + t.pick(128) as u16),
        _ => {
            let (a, _, _) = sig.arrs[t.pick(sig.arrs.len())];
            arr_read(a, expr(t, sig, depth - 1))
        }
    }
}

/// A run of random statements. `depth` bounds statement nesting
/// (`if_else` bodies); expressions are depth ≤ 2 off the leaves.
///
/// Beyond the uniform random arms, three directed shapes stress the
/// cross-statement optimizer: repeated same-index array loads across
/// consecutive statements (redundant-load elimination), an aliasing
/// array write between two identical dynamic loads (the reuse *must*
/// be blocked), and back-to-back reads of one input signal (legal to
/// reuse between pauses, illegal across them — these land both inside
/// and outside the generated pause-carrying loops).
fn stmts(t: &mut Tape, sig: &Sig, depth: u32, count: usize) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        match t.pick(13) {
            0..=3 => out.push(assign(sig.regs[t.pick(sig.regs.len())].0, expr(t, sig, 2))),
            4 => {
                let (a, _, _) = sig.arrs[t.pick(sig.arrs.len())];
                out.push(arr_write(a, expr(t, sig, 1), expr(t, sig, 2)));
            }
            5 => out.push(sig_write(sig.outs[t.pick(sig.outs.len())], expr(t, sig, 2))),
            6 => out.push(label(["alpha", "beta", "gamma"][t.pick(3)])),
            7 => out.push(ext_point(t.next() as u32 % 5)),
            8 => {
                // Repeated const-index array loads in back-to-back
                // statements: the second load is redundant unless
                // something invalidates it.
                let (a, _, len) = sig.arrs[t.pick(sig.arrs.len())];
                let idx = t.pick(len as usize) as u64;
                let r1 = sig.regs[t.pick(sig.regs.len())].0;
                let r2 = sig.regs[t.pick(sig.regs.len())].0;
                out.push(assign(r1, add(arr_read(a, lit(idx, 8)), expr(t, sig, 1))));
                out.push(assign(r2, bxor(arr_read(a, lit(idx, 8)), expr(t, sig, 1))));
            }
            9 => {
                // Aliasing write between two identical dynamic loads:
                // the store may or may not hit the loaded index, so the
                // second load must re-read memory.
                let (a, _, _) = sig.arrs[t.pick(sig.arrs.len())];
                let idx_reg = sig.regs[t.pick(sig.regs.len())].0;
                let r1 = sig.regs[t.pick(sig.regs.len())].0;
                let r2 = sig.regs[t.pick(sig.regs.len())].0;
                out.push(assign(r1, arr_read(a, var(idx_reg))));
                out.push(arr_write(a, expr(t, sig, 1), expr(t, sig, 2)));
                out.push(assign(r2, arr_read(a, var(idx_reg))));
            }
            10 => {
                // Back-to-back input-signal reads across statements
                // (one read serves both when no pause intervenes).
                let s = sig.ins[t.pick(sig.ins.len())];
                let r1 = sig.regs[t.pick(sig.regs.len())].0;
                let r2 = sig.regs[t.pick(sig.regs.len())].0;
                out.push(assign(r1, add(dsl_sig(s), expr(t, sig, 1))));
                out.push(assign(r2, band(dsl_sig(s), expr(t, sig, 1))));
            }
            _ if depth > 0 => {
                let cond = expr(t, sig, 2);
                let nt = 1 + t.pick(2);
                let then_ = stmts(t, sig, depth - 1, nt);
                let ne = 1 + t.pick(2);
                let else_ = stmts(t, sig, depth - 1, ne);
                out.push(if_else(cond, then_, else_));
            }
            _ => out.push(assign(sig.regs[t.pick(sig.regs.len())].0, expr(t, sig, 2))),
        }
    }
    out
}

/// A loop guaranteed to terminate: `ctr` is reserved for this loop (the
/// random statement pool never writes counters), counts up from its
/// init value of 0, and pauses each iteration.
fn bounded_loop(ctr: VarId, trips: u64, mut body: Vec<Stmt>) -> Stmt {
    body.push(assign(ctr, add(var(ctr), lit(1, 8))));
    body.push(pause());
    while_loop(lt(var(ctr), lit(trips, 8)), body)
}

/// One random halting thread body: prologue, a bounded loop whose body
/// may contain a nested bounded loop, epilogue, halt.
fn thread_body(t: &mut Tape, sig: &Sig, ctr0: VarId, ctr1: VarId) -> Vec<Stmt> {
    let outer_trips = 1 + t.pick(5) as u64;
    let inner_trips = 1 + t.pick(3) as u64;

    let n_loop = 2 + t.pick(5);
    let mut loop_body = stmts(t, sig, 2, n_loop);
    if t.pick(2) == 0 {
        let n_inner = 1 + t.pick(3);
        let inner_body = stmts(t, sig, 1, n_inner);
        loop_body.push(bounded_loop(ctr1, inner_trips, inner_body));
        // Re-arm the inner counter so it runs again next outer trip.
        loop_body.push(assign(ctr1, lit(0, 8)));
    }

    let n_pre = 1 + t.pick(3);
    let mut body = stmts(t, sig, 1, n_pre);
    body.push(bounded_loop(ctr0, outer_trips, loop_body));
    let n_post = 1 + t.pick(3);
    body.extend(stmts(t, sig, 1, n_post));
    body.push(halt());
    body
}

/// Full observer trace: every assignment (register, old, new), label,
/// and extension point, in execution order.
#[derive(Default, PartialEq, Debug)]
struct Trace {
    assigns: Vec<(u32, Bits, Bits)>,
    labels: Vec<String>,
    exts: Vec<u32>,
}

impl Observer for Trace {
    fn on_assign(&mut self, v: u32, old: &Bits, new: &Bits) {
        self.assigns.push((v, old.clone(), new.clone()));
    }
    fn on_label(&mut self, n: &str) {
        self.labels.push(n.into());
    }
    fn on_ext_point(&mut self, id: u32, _s: &mut MachineState) {
        self.exts.push(id);
    }
}

/// Asserts two machine states are identical in every field a backend
/// can influence.
fn assert_state_eq(label: &str, a: &MachineState, b: &MachineState) {
    assert_eq!(a.regs(), b.regs(), "{label}: registers diverged");
    assert_eq!(a.arrays, b.arrays, "{label}: arrays diverged");
    assert_eq!(a.sigs(), b.sigs(), "{label}: signals diverged");
    assert_eq!(a.arr_high, b.arr_high, "{label}: arr_high marks diverged");
}

/// Drives every input signal with a value derived from the cycle number
/// (splitmix64), so the program's input stream is deterministic but
/// dense in both narrow and wide bit patterns.
struct Pump;

impl Env for Pump {
    fn tick(&mut self, cycle: u64, prog: &Program, st: &mut MachineState) {
        let signals = prog.signals().iter().enumerate();
        let inputs = signals.filter(|(_, d)| d.dir == SigDir::In);
        for (i, (id, d)) in inputs.enumerate() {
            let mut z = cycle.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let v = Bits::from_u64(z ^ (z >> 31), 80).resize(d.width);
            st.set_sig(SigId(id as u32), v);
        }
    }
}

/// Two random threads over shared state, from one seed tape.
fn two_thread_program(seed: &[u8]) -> Program {
    let mut t = Tape::new(seed);
    let mut pb = kiwi_ir::ProgramBuilder::new("rand");
    let sig = declare(&mut pb, 2);
    let b0 = thread_body(&mut t, &sig, sig.ctrs[0], sig.ctrs[1]);
    let b1 = thread_body(&mut t, &sig, sig.ctrs[2], sig.ctrs[3]);
    pb.thread("t0", b0);
    pb.thread("t1", b1);
    pb.build().expect("generated program must be valid")
}

/// Tree-walk vs compiled, strongest form: env-driven input signals,
/// full state snapshot compared after **every** cycle, full observer
/// traces, and the cycle/op accounting the engine's cost model is
/// built on.
fn assert_cycle_lockstep(what: &str, prog: &Program, cp: CompiledProgram) {
    let mut tw = Core::new(Code::TreeWalk(flatten(prog).unwrap()));
    let mut cm = Core::new(Code::Compiled(cp));
    let (mut ta, mut tb) = (Trace::default(), Trace::default());
    for cycle in 0..300u64 {
        if tw.halted() {
            break;
        }
        tw.step_cycle(&mut Pump, &mut ta).unwrap();
        cm.step_cycle(&mut Pump, &mut tb).unwrap();
        assert_eq!(
            tw.halted(),
            cm.halted(),
            "{what}: halt state at cycle {cycle}"
        );
        assert_state_eq(&format!("{what}: cycle {cycle}"), tw.state(), cm.state());
    }
    assert_eq!(tw.cycle(), cm.cycle(), "{what}: cycle counts diverged");
    assert_eq!(
        tw.ops_executed(),
        cm.ops_executed(),
        "{what}: op counts diverged"
    );
    assert_eq!(ta, tb, "{what}: observer traces diverged");
}

// ---------------------------------------------------------------------
// Statements the compiled backend hands to the reference `eval`.
// ---------------------------------------------------------------------

/// Declarations for [`wide_program`]: the same shape as [`declare`] with
/// registers, an array and an output signal well beyond 64 bits.
fn declare_wide(pb: &mut kiwi_ir::ProgramBuilder, threads: usize) -> Sig {
    let regs = [8u16, 32, 64, 65, 200, 512]
        .iter()
        .enumerate()
        .map(|(i, &w)| (pb.reg(&format!("r{i}"), w), w))
        .collect();
    let arrs = vec![
        (pb.array("mem8", 8, 16, ArrayBacking::LutRam), 8, 16),
        (pb.array("memw", 300, 4, ArrayBacking::BlockRam), 300, 4),
    ];
    let ins = vec![pb.sig_in("in_a", 32), pb.sig_in("in_b", 80)];
    let outs = vec![pb.sig_out("out_a", 24), pb.sig_out("out_b", 320)];
    let ctrs = (0..threads)
        .map(|i| pb.reg(&format!("ctr{i}"), 8))
        .collect();
    Sig {
        regs,
        arrs,
        ins,
        outs,
        ctrs,
    }
}

/// A random expression at most 64 bits wide.
fn narrow(t: &mut Tape, sig: &Sig) -> Expr {
    resize(expr(t, sig, 1), 1 + t.pick(64) as u16)
}

/// A random expression 65..=512 bits wide. `depth` bounds the nesting
/// of the operator arms.
fn wide(t: &mut Tape, sig: &Sig, depth: u32) -> Expr {
    let w = 65 + t.pick(448) as u16;
    if depth == 0 {
        return match t.pick(5) {
            // A literal with bits set in every limb.
            0 => {
                let limbs: Vec<u64> = (0..w.div_ceil(64)).map(|_| t.val()).collect();
                lit_bits(Bits::from_limbs(&limbs, w))
            }
            // Non-zero only beyond bit 64: true as a condition, and an
            // in-range index by its low 64 bits.
            1 => bor(
                shl(lit(1, w), lit(64 + t.pick(usize::from(w) - 64) as u64, 16)),
                resize(lit(t.pick(4) as u64, 8), w),
            ),
            2 => var(sig.regs[3 + t.pick(3)].0),
            3 => dsl_sig(sig.ins[1]),
            _ => arr_read(sig.arrs[1].0, narrow(t, sig)),
        };
    }
    match t.pick(8) {
        0 => resize(expr(t, sig, 1), w),
        1 => concat(
            resize(wide(t, sig, depth - 1), 64 + t.pick(137) as u16),
            narrow(t, sig),
        ),
        2 => add(wide(t, sig, depth - 1), expr(t, sig, 1)),
        3 => mul(narrow(t, sig), wide(t, sig, depth - 1)),
        4 => bxor(wide(t, sig, depth - 1), wide(t, sig, depth - 1)),
        5 => match t.pick(2) {
            0 => shl(wide(t, sig, depth - 1), narrow(t, sig)),
            _ => shr(wide(t, sig, depth - 1), wide(t, sig, 0)),
        },
        6 => mux(narrow(t, sig), wide(t, sig, depth - 1), expr(t, sig, 1)),
        _ => match t.pick(2) {
            0 => not(wide(t, sig, depth - 1)),
            _ => neg(wide(t, sig, depth - 1)),
        },
    }
}

/// A run of random statements, every one of which contains a node
/// beyond 64 bits: as the stored value, as an array index, shift amount
/// or condition, or as the operand of a compare / reduction / slice
/// whose small result feeds lowered arithmetic.
fn wide_stmts(t: &mut Tape, sig: &Sig, depth: u32, count: usize) -> Vec<Stmt> {
    let any_reg = |t: &mut Tape| sig.regs[t.pick(sig.regs.len())].0;
    let small_reg = |t: &mut Tape| sig.regs[t.pick(3)].0;
    let mem8 = sig.arrs[0].0;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let last = match t.pick(12) {
            0 | 1 => assign(any_reg(t), wide(t, sig, 2)),
            // Compare of something wide feeding small arithmetic.
            2 => {
                let c = match t.pick(3) {
                    0 => eq(wide(t, sig, 1), wide(t, sig, 1)),
                    1 => lt(wide(t, sig, 1), narrow(t, sig)),
                    _ => nonzero(wide(t, sig, 1)),
                };
                assign(small_reg(t), add(resize(c, 8), narrow(t, sig)))
            }
            // Index beyond 64 bits, on a read and on a write.
            3 => assign(any_reg(t), arr_read(mem8, wide(t, sig, 1))),
            4 => arr_write(mem8, wide(t, sig, 1), narrow(t, sig)),
            // Stored element beyond 64 bits, into either array.
            5 => {
                let idx = match t.pick(2) {
                    0 => narrow(t, sig),
                    _ => wide(t, sig, 0),
                };
                arr_write(sig.arrs[t.pick(2)].0, idx, wide(t, sig, 2))
            }
            // Shift amount beyond 64 bits.
            6 => {
                let (l, n) = (narrow(t, sig), wide(t, sig, 1));
                assign(
                    small_reg(t),
                    if t.pick(2) == 0 { shl(l, n) } else { shr(l, n) },
                )
            }
            7 => sig_write(sig.outs[t.pick(sig.outs.len())], wide(t, sig, 2)),
            // Small slice and small mux over something wide.
            8 => {
                let lo = t.pick(65) as u16;
                let hi = lo + t.pick(64) as u16;
                let x = resize(wide(t, sig, 1), 130);
                assign(any_reg(t), bor(slice(x, hi, lo), narrow(t, sig)))
            }
            9 => assign(
                small_reg(t),
                mux(wide(t, sig, 1), narrow(t, sig), narrow(t, sig)),
            ),
            // Lowered reads of one register, array element or output
            // signal on both sides of an evaluated store to it: the
            // second read must see the store.
            10 => {
                let (read, store) = match t.pick(3) {
                    0 => {
                        let r = small_reg(t);
                        (var(r), assign(r, wide(t, sig, 1)))
                    }
                    1 => {
                        let i = lit(t.pick(16) as u64, 8);
                        (
                            arr_read(mem8, i.clone()),
                            arr_write(mem8, i, wide(t, sig, 1)),
                        )
                    }
                    _ => (
                        dsl_sig(sig.outs[0]),
                        sig_write(sig.outs[0], wide(t, sig, 1)),
                    ),
                };
                let before = add(read.clone(), resize(nonzero(wide(t, sig, 0)), 8));
                out.push(assign(small_reg(t), before));
                out.push(store);
                assign(
                    small_reg(t),
                    bxor(read, resize(nonzero(wide(t, sig, 0)), 8)),
                )
            }
            // Branch condition beyond 64 bits.
            _ if depth > 0 => {
                let cond = wide(t, sig, 1);
                let nt = 1 + t.pick(2);
                let then_ = wide_stmts(t, sig, depth - 1, nt);
                let ne = 1 + t.pick(2);
                let else_ = wide_stmts(t, sig, depth - 1, ne);
                if_else(cond, then_, else_)
            }
            _ => assign(any_reg(t), wide(t, sig, 2)),
        };
        out.push(last);
    }
    out
}

/// Two random halting threads of [`wide_stmts`] over shared state.
fn wide_program(seed: &[u8]) -> Program {
    let mut t = Tape::new(seed);
    let mut pb = kiwi_ir::ProgramBuilder::new("randwide");
    let sig = declare_wide(&mut pb, 2);
    for (i, &ctr) in sig.ctrs.iter().enumerate() {
        let n_pre = 1 + t.pick(3);
        let mut body = wide_stmts(&mut t, &sig, 1, n_pre);
        let (trips, n_loop) = (1 + t.pick(4) as u64, 2 + t.pick(5));
        let loop_body = wide_stmts(&mut t, &sig, 2, n_loop);
        body.push(bounded_loop(ctr, trips, loop_body));
        let n_post = 1 + t.pick(3);
        body.extend(wide_stmts(&mut t, &sig, 1, n_post));
        body.push(halt());
        pb.thread(&format!("t{i}"), body);
    }
    pb.build().expect("generated program must be valid")
}

/// A random subset of [`kiwi_ir::default_pipeline`] in a random order:
/// each byte removes one of the passes still in the pool, so a list
/// holds no pass twice and its length is the tape's (capped at the
/// pool's).
fn pass_subset(picks: &[u8]) -> Vec<kiwi_ir::Pass> {
    let mut pool = kiwi_ir::default_pipeline().to_vec();
    let mut out = Vec::new();
    for &b in picks {
        if pool.is_empty() {
            break;
        }
        out.push(pool.remove(usize::from(b) % pool.len()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ambient pipeline (`EMU_CPU_PASSES`, else the default) on two
    /// random threads, in cycle lockstep with the tree-walker.
    #[test]
    fn random_programs_treewalk_vs_compiled_cycle_lockstep(
        seed in proptest::collection::vec(any::<u8>(), 16..96)
    ) {
        let prog = two_thread_program(&seed);
        let cp = kiwi_ir::compile(&flatten(&prog).unwrap()).unwrap();
        assert_cycle_lockstep("ambient pipeline", &prog, cp);
    }

    /// All three backends on the same random halting program: the
    /// tree-walker, the compiled backend, and the RTL executor under
    /// both a generous and a deliberately tight clock budget (which
    /// forces extra FSM state splits) must land on the same final
    /// machine state and emit the same observer trace.
    #[test]
    fn random_programs_all_three_backends_agree(
        seed in proptest::collection::vec(any::<u8>(), 16..96)
    ) {
        let mut t = Tape::new(&seed);
        let mut pb = kiwi_ir::ProgramBuilder::new("rand3");
        let sig = declare(&mut pb, 1);
        let body = thread_body(&mut t, &sig, sig.ctrs[0], sig.ctrs[1]);
        pb.thread("main", body);
        let prog = pb.build().expect("generated program must be valid");

        let flat = flatten(&prog).unwrap();
        let cp = kiwi_ir::compile(&flat).unwrap();
        let (mut tw, mut cm) = (Core::new(Code::TreeWalk(flat)), Core::new(Code::Compiled(cp)));
        let mut traces = vec![Trace::default(), Trace::default()];
        tw.run_cycles(10_000, &mut NullEnv, &mut traces[0]).unwrap();
        cm.run_cycles(10_000, &mut NullEnv, &mut traces[1]).unwrap();
        prop_assert!(tw.halted() && cm.halted(), "software backends must halt");
        prop_assert_eq!(tw.cycle(), cm.cycle());

        let models = [
            ("fpga-loose", CostModel::default()),
            ("fpga-tight", CostModel { period_units: 10 }),
        ];
        let mut rtls = Vec::new();
        for (label, model) in models {
            let fsm = kiwi::compile_with(&prog, model).unwrap();
            let mut rtl = Core::new(Code::Fpga(fsm));
            let mut trace = Trace::default();
            rtl.run_cycles(500_000, &mut NullEnv, &mut trace).unwrap();
            prop_assert!(rtl.halted(), "{} must halt", label);
            traces.push(trace);
            rtls.push((label, rtl));
        }

        assert_state_eq("treewalk vs compiled", tw.state(), cm.state());
        for (label, rtl) in &rtls {
            assert_state_eq(&format!("treewalk vs {label}"), tw.state(), rtl.state());
        }
        // The CPU backends must agree on the *entire* trace, labels
        // included. The FSM target erases `Label` markers that land on
        // state boundaries (they are zero-delay debug symbols, resolved
        // through like jumps — see `kiwi_ir::FsmThread::resolve`), so
        // against the RTL only the semantic events — assignments and
        // extension points — are required to match.
        prop_assert_eq!(&traces[0], &traces[1], "CPU backend traces diverged");
        for (i, trace) in traces.iter().enumerate().skip(2) {
            prop_assert_eq!(&traces[0].assigns, &trace.assigns, "rtl trace {} assigns", i);
            prop_assert_eq!(&traces[0].exts, &trace.exts, "rtl trace {} ext points", i);
        }
    }
}

// ---------------------------------------------------------------------
// Soak-level: whole traffic mixes through Engines on both CPU backends.
// ---------------------------------------------------------------------

/// The churn pairings: stateful services whose small, TTL'd tables see
/// entries inserted, aged out, and re-learned mid-stream. The `bool`
/// requests [`NatSteering`] dispatch (NAT's port-allocation
/// correctness depends on its per-shard ephemeral partition).
fn churn_pairings(
    seed: u64,
) -> Vec<(
    &'static str,
    emu::stdlib::Service,
    Box<dyn TrafficGen>,
    bool,
)> {
    vec![
        (
            "nat",
            s::nat("203.0.113.1".parse().unwrap()),
            Box::new(FlowChurn::new(seed, 24, 200, &[1, 2, 3])),
            true,
        ),
        (
            "switch",
            s::switch_ip_cam(),
            Box::new(MacChurn::new(seed, 16, 250)),
            false,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Insert/expire/re-insert churn through small TTL'd tables must
    /// stay byte-identical across the CPU backends at any shard count:
    /// every per-frame outcome (including translations minted after an
    /// expired mapping's port was reclaimed) and the per-shard cycle
    /// accounting.
    #[test]
    fn churn_batch_reports_agree_across_cpu_backends(
        seed in any::<u64>(),
        shards in 1usize..5
    ) {
        for (label, svc, mut gen, steer) in churn_pairings(seed) {
            let frames: Vec<Frame> = (0..240).map(|_| gen.next_frame()).collect();
            let build = |backend| {
                let mut b = svc
                    .engine(Target::Cpu)
                    .backend(backend)
                    .shards(shards)
                    .table_entries(64)
                    .ttl_frames(48);
                if steer {
                    b = b.dispatch(NatSteering);
                }
                b.build().unwrap()
            };
            let a = build(Backend::Compiled).process_batch(&frames);
            let b = build(Backend::TreeWalk).process_batch(&frames);
            prop_assert_eq!(
                &a.shard_cycles, &b.shard_cycles,
                "{}: shard cycle accounting diverged under churn at {} shards", label, shards
            );
            for (i, (x, y)) in a.outputs.iter().zip(&b.outputs).enumerate() {
                prop_assert_eq!(
                    x, y,
                    "{}: churn frame {} diverged across CPU backends at {} shards",
                    label, i, shards
                );
            }
        }
    }

    /// Parallel execution must be telemetry-invisible under churn: the
    /// full [`EngineSnapshot`] — per-shard counters, cycle histograms,
    /// and per-CAM occupancy/eviction/expiry tallies — equals the
    /// sequential run's exactly, and the stream genuinely ages entries
    /// out (total expiries > 0), so the equality covers the TTL path.
    #[test]
    fn churn_telemetry_snapshots_agree_sequential_vs_parallel(seed in any::<u64>()) {
        for (label, svc, mut gen, steer) in churn_pairings(seed) {
            let frames: Vec<Frame> = (0..600).map(|_| gen.next_frame()).collect();
            let mut snaps = Vec::new();
            for parallel in [false, true] {
                let mut b = svc
                    .engine(Target::Cpu)
                    .backend(Backend::Compiled)
                    .shards(4)
                    .parallel(parallel)
                    .telemetry(true)
                    .table_entries(64)
                    .ttl_frames(48);
                if steer {
                    b = b.dispatch(NatSteering);
                }
                let mut engine = b.build().unwrap();
                engine.process_batch(&frames);
                snaps.push(engine.telemetry().expect("telemetry enabled"));
            }
            prop_assert_eq!(
                &snaps[0], &snaps[1],
                "{}: sequential and parallel telemetry snapshots diverged", label
            );
            let total = snaps[0].total();
            let expiries: u64 = total.cams.iter().map(|c| c.expiries).sum();
            prop_assert!(expiries > 0, "{}: churn stream aged nothing out", label);
        }
    }

    /// Lockstep across batch sizes: chunking one frame stream into
    /// batches of 1, 3, and 16 through [`Engine::process_batch`] must
    /// reproduce [`Engine::process`] called frame by frame — outputs,
    /// cycle counts — and land on the identical [`EngineSnapshot`], for
    /// all five soak services. The tree-walker, also driven frame by
    /// frame, anchors the reference run to the spec semantics.
    #[test]
    fn batched_lockstep_at_batch_sizes_1_3_16(seed in any::<u64>()) {
        for (label, svc, mut gen) in soak_pairings(seed) {
            let frames: Vec<Frame> = (0..96).map(|_| gen.next_frame()).collect();
            let build = |backend| svc.engine(Target::Cpu).backend(backend).build().unwrap();
            let mut scalar = build(Backend::Compiled);
            let mut reference = build(Backend::TreeWalk);
            let want: Vec<_> = frames.iter().map(|f| scalar.process(f)).collect();
            for (i, (x, f)) in want.iter().zip(&frames).enumerate() {
                prop_assert_eq!(
                    x, &reference.process(f),
                    "{}: scalar compiled vs treewalk diverged on frame {}", label, i
                );
            }
            let want_snap = scalar.telemetry().expect("telemetry on by default");
            for chunk in [1usize, 3, 16] {
                let mut batched = build(Backend::Compiled);
                let mut outputs = Vec::with_capacity(frames.len());
                for slice in frames.chunks(chunk) {
                    outputs.extend(batched.process_batch(slice).outputs);
                }
                for (i, (x, y)) in outputs.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        x, y,
                        "{}: batch size {} diverged from scalar on frame {}", label, chunk, i
                    );
                }
                prop_assert_eq!(
                    batched.telemetry().expect("telemetry on by default"),
                    want_snap.clone(),
                    "{}: batch size {} telemetry snapshot diverged", label, chunk
                );
            }
        }
    }

    /// Compiled-vs-tree-walk `BatchReport` agreement for all five soak
    /// services under their `emu-traffic` mixes: every per-frame outcome
    /// (success bytes and error variants alike) and the per-shard cycle
    /// accounting must be identical.
    #[test]
    fn batch_reports_agree_across_cpu_backends(
        seed in any::<u64>(),
        shards in 1usize..5
    ) {
        for (label, svc, mut gen) in soak_pairings(seed) {
            let frames: Vec<Frame> = (0..120).map(|_| gen.next_frame()).collect();
            let mut fast = svc
                .engine(Target::Cpu)
                .backend(Backend::Compiled)
                .shards(shards)
                .build()
                .unwrap();
            let mut reference = svc
                .engine(Target::Cpu)
                .backend(Backend::TreeWalk)
                .shards(shards)
                .build()
                .unwrap();
            let a = fast.process_batch(&frames);
            let b = reference.process_batch(&frames);
            prop_assert_eq!(
                &a.shard_cycles, &b.shard_cycles,
                "{}: shard cycle accounting diverged at {} shards", label, shards
            );
            for (i, (x, y)) in a.outputs.iter().zip(&b.outputs).enumerate() {
                prop_assert_eq!(
                    x, y,
                    "{}: frame {} diverged across CPU backends at {} shards",
                    label, i, shards
                );
            }
        }
    }
}

proptest! {
    // Default config: 64 cases, `PROPTEST_CASES` scales it (CI's deep
    // leg runs these two at 1024 in release).

    /// Optimizer trust, program level: any subset of the pass list in
    /// any order must leave a random two-thread program in cycle
    /// lockstep with the tree-walker — no pass may rely on another
    /// having run first.
    #[test]
    fn pass_subsets_keep_random_programs_in_cycle_lockstep(
        seed in proptest::collection::vec(any::<u8>(), 16..96),
        picks in proptest::collection::vec(any::<u8>(), 0..16)
    ) {
        let prog = two_thread_program(&seed);
        let passes = pass_subset(&picks);
        let cp = kiwi_ir::compile_with_passes(&flatten(&prog).unwrap(), &passes)
            .unwrap_or_else(|e| panic!("passes {passes:?}: {e:?}"));
        assert_cycle_lockstep(&format!("passes {passes:?}"), &prog, cp);
    }

    /// The 64-bit machine's borrowed path: programs in which every
    /// statement contains a node 65..=512 bits wide (see [`wide_stmts`])
    /// stay in cycle lockstep with the tree-walker — state after every
    /// cycle, op counts, observer trace — under the default and the
    /// empty pipeline.
    #[test]
    fn wide_statements_agree(seed in proptest::collection::vec(any::<u8>(), 16..96)) {
        let prog = wide_program(&seed);
        for passes in [kiwi_ir::default_pipeline(), &[][..]] {
            let cp = kiwi_ir::compile_with_passes(&flatten(&prog).unwrap(), passes).unwrap();
            prop_assert!(cp.threads.iter().all(|t| !t.exprs.is_empty()));
            assert_cycle_lockstep(&format!("passes {passes:?}"), &prog, cp);
        }
    }

    /// Optimizer trust, service level: one soak service per case, built
    /// with a random pass subset through `EngineBuilder::passes`, must
    /// match the tree-walk engine frame for frame, in per-shard cycle
    /// accounting and in the whole telemetry snapshot.
    #[test]
    fn pass_subsets_are_invisible_through_the_engine(
        seed in any::<u64>(),
        which in 0usize..5,
        picks in proptest::collection::vec(any::<u8>(), 0..16)
    ) {
        let (label, svc, mut gen) = soak_pairings(seed).swap_remove(which);
        let frames: Vec<Frame> = (0..64).map(|_| gen.next_frame()).collect();
        let passes = pass_subset(&picks);
        let mut reference = svc
            .engine(Target::Cpu)
            .backend(Backend::TreeWalk)
            .build()
            .unwrap();
        let mut subject = svc
            .engine(Target::Cpu)
            .backend(Backend::Compiled)
            .passes(&passes)
            .build()
            .unwrap();
        let want = reference.process_batch(&frames);
        let got = subject.process_batch(&frames);
        prop_assert_eq!(
            &want.shard_cycles, &got.shard_cycles,
            "{}: passes {:?} changed cycle accounting", label, passes
        );
        for (i, (x, y)) in want.outputs.iter().zip(&got.outputs).enumerate() {
            prop_assert_eq!(x, y, "{}: passes {:?} diverged on frame {}", label, passes, i);
        }
        prop_assert_eq!(
            reference.telemetry().expect("telemetry on by default"),
            subject.telemetry().expect("telemetry on by default"),
            "{}: passes {:?} changed telemetry", label, passes
        );
    }
}

/// The builder-side mirror of `EMU_CPU_PASSES`: pinning the compiled
/// backend's pipeline to empty (no optimization) must be
/// behaviour-invisible — identical outcomes, cycle accounting, and
/// telemetry against the default pipeline.
#[test]
fn engine_passes_knob_is_behavior_invisible() {
    for (label, svc, mut gen) in soak_pairings(0xE11A) {
        let frames: Vec<Frame> = (0..80).map(|_| gen.next_frame()).collect();
        let mut reports = Vec::new();
        let mut snaps = Vec::new();
        let pipelines: [&[kiwi_ir::Pass]; 2] = [kiwi_ir::default_pipeline(), &[]];
        for passes in pipelines {
            let mut engine = svc
                .engine(Target::Cpu)
                .backend(Backend::Compiled)
                .passes(passes)
                .build()
                .unwrap();
            reports.push(engine.process_batch(&frames));
            snaps.push(engine.telemetry().expect("telemetry on by default"));
        }
        for k in 1..reports.len() {
            assert_eq!(
                reports[0].shard_cycles, reports[k].shard_cycles,
                "{label}: pipeline {k} changed cycle accounting"
            );
            for (i, (x, y)) in reports[0]
                .outputs
                .iter()
                .zip(&reports[k].outputs)
                .enumerate()
            {
                assert_eq!(x, y, "{label}: pipeline {k} diverged on frame {i}");
            }
            assert_eq!(
                snaps[0], snaps[k],
                "{label}: pipeline {k} changed telemetry"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Register hazards: the compiled backend reads a register where it lives,
// and a register is written by every store to it. A pass that reuses a
// read, or moves it later, must never carry it past a store to that
// register. Each program below puts such a store in the middle of one
// widened region (or, in the last one, hands the register to an
// observer mid-frame) and runs in lockstep on the tree-walker, the FSM
// and the compiled backend under the default pipeline, the empty one
// and each pass alone.
// ---------------------------------------------------------------------

/// Extension point at which [`Poke`] rewrites register 0.
const POKE_EXT: u32 = 1;

/// Extension point at which [`Poke`] rewrites signal 0.
const POKE_SIG_EXT: u32 = 2;

/// The value [`Poke`] writes into register 0 or signal 0.
const POKED: u64 = 0x5a;

/// A full [`Trace`] that also writes [`POKED`] into register 0 at
/// [`POKE_EXT`] and into signal 0 at [`POKE_SIG_EXT`]: the mid-frame
/// writes a debug controller makes.
#[derive(Default)]
struct Poke(Trace);

impl Observer for Poke {
    fn on_assign(&mut self, v: u32, old: &Bits, new: &Bits) {
        self.0.on_assign(v, old, new);
    }
    fn on_label(&mut self, n: &str) {
        self.0.on_label(n);
    }
    fn on_ext_point(&mut self, id: u32, s: &mut MachineState) {
        self.0.on_ext_point(id, s);
        if id == POKE_EXT {
            s.set_reg(VarId(0), Bits::from_u64(POKED, 64));
        }
        if id == POKE_SIG_EXT {
            s.set_sig(SigId(0), Bits::from_u64(POKED, 64));
        }
    }
}

/// The default pipeline, the empty one and each pass alone.
fn hazard_pipelines() -> Vec<Vec<kiwi_ir::Pass>> {
    let default = kiwi_ir::default_pipeline();
    let mut out = vec![default.to_vec(), Vec::new()];
    out.extend(default.iter().map(|p| vec![*p]));
    out
}

/// Runs `prog` (threads that halt) on the tree-walker, the FSM and
/// the compiled backend under every [`hazard_pipelines`] entry: the
/// compiled runs in cycle lockstep with the tree-walker (state after
/// every cycle, cycle and op counts, whole observer trace), the FSM to
/// the same final state and the same assignments and extension points.
/// Returns the tree-walker's final state for the caller's own checks.
fn assert_hazard_lockstep(what: &str, prog: &Program) -> MachineState {
    let flat = flatten(prog).unwrap();
    let mut tw = Core::new(Code::TreeWalk(flat.clone()));
    let mut tw_obs = Poke::default();
    let mut states = Vec::new();
    while !tw.halted() {
        tw.step_cycle(&mut NullEnv, &mut tw_obs).unwrap();
        states.push(tw.state().clone());
        assert!(states.len() < 200, "{what}: the program must halt");
    }
    for passes in hazard_pipelines() {
        let label = format!("{what}, passes {passes:?}");
        let cp = kiwi_ir::compile_with_passes(&flat, &passes).unwrap();
        let mut cm = Core::new(Code::Compiled(cp));
        let mut cm_obs = Poke::default();
        for (cycle, want) in states.iter().enumerate() {
            cm.step_cycle(&mut NullEnv, &mut cm_obs).unwrap();
            assert_state_eq(&format!("{label}: cycle {cycle}"), want, cm.state());
        }
        assert!(cm.halted(), "{label}: halts with the tree-walker");
        assert_eq!(tw.cycle(), cm.cycle(), "{label}: cycle counts");
        assert_eq!(tw.ops_executed(), cm.ops_executed(), "{label}: op counts");
        assert_eq!(tw_obs.0, cm_obs.0, "{label}: observer traces");
    }
    let mut rtl = Core::new(Code::Fpga(kiwi::compile(prog).unwrap()));
    let mut rtl_obs = Poke::default();
    rtl.run_cycles(10_000, &mut NullEnv, &mut rtl_obs).unwrap();
    assert!(rtl.halted(), "{what}: the FSM halts");
    assert_state_eq(&format!("{what}: fsm"), tw.state(), rtl.state());
    assert_eq!(tw_obs.0.assigns, rtl_obs.0.assigns, "{what}: fsm assigns");
    assert_eq!(tw_obs.0.exts, rtl_obs.0.exts, "{what}: fsm ext points");
    tw.state().clone()
}

/// Three trips of `body`, each ending in a pause, then halt: the body is
/// one widened region per trip.
fn three_trips(pb: &mut kiwi_ir::ProgramBuilder, body: Vec<Stmt>) {
    let n = pb.reg("trip", 4);
    let mut body = body;
    body.push(assign(n, add(var(n), lit(1, 4))));
    body.push(pause());
    pb.thread(
        "main",
        vec![while_loop(lt(var(n), lit(3, 4)), body), halt()],
    );
}

#[test]
fn register_read_reused_after_a_store_to_it() {
    // `y := x; x := x + 1; z := y + x`: the value read for `y` is the
    // old `x`, the one `z` adds is the new.
    let mut pb = kiwi_ir::ProgramBuilder::new("reuse");
    let x = pb.reg_init("x", 16, Bits::from_u64(5, 16));
    let y = pb.reg("y", 16);
    let z = pb.reg("z", 16);
    three_trips(
        &mut pb,
        vec![
            assign(y, var(x)),
            assign(x, add(var(x), lit(1, 16))),
            assign(z, add(var(y), var(x))),
        ],
    );
    let end = assert_hazard_lockstep("reuse", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(2)).to_u64(), 7 + 8);
}

#[test]
fn identity_resize_copy_of_a_register_across_a_store() {
    // `resize(x, 64)` of a 32-bit `x` is a copy; the array store's value
    // forwards to the reload of `t[0]`, which must see the copy, not
    // the register stored in between. `t[1] := w` stores the register
    // itself, whose forwarding must stop at the store to `w`.
    let mut pb = kiwi_ir::ProgramBuilder::new("copy");
    let x = pb.reg_init("x", 32, Bits::from_u64(0x1234, 32));
    let w = pb.reg_init("w", 64, Bits::from_u64(0xabcd, 64));
    let t = pb.array("t", 64, 4, ArrayBacking::LutRam);
    let y = pb.reg("y", 64);
    let v = pb.reg("v", 64);
    three_trips(
        &mut pb,
        vec![
            arr_write(t, lit(0, 2), resize(var(x), 64)),
            arr_write(t, lit(1, 2), var(w)),
            assign(x, add(var(x), lit(1, 32))),
            assign(w, add(var(w), lit(1, 64))),
            assign(y, arr_read(t, lit(0, 2))),
            assign(v, arr_read(t, lit(1, 2))),
        ],
    );
    let end = assert_hazard_lockstep("copy", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(2)).to_u64(), 0x1234 + 2);
    assert_eq!(end.reg(VarId(3)).to_u64(), 0xabcd + 2);
}

#[test]
fn fused_pair_load_indexed_by_a_register_stored_before_the_concat() {
    // A big-endian pair read at `(i + 2, i + 3)`, where `i` is stored
    // after an earlier statement computed the same index arithmetic:
    // neither the index add nor a fused read may see the other `i`.
    // `p` reaches the old index add through the forwarded store to
    // `u[0]`, so a fused read there would index by the register itself,
    // stored between that add and the concat.
    let mut pb = kiwi_ir::ProgramBuilder::new("pair");
    let init = (0..16).map(|k| (k, Bits::from_u64(0x10 + k as u64, 8)));
    let t = pb.array_init("t", 8, 16, ArrayBacking::LutRam, init.collect());
    let u = pb.array("u", 4, 2, ArrayBacking::LutRam);
    let i = pb.reg_init("i", 4, Bits::from_u64(3, 4));
    let k = pb.reg("k", 4);
    let a = pb.reg("a", 8);
    let x = pb.reg("x", 16);
    let q = pb.reg("q", 16);
    let p = pb.reg("p", 16);
    let base = || add(var(i), lit(2, 4));
    let pair = |idx: Expr| concat(arr_read(t, idx.clone()), arr_read(t, add(idx, lit(1, 4))));
    three_trips(
        &mut pb,
        vec![
            arr_write(u, lit(0, 1), base()),
            assign(k, base()),
            assign(a, arr_read(t, base())),
            assign(i, add(var(i), lit(5, 4))),
            assign(x, pair(base())),
            assign(q, pair(var(k))),
            assign(p, pair(arr_read(u, lit(0, 1)))),
        ],
    );
    let end = assert_hazard_lockstep("pair", &pb.build().unwrap());
    // The last trip starts with `i` = 13 and ends with it at 2 (mod 16):
    // `x` reads t[4], t[5]; `q` and `p` read t[15], t[0].
    assert_eq!(end.reg(VarId(3)).to_u64(), 0x1415);
    assert_eq!(end.reg(VarId(4)).to_u64(), 0x1f10);
    assert_eq!(end.reg(VarId(5)).to_u64(), 0x1f10);
}

#[test]
fn cse_candidate_over_a_register_across_a_store() {
    // `x + y` before and after a store to `x` are two values, and so
    // are the two identity-resized sums.
    let mut pb = kiwi_ir::ProgramBuilder::new("cse");
    let x = pb.reg_init("x", 8, Bits::from_u64(9, 8));
    let y = pb.reg_init("y", 8, Bits::from_u64(4, 8));
    let a = pb.reg("a", 8);
    let b = pb.reg("b", 8);
    let c = pb.reg("c", 16);
    let d = pb.reg("d", 16);
    three_trips(
        &mut pb,
        vec![
            assign(a, add(var(x), var(y))),
            assign(c, add(resize(var(x), 16), lit(1, 16))),
            assign(x, add(var(x), lit(1, 8))),
            assign(b, add(var(y), var(x))),
            assign(d, add(resize(var(x), 16), lit(1, 16))),
        ],
    );
    let end = assert_hazard_lockstep("cse", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(3)).to_u64(), 4 + 12);
    assert_eq!(end.reg(VarId(5)).to_u64(), 13);
}

#[test]
fn observer_writes_a_register_mid_frame() {
    // At the extension point the observer sets `x`; reads after it, in
    // the same trip, must see the observer's value.
    let mut pb = kiwi_ir::ProgramBuilder::new("poke");
    let x = pb.reg_init("x", 8, Bits::from_u64(1, 8));
    let y = pb.reg("y", 8);
    let z = pb.reg("z", 8);
    three_trips(
        &mut pb,
        vec![
            assign(y, add(var(x), lit(1, 8))),
            ext_point(POKE_EXT),
            assign(z, add(var(x), lit(1, 8))),
            assign(x, add(var(x), var(y))),
        ],
    );
    let end = assert_hazard_lockstep("poke", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(2)).to_u64(), POKED + 1);
}

// ---------------------------------------------------------------------
// Signal hazards: a signal of at most 64 bits is a slot of the word
// file too, read where it lives and written by every store to it (and
// by the environment, another thread or an observer between regions).
// Each program below is one of the register hazards above with a signal
// in the register's place, or hands a signal between two threads, and
// runs in lockstep the same way.
// ---------------------------------------------------------------------

#[test]
fn output_signal_read_back_after_a_store_in_one_region() {
    // `$o := x + 1; y := $o; $o := $o + 1; z := $o + y`: each read of
    // `$o` sees the store just before it.
    let mut pb = kiwi_ir::ProgramBuilder::new("readback");
    let o = pb.sig_out("o", 16);
    let x = pb.reg_init("x", 16, Bits::from_u64(5, 16));
    let y = pb.reg("y", 16);
    let z = pb.reg("z", 16);
    three_trips(
        &mut pb,
        vec![
            sig_write(o, add(var(x), lit(1, 16))),
            assign(y, dsl_sig(o)),
            sig_write(o, add(dsl_sig(o), lit(1, 16))),
            assign(z, add(dsl_sig(o), var(y))),
            assign(x, var(z)),
        ],
    );
    let end = assert_hazard_lockstep("readback", &pb.build().unwrap());
    let mut x = 5u64;
    for _ in 0..3 {
        x = 2 * (x + 1) + 1;
    }
    assert_eq!(end.reg(VarId(0)).to_u64(), x);
    assert_eq!(end.sigs()[0].to_u64(), (x - 1) / 2 + 1);
}

#[test]
fn cse_candidate_over_a_signal_across_a_store() {
    // `$s + y` before and after a store to `$s` are two values, and so
    // are the two identity-resized sums.
    let mut pb = kiwi_ir::ProgramBuilder::new("sig_cse");
    let sg = pb.sig_out("s", 8);
    let y = pb.reg_init("y", 8, Bits::from_u64(4, 8));
    let a = pb.reg("a", 8);
    let b = pb.reg("b", 8);
    let c = pb.reg("c", 16);
    let d = pb.reg("d", 16);
    three_trips(
        &mut pb,
        vec![
            assign(a, add(dsl_sig(sg), var(y))),
            assign(c, add(resize(dsl_sig(sg), 16), lit(1, 16))),
            sig_write(sg, add(dsl_sig(sg), lit(9, 8))),
            assign(b, add(var(y), dsl_sig(sg))),
            assign(d, add(resize(dsl_sig(sg), 16), lit(1, 16))),
        ],
    );
    let end = assert_hazard_lockstep("sig_cse", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(1)).to_u64(), 18 + 4);
    assert_eq!(end.reg(VarId(2)).to_u64(), 27 + 4);
    assert_eq!(end.reg(VarId(4)).to_u64(), 27 + 1);
}

#[test]
fn copy_of_a_signal_across_a_store_to_it() {
    // `resize($o, 64)` of a 32-bit `$o` is a copy; the array store's
    // value forwards to the reload of `t[0]`, which must see the copy,
    // not the signal stored in between. `t[1] := $w` stores the signal
    // itself, whose forwarding must stop at the store to `$w`.
    let mut pb = kiwi_ir::ProgramBuilder::new("sig_copy");
    let o = pb.sig_out("o", 32);
    let w = pb.sig_out("w", 64);
    let t = pb.array("t", 64, 4, ArrayBacking::LutRam);
    let y = pb.reg("y", 64);
    let v = pb.reg("v", 64);
    three_trips(
        &mut pb,
        vec![
            arr_write(t, lit(0, 2), resize(dsl_sig(o), 64)),
            arr_write(t, lit(1, 2), dsl_sig(w)),
            sig_write(o, add(dsl_sig(o), lit(0x1234, 32))),
            sig_write(w, add(dsl_sig(w), lit(0xabcd, 64))),
            assign(y, arr_read(t, lit(0, 2))),
            assign(v, arr_read(t, lit(1, 2))),
        ],
    );
    let end = assert_hazard_lockstep("sig_copy", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(0)).to_u64(), 2 * 0x1234);
    assert_eq!(end.reg(VarId(1)).to_u64(), 2 * 0xabcd);
}

#[test]
fn two_threads_hand_a_value_through_a_signal_in_one_cycle() {
    // Each cycle `t0` drives `$h` and then `t1`, later in thread order,
    // reads it: the value of this cycle, not the last. `t1` answers on
    // `$g`, which `t0` reads around its own store to `$h` the next cycle.
    let mut pb = kiwi_ir::ProgramBuilder::new("handoff");
    let h = pb.sig_out("h", 16);
    let g = pb.sig_out("g", 16);
    let x = pb.reg_init("x", 16, Bits::from_u64(3, 16));
    let seen = pb.reg("seen", 16);
    let back = pb.reg("back", 16);
    let trips = |pb: &mut kiwi_ir::ProgramBuilder, name: &str, mut body: Vec<Stmt>| {
        let n = pb.reg(&format!("{name}_trip"), 4);
        body.push(assign(n, add(var(n), lit(1, 4))));
        body.push(pause());
        let lp = while_loop(lt(var(n), lit(3, 4)), body);
        pb.thread(name, vec![lp, halt()]);
    };
    trips(
        &mut pb,
        "t0",
        vec![
            assign(back, dsl_sig(g)),
            sig_write(h, add(var(x), dsl_sig(g))),
            assign(x, add(dsl_sig(h), lit(1, 16))),
        ],
    );
    trips(
        &mut pb,
        "t1",
        vec![
            assign(seen, dsl_sig(h)),
            sig_write(g, add(dsl_sig(h), dsl_sig(g))),
        ],
    );
    let end = assert_hazard_lockstep("handoff", &pb.build().unwrap());
    let (mut x, mut gv, mut hv, mut back) = (3u64, 0u64, 0u64, 0u64);
    for _ in 0..3 {
        back = gv;
        hv = x + gv;
        x = hv + 1;
        gv += hv;
    }
    assert_eq!(end.reg(VarId(0)).to_u64(), x);
    assert_eq!(end.reg(VarId(1)).to_u64(), hv);
    assert_eq!(end.reg(VarId(2)).to_u64(), back);
    assert_eq!(end.sigs()[1].to_u64(), gv);
}

#[test]
fn observer_writes_a_signal_mid_frame() {
    // At the extension point the observer drives `$o` (signal 0); reads
    // after it, in the same trip, must see the observer's value, and
    // reads before it the program's.
    let mut pb = kiwi_ir::ProgramBuilder::new("sig_poke");
    let o = pb.sig_out("o", 8);
    let x = pb.reg_init("x", 8, Bits::from_u64(1, 8));
    let y = pb.reg("y", 8);
    let z = pb.reg("z", 8);
    three_trips(
        &mut pb,
        vec![
            sig_write(o, add(var(x), lit(1, 8))),
            assign(y, add(dsl_sig(o), lit(1, 8))),
            ext_point(POKE_SIG_EXT),
            assign(z, add(dsl_sig(o), lit(1, 8))),
            assign(x, add(dsl_sig(o), var(y))),
        ],
    );
    let end = assert_hazard_lockstep("sig_poke", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(2)).to_u64(), POKED + 1);
    let mut x = 1u64;
    let mut y = 0;
    for _ in 0..3 {
        y = x + 2;
        x = (POKED + y) & 0xff;
    }
    assert_eq!(end.reg(VarId(1)).to_u64(), y);
    assert_eq!(end.reg(VarId(0)).to_u64(), x);
}

// ---------------------------------------------------------------------
// Sharing hazards: a sub-expression used twice is one node, and the
// compiled backend lowers a node once per statement and reuses its
// slot. That reuse must stop at the statement's end (a store may come
// between two statements that share a node) and must not outlive the
// micro-ops it points at (a node wider than 64 bits takes back what was
// lowered under it). In each program below, `shared(..)` hands out
// copies of one wrapper node whose operand is the same node every time.
// Each runs in lockstep like the register hazards above.
// ---------------------------------------------------------------------

// The compiled image runs an execution encoding that fuses three
// adjacent micro-op pairs (`SliceS` → `StArrCS`, `CmpS` → `BranchZ`,
// `BinS` add → `StVarS`) and leaves the first one's slot unwritten. The
// next three cases are the ways that could be seen.

/// How often each fused form occurs in `prog`'s default-pipeline
/// encoding, summed over its threads.
fn fused_forms(prog: &Program) -> Vec<(&'static str, usize)> {
    let flat = flatten(prog).unwrap();
    let cp = kiwi_ir::compile_with_passes(&flat, kiwi_ir::default_pipeline()).unwrap();
    let mut out: Vec<(&str, usize)> = Vec::new();
    for t in &cp.threads {
        for (v, n) in t.exec_census() {
            let forms = [
                "SliceStArrC",
                "AddStVar",
                "AddStArr",
                "LdBytesC",
                "StBytesC",
            ];
            if v.starts_with("Brz") || forms.contains(&v) {
                match out.iter_mut().find(|(w, _)| *w == v) {
                    Some(e) => e.1 += n,
                    None => out.push((v, n)),
                }
            }
        }
    }
    out
}

#[test]
fn compare_branched_on_and_stored_later_in_one_region() {
    // CSE makes the store in the `if` body read the slot of the compare
    // the branch tested: a second read, so the compare and its branch
    // must not be fused into one that leaves the slot unwritten.
    let mut pb = kiwi_ir::ProgramBuilder::new("cmp");
    let x = pb.reg_init("x", 8, Bits::from_u64(5, 8));
    let y = pb.reg_init("y", 8, Bits::from_u64(5, 8));
    let f = pb.reg("f", 1);
    let g = pb.reg("g", 8);
    three_trips(
        &mut pb,
        vec![
            if_then(
                eq(var(x), var(y)),
                vec![
                    assign(f, eq(var(x), var(y))),
                    assign(g, add(var(g), lit(1, 8))),
                ],
            ),
            assign(y, add(var(y), var(g))),
        ],
    );
    let end = assert_hazard_lockstep("cmp", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(2)).to_u64(), 1, "f is the compare that held");
    assert_eq!(end.reg(VarId(3)).to_u64(), 1, "the body ran once");
}

#[test]
fn sliced_byte_stored_at_a_constant_index_and_reused_after() {
    // CSE makes the register store read the slot of the slice the byte
    // store wrote: a second read, so the slice and the store must not be
    // fused into one that leaves the slot unwritten.
    let mut pb = kiwi_ir::ProgramBuilder::new("slice");
    let t = pb.array("t", 8, 4, ArrayBacking::BlockRam);
    let x = pb.reg_init("x", 16, Bits::from_u64(0xa5c3, 16));
    let y = pb.reg("y", 8);
    three_trips(
        &mut pb,
        vec![
            arr_write(t, lit(1, 2), slice(var(x), 11, 4)),
            assign(y, slice(var(x), 11, 4)),
            assign(x, add(var(x), lit(0x1234, 16))),
        ],
    );
    let end = assert_hazard_lockstep("slice", &pb.build().unwrap());
    // The last trip slices `x` = 0xa5c3 + 2 * 0x1234 = 0xca2b.
    assert_eq!(end.reg(VarId(1)).to_u64(), 0xa2);
}

#[test]
fn loop_edges_land_on_fused_pairs() {
    // Every branch target starts a region, and a pair never spans one:
    // the back edge lands on the header's fused compare-and-branch, the
    // exit just past a body that ends in a fused add-store, and each is
    // renumbered to the operation its pair became.
    let mut pb = kiwi_ir::ProgramBuilder::new("loop");
    let t = pb.array("t", 8, 4, ArrayBacking::BlockRam);
    let i = pb.reg("i", 8);
    let s = pb.reg("s", 16);
    three_trips(
        &mut pb,
        vec![
            assign(i, lit(0, 8)),
            while_loop(
                lt(var(i), lit(5, 8)),
                vec![
                    arr_write(t, lit(2, 2), slice(var(s), 9, 2)),
                    assign(s, add(var(s), resize(var(i), 16))),
                    assign(i, add(var(i), lit(1, 8))),
                ],
            ),
            assign(s, add(var(s), lit(7, 16))),
        ],
    );
    let prog = pb.build().unwrap();
    let fused = fused_forms(&prog);
    for form in ["BrzLt", "SliceStArrC", "AddStVar"] {
        let n = fused.iter().find(|(v, _)| *v == form).map_or(0, |e| e.1);
        assert!(n > 0, "{form} fires here: {fused:?}");
    }
    let end = assert_hazard_lockstep("loop", &prog);
    assert_eq!(end.reg(VarId(1)).to_u64(), 3 * (10 + 7));
}

/// Asserts that each of `forms` fires in `prog`'s default-pipeline
/// encoding, so a hazard test beside it runs the fused path too.
fn assert_fires(prog: &Program, forms: &[&str]) {
    let fused = fused_forms(prog);
    for form in forms {
        let n = fused.iter().find(|(v, _)| v == form).map_or(0, |e| e.1);
        assert!(n > 0, "{form} fires here: {fused:?}");
    }
}

/// The field loads of `prog`'s default-pipeline micro-ops, as the first
/// index and the byte count of each, in program order.
fn field_loads(prog: &Program) -> Vec<(u32, u8)> {
    let flat = flatten(prog).unwrap();
    let cp = kiwi_ir::compile_with_passes(&flat, kiwi_ir::default_pipeline()).unwrap();
    let mops = cp.threads.iter().flat_map(|t| &t.mops);
    mops.filter_map(|m| match *m {
        MOp::LdBytesCS { idx, n, .. } => Some((idx, n)),
        _ => None,
    })
    .collect()
}

#[test]
fn byte_load_chain_whose_middle_is_read_again() {
    // `x := {t0, t1, t2}` is a tower of two concats; CSE makes
    // `y := {t0, t1}` read its inner step again, so that step stays a
    // field load of its own beside `x`'s, and both fire. `z`'s inner
    // step has no second read and dies into `z`'s one load. `e`'s
    // tower starts within eight bytes of the array's end, where no word
    // is read, and stays loads and concats. The bytes change every
    // trip, after the loads.
    let mut pb = kiwi_ir::ProgramBuilder::new("chain");
    let t = pb.array("t", 8, 16, ArrayBacking::BlockRam);
    let x = pb.reg("x", 24);
    let y = pb.reg("y", 16);
    let z = pb.reg("z", 24);
    let e = pb.reg("e", 24);
    let c = pb.reg("c", 8);
    let at = |k: u64| arr_read(t, lit(k, 4));
    let mut body = vec![
        assign(x, concat(concat(at(0), at(1)), at(2))),
        assign(y, concat(at(0), at(1))),
        assign(z, concat(concat(at(1), at(2)), at(3))),
        assign(e, concat(concat(at(13), at(14)), at(15))),
        assign(c, add(var(c), lit(0x11, 8))),
    ];
    body.extend([0, 1, 2, 3, 13, 14, 15].map(|k| arr_write(t, lit(k, 4), add(var(c), lit(k, 8)))));
    three_trips(&mut pb, body);
    let prog = pb.build().unwrap();
    assert_eq!(field_loads(&prog), [(0, 2), (0, 3), (1, 3)]);
    let end = assert_hazard_lockstep("chain", &prog);
    assert_eq!(end.reg(VarId(0)).to_u64(), 0x222324, "x in the last trip");
    assert_eq!(
        end.reg(VarId(1)).to_u64(),
        0x2223,
        "y is x's high two bytes"
    );
    assert_eq!(end.reg(VarId(2)).to_u64(), 0x232425, "z in the last trip");
    assert_eq!(
        end.reg(VarId(3)).to_u64(),
        0x2f3031,
        "e reads the array's last bytes"
    );
}

#[test]
fn fields_of_wide_elements_or_on_a_register_stay_unfused() {
    // Two shapes `FusePairs` leaves as loads and concats: a pair of
    // 16-bit elements, whose low part is no byte, and a tower whose
    // high part is a register, not a load. The elements change every
    // trip, after the loads.
    let mut pb = kiwi_ir::ProgramBuilder::new("unfused");
    let h = pb.array_init(
        "h",
        16,
        16,
        ArrayBacking::BlockRam,
        vec![
            (2, Bits::from_u64(0x1234, 16)),
            (3, Bits::from_u64(0x5678, 16)),
        ],
    );
    let t = pb.array_init(
        "t",
        8,
        16,
        ArrayBacking::BlockRam,
        vec![(3, Bits::from_u64(0xab, 8)), (4, Bits::from_u64(0xcd, 8))],
    );
    let r = pb.reg_init("r", 8, Bits::from_u64(0x5a, 8));
    let x = pb.reg("x", 32);
    let y = pb.reg("y", 24);
    let c = pb.reg("c", 8);
    let (hat, tat) = (
        |k: u64| arr_read(h, lit(k, 4)),
        |k: u64| arr_read(t, lit(k, 4)),
    );
    let c16 = || resize(var(c), 16);
    three_trips(
        &mut pb,
        vec![
            assign(x, concat(hat(2), hat(3))),
            assign(y, concat(concat(var(r), tat(3)), tat(4))),
            assign(c, add(var(c), lit(0x11, 8))),
            arr_write(h, lit(2, 4), c16()),
            arr_write(h, lit(3, 4), add(c16(), lit(1, 16))),
            arr_write(t, lit(3, 4), var(c)),
            arr_write(t, lit(4, 4), add(var(c), lit(1, 8))),
            assign(r, add(var(r), lit(1, 8))),
        ],
    );
    let prog = pb.build().unwrap();
    assert_eq!(field_loads(&prog), []);
    let end = assert_hazard_lockstep("unfused", &prog);
    // The last trip reads what the one before it wrote.
    assert_eq!(end.reg(VarId(1)).to_u64(), 0x0022_0023, "x");
    assert_eq!(end.reg(VarId(2)).to_u64(), 0x5c_2223, "y");
}

#[test]
fn byte_store_runs_broken_by_an_index_a_shift_or_a_source() {
    // Each case is two byte stores next to each other that a run must
    // not take as one: the index skips one, `lo` falls by 4, the second
    // slices another register, the run ends within eight bytes of the
    // array's end (where no word is written). A store to `n` parts the
    // cases, and no two stores slice the same bits (CSE would share the
    // slice). The first three stores are a run, and stay one.
    let mut pb = kiwi_ir::ProgramBuilder::new("runs");
    let t = pb.array("t", 8, 24, ArrayBacking::BlockRam);
    let x = pb.reg_init("x", 48, Bits::from_u64(0x0123_4567_89ab, 48));
    let y = pb.reg_init("y", 16, Bits::from_u64(0xc3d2, 16));
    let n = pb.reg("n", 8);
    let byte = |k: u64, r: VarId, lo: u16| arr_write(t, lit(k, 5), slice(var(r), lo + 7, lo));
    let part = || assign(n, add(var(n), lit(1, 8)));
    three_trips(
        &mut pb,
        vec![
            byte(0, x, 40),
            byte(1, x, 32),
            byte(2, x, 24),
            part(),
            byte(4, x, 16),
            byte(6, x, 8),
            part(),
            byte(8, x, 14),
            byte(9, x, 10),
            part(),
            byte(10, x, 11),
            byte(11, y, 3),
            part(),
            byte(22, x, 5),
            byte(23, x, 1),
            assign(x, add(var(x), lit(0x1111_1111_1111, 48))),
            assign(y, add(var(y), lit(0x0f0f, 16))),
        ],
    );
    let prog = pb.build().unwrap();
    assert_fires(&prog, &["StBytesC"]);
    let end = assert_hazard_lockstep("runs", &prog);
    // The last trip stores the bytes of its `x` and `y`.
    let (x, y) = (
        0x0123_4567_89ab_u64 + 2 * 0x1111_1111_1111,
        0xc3d2 + 2 * 0x0f0f,
    );
    let at = |v: u64, lo: u32| (v >> lo) as u8;
    let bytes = end.arrays[0].bytes().unwrap();
    assert_eq!(bytes[..3], [at(x, 40), at(x, 32), at(x, 24)], "the run");
    assert_eq!([bytes[4], bytes[6]], [at(x, 16), at(x, 8)], "index skips");
    assert_eq!(bytes[8..10], [at(x, 14), at(x, 10)], "lo falls by 4");
    assert_eq!(bytes[10..12], [at(x, 11), at(y, 3)], "another source");
    assert_eq!(bytes[22..], [at(x, 5), at(x, 1)], "the array's end");
}

#[test]
fn add_that_indexes_a_store_and_is_read_after_it() {
    // CSE makes `y := b + 1` read the slot of the sum the first store
    // indexes by: a second read, so the add and the store must not be
    // fused into one that leaves the slot unwritten. The second store's
    // sum has no other read and fuses.
    let mut pb = kiwi_ir::ProgramBuilder::new("addst");
    let t = pb.array("t", 8, 16, ArrayBacking::BlockRam);
    let b = pb.reg_init("b", 4, Bits::from_u64(3, 4));
    let y = pb.reg("y", 4);
    three_trips(
        &mut pb,
        vec![
            arr_write(t, add(var(b), lit(1, 4)), lit(0xaa, 8)),
            assign(y, add(var(b), lit(1, 4))),
            arr_write(t, add(var(b), lit(5, 4)), resize(var(y), 8)),
            assign(b, add(var(b), lit(3, 4))),
        ],
    );
    let prog = pb.build().unwrap();
    assert_fires(&prog, &["AddStArr"]);
    let end = assert_hazard_lockstep("addst", &prog);
    assert_eq!(end.reg(VarId(1)).to_u64(), 10, "y is the last trip's b + 1");
}

/// Copies of `resize(inner, width)`: each copy is a node of its own, and
/// every copy's operand is the one `inner` node.
fn shared(inner: Expr, width: u16) -> impl Fn() -> Expr {
    let wrapper = resize(inner, width);
    move || wrapper.clone()
}

#[test]
fn shared_node_under_a_wide_ancestor_and_narrow_in_one_statement() {
    // `n = x + 3` sits under a 116-bit concat, whose slice is handed
    // whole to the reference `eval`, and again as a plain operand of the
    // add. The slice straddles `big` and `n`, so it differs from `n`.
    let mut pb = kiwi_ir::ProgramBuilder::new("wide_and_narrow");
    let x = pb.reg_init("x", 16, Bits::from_u64(0x0102, 16));
    let big = pb.reg_init("big", 100, Bits::from_u64(0xdead_beef, 100));
    let y = pb.reg("y", 16);
    let n = shared(add(var(x), lit(3, 16)), 16);
    three_trips(
        &mut pb,
        vec![
            assign(y, add(slice(concat(var(big), n()), 23, 8), n())),
            assign(x, add(var(x), var(y))),
        ],
    );
    let end = assert_hazard_lockstep("wide_and_narrow", &pb.build().unwrap());
    let mut x = 0x0102u64;
    let mut y = 0;
    for _ in 0..3 {
        let n = (x + 3) & 0xffff;
        y = ((0xef << 8 | n >> 8) + n) & 0xffff;
        x = (x + y) & 0xffff;
    }
    assert_eq!(end.reg(VarId(2)).to_u64(), y);
}

#[test]
fn shared_node_in_both_mux_arms_and_the_condition() {
    let mut pb = kiwi_ir::ProgramBuilder::new("mux");
    let x = pb.reg_init("x", 8, Bits::from_u64(0xfd, 8));
    let y = pb.reg_init("y", 8, Bits::from_u64(1, 8));
    let z = pb.reg("z", 8);
    let s = shared(add(var(x), var(y)), 8);
    three_trips(
        &mut pb,
        vec![
            assign(z, mux(s(), add(s(), lit(1, 8)), not(s()))),
            assign(x, add(var(x), lit(1, 8))),
        ],
    );
    let end = assert_hazard_lockstep("mux", &pb.build().unwrap());
    // The trips see x + y = 0xfe, 0xff, 0x00.
    assert_eq!(end.reg(VarId(2)).to_u64(), 0xff);
}

#[test]
fn shared_node_over_a_register_in_two_statements_with_a_store_between() {
    // `r + 1` before and after a store to `r` are two values, though
    // they are one node.
    let mut pb = kiwi_ir::ProgramBuilder::new("store_between");
    let r = pb.reg_init("r", 8, Bits::from_u64(10, 8));
    let a = pb.reg("a", 8);
    let b = pb.reg("b", 8);
    let s = shared(add(var(r), lit(1, 8)), 8);
    three_trips(
        &mut pb,
        vec![
            assign(a, s()),
            assign(r, add(var(r), lit(5, 8))),
            assign(b, s()),
        ],
    );
    let end = assert_hazard_lockstep("store_between", &pb.build().unwrap());
    assert_eq!(end.reg(VarId(1)).to_u64(), 10 + 10 + 1);
    assert_eq!(end.reg(VarId(2)).to_u64(), 10 + 15 + 1);
}

#[test]
fn shared_array_index_in_a_write_whose_value_reads_the_same_element() {
    // `t[i] := t[i] + 1` with `i` one node, then a read of the element
    // just written through the same node.
    let mut pb = kiwi_ir::ProgramBuilder::new("same_element");
    let init = (0..8).map(|k| (k, Bits::from_u64(0x10 * k as u64, 8)));
    let t = pb.array_init("t", 8, 8, ArrayBacking::LutRam, init.collect());
    let k = pb.reg_init("k", 3, Bits::from_u64(1, 3));
    let v = pb.reg("v", 8);
    let i = shared(add(var(k), lit(2, 3)), 3);
    three_trips(
        &mut pb,
        vec![
            arr_write(t, i(), add(arr_read(t, i()), lit(1, 8))),
            assign(v, arr_read(t, i())),
            assign(k, add(var(k), lit(1, 3))),
        ],
    );
    let end = assert_hazard_lockstep("same_element", &pb.build().unwrap());
    // The last trip bumps t[5]; each trip touches a different element.
    assert_eq!(end.reg(VarId(1)).to_u64(), 0x51);
}
