//! Sequential tree-walking interpreter: the *reference* software
//! semantics.
//!
//! This is the slow-but-obviously-correct CPU backend. Production CPU
//! execution goes through the compiled micro-op backend in
//! [`mod@crate::compile`], which must stay byte-identical to this
//! interpreter (the differential suites compare them directly, and CI
//! runs the whole test suite once with the tree-walker forced via
//! `EMU_CPU_BACKEND=treewalk` so this reference cannot rot).
//!
//! The interpreter executes the flattened op stream of each thread until a
//! `Pause` ([`crate::Code::TreeWalk`] on the one [`crate::Core`]), then
//! hands control to the environment — virtual NICs, IP-block behavioural
//! models, the Mininet-analogue network — exactly once per "cycle".
//! Because the FSM target advances attached models once per clock and the
//! interpreter advances them once per pause, a program observes the same
//! handshake sequence on both targets (§3.4's hash-seed protocol relies
//! on this).
//!
//! This module also holds what every machine shares: the
//! [`MachineState`], the [`Env`] / [`Observer`] hooks and the reference
//! [`eval`].

use crate::ast::{BinOp, Expr, IrResult, UnOp};
use crate::cells::Cells;
use crate::flat::{FlatProgram, Op};
use crate::machine::{missing_pause, Instance, MAX_OPS_PER_CYCLE};
use crate::program::{ArrId, Program, SigId, VarId};
use emu_types::Bits;

/// Mutable machine state shared with the environment between cycles.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Register values, indexed by `VarId`.
    pub vars: Vec<Bits>,
    /// Array contents, indexed by `ArrId`. Each array is a [`Cells`]:
    /// stored by the width class of its declared element width (`u8`
    /// slab up to 8 bits, `u64` slab up to 64, [`Bits`] cells above),
    /// every element masked to that width. The dataplane `frame` array is
    /// 8 bits wide and therefore a byte slab, so a platform driver
    /// DMA-copies a frame in and a transmission out with `memcpy`
    /// ([`Cells::bytes`] / [`Cells::bytes_mut`]) and a 1536 B buffer is
    /// 1.5 KiB of state. All three machines — this tree-walker, the
    /// compiled backend and the RTL FSM — access arrays only through
    /// the [`Cells`] accessors.
    pub arrays: Vec<Cells>,
    /// Signal values, indexed by `SigId`: an input as the environment
    /// last drove it (in [`Env::tick`]), an output as the program last
    /// drove it. Each signal has one driver — validation rejects a
    /// program write to an input — and each starts at its declared reset
    /// value.
    pub sigs: Vec<Bits>,
    /// Per-array write high-water mark, indexed by `ArrId`: one past the
    /// highest slot that may differ from zero. Both execution backends
    /// bump this on every `ArrWrite`; platform drivers use it to bound
    /// how much of a buffer they must re-initialize between frames, and
    /// reset it after re-filling a prefix.
    pub arr_high: Vec<usize>,
}

impl MachineState {
    /// Builds the reset state for `prog`: registers and signals at their
    /// declared init values, arrays loaded with their initializers.
    pub fn init(prog: &Program) -> Self {
        MachineState {
            vars: prog.vars().iter().map(|v| v.init.clone()).collect(),
            arrays: prog
                .arrays()
                .iter()
                .map(|a| {
                    let mut data = Cells::zeroed(a.elem_width, a.len);
                    for (i, v) in &a.init {
                        data.set(*i, v);
                    }
                    data
                })
                .collect(),
            arr_high: prog
                .arrays()
                .iter()
                .map(|a| a.init.iter().map(|(i, _)| i + 1).max().unwrap_or(0))
                .collect(),
            sigs: prog.signals().iter().map(|s| s.init.clone()).collect(),
        }
    }

    /// Records that array `arr` had slot `idx` written, lifting its
    /// high-water mark. Every array store in an execution backend must
    /// call this so platform drivers can trust [`MachineState::arr_high`].
    #[inline]
    pub fn note_arr_write(&mut self, arr: usize, idx: usize) {
        if self.arr_high[arr] < idx + 1 {
            self.arr_high[arr] = idx + 1;
        }
    }

    // The three stores, stated once: the tree-walker, the RTL machine
    // and the compiled backend's `St*E` micro-ops all execute a store by
    // calling these, so none of them can drift from the others. They
    // stay out of line: the compiled executor runs them for the few
    // statements wider than 64 bits, and inlined into its dispatch loop
    // their code slows every other micro-op (`l7-memcached` measured 2 %
    // under the parent with them inlined, above it without).

    /// `dst := e`: evaluates `e`, resizes it to the register's declared
    /// width, reports old and new value to the observer, then stores.
    #[inline(never)]
    pub fn assign<O: Observer + ?Sized>(
        &mut self,
        dst: VarId,
        e: &Expr,
        prog: &Program,
        obs: &mut O,
    ) {
        let w = prog.var(dst).expect("validated").width;
        let v = fit(eval(e, self), w);
        let reg = &mut self.vars[dst.0 as usize];
        obs.on_assign(dst.0, reg, &v);
        *reg = v;
    }

    /// `arr[i] := val`: evaluates `val` and stores it at the declared
    /// element width, lifting the high-water mark; an out-of-range `i`
    /// stores nothing.
    #[inline(never)]
    pub fn arr_write(&mut self, arr: ArrId, i: usize, val: &Expr) {
        let v = eval(val, self);
        if self.arrays[arr.0 as usize].set(i, &v) {
            self.note_arr_write(arr.0 as usize, i);
        }
    }

    /// `sig := e`: evaluates `e` and drives the output signal at its
    /// declared width.
    #[inline(never)]
    pub fn sig_write(&mut self, sig: SigId, e: &Expr, prog: &Program) {
        let w = prog.signal(sig).expect("validated").width;
        self.sigs[sig.0 as usize] = fit(eval(e, self), w);
    }
}

/// The environment a program runs inside: platform + IP blocks.
pub trait Env {
    /// Called once per cycle, after all threads have paused/halted. The
    /// environment samples output signals and arrays, steps its models,
    /// and drives input signals for the next cycle.
    fn tick(&mut self, cycle: u64, prog: &Program, state: &mut MachineState);

    /// Called once per delivered frame, before the frame is loaded into
    /// the core's buffer. Environments that model time in frame epochs
    /// (e.g. TTL-expiring tables) advance their clock here; idle cycles
    /// between frames never advance it. Defaults to a no-op.
    fn frame_start(&mut self) {}
}

/// An environment with no attached hardware: inputs stay zero.
pub struct NullEnv;

impl Env for NullEnv {
    fn tick(&mut self, _cycle: u64, _prog: &Program, _state: &mut MachineState) {}
}

/// Observer hooks used by the debug tooling on the software target.
pub trait Observer {
    /// A register was assigned.
    fn on_assign(&mut self, _var: u32, _old: &Bits, _new: &Bits) {}
    /// A label was crossed.
    fn on_label(&mut self, _name: &str) {}
    /// An extension point was crossed.
    fn on_ext_point(&mut self, _id: u32, _state: &mut MachineState) {}
}

/// A no-op observer.
pub struct NullObserver;

impl Observer for NullObserver {}

/// Tree-walker thread `ti`'s share of a cycle: executes its flattened
/// ops from its pc until it pauses or halts, counting every op against
/// the per-cycle budget.
pub(crate) fn run_thread_to_pause<O: Observer + ?Sized>(
    flat: &FlatProgram,
    ti: usize,
    inst: &mut Instance,
    obs: &mut O,
) -> IrResult<()> {
    let (thread, prog) = (&flat.threads[ti], &flat.prog);
    let Instance {
        state,
        threads,
        ops_executed,
        ..
    } = inst;
    let ctx = &mut threads[ti];
    let mut budget = MAX_OPS_PER_CYCLE;
    loop {
        let pc = ctx.pc;
        let Some(op) = thread.ops.get(pc) else {
            ctx.halted = true;
            return Ok(());
        };
        *ops_executed += 1;
        budget = budget
            .checked_sub(1)
            .ok_or_else(|| missing_pause(&thread.name))?;
        match op {
            Op::Assign(dst, e) => {
                state.assign(*dst, e, prog, obs);
                ctx.pc = pc + 1;
            }
            Op::ArrWrite(arr, idx, val) => {
                let i = eval(idx, state).to_u64() as usize;
                state.arr_write(*arr, i, val);
                ctx.pc = pc + 1;
            }
            Op::SigWrite(sig, val) => {
                state.sig_write(*sig, val, prog);
                ctx.pc = pc + 1;
            }
            Op::Branch(cond, if_false) => {
                let c = eval(cond, state);
                ctx.pc = if c.to_bool() { pc + 1 } else { *if_false };
            }
            Op::Jump(t) => {
                ctx.pc = *t;
            }
            Op::Pause => {
                ctx.pc = pc + 1;
                return Ok(());
            }
            Op::Label(name) => {
                obs.on_label(name);
                ctx.pc = pc + 1;
            }
            Op::ExtPoint(id) => {
                obs.on_ext_point(*id, state);
                ctx.pc = pc + 1;
            }
            Op::Halt => {
                ctx.halted = true;
                return Ok(());
            }
        }
    }
}

/// Evaluates an expression against machine state.
///
/// Follows the width rules of [`crate::ast`]: binary operands are
/// zero-extended to the result width; comparisons are unsigned; shift
/// amounts ≥ width produce zero; out-of-range array reads produce zero.
pub fn eval(e: &Expr, st: &MachineState) -> Bits {
    match e {
        Expr::Const(b) => b.clone(),
        Expr::Var(v) => st.vars[v.0 as usize].clone(),
        Expr::ArrRead(a, idx) => {
            let i = eval(idx, st).to_u64() as usize;
            let cells = &st.arrays[a.0 as usize];
            cells.get(i).unwrap_or_else(|| Bits::zero(cells.width()))
        }
        Expr::SigRead(s) => st.sigs[s.0 as usize].clone(),
        Expr::Un(op, e) => {
            let v = eval(e, st);
            match op {
                UnOp::Not => v.not(),
                UnOp::Neg => Bits::zero(v.width()).wrapping_sub(&v),
                UnOp::RedOr => Bits::from_bool(!v.is_zero()),
            }
        }
        Expr::Bin(op, l, r) => {
            let lv = eval(l, st);
            let rv = eval(r, st);
            // Shifts keep the left operand's own width, so they alone
            // read the operands as evaluated.
            if matches!(op, BinOp::Shl | BinOp::Shr) {
                let n = rv.to_u64().min(u64::from(u32::MAX)) as u32;
                return if *op == BinOp::Shl {
                    lv.shl(n)
                } else {
                    lv.shr(n)
                };
            }
            let w = lv.width().max(rv.width());
            let (lw, rw) = (fit(lv, w), fit(rv, w));
            use std::cmp::Ordering::*;
            match op {
                BinOp::Add => lw.wrapping_add(&rw),
                BinOp::Sub => lw.wrapping_sub(&rw),
                BinOp::Mul => lw.wrapping_mul(&rw),
                BinOp::And => lw.and(&rw),
                BinOp::Or => lw.or(&rw),
                BinOp::Xor => lw.xor(&rw),
                BinOp::Shl | BinOp::Shr => unreachable!("shifts returned above"),
                BinOp::Eq => Bits::from_bool(lw == rw),
                BinOp::Ne => Bits::from_bool(lw != rw),
                BinOp::Lt => Bits::from_bool(lw.cmp_u(&rw) == Less),
                BinOp::Le => Bits::from_bool(lw.cmp_u(&rw) != Greater),
                BinOp::Gt => Bits::from_bool(lw.cmp_u(&rw) == Greater),
                BinOp::Ge => Bits::from_bool(lw.cmp_u(&rw) != Less),
            }
        }
        Expr::Mux(c, t, e2) => {
            let tv = eval(t, st);
            let ev = eval(e2, st);
            let w = tv.width().max(ev.width());
            fit(if eval(c, st).to_bool() { tv } else { ev }, w)
        }
        Expr::Slice(e, hi, lo) => eval(e, st).slice(*hi, *lo),
        Expr::Concat(h, l) => eval(h, st).concat(&eval(l, st)),
        Expr::Resize(e, w) => fit(eval(e, st), *w),
    }
}

/// `v` zero-extended or truncated to `w` bits: moved as it is when it
/// already has that width, so a value wider than a machine word is not
/// copied for nothing.
#[inline]
fn fit(v: Bits, w: u16) -> Bits {
    if v.width() == w {
        v
    } else {
        v.resize(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::flat::flatten;
    use crate::machine::{Code, Core};
    use crate::program::{ArrayBacking, ProgramBuilder};

    fn machine(pb: ProgramBuilder) -> Core {
        Core::new(Code::TreeWalk(flatten(&pb.build().unwrap()).unwrap()))
    }

    #[test]
    fn counter_counts() {
        let mut pb = ProgramBuilder::new("counter");
        let c = pb.reg("c", 32);
        pb.thread(
            "main",
            vec![forever(vec![assign(c, add(var(c), lit(1, 32))), pause()])],
        );
        let mut m = machine(pb);
        m.run_cycles(10, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[0].to_u64(), 10);
        assert_eq!(m.cycle(), 10);
    }

    #[test]
    fn halting_program_stops() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread("main", vec![assign(a, lit(42, 8)), halt()]);
        let mut m = machine(pb);
        let ran = m.run_cycles(100, &mut NullEnv, &mut NullObserver).unwrap();
        assert!(m.halted());
        assert!(ran <= 2);
        assert_eq!(m.state().vars[0].to_u64(), 42);
    }

    #[test]
    fn missing_pause_detected() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![forever(vec![assign(a, add(var(a), lit(1, 8)))])],
        );
        let mut m = machine(pb);
        let err = m.step_cycle(&mut NullEnv, &mut NullObserver).unwrap_err();
        assert!(err.0.contains("without pausing"));
    }

    #[test]
    fn arrays_read_write_with_oob_semantics() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 16);
        let t = pb.array("t", 16, 4, ArrayBacking::LutRam);
        pb.thread(
            "main",
            vec![
                arr_write(t, lit(2, 8), lit(0xbeef, 16)),
                arr_write(t, lit(200, 8), lit(0xdead, 16)), // dropped
                assign(a, arr_read(t, lit(2, 8))),
                halt(),
            ],
        );
        let mut m = machine(pb);
        m.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[0].to_u64(), 0xbeef);
        let t = &m.state().arrays[0];
        assert!((0..t.len()).all(|i| t.get_u64(i) != Some(0xdead)));
    }

    #[test]
    fn oob_array_read_is_zero() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 16);
        let t = pb.array("t", 16, 4, ArrayBacking::LutRam);
        pb.thread(
            "main",
            vec![
                arr_write(t, lit(0, 8), lit(7, 16)),
                assign(a, arr_read(t, lit(99, 8))),
                halt(),
            ],
        );
        let mut m = machine(pb);
        m.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[0].to_u64(), 0);
    }

    #[test]
    fn signal_handshake_with_env() {
        // Program: waits for `ready`, then writes `done` = 1.
        let mut pb = ProgramBuilder::new("p");
        let ready = pb.sig_in("ready", 1);
        let done = pb.sig_out("done", 1);
        pb.thread(
            "main",
            vec![wait_until(sig(ready)), sig_write(done, lit(1, 1)), halt()],
        );

        struct RaiseAt(u64, crate::SigId);
        impl Env for RaiseAt {
            fn tick(&mut self, cycle: u64, _prog: &Program, st: &mut MachineState) {
                if cycle >= self.0 {
                    st.sigs[self.1 .0 as usize] = Bits::from_u64(1, 1);
                }
            }
        }

        let mut m = machine(pb);
        let mut env = RaiseAt(3, ready);
        m.run_cycles(10, &mut env, &mut NullObserver).unwrap();
        assert!(m.halted());
        assert_eq!(m.state().sigs[1].to_u64(), 1);
        // It must have taken at least 3 cycles of waiting.
        assert!(m.cycle() >= 3);
    }

    #[test]
    fn two_threads_run_in_lockstep() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 32);
        let b = pb.reg("b", 32);
        pb.thread(
            "t0",
            vec![forever(vec![assign(a, add(var(a), lit(1, 32))), pause()])],
        );
        pb.thread(
            "t1",
            vec![forever(vec![assign(b, add(var(b), lit(2, 32))), pause()])],
        );
        let mut m = machine(pb);
        m.run_cycles(5, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[0].to_u64(), 5);
        assert_eq!(m.state().vars[1].to_u64(), 10);
    }

    #[test]
    fn observer_sees_assignments_and_labels() {
        #[derive(Default)]
        struct Spy {
            assigns: u32,
            labels: Vec<String>,
            exts: Vec<u32>,
        }
        impl Observer for Spy {
            fn on_assign(&mut self, _v: u32, _o: &Bits, _n: &Bits) {
                self.assigns += 1;
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
            vec![label("start"), assign(a, lit(1, 8)), ext_point(7), halt()],
        );
        let mut m = machine(pb);
        let mut spy = Spy::default();
        m.run_cycles(3, &mut NullEnv, &mut spy).unwrap();
        assert_eq!(spy.assigns, 1);
        assert_eq!(spy.labels, vec!["start".to_string()]);
        assert_eq!(spy.exts, vec![7]);
    }

    #[test]
    fn mux_and_compare_semantics() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 8);
        pb.thread(
            "main",
            vec![
                assign(a, lit(200, 8)),
                assign(b, mux(gt(var(a), lit(100, 8)), lit(1, 8), lit(2, 8))),
                halt(),
            ],
        );
        let mut m = machine(pb);
        m.run_cycles(3, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[1].to_u64(), 1);
    }

    #[test]
    fn neg_and_redor() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 1);
        pb.thread(
            "main",
            vec![
                assign(a, neg(lit(1, 8))),
                assign(b, nonzero(var(a))),
                halt(),
            ],
        );
        let mut m = machine(pb);
        m.run_cycles(3, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[0].to_u64(), 0xff);
        assert_eq!(m.state().vars[1].to_u64(), 1);
    }
}
