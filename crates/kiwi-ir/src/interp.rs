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
use crate::cells::{fit_limbs, limbs_of, Cells};
use crate::compile::mask_of;
use crate::flat::{FlatProgram, Op};
use crate::machine::{missing_pause, Instance, MAX_OPS_PER_CYCLE};
use crate::program::{ArrId, Program, SigId, VarId};
use emu_types::Bits;

/// Mutable machine state shared with the environment between cycles.
///
/// # The word file
///
/// Registers and signals live in one file of `u64` words: word `v` is
/// register `v` ([`VarId`]), and above the registers word `regs + s` is
/// signal `s` ([`SigId`]), each masked to its declared width. One wider
/// than 64 bits keeps its `⌈width/64⌉` little-endian limbs in a run of
/// words above the signals, and its own word holds its low limb,
/// written by every store that writes the run (so
/// [`MachineState::sig_word`] is one load at any width; no micro-op
/// reads such a word). `word_file` is this layout, for the state and
/// the compiled image alike. Every machine, environment and observer
/// reaches registers through [`MachineState::reg`] /
/// [`MachineState::set_reg`] and signals through [`MachineState::sig`]
/// / [`MachineState::set_sig`] (and their word and limb forms); a
/// [`Bits`] is built only when a value is read.
///
/// The compiled image lays its scratch and its constant pool out in the
/// same file, above the runs (registers | signals | runs | scratch |
/// pool; see [`mod@crate::compile`]): a micro-op names a register or a
/// signal by its word, as it names a scratch value or a constant.
/// [`crate::Core::new`] extends the file for the compiled image.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// The word file: registers, signals, runs, then (compiled image
    /// only) scratch and pool.
    pub(crate) words: Vec<u64>,
    /// Per register, then per signal: where word `k`'s value lives.
    decls: Vec<Decl>,
    /// The number of registers: signal `s` is word `sig_base + s`.
    sig_base: usize,
    /// Array contents, indexed by `ArrId`: one [`Cells`] each, which all
    /// three machines access only through its accessors. The dataplane
    /// `frame` array is a byte slab, so a platform driver DMA-copies a
    /// frame in and a transmission out with `memcpy`
    /// ([`Cells::bytes`] / [`Cells::bytes_mut`]).
    pub arrays: Vec<Cells>,
    /// Per-array write high-water mark, indexed by `ArrId`: one past the
    /// highest slot that may differ from zero. Both execution backends
    /// bump this on every `ArrWrite`; platform drivers use it to bound
    /// how much of a buffer they must re-initialize between frames, and
    /// reset it after re-filling a prefix.
    pub arr_high: Vec<usize>,
}

/// Where a register or signal lives in the word file: its declared
/// width, and `at`, the first word of its limbs — its own word up to 64
/// bits, its run beyond.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decl {
    width: u16,
    at: u32,
}

impl Decl {
    /// The words of its limbs.
    #[inline]
    fn run(self) -> std::ops::Range<usize> {
        self.at as usize..self.at as usize + limbs_of(self.width)
    }
}

/// The word file's layout for `prog`: per register, then per signal,
/// where it lives (runs in declaration order above the signals), and
/// the first word above the runs, where a compiled image's scratch
/// starts.
pub(crate) fn word_file(prog: &Program) -> (Vec<Decl>, usize) {
    let vars = prog.vars().iter().map(|v| v.width);
    let widths = vars.chain(prog.signals().iter().map(|s| s.width));
    let mut end = prog.vars().len() + prog.signals().len();
    let decls = widths.enumerate().map(|(i, width)| {
        let n = limbs_of(width);
        end += if n > 1 { n } else { 0 };
        let at = if n > 1 { end - n } else { i } as u32;
        Decl { width, at }
    });
    (decls.collect(), end)
}

impl MachineState {
    /// Builds the reset state for `prog`: registers and signals at their
    /// declared init values, arrays loaded with their initializers.
    ///
    /// A signal holds an input as the environment last drove it (in
    /// [`Env::tick`]) and an output as the program last drove it. Each
    /// signal has one driver — validation rejects a program write to an
    /// input — and each starts at its declared reset value.
    pub fn init(prog: &Program) -> Self {
        let (decls, end) = word_file(prog);
        let mut st = MachineState {
            words: vec![0; end],
            decls,
            sig_base: prog.vars().len(),
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
        };
        let sigs = prog.signals().iter().map(|s| &s.init);
        let inits = prog.vars().iter().map(|v| &v.init).chain(sigs);
        for (i, init) in inits.enumerate() {
            st.put(i, init.limbs());
        }
        st
    }

    /// The value of word `i`'s register or signal, at its declared width.
    fn value(&self, i: usize) -> Bits {
        let d = self.decls[i];
        Bits::from_limbs(&self.words[d.run()], d.width)
    }

    /// Sets word `i`'s register or signal to the value whose
    /// little-endian limbs are `limbs`, zero-extended or truncated to its
    /// declared width: its own word, then its run if it has one (so a
    /// one-word store is a masked write and a compare).
    #[inline]
    fn put(&mut self, i: usize, limbs: &[u64]) {
        let d = self.decls[i];
        self.words[i] = limbs.first().map_or(0, |&l| l & mask_of(d.width));
        if d.at as usize != i {
            fit_limbs(&mut self.words[d.run()], limbs, d.width);
        }
    }

    /// Register `v`'s value, at its declared width.
    pub fn reg(&self, v: VarId) -> Bits {
        self.value(v.0 as usize)
    }

    /// Every register's value, in declaration order.
    pub fn regs(&self) -> Vec<Bits> {
        (0..self.sig_base).map(|i| self.value(i)).collect()
    }

    /// Sets register `v` to `value`, zero-extended or truncated to the
    /// register's declared width (an environment's or observer's write).
    pub fn set_reg(&mut self, v: VarId, value: Bits) {
        self.put(v.0 as usize, value.limbs());
    }

    /// Signal `s`'s value, at its declared width.
    pub fn sig(&self, s: SigId) -> Bits {
        self.value(self.sig_base + s.0 as usize)
    }

    /// Every signal's value, in declaration order.
    pub fn sigs(&self) -> Vec<Bits> {
        (self.sig_base..self.decls.len())
            .map(|i| self.value(i))
            .collect()
    }

    /// Drives signal `s` with `value`, zero-extended or truncated to the
    /// signal's declared width.
    pub fn set_sig(&mut self, s: SigId, value: Bits) {
        self.set_sig_limbs(s, value.limbs());
    }

    /// The low 64 bits of signal `s`: its word.
    #[inline]
    pub fn sig_word(&self, s: SigId) -> u64 {
        self.words[self.sig_base + s.0 as usize]
    }

    /// Drives signal `s` with `v` cut (or, beyond 64 bits, zero-extended)
    /// to its declared width.
    #[inline]
    pub fn set_sig_word(&mut self, s: SigId, v: u64) {
        self.set_sig_limbs(s, &[v]);
    }

    /// Signal `s`'s `⌈width/64⌉` little-endian limbs (the layout
    /// [`Bits::limbs`] exposes): its word up to 64 bits, its run beyond.
    #[inline]
    pub fn sig_limbs(&self, s: SigId) -> &[u64] {
        &self.words[self.decls[self.sig_base + s.0 as usize].run()]
    }

    /// Drives signal `s` with the value whose little-endian limbs are
    /// `limbs`, zero-extended or truncated to the signal's declared
    /// width (an empty slice drives zero).
    #[inline]
    pub fn set_sig_limbs(&mut self, s: SigId, limbs: &[u64]) {
        self.put(self.sig_base + s.0 as usize, limbs);
    }

    /// Records that array `arr` had slot `idx` written, lifting its
    /// high-water mark. Every array store in an execution backend must
    /// call this so platform drivers can trust [`MachineState::arr_high`].
    #[inline]
    pub fn note_arr_write(&mut self, arr: usize, idx: usize) {
        self.arr_high[arr] = self.arr_high[arr].max(idx + 1);
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
    pub fn assign<O: Observer + ?Sized>(&mut self, dst: VarId, e: &Expr, obs: &mut O) {
        let i = dst.0 as usize;
        let new = fit(eval(e, self), self.decls[i].width);
        obs.on_assign(dst.0, &self.value(i), &new);
        self.put(i, new.limbs());
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
    pub fn sig_write(&mut self, sig: SigId, e: &Expr) {
        let v = eval(e, self);
        self.set_sig_limbs(sig, v.limbs());
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

/// Where one flat op leaves its thread.
pub(crate) enum Next {
    /// On at this pc, within the cycle.
    Pc(usize),
    /// The cycle ends at a `Pause`.
    Pause,
    /// The thread stops at a `Halt`.
    Halt,
}

/// Executes flat op `op`, found at `pc`: the effects the two machines
/// that run flat ops share. Each keeps only its own cycle rule — the
/// tree-walker its op budget, the FSM its state boundaries.
#[inline(always)]
pub(crate) fn step_op<O: Observer + ?Sized>(
    op: &Op,
    pc: usize,
    state: &mut MachineState,
    obs: &mut O,
) -> Next {
    match op {
        Op::Assign(dst, e) => state.assign(*dst, e, obs),
        Op::ArrWrite(arr, idx, val) => {
            let i = eval(idx, state).to_u64() as usize;
            state.arr_write(*arr, i, val);
        }
        Op::SigWrite(sig, val) => state.sig_write(*sig, val),
        Op::Branch(cond, if_false) => {
            if !eval(cond, state).to_bool() {
                return Next::Pc(*if_false);
            }
        }
        Op::Jump(t) => return Next::Pc(*t),
        Op::Pause => return Next::Pause,
        Op::Label(name) => obs.on_label(name),
        Op::ExtPoint(id) => obs.on_ext_point(*id, state),
        Op::Halt => return Next::Halt,
    }
    Next::Pc(pc + 1)
}

/// Tree-walker thread `ti`'s share of a cycle: executes its flattened
/// ops from its pc until it pauses or halts, counting every op against
/// the per-cycle budget. The ops run are the budget spent, added to
/// `ops_executed` where the thread leaves (see [`missing_pause`]).
pub(crate) fn run_thread_to_pause<O: Observer + ?Sized>(
    flat: &FlatProgram,
    ti: usize,
    inst: &mut Instance,
    obs: &mut O,
) -> IrResult<()> {
    let thread = &flat.threads[ti];
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
            break;
        };
        budget = match budget.checked_sub(1) {
            Some(left) => left,
            None => return Err(missing_pause(&thread.name, ops_executed)),
        };
        match step_op(op, pc, state, obs) {
            Next::Pc(next) => ctx.pc = next,
            Next::Pause => {
                ctx.pc = pc + 1;
                break;
            }
            Next::Halt => {
                ctx.halted = true;
                break;
            }
        }
    }
    *ops_executed += MAX_OPS_PER_CYCLE - budget;
    Ok(())
}

/// Evaluates an expression against machine state.
///
/// Follows the width rules of [`crate::ast`]: binary operands are
/// zero-extended to the result width; comparisons are unsigned; shift
/// amounts ≥ width produce zero; out-of-range array reads produce zero.
pub fn eval(e: &Expr, st: &MachineState) -> Bits {
    match e {
        Expr::Const(b) => b.clone(),
        Expr::Var(v) => st.reg(*v),
        Expr::ArrRead(a, idx) => {
            let i = eval(idx, st).to_u64() as usize;
            let cells = &st.arrays[a.0 as usize];
            cells.get(i).unwrap_or_else(|| Bits::zero(cells.width()))
        }
        Expr::SigRead(s) => st.sig(*s),
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 10);
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 42);
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 0xbeef);
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 0);
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
                    st.set_sig(self.1, Bits::from_u64(1, 1));
                }
            }
        }

        let mut m = machine(pb);
        let mut env = RaiseAt(3, ready);
        m.run_cycles(10, &mut env, &mut NullObserver).unwrap();
        assert!(m.halted());
        assert_eq!(m.state().sig(done).to_u64(), 1);
        // It must have taken at least 3 cycles of waiting.
        assert!(m.cycle() >= 3);
    }

    #[test]
    fn a_signal_word_is_its_low_64_bits_whatever_the_width() {
        // Every store to a wide signal keeps its word in step with its
        // value, so the word form reads it without looking at the width.
        let mut pb = ProgramBuilder::new("p");
        let narrow = pb.sig_out("narrow", 12);
        let wide = pb.sig_out("wide", 100);
        pb.thread(
            "main",
            vec![
                sig_write(wide, shl(lit(3, 100), lit(64, 8))),
                pause(),
                sig_write(wide, lit(0x1_2345, 100)),
                halt(),
            ],
        );
        let mut m = machine(pb);
        let low = |m: &Core| (m.state().sig_word(wide), m.state().sig(wide).to_u64());
        m.step_cycle(&mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(low(&m), (0, 0));
        m.step_cycle(&mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(low(&m), (0x1_2345, 0x1_2345));
        let st = m.state_mut();
        st.set_sig_limbs(wide, &[7, 1]);
        assert_eq!((st.sig_word(wide), st.sig(wide).limbs()), (7, &[7, 1][..]));
        st.set_sig_word(wide, 9);
        assert_eq!((st.sig_word(wide), st.sig(wide).limbs()), (9, &[9, 0][..]));
        st.set_sig(wide, Bits::from_u128(5 << 64 | 6, 128));
        assert_eq!((st.sig_word(wide), st.sig(wide).limbs()), (6, &[6, 5][..]));
        st.set_sig_word(narrow, 0xf_fff);
        assert_eq!(st.sig_word(narrow), 0xfff, "cut to the width");
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 5);
        assert_eq!(m.state().reg(VarId(1)).to_u64(), 10);
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
        assert_eq!(m.state().reg(VarId(1)).to_u64(), 1);
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 0xff);
        assert_eq!(m.state().reg(VarId(1)).to_u64(), 1);
    }
}
