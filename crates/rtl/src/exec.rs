//! Cycle-accurate execution of compiled FSMs.
//!
//! This is the reproduction's stand-in for running the synthesized design
//! on the NetFPGA SUME: each call to [`RtlMachine::step_cycle`] is one
//! 5 ns clock edge of the 200 MHz fabric (§5.1). The executor advances
//! every thread by exactly one FSM state per cycle, then steps the
//! environment (ports, arbiter, IP blocks) once — the same [`Env`]
//! contract the sequential interpreter uses, so the *identical program*
//! runs on both targets (§1, contribution 2). Timing differs; behaviour
//! must not, and the differential tests in `/tests` assert exactly that.

use kiwi::fsm::Fsm;
use kiwi_ir::flat::Op;
use kiwi_ir::interp::{eval, Env, MachineState, Observer};
use kiwi_ir::{IrError, IrResult};
use std::collections::HashMap;

/// One core of a service, on whichever machine executes it.
///
/// This is what lets one service program run unchanged on the
/// tree-walking interpreter (reference software semantics), the compiled
/// micro-op backend (fast software semantics), and the cycle-accurate FSM
/// (hardware semantics) — the heterogeneous-target property of §1. The
/// platform driver (`netfpga_sim::DataplaneDriver`) holds one; an engine
/// builds it once and gives every shard a `clone()`.
///
/// Each method matches once on the machine kind. The cycle loop is one
/// of them, [`Core::run`], so a frame costs one such branch, not one
/// per cycle.
#[derive(Clone)]
pub enum Core {
    /// The tree-walking interpreter.
    TreeWalk(kiwi_ir::Machine),
    /// The compiled micro-op bytecode.
    Compiled(kiwi_ir::CompiledMachine),
    /// The cycle-accurate FSM.
    Fpga(RtlMachine),
}

impl Core {
    /// Steps the core one cycle at a time (interpreter: one
    /// pause-to-pause slice), handing `after_cycle` the state each cycle
    /// leaves, until it returns `Some`, and returns that. `Ok(None)`: the
    /// core's threads had all halted before that, so it was not stepped
    /// again.
    ///
    /// The machine is matched once per call and each arm is its own loop
    /// with `after_cycle` inlined into it: matched once per cycle instead,
    /// each model cycle of emubench's `min64-switch` cost ~3.5 ns more on
    /// a 2-vCPU Xeon host.
    /// Statically dispatched: with a concrete environment and
    /// [`kiwi_ir::NullObserver`] the whole cycle monomorphizes and the
    /// observer hooks compile away; `dyn Env` / `dyn Observer` callers
    /// work too (`?Sized`).
    #[inline]
    pub fn run<E: Env + ?Sized, O: Observer + ?Sized, T>(
        &mut self,
        env: &mut E,
        obs: &mut O,
        mut after_cycle: impl FnMut(&mut MachineState) -> Option<T>,
    ) -> IrResult<Option<T>> {
        // The same loop over three machines that share these method
        // names but no trait.
        macro_rules! run {
            ($m:expr) => {
                loop {
                    if $m.halted() {
                        return Ok(None);
                    }
                    $m.step_cycle(env, obs)?;
                    if let Some(t) = after_cycle($m.state_mut()) {
                        return Ok(Some(t));
                    }
                }
            };
        }
        match self {
            Core::TreeWalk(m) => run!(m),
            Core::Compiled(m) => run!(m),
            Core::Fpga(m) => run!(m),
        }
    }

    /// The program's declarations.
    pub fn program(&self) -> &kiwi_ir::Program {
        match self {
            Core::TreeWalk(m) => m.program(),
            Core::Compiled(m) => m.program(),
            Core::Fpga(m) => &m.fsm.prog,
        }
    }

    /// Machine state for environment-side access.
    #[inline]
    pub fn state(&self) -> &MachineState {
        match self {
            Core::TreeWalk(m) => m.state(),
            Core::Compiled(m) => m.state(),
            Core::Fpga(m) => m.state(),
        }
    }

    /// Mutable machine state.
    #[inline]
    pub fn state_mut(&mut self) -> &mut MachineState {
        match self {
            Core::TreeWalk(m) => m.state_mut(),
            Core::Compiled(m) => m.state_mut(),
            Core::Fpga(m) => m.state_mut(),
        }
    }
}

/// Per-thread execution context.
#[derive(Debug, Clone)]
struct ThreadCtx {
    pc: usize,
    halted: bool,
}

/// Cycle-accurate executor for a compiled [`Fsm`].
#[derive(Clone)]
pub struct RtlMachine {
    fsm: Fsm,
    state: MachineState,
    threads: Vec<ThreadCtx>,
    cycle: u64,
    /// Cycles spent in each (thread, state-entry pc): the state-occupancy
    /// profile behind Emu's profiling support (§2: "where time goes").
    occupancy: HashMap<(usize, usize), u64>,
}

impl RtlMachine {
    /// Instantiates the design in its reset state.
    pub fn new(fsm: Fsm) -> Self {
        let state = MachineState::init(&fsm.prog);
        let threads = fsm
            .threads
            .iter()
            .map(|t| ThreadCtx {
                pc: t.entry_pc,
                halted: false,
            })
            .collect();
        RtlMachine {
            fsm,
            state,
            threads,
            cycle: 0,
            occupancy: HashMap::new(),
        }
    }

    /// The compiled design.
    pub fn fsm(&self) -> &Fsm {
        &self.fsm
    }

    /// Elapsed cycles since reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Elapsed simulated time in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        self.cycle as f64 * self.fsm.model.ns_per_cycle()
    }

    /// Immutable machine state.
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Mutable machine state (environment pokes between cycles).
    pub fn state_mut(&mut self) -> &mut MachineState {
        &mut self.state
    }

    /// True when every thread has halted.
    pub fn halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// The state-occupancy profile: (thread index, state pc) → cycles.
    pub fn occupancy(&self) -> &HashMap<(usize, usize), u64> {
        &self.occupancy
    }

    /// Renders the occupancy profile sorted by descending cycle count.
    pub fn occupancy_report(&self) -> String {
        let mut rows: Vec<_> = self.occupancy.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        let mut out = String::new();
        for ((ti, pc), cycles) in rows {
            let share = 100.0 * *cycles as f64 / self.cycle.max(1) as f64;
            out.push_str(&format!(
                "thread {} state@pc{:<5} {:>10} cycles ({share:5.1}%)\n",
                self.fsm.threads[*ti].name, pc, cycles
            ));
        }
        out
    }

    /// Advances the design by one clock edge.
    pub fn step_cycle<E: Env + ?Sized, O: Observer + ?Sized>(
        &mut self,
        env: &mut E,
        obs: &mut O,
    ) -> IrResult<()> {
        for ti in 0..self.threads.len() {
            self.step_thread(ti, obs)?;
        }
        self.cycle += 1;
        env.tick(self.cycle, &self.fsm.prog, &mut self.state);
        Ok(())
    }

    /// Runs `n` cycles, stopping early if all threads halt. Returns the
    /// number of cycles actually run.
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

    fn step_thread<O: Observer + ?Sized>(&mut self, ti: usize, obs: &mut O) -> IrResult<()> {
        if self.threads[ti].halted {
            return Ok(());
        }
        let start = self.threads[ti].pc;
        *self.occupancy.entry((ti, start)).or_insert(0) += 1;

        let thread = &self.fsm.threads[ti];
        let ops_len = thread.ops.len();
        let mut pc = start;
        let mut steps = 0usize;

        loop {
            if steps > 0 && thread.is_boundary(pc) {
                // Reached the next state (possibly looping back to start).
                self.threads[ti].pc = pc;
                return Ok(());
            }
            if steps > 2 * ops_len + 4 {
                return Err(IrError(format!(
                    "thread {} livelocked within one cycle at pc {pc}",
                    thread.name
                )));
            }
            steps += 1;
            if pc >= ops_len {
                self.threads[ti].halted = true;
                return Ok(());
            }
            match &thread.ops[pc] {
                Op::Assign(dst, e) => {
                    self.state.assign(*dst, e, &self.fsm.prog, obs);
                    pc += 1;
                }
                Op::ArrWrite(arr, idx, val) => {
                    let i = eval(idx, &self.fsm.prog, &self.state).to_u64() as usize;
                    self.state.arr_write(*arr, i, val, &self.fsm.prog);
                    pc += 1;
                }
                Op::SigWrite(sig, e) => {
                    self.state.sig_write(*sig, e, &self.fsm.prog);
                    pc += 1;
                }
                Op::Branch(cond, if_false) => {
                    let c = eval(cond, &self.fsm.prog, &self.state);
                    pc = if c.to_bool() { pc + 1 } else { *if_false };
                }
                Op::Jump(t) => pc = *t,
                Op::Pause => {
                    self.threads[ti].pc = thread.resolve(pc + 1);
                    return Ok(());
                }
                Op::Label(name) => {
                    obs.on_label(name);
                    pc += 1;
                }
                Op::ExtPoint(id) => {
                    obs.on_ext_point(*id, &mut self.state);
                    pc += 1;
                }
                Op::Halt => {
                    self.threads[ti].halted = true;
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiwi::fsm::CostModel;
    use kiwi_ir::dsl::*;
    use kiwi_ir::interp::{NullEnv, NullObserver};
    use kiwi_ir::{Machine, ProgramBuilder};

    fn rtl(pb: &ProgramBuilder, model: CostModel) -> RtlMachine {
        let prog = pb.clone().build().unwrap();
        RtlMachine::new(kiwi::compile_with(&prog, model).unwrap())
    }

    #[test]
    fn counter_advances_once_per_cycle() {
        let mut pb = ProgramBuilder::new("c");
        let c = pb.reg("c", 32);
        pb.thread(
            "main",
            vec![forever(vec![assign(c, add(var(c), lit(1, 32))), pause()])],
        );
        let mut m = rtl(&pb, CostModel::default());
        m.run_cycles(100, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(m.state().vars[0].to_u64(), 100);
        assert!((m.time_ns() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn budget_split_changes_cycles_not_result() {
        // Ten chained adds: generous budget = 1 cycle/iteration, tight
        // budget = several cycles/iteration; the final value must agree.
        let mk = || {
            let mut pb = ProgramBuilder::new("chain");
            let a = pb.reg("a", 32);
            let done = pb.reg("done", 1);
            let mut body = Vec::new();
            for _ in 0..10 {
                body.push(assign(a, add(var(a), lit(3, 32))));
            }
            body.push(assign(done, lit(1, 1)));
            body.push(halt());
            pb.thread("main", body);
            pb
        };
        let mut loose = rtl(
            &mk(),
            CostModel {
                period_units: 10_000,
                clock_hz: 200_000_000,
            },
        );
        let mut tight = rtl(
            &mk(),
            CostModel {
                period_units: 8,
                clock_hz: 200_000_000,
            },
        );
        loose
            .run_cycles(1000, &mut NullEnv, &mut NullObserver)
            .unwrap();
        tight
            .run_cycles(1000, &mut NullEnv, &mut NullObserver)
            .unwrap();
        assert_eq!(loose.state().vars[0].to_u64(), 30);
        assert_eq!(tight.state().vars[0].to_u64(), 30);
        assert!(tight.cycle() > loose.cycle());
    }

    #[test]
    fn rtl_matches_interpreter_functionally() {
        // A program with data-dependent control flow; both targets must
        // compute the same fibonacci-ish sequence.
        let mk = || {
            let mut pb = ProgramBuilder::new("fib");
            let a = pb.reg("a", 64);
            let b = pb.reg("b", 64);
            let i = pb.reg("i", 8);
            let t = pb.reg("t", 64);
            pb.reg_init("seed", 64, emu_types::Bits::from_u64(1, 64));
            pb.thread(
                "main",
                vec![
                    assign(b, lit(1, 64)),
                    while_loop(
                        lt(var(i), lit(30, 8)),
                        vec![
                            assign(t, add(var(a), var(b))),
                            assign(a, var(b)),
                            assign(b, var(t)),
                            assign(i, add(var(i), lit(1, 8))),
                            pause(),
                        ],
                    ),
                    halt(),
                ],
            );
            pb
        };
        let prog = mk().build().unwrap();
        let mut interp = Machine::new(kiwi_ir::flatten(&prog).unwrap());
        interp
            .run_cycles(100, &mut NullEnv, &mut NullObserver)
            .unwrap();

        let mut m = rtl(&mk(), CostModel::default());
        m.run_cycles(1000, &mut NullEnv, &mut NullObserver).unwrap();

        assert!(interp.halted() && m.halted());
        assert_eq!(interp.state().vars[0], m.state().vars[0]);
        assert_eq!(interp.state().vars[1], m.state().vars[1]);
        assert_eq!(m.state().vars[1].to_u64(), 1_346_269); // fib(31)
    }

    #[test]
    fn occupancy_profile_accumulates() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![forever(vec![
                assign(a, add(var(a), lit(1, 8))),
                pause(),
                assign(a, add(var(a), lit(2, 8))),
                pause(),
            ])],
        );
        let mut m = rtl(&pb, CostModel::default());
        m.run_cycles(10, &mut NullEnv, &mut NullObserver).unwrap();
        let total: u64 = m.occupancy().values().sum();
        assert_eq!(total, 10);
        assert!(m.occupancy_report().contains("thread main"));
    }

    #[test]
    fn halted_design_stops_consuming_cycles() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread("main", vec![assign(a, lit(9, 8)), halt()]);
        let mut m = rtl(&pb, CostModel::default());
        let ran = m.run_cycles(100, &mut NullEnv, &mut NullObserver).unwrap();
        assert!(ran <= 2);
        assert!(m.halted());
    }
}
