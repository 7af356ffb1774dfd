//! The one machine every target runs on: [`Core`], a shared code image
//! plus the state of one running copy.
//!
//! A program executes as one of three images ([`Code`]): the
//! tree-walker's flattened ops (reference software semantics), the
//! compiled micro-op bytecode (fast software semantics) or the scheduled
//! FSM (hardware semantics, one state per clock edge). Every image runs
//! on the same shell — each live thread takes its step in thread order,
//! then the environment ticks once — which is what lets one program run
//! unchanged on every target (§1, contribution 2); each image
//! contributes only its per-thread step.
//!
//! The image is immutable and held behind an [`Arc`], so an engine
//! builds it once and every shard's `clone()` shares it. What a clone
//! owns is its state: the [`MachineState`] — whose word file the
//! compiled image extends with its scratch and constant pool, written
//! once here — one pc per thread, the cycle and op counters, and the
//! FSM image's state-occupancy profile.

use crate::ast::{IrError, IrResult};
use crate::compile::{exec_thread, CompiledProgram};
use crate::flat::FlatProgram;
use crate::fsm::{step_thread, Fsm};
use crate::interp::{run_thread_to_pause, Env, MachineState, Observer};
use crate::program::Program;
use std::sync::Arc;

/// Abort threshold for one thread-cycle without a pause on the software
/// images, counted in source ops.
pub(crate) const MAX_OPS_PER_CYCLE: u64 = 100_000;

/// The trap of a software thread that ran [`MAX_OPS_PER_CYCLE`] ops
/// without pausing — one text for both software images.
#[cold]
pub(crate) fn missing_pause(thread: &str) -> IrError {
    IrError(format!(
        "thread {thread} exceeded {MAX_OPS_PER_CYCLE} ops without pausing (missing pause()?)"
    ))
}

/// What a [`Core`] executes: one program, lowered for one machine.
#[derive(Debug)]
pub enum Code {
    /// The tree-walking interpreter's flattened op stream.
    TreeWalk(FlatProgram),
    /// The compiled micro-op bytecode.
    Compiled(CompiledProgram),
    /// The cycle-accurate FSM.
    Fpga(Fsm),
}

/// Per-thread execution context.
#[derive(Debug, Clone)]
pub(crate) struct ThreadCtx {
    pub(crate) pc: usize,
    pub(crate) halted: bool,
}

/// One core of a service: a shared [`Code`] image and this copy's state.
///
/// The platform driver (`netfpga_sim::DataplaneDriver`) holds one; an
/// engine builds it once and gives every shard a `clone()`, which shares
/// the image and copies only the state.
#[derive(Clone)]
pub struct Core {
    code: Arc<Code>,
    inst: Instance,
}

/// What one copy of a core owns: everything but the code. The per-thread
/// steps take it whole, so the executors address it from one pointer.
#[derive(Clone)]
pub(crate) struct Instance {
    pub(crate) state: MachineState,
    pub(crate) threads: Vec<ThreadCtx>,
    pub(crate) cycle: u64,
    pub(crate) ops_executed: u64,
    /// The FSM image's state-occupancy profile (§2: "where time goes"):
    /// per thread, the cycles begun in each state, by state number, and
    /// in a last slot the cycles begun past the last op. Empty on the
    /// software images.
    pub(crate) occupancy: Vec<Vec<u64>>,
}

impl Core {
    /// Instantiates `code` in its reset state.
    pub fn new(code: Code) -> Self {
        let (prog, entries, occupancy) = match &code {
            Code::TreeWalk(flat) => (&flat.prog, vec![0; flat.threads.len()], Vec::new()),
            Code::Compiled(cp) => (&cp.prog, vec![0; cp.threads.len()], Vec::new()),
            Code::Fpga(fsm) => (
                &fsm.prog,
                fsm.threads.iter().map(|t| t.entry_pc).collect(),
                fsm.threads
                    .iter()
                    .map(|t| vec![0; t.state_count() + 1])
                    .collect(),
            ),
        };
        let mut state = MachineState::init(prog);
        if let Code::Compiled(cp) = &code {
            cp.extend_file(&mut state.words);
        }
        let inst = Instance {
            state,
            threads: entries
                .into_iter()
                .map(|pc| ThreadCtx { pc, halted: false })
                .collect(),
            cycle: 0,
            ops_executed: 0,
            occupancy,
        };
        Core {
            code: Arc::new(code),
            inst,
        }
    }

    /// The code image, shared by every clone of this core.
    pub fn code(&self) -> &Arc<Code> {
        &self.code
    }

    /// The program's declarations.
    pub fn program(&self) -> &Program {
        match &*self.code {
            Code::TreeWalk(flat) => &flat.prog,
            Code::Compiled(cp) => &cp.prog,
            Code::Fpga(fsm) => &fsm.prog,
        }
    }

    /// Cycles run since reset.
    pub fn cycle(&self) -> u64 {
        self.inst.cycle
    }

    /// Source ops executed since reset by a software image (the same
    /// count on both); the FSM counts cycles, not ops, and reports 0.
    pub fn ops_executed(&self) -> u64 {
        self.inst.ops_executed
    }

    /// Machine state for environment-side access.
    #[inline]
    pub fn state(&self) -> &MachineState {
        &self.inst.state
    }

    /// Mutable machine state (environment-side pokes between cycles).
    #[inline]
    pub fn state_mut(&mut self) -> &mut MachineState {
        &mut self.inst.state
    }

    /// True when every thread has halted.
    #[inline]
    pub fn halted(&self) -> bool {
        self.inst.halted()
    }

    /// The FSM image's state-occupancy profile: per thread, the cycles
    /// begun in each state by state number, then the cycles begun past
    /// the last op. Empty on the software images.
    pub fn occupancy(&self) -> &[Vec<u64>] {
        &self.inst.occupancy
    }

    /// Runs one clock cycle: each live thread takes its step (software:
    /// runs until it pauses or halts; FSM: advances one state), then
    /// `env.tick` runs once.
    pub fn step_cycle<E: Env + ?Sized, O: Observer + ?Sized>(
        &mut self,
        env: &mut E,
        obs: &mut O,
    ) -> IrResult<()> {
        self.cycles(env, obs, |_| Some(())).map(drop)
    }

    /// Runs `n` cycles, stopping early if every thread halts. Returns
    /// the number of cycles actually run.
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

    /// Steps the core one cycle at a time, handing `after_cycle` the
    /// state each cycle leaves, until it returns `Some`, and returns
    /// that. `Ok(None)`: every thread had halted before that, so the core
    /// was not stepped again.
    ///
    /// The image is matched once per call and each arm is its own loop
    /// with `after_cycle` inlined into it: matched once per cycle instead,
    /// each model cycle of emubench's `min64-switch` cost ~3.5 ns more on
    /// a 2-vCPU Xeon host. Statically dispatched: with a concrete
    /// environment and [`crate::NullObserver`] the whole cycle
    /// monomorphizes and the observer hooks compile away; `dyn Env` /
    /// `dyn Observer` callers work too (`?Sized`).
    #[inline]
    pub fn run<E: Env + ?Sized, O: Observer + ?Sized, T>(
        &mut self,
        env: &mut E,
        obs: &mut O,
        after_cycle: impl FnMut(&mut MachineState) -> Option<T>,
    ) -> IrResult<Option<T>> {
        if self.halted() {
            return Ok(None);
        }
        self.cycles(env, obs, after_cycle)
    }

    /// The cycle loop behind [`Core::step_cycle`] and [`Core::run`], one
    /// arm per image.
    #[inline(always)]
    fn cycles<E: Env + ?Sized, O: Observer + ?Sized, T>(
        &mut self,
        env: &mut E,
        obs: &mut O,
        after_cycle: impl FnMut(&mut MachineState) -> Option<T>,
    ) -> IrResult<Option<T>> {
        let Core { code, inst } = self;
        match &**code {
            Code::TreeWalk(flat) => inst.run(&flat.prog, env, after_cycle, |ti, inst| {
                run_thread_to_pause(flat, ti, inst, obs)
            }),
            Code::Compiled(cp) => inst.run(&cp.prog, env, after_cycle, |ti, inst| {
                exec_thread(cp, ti, inst, obs)
            }),
            Code::Fpga(fsm) => inst.run(&fsm.prog, env, after_cycle, |ti, inst| {
                step_thread(fsm, ti, inst, obs)
            }),
        }
    }
}

impl Instance {
    /// The cycle loop every image shares: each live thread takes its
    /// `step`, in thread order; the cycle count advances and `env` ticks
    /// once; then `after_cycle` sees the state. Repeats until
    /// `after_cycle` returns `Some` or every thread has halted.
    #[inline(always)]
    fn run<E: Env + ?Sized, T>(
        &mut self,
        prog: &Program,
        env: &mut E,
        mut after_cycle: impl FnMut(&mut MachineState) -> Option<T>,
        mut step: impl FnMut(usize, &mut Instance) -> IrResult<()>,
    ) -> IrResult<Option<T>> {
        loop {
            for ti in 0..self.threads.len() {
                if !self.threads[ti].halted {
                    step(ti, self)?;
                }
            }
            self.cycle += 1;
            env.tick(self.cycle, prog, &mut self.state);
            if let Some(t) = after_cycle(&mut self.state) {
                return Ok(Some(t));
            }
            if self.halted() {
                return Ok(None);
            }
        }
    }

    fn halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }
}
