//! The FSM image: each thread's flattened op stream cut into clock-cycle
//! states, and the cycle-accurate step that runs it.
//!
//! This is the reproduction's stand-in for running the synthesized design
//! on the NetFPGA SUME: on [`crate::Code::Fpga`], each cycle of the one
//! [`crate::Core`] is one 5 ns clock edge of the 200 MHz fabric (§5.1),
//! advancing every thread by exactly one state before the environment
//! (ports, arbiter, IP blocks) ticks once — the same [`crate::Env`]
//! contract the software images use, so the *identical program* runs on
//! every target (§1, contribution 2). Timing differs; behaviour must not.
//!
//! Where the states begin is decided by the scheduler in the `kiwi`
//! crate (`kiwi::fsm::schedule`), beside the resource estimate and the
//! Verilog emitter that read the same image.

use crate::ast::{IrError, IrResult};
use crate::flat::Op;
use crate::interp::{step_op, Next, Observer};
use crate::machine::Instance;
use crate::program::Program;

/// A state machine compiled from one thread.
#[derive(Debug, Clone)]
pub struct FsmThread {
    /// Thread name.
    pub name: String,
    /// The op stream (shared shape with the flattened thread).
    pub ops: Vec<Op>,
    /// Entry state pc (`resolve(0)`).
    pub entry_pc: usize,
    /// Per op index: the dense number of the state that begins there.
    state_of_pc: Vec<Option<u32>>,
    /// How many states there are.
    n_states: usize,
}

/// A compiled program: declarations plus one FSM per thread.
#[derive(Debug, Clone)]
pub struct Fsm {
    /// Declarations (registers, arrays, signals).
    pub prog: Program,
    /// Per-thread state machines.
    pub threads: Vec<FsmThread>,
}

impl FsmThread {
    /// An FSM over `ops` whose states begin at the op indices in
    /// `state_pcs` (in any order; an index past the last op begins no
    /// state). States are numbered in ascending pc order.
    pub fn new(
        name: String,
        ops: Vec<Op>,
        entry_pc: usize,
        state_pcs: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut state_of_pc = vec![None; ops.len()];
        for pc in state_pcs {
            if let Some(s) = state_of_pc.get_mut(pc) {
                *s = Some(0);
            }
        }
        let mut n_states = 0;
        for s in state_of_pc.iter_mut().flatten() {
            *s = n_states as u32;
            n_states += 1;
        }
        FsmThread {
            name,
            ops,
            entry_pc,
            state_of_pc,
            n_states,
        }
    }

    /// Number of FSM states.
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// The number of the state that begins at `pc`, if one does.
    #[inline]
    pub fn state_at(&self, pc: usize) -> Option<usize> {
        self.state_of_pc
            .get(pc)
            .copied()
            .flatten()
            .map(|s| s as usize)
    }

    /// True if `pc` begins a state.
    #[inline]
    pub fn is_boundary(&self, pc: usize) -> bool {
        self.state_at(pc).is_some()
    }

    /// Every state as `(entry pc, state number)`, in ascending pc order.
    pub fn states(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.ops.len()).filter_map(|pc| Some((pc, self.state_at(pc)?)))
    }

    /// Follows `Jump` and `Label` chains from `pc` to the first effective
    /// op (see [`resolve`]).
    pub fn resolve(&self, pc: usize) -> usize {
        resolve(&self.ops, pc)
    }
}

/// Follows `Jump` and `Label` chains in `ops` from `pc` to the first
/// effective op. Safe on malformed chains (gives up after `ops.len()`
/// hops).
pub fn resolve(ops: &[Op], mut pc: usize) -> usize {
    for _ in 0..=ops.len() {
        match ops.get(pc) {
            Some(Op::Jump(t)) => pc = *t,
            Some(Op::Label(_)) => pc += 1,
            _ => break,
        }
    }
    pc
}

/// One clock edge of thread `ti`: advances it by exactly one state,
/// counting the cycle against the state it began in (its occupancy row
/// has one slot per state, plus a last one for a cycle begun past the
/// last op).
pub(crate) fn step_thread<O: Observer + ?Sized>(
    fsm: &Fsm,
    ti: usize,
    inst: &mut Instance,
    obs: &mut O,
) -> IrResult<()> {
    let thread = &fsm.threads[ti];
    let Instance {
        state,
        threads,
        occupancy,
        ..
    } = inst;
    let ctx = &mut threads[ti];
    let start = ctx.pc;
    occupancy[ti][thread.state_at(start).unwrap_or(thread.n_states)] += 1;

    let ops_len = thread.ops.len();
    let mut pc = start;
    let mut steps = 0usize;

    loop {
        if steps > 0 && thread.is_boundary(pc) {
            // Reached the next state (possibly looping back to start).
            ctx.pc = pc;
            return Ok(());
        }
        if steps > 2 * ops_len + 4 {
            return Err(IrError(format!(
                "thread {} livelocked within one cycle at pc {pc}",
                thread.name
            )));
        }
        steps += 1;
        let Some(op) = thread.ops.get(pc) else {
            ctx.halted = true;
            return Ok(());
        };
        match step_op(op, pc, state, obs) {
            Next::Pc(next) => pc = next,
            Next::Pause => {
                ctx.pc = thread.resolve(pc + 1);
                return Ok(());
            }
            Next::Halt => {
                ctx.halted = true;
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{NullEnv, NullObserver};
    use crate::machine::{Code, Core};
    use crate::program::ProgramBuilder;

    #[test]
    fn a_cycle_begun_past_the_last_op_has_its_own_profile_slot() {
        // One state ending in a trailing pause: the second cycle begins at
        // `ops.len()`, which is no state, and halts there.
        let mut pb = ProgramBuilder::new("p");
        pb.thread("main", vec![]);
        let prog = pb.build().unwrap();
        let thread = FsmThread::new("main".into(), vec![Op::Pause], 0, [0, 1]);
        assert_eq!(thread.state_count(), 1);
        assert_eq!(thread.states().collect::<Vec<_>>(), [(0, 0)]);
        assert!(!thread.is_boundary(1));
        let fsm = Fsm {
            prog,
            threads: vec![thread],
        };
        let mut m = Core::new(Code::Fpga(fsm));
        let ran = m.run_cycles(10, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(ran, 2);
        assert!(m.halted());
        assert_eq!(m.occupancy(), [vec![1, 1]]);
    }
}
