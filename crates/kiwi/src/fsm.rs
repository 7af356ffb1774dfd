//! Scheduling: partitioning the linear op stream into clock-cycle states.
//!
//! This is the heart of the Kiwi back end as the paper describes it
//! (§3.2(ii), §3.4): `Kiwi.Pause()` gives the developer a cycle-accurate
//! handle ("this breaks up computation and allows Kiwi to schedule a
//! suitable amount of computation in a single clock cycle"), while
//! elsewhere the compiler auto-schedules — if it packs too much logic into
//! one cycle the design fails timing, so the scheduler splits any region
//! whose estimated combinational depth exceeds the clock-period budget.
//!
//! A state is identified by the op index (program counter) at which the
//! cycle begins. State boundaries arise from three sources:
//!
//! 1. the op after every `Pause`,
//! 2. every backward-jump target (loop headers take at least one cycle per
//!    iteration, as in Kiwi), and
//! 3. budget cuts inserted where accumulated combinational delay would
//!    exceed [`CostModel::period_units`].
//!
//! Lowering the clock-period budget models a higher clock frequency /
//! deeper pipeline; the §5.3 ablation in `emu_bench` uses this to
//! reproduce the paper's observation (§2, §5.3) that adding parallelism
//! (pipeline depth) *increases* network latency.
//!
//! The image the scheduler produces, [`Fsm`], is defined in `kiwi-ir`
//! beside the machine that runs it (`kiwi_ir::Code::Fpga`) and
//! re-exported here.

use kiwi_ir::flat::{FlatProgram, FlatThread, Op};
use kiwi_ir::fsm::resolve;
pub use kiwi_ir::fsm::{Fsm, FsmThread};
use kiwi_ir::program::Program;
use kiwi_ir::{IrError, IrResult};
use std::collections::BTreeSet;

/// The scheduler's one calibration setting: the combinational budget per
/// clock cycle.
///
/// `period_units` is in the gate units returned by `Expr::delay`: one
/// unit ≈ one LUT level ≈ 0.2 ns with generous routing slack. 24 units ≈
/// what a 200 MHz Virtex-7 design can absorb between registers in its
/// 5 ns cycle. The model holds no clock: cycles become time on the
/// platform's 200 MHz grid (§5.1), and the §5.3 ablation names the clock
/// each tighter budget stands for in its labels only.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Combinational depth budget per clock cycle, in gate units.
    pub period_units: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { period_units: 24 }
    }
}

/// Per-op combinational delay in gate units.
fn op_delay(op: &Op, prog: &Program) -> u32 {
    match op {
        Op::Assign(_, e) => e.delay(prog) + 1,
        Op::ArrWrite(a, i, v) => {
            let decode = prog
                .array(*a)
                .map(|d| (usize::BITS - d.len.leading_zeros()).max(1))
                .unwrap_or(1);
            i.delay(prog).max(v.delay(prog)) + decode
        }
        Op::SigWrite(_, e) => e.delay(prog) + 1,
        Op::Branch(c, _) => c.delay(prog) + 1,
        Op::Jump(_) | Op::Pause | Op::Label(_) | Op::ExtPoint(_) | Op::Halt => 0,
    }
}

/// Schedules one thread into states.
fn schedule_thread(t: &FlatThread, prog: &Program, model: &CostModel) -> IrResult<FsmThread> {
    t.check_targets()?;
    let ops = t.ops.clone();
    let n = ops.len();
    let mut boundaries: BTreeSet<usize> = BTreeSet::new();

    let entry = resolve(&ops, 0);
    boundaries.insert(entry);

    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Pause if i < n => {
                boundaries.insert(resolve(&ops, i + 1).min(n.saturating_sub(1)));
            }
            Op::Jump(t) | Op::Branch(_, t) if *t <= i => {
                boundaries.insert(resolve(&ops, *t));
            }
            _ => {}
        }
    }

    // Budget pass: accumulate combinational offsets forward; cut where the
    // budget would be exceeded. Within-cycle predecessors all have smaller
    // indices (backward targets are boundaries already), so one forward
    // pass suffices.
    let mut offset = vec![0u32; n];
    for pc in 0..n {
        if boundaries.contains(&pc) {
            offset[pc] = 0;
        } else {
            // Fall-through predecessor.
            let mut off = 0u32;
            if pc > 0 {
                let prev = &ops[pc - 1];
                let falls = !matches!(prev, Op::Jump(_) | Op::Halt | Op::Pause);
                if falls {
                    off = off.max(offset[pc - 1] + op_delay(prev, prog));
                }
            }
            offset[pc] = off;
        }
        // Forward jump/branch edges into later ops.
        match &ops[pc] {
            Op::Jump(t2) if *t2 > pc && *t2 < n && !boundaries.contains(t2) => {
                offset[*t2] = offset[*t2].max(offset[pc]);
            }
            Op::Branch(_, t2) if *t2 > pc && *t2 < n && !boundaries.contains(t2) => {
                offset[*t2] = offset[*t2].max(offset[pc] + op_delay(&ops[pc], prog));
            }
            _ => {}
        }
        let d = op_delay(&ops[pc], prog);
        if offset[pc] + d > model.period_units && offset[pc] > 0 {
            boundaries.insert(pc);
            offset[pc] = 0;
        }
    }

    Ok(FsmThread::new(t.name.clone(), ops, entry, boundaries))
}

/// Compiles a flattened program into per-thread FSMs under `model`.
pub fn schedule(flat: &FlatProgram, model: CostModel) -> IrResult<Fsm> {
    let mut threads = Vec::new();
    for t in &flat.threads {
        threads.push(schedule_thread(t, &flat.prog, &model)?);
    }
    if threads.is_empty() {
        return Err(IrError("program has no threads".into()));
    }
    Ok(Fsm {
        prog: flat.prog.clone(),
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiwi_ir::dsl::*;
    use kiwi_ir::flat::flatten;
    use kiwi_ir::interp::{NullEnv, NullObserver};
    use kiwi_ir::program::{ProgramBuilder, VarId};
    use kiwi_ir::{Code, Core};

    fn fsm_of(pb: ProgramBuilder, model: CostModel) -> Fsm {
        schedule(&flatten(&pb.build().unwrap()).unwrap(), model).unwrap()
    }

    /// `pb`'s program scheduled under `model`, on the cycle-accurate core.
    fn rtl(pb: &ProgramBuilder, model: CostModel) -> Core {
        Core::new(Code::Fpga(fsm_of(pb.clone(), model)))
    }

    #[test]
    fn pause_creates_states() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![
                assign(a, lit(1, 8)),
                pause(),
                assign(a, lit(2, 8)),
                pause(),
                assign(a, lit(3, 8)),
                halt(),
            ],
        );
        let f = fsm_of(pb, CostModel::default());
        // Three states: entry, after first pause, after second pause.
        assert_eq!(f.threads[0].state_count(), 3);
    }

    #[test]
    fn loop_header_is_a_state() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![forever(vec![assign(a, add(var(a), lit(1, 8))), pause()])],
        );
        let f = fsm_of(pb, CostModel::default());
        let t = &f.threads[0];
        assert!(t.is_boundary(t.entry_pc));
        // The pause successor resolves through the back jump to the header,
        // so a single state suffices: one iteration per cycle.
        assert_eq!(t.state_count(), 1);
    }

    #[test]
    fn budget_splits_deep_logic() {
        // One very deep expression chain with no pauses: the scheduler must
        // cut it into multiple states under a small budget.
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 32);
        let mut body = Vec::new();
        for _ in 0..20 {
            body.push(assign(a, add(var(a), lit(1, 32))));
        }
        body.push(halt());
        pb.thread("main", body);

        let tight = fsm_of(pb.clone(), CostModel { period_units: 8 });
        let loose = fsm_of(
            pb,
            CostModel {
                period_units: 10_000,
            },
        );
        assert!(
            tight.threads[0].state_count() > loose.threads[0].state_count(),
            "tight {} vs loose {}",
            tight.threads[0].state_count(),
            loose.threads[0].state_count()
        );
        assert_eq!(loose.threads[0].state_count(), 1);
    }

    #[test]
    fn wait_loop_is_single_state() {
        // The Figure-5 idiom `while (!ready) pause;` must poll once per
        // cycle, i.e. compile to exactly one state.
        let mut pb = ProgramBuilder::new("p");
        let rdy = pb.sig_in("ready", 1);
        pb.thread("main", vec![wait_until(sig(rdy)), halt()]);
        let f = fsm_of(pb, CostModel::default());
        // States: loop header (poll) + halt landing.
        assert!(f.threads[0].state_count() <= 2);
    }

    #[test]
    fn resolve_follows_jump_chains() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![forever(vec![
                if_then(eq(var(a), lit(0, 8)), vec![assign(a, lit(1, 8))]),
                pause(),
            ])],
        );
        let f = fsm_of(pb, CostModel::default());
        let t = &f.threads[0];
        for (pc, _) in t.states() {
            // No state may begin on a Jump (they must be resolved through).
            assert!(!matches!(t.ops[pc], Op::Jump(_)), "state at jump pc {pc}");
        }
    }

    #[test]
    fn empty_program_rejected() {
        let pb = ProgramBuilder::new("p");
        let flat = flatten(&pb.build().unwrap()).unwrap();
        assert!(schedule(&flat, CostModel::default()).is_err());
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
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 100);
        assert_eq!(m.cycle(), 100);
    }

    #[test]
    fn budget_split_changes_cycles_not_result() {
        // Ten chained adds: generous budget = 1 cycle/iteration, tight
        // budget = several cycles/iteration; the final value must agree.
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
        let model = |period_units| CostModel { period_units };
        let mut loose = rtl(&pb, model(10_000));
        let mut tight = rtl(&pb, model(8));
        loose
            .run_cycles(1000, &mut NullEnv, &mut NullObserver)
            .unwrap();
        tight
            .run_cycles(1000, &mut NullEnv, &mut NullObserver)
            .unwrap();
        assert_eq!(loose.state().reg(VarId(0)).to_u64(), 30);
        assert_eq!(tight.state().reg(VarId(0)).to_u64(), 30);
        assert!(tight.cycle() > loose.cycle());
    }

    #[test]
    fn rtl_matches_interpreter_functionally() {
        // A program with data-dependent control flow; both targets must
        // compute the same fibonacci-ish sequence.
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
        let flat = flatten(&pb.clone().build().unwrap()).unwrap();
        let mut interp = Core::new(Code::TreeWalk(flat));
        interp
            .run_cycles(100, &mut NullEnv, &mut NullObserver)
            .unwrap();

        let mut m = rtl(&pb, CostModel::default());
        m.run_cycles(1000, &mut NullEnv, &mut NullObserver).unwrap();

        assert!(interp.halted() && m.halted());
        assert_eq!(interp.state().reg(VarId(0)), m.state().reg(VarId(0)));
        assert_eq!(interp.state().reg(VarId(1)), m.state().reg(VarId(1)));
        assert_eq!(m.state().reg(VarId(1)).to_u64(), 1_346_269); // fib(31)
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
        let total: u64 = m.occupancy().iter().flatten().sum();
        assert_eq!(total, 10);
        assert_eq!(m.occupancy(), [vec![5, 5, 0]], "two states, taken in turn");
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
