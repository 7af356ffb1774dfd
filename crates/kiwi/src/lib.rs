//! The Kiwi-style HLS back end: IR → clocked FSM → Verilog.
//!
//! The paper builds Emu on the Kiwi compiler, which translates .NET CIL
//! into register-transfer-level Verilog (§3.1). This crate reproduces the
//! parts of Kiwi that the paper's evaluation depends on:
//!
//! * **Scheduling** ([`schedule`]): `Kiwi.Pause()`-delimited cycle
//!   boundaries plus automatic splitting under a clock-period budget
//!   (§3.2(ii), §3.4).
//! * **Resource estimation** ([`resources`]): LUT/memory/FF accounting for
//!   the compiled logic and attached IP blocks — the quantities in
//!   Tables 3 and 5.
//! * **Verilog emission** ([`verilog`]): [`lower`] turns the FSM into a
//!   table of guarded non-blocking assignments over pre-edge values
//!   (registers, array elements and outputs written earlier in a cycle
//!   forward-substituted into later reads), and [`print()`] writes that
//!   table as textual RTL. The root test `verilog_lockstep` runs the
//!   table beside the FSM on every cycle of every shipped service.
//!
//! The FSM image itself ([`Fsm`]) lives in `kiwi-ir`, beside its
//! cycle-accurate *execution*: a `kiwi_ir::Core` on `kiwi_ir::Code::Fpga`
//! runs one state per clock edge.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod fsm;
pub mod resources;
pub mod verilog;

pub use fsm::{schedule, CostModel, Fsm, FsmThread};
pub use resources::{estimate, IpBlock, ResourceReport};
pub use verilog::{emit, lint, lower, print, RtlTable};

use kiwi_ir::{flatten, IrResult, Program};

/// Compiles a program with the default 200 MHz cost model.
pub fn compile(prog: &Program) -> IrResult<Fsm> {
    compile_with(prog, CostModel::default())
}

/// Compiles a program with an explicit cost model (used by the
/// parallelism-vs-latency ablation).
pub fn compile_with(prog: &Program, model: CostModel) -> IrResult<Fsm> {
    let flat = flatten(prog)?;
    schedule(&flat, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiwi_ir::dsl::*;
    use kiwi_ir::ProgramBuilder;

    #[test]
    fn end_to_end_compile_and_emit() {
        let mut pb = ProgramBuilder::new("blinky");
        let led = pb.sig_out("led", 1);
        let c = pb.reg("c", 24);
        pb.thread(
            "main",
            vec![forever(vec![
                assign(c, add(var(c), lit(1, 24))),
                sig_write(led, slice(var(c), 23, 23)),
                pause(),
            ])],
        );
        let prog = pb.build().unwrap();
        let fsm = compile(&prog).unwrap();
        assert!(fsm.threads[0].state_count() >= 1);
        let text = emit(&fsm).unwrap();
        lint(&text).unwrap();
        let rep = estimate(&fsm, &[]);
        assert!(rep.logic > 0 && rep.ffs >= 24);
    }
}
