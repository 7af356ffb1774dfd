//! The intermediate representation at the centre of the Emu reproduction.
//!
//! In the paper's toolchain (Figure 1), services are written in C#,
//! compiled by Mono to .NET CIL, and then either executed on a CPU or
//! compiled by Kiwi to Verilog. This crate is the CIL analogue: a typed,
//! hardware-shaped imperative IR with
//!
//! * a builder DSL ([`dsl`]) playing the role of the C# surface syntax,
//! * program containers ([`program`]) mirroring Kiwi's split into
//!   registers, arrays (RAMs), boundary signals, and hardware threads,
//! * a structured-to-linear lowering ([`flat`]) shared by all back ends,
//! * width-typed array storage ([`Cells`]) shared by every execution
//!   backend,
//! * a sequential tree-walking interpreter ([`interp`]) — the *reference*
//!   software semantics,
//! * a compiled micro-op backend ([`mod@compile`]) with an optimization pass
//!   pipeline ([`Pass`]) — the *fast* software target, byte-identical to
//!   the tree-walker by construction,
//! * the FSM image ([`fsm`]) and its cycle-accurate step — the hardware
//!   target,
//! * the one machine all three run on: a [`Core`] is a shared, immutable
//!   [`Code`] image (tree-walk, compiled or FSM) plus the state of one
//!   running copy, and
//! * the expression printer of the micro-op listing
//!   ([`mops_to_string`]).
//!
//! The rest of the FPGA back end (scheduling the FSM, resource
//! estimation, Verilog emission) lives in the `kiwi` crate; the IP-block
//! models the machines run against live in `emu-rtl`.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod ast;
mod cells;
pub mod compile;
pub mod dsl;
pub mod flat;
pub mod fsm;
pub mod interp;
mod machine;
mod opt;
mod pretty;
pub mod program;

pub use ast::{BinOp, Expr, IrError, IrResult, Stmt, UnOp};
pub use cells::Cells;
pub use compile::{compile, compile_with_passes, mops_to_string, CompiledProgram, CompiledThread};
pub use flat::{flatten, FlatProgram, FlatThread, Op};
pub use fsm::{Fsm, FsmThread};
pub use interp::{eval, Env, MachineState, NullEnv, NullObserver, Observer};
pub use machine::{Code, Core};
pub use opt::{default_pipeline, Pass};
pub use program::{ArrId, ArrayBacking, Program, ProgramBuilder, SigDir, SigId, Thread, VarId};
