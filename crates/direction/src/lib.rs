//! The Emu debugging framework (§3.5): direction commands, the embedded
//! controller, and in-band direction packets.
//!
//! "Emu produces a debug environment by the systematic extension of
//! programs to interpret direction commands at runtime to enable
//! debugging, monitoring and profiling." The pieces:
//!
//! * [`DirectionPacket`] — the custom direction-packet format (gdb-RSP
//!   analogue),
//! * [`extend_program`] — the Figure 11 program transformation inserting
//!   the controller and the Figure 7 trace hook at extension points,
//! * [`parse`] and [`compile`] — the Table 2 command language and its
//!   compiler to CASP controller operations, and [`DirectionObserver`],
//!   the software-target observer (watch/break/count/backtrace),
//! * [`Director`] — the host-side client exchanging commands with a
//!   running service (Figure 8).
//!
//! Table 5's +R/+W/+I overhead measurements are regenerated by
//! `emu_bench::table5` using [`ControllerConfig`].

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod director;
mod lang;
mod packet;
mod transform;

pub use director::{Director, Outcome};
pub use lang::{compile, parse, Command, DirectionObserver};
pub use packet::{DirectionPacket, Opcode};
pub use transform::{extend_program, ControllerConfig};
