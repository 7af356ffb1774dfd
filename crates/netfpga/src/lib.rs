//! NetFPGA SUME platform model.
//!
//! The paper deploys every Emu service as the "main logical core" of the
//! NetFPGA reference pipeline (Figure 10), sharing the ports, input
//! arbiter and output queues across services so that "no hardware
//! expertise" is required (§5.1). This crate reproduces that platform:
//!
//! * [`timing`] — the 200 MHz / 4×10G timing constants and
//!   [`timing::NodeClock`], an Emu node's port-to-port timing,
//! * [`dataplane`] — the frame/metadata contract between a program and
//!   the platform (the substrate binding of Figure 6), plus the
//!   platform-side driver,
//! * [`native`] — the Table 3 baselines, one type with two values:
//!   [`Baseline::Reference`] (the hand-written reference switch) and
//!   [`Baseline::P4Fpga`] (the P4FPGA-generated switch), and
//!   [`switch_forward`], the one learning-switch reference they, the
//!   switch service's tests and `emu_traffic::SwitchModel` share,
//! * [`pipeline`] — the discrete-event pipeline simulation that produces
//!   module latency, end-to-end latency and throughput (§5.4's multi-core
//!   memcached is one pipeline per core, `emu_bench::scaling`), behind
//!   output queues of [`pipeline::OUT_QUEUE_FRAMES`] frames per port;
//!   [`pipeline::latencies_ns`] and [`pipeline::throughput_pps`] read any
//!   slice of its records.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod dataplane;
pub mod native;
pub mod pipeline;
pub mod timing;

pub use dataplane::{declare, CoreOutput, DataplaneDriver, DataplanePorts, TxList};
pub use native::{switch_forward, Baseline};
pub use pipeline::{CoreMode, PipelineSim};
