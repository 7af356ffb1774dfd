//! # `emu-telemetry` — engine-wide observability
//!
//! Every speed claim this reproduction makes — the batch refill, the
//! compiled backend, shard scale-out — is only as credible as its
//! measurement. Emulation work frames this directly: *When Should I Use
//! Network Emulation?* treats emulator credibility as a measurement
//! problem, and the Emu paper itself (Tables 4/5) is measurement-driven.
//! This crate is the one place those measurements are defined, so that
//! "p99" and "drops" mean the same thing in the engine hot path, the
//! NetSim topology, and the benchmark.
//!
//! ## Pieces
//!
//! | item | role |
//! |---|---|
//! | [`Histogram`] | log-bucketed (HDR-style) value distribution: ≤ 1/32 relative bucket error, exact quantile *bounds*, lossless merge |
//! | [`Counters`] | per-shard frame/byte/drop/trap accounting, one counter per outcome |
//! | [`ShardStats`] | one shard's counters + per-frame cycle histogram |
//! | [`EngineSnapshot`] | a whole engine's per-shard stats, mergeable into totals |
//! | [`Json`] | a dependency-free JSON value with parser and writer |
//! | [`host_info`] | the os/arch/cores block every wall-clock result file carries |
//!
//! ## Determinism contract
//!
//! The histogram records **model cycles per frame**, not host wall time:
//! cycle accounting is identical across the compiled and tree-walk
//! backends and across sequential and parallel shard execution, so two
//! runs over the same frames must produce *byte-identical* snapshots
//! (`EngineSnapshot: PartialEq`). Wall-clock throughput is measured by
//! the benchmark around the engine, never inside it.
//!
//! ## Overhead contract
//!
//! Recording one frame is a handful of u64 additions plus one
//! leading-zeros bucket index — no allocation, no branching beyond one
//! `Option` check. `emubench` (`bash benchmark/run.sh`) measures the
//! end-to-end cost against a telemetry-disabled engine and reports it
//! as `telemetry.overhead_share` (budget: 5 %).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod counters;
mod hist;
mod json;
pub mod report;

pub use counters::{CamCounters, Counters, DropKind, EngineSnapshot, ShardStats};
pub use hist::Histogram;
pub use json::Json;
pub use report::host_info;
