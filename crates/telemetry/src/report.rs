//! Host metadata for result files.
//!
//! Wall-clock numbers are only comparable between hosts of the same
//! shape, so every result file `emubench` (`benchmark/`) writes carries
//! the block [`host_info`] returns.
//!
//! ```
//! use emu_telemetry::{host_info, Json};
//!
//! let host = host_info();
//! assert!(host.get("cores").and_then(Json::as_u64) >= Some(1));
//! assert!(host.get("os").and_then(Json::as_str).is_some());
//! assert!(host.get("arch").and_then(Json::as_str).is_some());
//! ```

use crate::json::Json;

/// Host metadata recorded with every wall-clock result: enough to know
/// whether two throughput numbers are comparable at all.
pub fn host_info() -> Json {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj(vec![
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        ("cores", Json::from(cores as u64)),
    ])
}
