//! Client-side end-to-end accounting.
//!
//! Engine telemetry (PR 6) observes a service from the inside; these
//! counters observe the *network* from the outside, at the only place
//! that matters to a user: the client. Everything here is in simulation
//! time, so two runs with the same seed produce byte-identical
//! snapshots — the determinism contract [`netsim::NetSim::telemetry`]
//! extends to agents.

use emu_telemetry::{Histogram, Json};
use emu_traffic::ClientOutcome;

/// What one closed-loop client measured over its run.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Requests issued (first transmissions, not counting retries).
    pub issued: u64,
    /// Retransmissions across all requests.
    pub retransmits: u64,
    /// Requests resolved with a verified response.
    pub completed: u64,
    /// Requests resolved with a *wrong* response (always a checker
    /// violation downstream).
    pub mismatches: u64,
    /// Requests that exhausted their retry budget.
    pub timeouts: u64,
    /// Responses suppressed as duplicates or late arrivals — the frame
    /// was addressed to us and well-formed, but its id matched no
    /// outstanding request (link duplication, or a response outrunning
    /// its own timeout).
    pub duplicates: u64,
    /// Frames ignored because they were not addressed to this client
    /// (flood copies from learning switches, chiefly).
    pub ignored: u64,
    /// Response bytes of completed requests — the numerator of goodput.
    pub response_bytes: u64,
    /// Simulation time of the first request issue (`NAN` before).
    pub first_issue_ns: f64,
    /// Simulation time of the last request resolution (`NAN` before).
    pub last_resolve_ns: f64,
    /// RTTs of completions that needed no retransmission (Karn's rule).
    pub rtt: Histogram,
    /// Per-request outcome records for [`emu_traffic::ClientCheck`].
    pub outcomes: Vec<ClientOutcome>,
}

impl ClientStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        ClientStats {
            first_issue_ns: f64::NAN,
            last_resolve_ns: f64::NAN,
            ..Self::default()
        }
    }

    /// Completed requests per second of simulated time between the
    /// first issue and the last resolution, or 0.0 before any resolve.
    pub fn goodput_rps(&self) -> f64 {
        let span = self.last_resolve_ns - self.first_issue_ns;
        if span.is_finite() && span > 0.0 {
            self.completed as f64 * 1e9 / span
        } else {
            0.0
        }
    }

    /// Deterministic snapshot (simulation-time quantities only).
    pub fn to_json(&self) -> Json {
        let q = |p: f64| Json::Num(self.rtt.quantile(p).unwrap_or(0) as f64);
        Json::obj(vec![
            ("issued", Json::Num(self.issued as f64)),
            ("retransmits", Json::Num(self.retransmits as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("mismatches", Json::Num(self.mismatches as f64)),
            ("timeouts", Json::Num(self.timeouts as f64)),
            ("duplicates", Json::Num(self.duplicates as f64)),
            ("ignored", Json::Num(self.ignored as f64)),
            ("response_bytes", Json::Num(self.response_bytes as f64)),
            ("rtt_p50_ns", q(0.50)),
            ("rtt_p99_ns", q(0.99)),
            ("rtt_samples", Json::Num(self.rtt.count() as f64)),
        ])
    }
}
