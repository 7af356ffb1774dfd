//! The shared closed-loop request driver.
//!
//! All three protocol clients (TCP handshake, memcached, DNS) are the
//! same machine: issue one request, arm a retransmission timer, back
//! off exponentially on silence, give up after a bounded number of
//! retries, verify whatever comes back, and only then issue the next
//! request. [`Client`] owns that machine; a [`RequestProto`] supplies
//! the three protocol-specific moves (build a request, classify a
//! frame, absorb a timeout into its model of the server).
//!
//! Timers are one-shot and carry the request serial as their token;
//! there is no cancellation. A timer whose serial no longer matches the
//! outstanding request is stale and ignored — the discrete-event idiom
//! [`netsim::HostAgent`] documents.

use crate::stats::ClientStats;
use emu_telemetry::Json;
use emu_traffic::ClientOutcome;
use emu_types::Frame;
use netsim::{AgentOutput, HostAgent};
use std::any::Any;

/// Timer-token bit distinguishing "issue the next request" kicks from
/// retransmission timeouts. Arm `KICK` (serial 0's kick) at t=0 via
/// [`netsim::NetSim::arm_timer`] to start a client.
pub const KICK: u64 = 1 << 63;

/// Closed-loop reliability knobs, shared by every client. There is no
/// think time: a client arms its next request at the instant the last
/// one resolves.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Requests to issue before going idle.
    pub requests: u64,
    /// Base retransmission timeout; doubles per retry.
    pub rto_ns: f64,
    /// Retransmissions allowed per request before declaring a timeout.
    pub retries: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            requests: 100,
            rto_ns: 2_000_000.0, // 2 ms
            retries: 4,
        }
    }
}

/// The in-flight request (window is fixed at 1).
#[derive(Debug)]
pub struct Sent {
    /// Request serial.
    pub serial: u64,
    /// The exact frame, kept for retransmission.
    pub frame: Frame,
    /// Issue time of the first transmission.
    pub first_ns: f64,
    /// Retransmissions spent so far.
    pub retries: u32,
}

/// How a received frame relates to the client's outstanding request.
#[derive(Debug)]
pub enum Classify {
    /// Not addressed to this client, or not this protocol — a flood
    /// copy passing by.
    NotMine,
    /// A well-formed response whose id matches no outstanding request:
    /// a link-level duplicate or a response that outran its timeout.
    Stale,
    /// The response to the outstanding request.
    Response {
        /// Did it match the client's model of the server?
        verified: bool,
        /// Mismatch detail.
        note: Option<String>,
    },
}

/// The protocol-specific third of a closed-loop client.
pub trait RequestProto: 'static {
    /// Label for outcomes and telemetry (`"tcp"`, `"memcached"`, `"dns"`).
    fn proto(&self) -> &'static str;

    /// Builds request `serial`. Called once per serial; the driver
    /// keeps the frame for retransmission, so the request must be
    /// byte-stable under retry.
    fn build(&mut self, serial: u64) -> Frame;

    /// Classifies an incoming frame against the outstanding request.
    /// On `Response`, the protocol must also fold the observation into
    /// its own server model (e.g. collapse shadow-store uncertainty).
    fn classify(&mut self, frame: &Frame, outstanding: Option<&Sent>) -> Classify;

    /// The outstanding request exhausted its retries: absorb the
    /// uncertainty (a timed-out write may or may not have applied).
    fn on_timeout(&mut self, _serial: u64) {}
}

/// A closed-loop endpoint: the shared driver around a [`RequestProto`].
pub struct Client<P: RequestProto> {
    name: String,
    proto: P,
    cfg: ClientConfig,
    next_serial: u64,
    outstanding: Option<Sent>,
    stats: ClientStats,
}

impl<P: RequestProto> Client<P> {
    /// Wraps a protocol in the driver.
    pub(crate) fn from_proto(name: &str, proto: P, cfg: ClientConfig) -> Self {
        Client {
            name: name.to_string(),
            proto,
            cfg,
            next_serial: 0,
            outstanding: None,
            stats: ClientStats::new(),
        }
    }

    /// The accumulated client-side accounting.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Drains the per-request outcome records (feed to
    /// [`emu_traffic::ClientCheck`]).
    pub(crate) fn take_outcomes(&mut self) -> Vec<ClientOutcome> {
        std::mem::take(&mut self.stats.outcomes)
    }

    /// Protocol access (e.g. the TCP client's reassembly buffer).
    pub fn proto(&self) -> &P {
        &self.proto
    }

    /// Mutable protocol access: call [`RequestProto::build`] and
    /// [`RequestProto::classify`] directly, outside the request loop.
    pub fn proto_mut(&mut self) -> &mut P {
        &mut self.proto
    }

    /// True once every configured request has resolved.
    pub fn done(&self) -> bool {
        self.next_serial >= self.cfg.requests && self.outstanding.is_none()
    }

    fn rto_for(&self, retries: u32) -> f64 {
        self.cfg.rto_ns * (1u64 << retries.min(20)) as f64
    }

    fn issue(&mut self, now: f64) -> AgentOutput {
        let serial = self.next_serial;
        self.next_serial += 1;
        let frame = self.proto.build(serial);
        self.stats.issued += 1;
        if !self.stats.first_issue_ns.is_finite() {
            self.stats.first_issue_ns = now;
        }
        let out = AgentOutput::none()
            .send(0, frame.clone())
            .arm(now + self.rto_for(0), serial);
        self.outstanding = Some(Sent {
            serial,
            frame,
            first_ns: now,
            retries: 0,
        });
        out
    }

    /// Records a resolution and schedules the next issue.
    fn resolve(
        &mut self,
        now: f64,
        sent: Sent,
        verified: bool,
        timed_out: bool,
        note: Option<String>,
    ) -> AgentOutput {
        let rtt_ns = if verified && sent.retries == 0 {
            let rtt = (now - sent.first_ns).max(0.0) as u64;
            self.stats.rtt.record(rtt);
            Some(rtt)
        } else {
            None
        };
        match (verified, timed_out) {
            (true, _) => self.stats.completed += 1,
            (false, true) => self.stats.timeouts += 1,
            (false, false) => self.stats.mismatches += 1,
        }
        self.stats.last_resolve_ns = now;
        self.stats.outcomes.push(ClientOutcome {
            client: self.name.clone(),
            proto: self.proto.proto(),
            serial: sent.serial,
            verified,
            timed_out,
            rtt_ns,
            retries: sent.retries,
            note,
        });
        if self.next_serial < self.cfg.requests {
            AgentOutput::none().arm(now, KICK | self.next_serial)
        } else {
            AgentOutput::none()
        }
    }
}

impl<P: RequestProto> HostAgent for Client<P> {
    fn on_frame(&mut self, now: f64, _port: usize, frame: &Frame) -> AgentOutput {
        match self.proto.classify(frame, self.outstanding.as_ref()) {
            Classify::NotMine => {
                self.stats.ignored += 1;
                AgentOutput::none()
            }
            Classify::Stale => {
                self.stats.duplicates += 1;
                AgentOutput::none()
            }
            Classify::Response { verified, note } => {
                let sent = self
                    .outstanding
                    .take()
                    .expect("classify returned Response with nothing outstanding");
                if verified {
                    self.stats.response_bytes += frame.len() as u64;
                }
                self.resolve(now, sent, verified, false, note)
            }
        }
    }

    fn on_timer(&mut self, now: f64, token: u64) -> AgentOutput {
        if token & KICK != 0 {
            let serial = token & !KICK;
            if self.outstanding.is_none()
                && self.next_serial == serial
                && serial < self.cfg.requests
            {
                return self.issue(now);
            }
            return AgentOutput::none();
        }
        // Retransmission timeout: only live if it names the serial
        // still outstanding.
        match &mut self.outstanding {
            Some(sent) if sent.serial == token => {
                if sent.retries < self.cfg.retries {
                    sent.retries += 1;
                    let retries = sent.retries;
                    let frame = sent.frame.clone();
                    self.stats.retransmits += 1;
                    let rto = self.rto_for(retries);
                    AgentOutput::none().send(0, frame).arm(now + rto, token)
                } else {
                    let sent = self.outstanding.take().expect("matched above");
                    self.proto.on_timeout(sent.serial);
                    self.resolve(now, sent, false, true, None)
                }
            }
            _ => AgentOutput::none(), // stale timer: already resolved
        }
    }

    fn telemetry(&self) -> Option<Json> {
        Some(Json::obj(vec![
            ("proto", Json::Str(self.proto.proto().to_string())),
            ("stats", self.stats.to_json()),
        ]))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
