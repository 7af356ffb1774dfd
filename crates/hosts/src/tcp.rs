//! Closed-loop TCP handshake client.
//!
//! The paper's TCP ping (§4.2) is "the first two steps of the three-way
//! connection setup handshake"; [`TcpClient`] is the prober's side of
//! it as a real state machine: send SYN, arm a retransmission timeout,
//! back off exponentially, verify the SYN-ACK acknowledges our ISN.
//! Each request serial is a fresh handshake on a fresh source port, so
//! the measured RTT distribution is the paper's Table 4 quantity
//! produced *closed-loop* instead of by an open-loop generator. The
//! client only answers SYN-ACKs: a data-bearing segment is stale.

use crate::client::{Classify, Client, ClientConfig, RequestProto, Sent};
use emu_types::proto::{ether_type, ip_proto, offset, tcp_flags};
use emu_types::wire::tcp_frame;
use emu_types::{bitutil, Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct PendingSyn {
    sport: u16,
    seq: u32,
}

/// The protocol half of the TCP handshake client; use [`TcpClient`].
pub struct TcpProto {
    mac: MacAddr,
    ip: Ipv4,
    server_mac: MacAddr,
    server_ip: Ipv4,
    dport: u16,
    sport_base: u16,
    rng: StdRng,
    pending: Option<PendingSyn>,
}

/// A closed-loop TCP handshake (SYN → SYN-ACK) client agent.
pub type TcpClient = Client<TcpProto>;

impl TcpClient {
    /// Builds a TCP handshake client probing `server_ip:dport`. Each
    /// request uses source port `sport_base + serial % 16384` and a
    /// seeded ISN.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        mac: MacAddr,
        ip: Ipv4,
        sport_base: u16,
        server_mac: MacAddr,
        server_ip: Ipv4,
        dport: u16,
        seed: u64,
        cfg: ClientConfig,
    ) -> Self {
        Client::from_proto(
            name,
            TcpProto {
                mac,
                ip,
                server_mac,
                server_ip,
                dport,
                sport_base,
                rng: StdRng::seed_from_u64(seed ^ 0x7c9_5a11),
                pending: None,
            },
            cfg,
        )
    }
}

impl RequestProto for TcpProto {
    fn proto(&self) -> &'static str {
        "tcp"
    }

    fn build(&mut self, serial: u64) -> Frame {
        let sport = self.sport_base.wrapping_add((serial % 16384) as u16);
        let seq: u32 = self.rng.gen_range(0..u32::MAX);
        self.pending = Some(PendingSyn { sport, seq });
        tcp_frame(
            self.mac,
            self.server_mac,
            self.ip,
            sport,
            self.server_ip,
            self.dport,
            seq,
            0,
            tcp_flags::SYN,
            &[],
            0,
        )
    }

    fn classify(&mut self, frame: &Frame, outstanding: Option<&Sent>) -> Classify {
        let b = frame.bytes();
        if frame.dst_mac() != self.mac
            || frame.ethertype() != ether_type::IPV4
            || b.len() < offset::L4 + 20
            || bitutil::get8(b, offset::IPV4_PROTO) != ip_proto::TCP
            || bitutil::get16(b, offset::L4) != self.dport
        {
            return Classify::NotMine;
        }
        let dst_port = bitutil::get16(b, offset::L4 + 2);
        let flags = bitutil::get8(b, offset::L4 + 13);
        // A data-bearing segment is no handshake reply.
        let data_off = usize::from(bitutil::get8(b, offset::L4 + 12) >> 4) * 4;
        if flags & tcp_flags::SYN == 0 && b.len() > offset::L4 + data_off {
            return Classify::Stale;
        }
        if outstanding.is_none() {
            return Classify::Stale;
        }
        if dst_port
            != self
                .pending
                .as_ref()
                .expect("outstanding implies pending")
                .sport
        {
            return Classify::Stale; // SYN-ACK for an older handshake
        }
        let p = self.pending.take().expect("checked above");
        let ack = bitutil::get32(b, offset::L4 + 8);
        let (verified, note) = if flags != tcp_flags::SYN | tcp_flags::ACK {
            (
                false,
                Some(format!("expected SYN|ACK, got flags {flags:#04x}")),
            )
        } else if ack != p.seq.wrapping_add(1) {
            (
                false,
                Some(format!(
                    "SYN-ACK acks {ack:#010x}, our ISN+1 is {:#010x}",
                    p.seq.wrapping_add(1)
                )),
            )
        } else {
            (true, None)
        };
        Classify::Response { verified, note }
    }

    fn on_timeout(&mut self, _serial: u64) {
        self.pending = None;
    }
}
