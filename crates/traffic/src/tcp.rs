//! Stateful TCP client conversations: SYN → ACK → data… → FIN, with
//! correct sequence/acknowledgement arithmetic and real checksums.
//!
//! Each session is one client 5-tuple cycling through the dialogue
//! forever (a new conversation reuses the tuple, as real clients reuse
//! ephemeral ports); the interleaving across sessions is drawn from the
//! seeded RNG. The tuple pool is deliberately *bounded* so stateful
//! consumers (NAT translation tables, checker models) see a bounded
//! flow count no matter how many frames are generated.

use crate::build::tcp_flags;
use crate::TrafficGen;
use emu_types::wire::{Envelope, Payload, L4};
use emu_types::{Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
enum Step {
    Syn,
    Ack,
    Data(u8),
    Fin,
}

struct Session {
    client: Ipv4,
    sport: u16,
    server: Ipv4,
    dport: u16,
    in_port: u8,
    step: Step,
    seq: u32,
    srv_isn: u32,
}

/// A pool of interleaved client-side TCP conversations.
pub struct TcpConversations {
    rng: StdRng,
    sessions: Vec<Session>,
}

impl TcpConversations {
    /// Client and server MACs carried by every segment (unicast,
    /// locally administered).
    pub const CLIENT_MAC: u64 = 0x02_00_00_00_0a_01;
    /// Server-side MAC.
    pub const SERVER_MAC: u64 = 0x02_00_00_00_0a_02;

    /// Creates `sessions` interleaved conversations seeded by `seed`;
    /// each session is pinned to one of `in_ports` (frames of one flow
    /// always arrive on one physical port, as a real access port would
    /// deliver them).
    pub fn new(seed: u64, sessions: usize, in_ports: &[u8]) -> Self {
        assert!(sessions > 0 && !in_ports.is_empty());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7c9_1e55);
        let sessions = (0..sessions)
            .map(|i| {
                let isn = rng.gen_range(0u32..u32::MAX);
                Session {
                    client: Ipv4::new(192, 168, 1, (i % 200) as u8 + 2),
                    sport: 20_000 + (i as u16 % 8_000),
                    server: Ipv4::new(8, 8, (i % 4) as u8, 8),
                    dport: [80u16, 443, 8080, 22][i % 4],
                    in_port: in_ports[i % in_ports.len()],
                    step: Step::Syn,
                    seq: isn,
                    srv_isn: rng.gen_range(0u32..u32::MAX),
                }
            })
            .collect();
        TcpConversations { rng, sessions }
    }
}

impl TrafficGen for TcpConversations {
    fn name(&self) -> &'static str {
        "tcp-conversations"
    }

    fn next_frame(&mut self) -> Frame {
        let k = self.rng.gen_range(0..self.sessions.len());
        let payload_len = self.rng.gen_range(8usize..64);
        let n_data = self.rng.gen_range(1u8..5);
        let next_isn = self.rng.gen_range(0u32..u32::MAX);
        let s = &mut self.sessions[k];
        // The model is a pure client-push dialogue: the (fabricated)
        // server sends no data, so the client's ack stays at its ISN+1.
        let ack = s.srv_isn.wrapping_add(1);
        let emit = |s: &Session, flags: u8, ack: u32, payload: Payload| {
            let env = Envelope {
                src_mac: MacAddr::from_u64(Self::CLIENT_MAC),
                dst_mac: MacAddr::from_u64(Self::SERVER_MAC),
                src: s.client,
                dst: s.server,
                ident: s.seq as u16,
                in_port: s.in_port,
            };
            let l4 = L4::Tcp {
                sport: s.sport,
                dport: s.dport,
                seq: s.seq,
                ack,
                flags,
            };
            env.frame(l4, payload)
        };
        let empty = Payload::Bytes(&[]);
        match s.step {
            Step::Syn => {
                let f = emit(s, tcp_flags::SYN, 0, empty);
                s.seq = s.seq.wrapping_add(1); // SYN consumes one sequence number
                s.step = Step::Ack;
                f
            }
            Step::Ack => {
                let f = emit(s, tcp_flags::ACK, ack, empty);
                s.step = Step::Data(n_data);
                f
            }
            Step::Data(left) => {
                // Payload bytes count up from the low byte of `seq`.
                let payload = Payload::Ramp {
                    first: s.seq as u8,
                    len: payload_len,
                };
                let f = emit(s, tcp_flags::PSH | tcp_flags::ACK, ack, payload);
                s.seq = s.seq.wrapping_add(payload_len as u32);
                s.step = if left <= 1 {
                    Step::Fin
                } else {
                    Step::Data(left - 1)
                };
                f
            }
            Step::Fin => {
                let f = emit(s, tcp_flags::FIN | tcp_flags::ACK, ack, empty);
                // Start the next conversation on the same tuple.
                s.step = Step::Syn;
                s.seq = next_isn;
                s.srv_isn = next_isn.rotate_left(13);
                f
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::l4_csum_ok;
    use emu_types::bitutil;
    use emu_types::proto::offset;

    #[test]
    fn conversations_progress_with_correct_seq_arithmetic() {
        let mut g = TcpConversations::new(3, 1, &[1]);
        // Single session: the dialogue order is SYN, ACK, data…, FIN.
        let syn = g.next_frame();
        assert_eq!(syn.bytes()[offset::L4 + 13], tcp_flags::SYN);
        let isn = bitutil::get32(syn.bytes(), offset::L4 + 4);
        let ack = g.next_frame();
        assert_eq!(ack.bytes()[offset::L4 + 13], tcp_flags::ACK);
        assert_eq!(
            bitutil::get32(ack.bytes(), offset::L4 + 4),
            isn.wrapping_add(1),
            "ACK's seq must follow the SYN"
        );
        let mut seq = isn.wrapping_add(1);
        let mut f = g.next_frame();
        while f.bytes()[offset::L4 + 13] & tcp_flags::FIN == 0 {
            assert_eq!(
                bitutil::get32(f.bytes(), offset::L4 + 4),
                seq,
                "data segment must continue the sequence space"
            );
            let total = bitutil::get16(f.bytes(), offset::IPV4 + 2) as u32;
            seq = seq.wrapping_add(total - 40); // payload bytes advance seq
            f = g.next_frame();
        }
        assert_eq!(bitutil::get32(f.bytes(), offset::L4 + 4), seq, "FIN seq");
        // Next conversation restarts with a fresh SYN on the same tuple.
        let again = g.next_frame();
        assert_eq!(again.bytes()[offset::L4 + 13], tcp_flags::SYN);
        assert_eq!(
            bitutil::get16(again.bytes(), offset::L4),
            bitutil::get16(syn.bytes(), offset::L4),
            "tuple must be reused"
        );
    }

    #[test]
    fn every_segment_has_valid_checksums() {
        let mut g = TcpConversations::new(11, 6, &[1, 2, 3]);
        for i in 0..500 {
            let f = g.next_frame();
            assert_eq!(l4_csum_ok(&f), Some(true), "frame {i}");
            assert_eq!(crate::build::ipv4_csum_ok(&f), Some(true), "frame {i}");
        }
    }

    #[test]
    fn flow_pool_is_bounded() {
        let mut g = TcpConversations::new(1, 6, &[1]);
        let tuples: std::collections::HashSet<Vec<u8>> = (0..2_000)
            .map(|_| {
                let f = g.next_frame();
                f.bytes()[offset::IPV4_SRC..offset::L4 + 4].to_vec()
            })
            .collect();
        assert!(tuples.len() <= 6, "{} tuples from 6 sessions", tuples.len());
    }
}
