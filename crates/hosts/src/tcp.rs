//! Closed-loop TCP handshake client + in-order reassembly.
//!
//! The paper's TCP ping (§4.2) is "the first two steps of the three-way
//! connection setup handshake"; [`TcpClient`] is the prober's side of
//! it as a real state machine: send SYN, arm a retransmission timeout,
//! back off exponentially, verify the SYN-ACK acknowledges our ISN.
//! Each request serial is a fresh handshake on a fresh source port, so
//! the measured RTT distribution is the paper's Table 4 quantity
//! produced *closed-loop* instead of by an open-loop generator.
//!
//! [`Reassembly`] is the receive-side complement: an in-order byte
//! stream assembled from out-of-order, duplicated segments — enough
//! machinery to sit behind data-bearing peers like the
//! `emu_traffic::TcpConversations` dialogues. Data segments arriving
//! for the client's current connection are folded into its buffer.

use crate::client::{Classify, Client, ClientConfig, RequestProto, Sent};
use emu_types::proto::{ether_type, ip_proto, offset, tcp_flags};
use emu_types::wire::tcp_frame;
use emu_types::{bitutil, Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// In-order TCP payload reassembly: feed segments in any order, read a
/// contiguous byte stream. Duplicate and already-delivered bytes are
/// dropped; a bounded lookahead of out-of-order segments is buffered
/// until the gap fills.
#[derive(Debug, Default)]
pub struct Reassembly {
    next: u32,
    /// Out-of-order segments keyed by their offset past `next`.
    buffered: BTreeMap<u32, Vec<u8>>,
    /// The contiguous stream delivered so far.
    pub delivered: Vec<u8>,
    /// Segments that arrived ahead of the next expected byte.
    pub out_of_order: u64,
    /// Segments (or fragments) dropped as already delivered.
    pub duplicates: u64,
}

/// Lookahead window: segments more than this far past the next expected
/// byte are dropped rather than buffered.
const REASM_WINDOW: u32 = 1 << 20;

impl Reassembly {
    /// Starts a stream whose first payload byte carries sequence
    /// number `first_seq`.
    pub fn new(first_seq: u32) -> Self {
        Reassembly {
            next: first_seq,
            ..Self::default()
        }
    }

    /// Accepts one segment; returns how many bytes became contiguous.
    pub fn push(&mut self, seq: u32, payload: &[u8]) -> usize {
        if payload.is_empty() {
            return 0;
        }
        // Position relative to the next expected byte, mod 2^32.
        let rel = seq.wrapping_sub(self.next);
        if rel > REASM_WINDOW {
            // Entirely in the past (or absurdly far ahead): maybe a
            // head-overlap retransmission whose tail is still new.
            let behind = self.next.wrapping_sub(seq) as usize;
            if behind < payload.len() {
                return self.push(self.next, &payload[behind..]);
            }
            self.duplicates += 1;
            return 0;
        }
        if rel == 0 {
            let before = self.delivered.len();
            self.delivered.extend_from_slice(payload);
            self.next = self.next.wrapping_add(payload.len() as u32);
            // Drain any buffered successors the gap-fill unlocked.
            // Ring distance (not key order) picks the next candidate so
            // sequence wraparound cannot misorder the stream.
            while let Some(r_seq) = self
                .buffered
                .keys()
                .copied()
                .min_by_key(|k| k.wrapping_sub(self.next))
            {
                let rel = r_seq.wrapping_sub(self.next);
                if rel != 0 && rel <= REASM_WINDOW {
                    break; // still a gap ahead of us
                }
                let seg = self.buffered.remove(&r_seq).expect("key just seen");
                if rel == 0 {
                    self.delivered.extend_from_slice(&seg);
                    self.next = self.next.wrapping_add(seg.len() as u32);
                } else {
                    // Starts in the delivered past; keep any new tail.
                    let behind = self.next.wrapping_sub(r_seq) as usize;
                    if behind < seg.len() {
                        self.delivered.extend_from_slice(&seg[behind..]);
                        self.next = self.next.wrapping_add((seg.len() - behind) as u32);
                    } else {
                        self.duplicates += 1;
                    }
                }
            }
            self.delivered.len() - before
        } else {
            // Ahead of the stream: buffer (first copy wins).
            self.out_of_order += 1;
            match self.buffered.entry(seq) {
                Entry::Occupied(_) => self.duplicates += 1,
                Entry::Vacant(slot) => {
                    slot.insert(payload.to_vec());
                }
            }
            0
        }
    }

    /// The next expected sequence number.
    pub fn next_seq(&self) -> u32 {
        self.next
    }
}

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
    /// Receive-side stream for data the peer sends after the
    /// handshake (keyed off the first data segment seen).
    pub reasm: Option<Reassembly>,
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
                reasm: None,
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
        // Data-bearing segment for an established stream: reassemble.
        let data_off = usize::from(bitutil::get8(b, offset::L4 + 12) >> 4) * 4;
        let payload_start = offset::L4 + data_off;
        if flags & tcp_flags::SYN == 0 && b.len() > payload_start {
            let seq = bitutil::get32(b, offset::L4 + 4);
            let payload = &b[payload_start..];
            self.reasm
                .get_or_insert_with(|| Reassembly::new(seq))
                .push(seq, payload);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reassembly_orders_shuffled_segments() {
        let stream: Vec<u8> = (0u8..200).collect();
        let mut segs = Vec::new();
        for (i, chunk) in stream.chunks(17).enumerate() {
            segs.push((1000 + (i * 17) as u32, chunk.to_vec()));
        }
        // Deterministic shuffle.
        let mut rng = StdRng::seed_from_u64(42);
        for i in (1..segs.len()).rev() {
            let j = rng.gen_range(0..(i as u64 + 1)) as usize;
            segs.swap(i, j);
        }
        let mut r = Reassembly::new(1000);
        for (seq, seg) in &segs {
            r.push(*seq, seg);
        }
        assert_eq!(r.delivered, stream);
        assert!(r.out_of_order > 0, "the shuffle must have reordered");
    }

    #[test]
    fn reassembly_drops_duplicates_and_trims_overlaps() {
        let mut r = Reassembly::new(0);
        assert_eq!(r.push(0, b"hello "), 6);
        assert_eq!(r.push(0, b"hello "), 0); // exact duplicate
        assert_eq!(r.duplicates, 1);
        // Overlapping retransmission: old head, new tail.
        assert_eq!(r.push(3, b"lo world"), 5);
        assert_eq!(r.delivered, b"hello world");
        assert_eq!(r.next_seq(), 11);
    }

    #[test]
    fn reassembly_survives_sequence_wraparound() {
        let mut r = Reassembly::new(u32::MAX - 1);
        // Arrives out of order across the wrap: [2..4) first, then the
        // head [MAX-1..2) which unlocks it.
        assert_eq!(r.push(0, b"cd"), 0);
        assert_eq!(r.push(u32::MAX - 1, b"ab"), 4);
        assert_eq!(r.delivered, b"abcd");
        assert_eq!(r.next_seq(), 2);
    }
}
