//! Closed-loop memcached client (ASCII-over-UDP, §4.3's workload).
//!
//! Drives the `emu_services::memcached` engine with a seeded GET / SET /
//! DELETE mix over a **private keyspace** and verifies every response
//! against a shadow store. Privacy matters twice over: it keeps the
//! shadow exact (no other client mutates our keys), and it keeps shard
//! affinity trivial — the client uses one UDP 5-tuple for its whole
//! run, so under RSS dispatch all of its requests land on the same
//! shard's store, the same key↔flow lockstep `MemcachedZipf` maintains.
//!
//! ## Timed-out writes and uncertainty
//!
//! A SET or DELETE that times out *may still have applied* — the
//! request could have reached the server with only the reply lost. The
//! shadow therefore tracks a **candidate set** per key (at most: the
//! old value and the timed-out write's result); the next verified
//! response for the key collapses it.
//!
//! DELETE gets a broader courtesy: under at-least-once delivery the
//! server may see the same DELETE twice — a retransmission whose first
//! copy's reply was lost, or a link-level *duplicate* of the request —
//! and then answers `DELETED` once and `NOT_FOUND` once. Jitter can
//! deliver either answer first, so both are legitimate on any attempt;
//! either way the key is certainly absent afterwards and the candidates
//! collapse. (SETs are idempotent and always answer `STORED`, GETs
//! duplicate into identical replies, so neither needs this.)
//!
//! This model is sound only while a timed-out request cannot *overtake*
//! a later one inside the network. Reorder jitter must therefore stay
//! well below the retransmission timeout — [`crate::topo`] asserts it.

use crate::client::{Classify, Client, ClientConfig, RequestProto, Sent};
use emu_types::proto::{ether_type, ip_proto, offset, port};
use emu_types::wire::{reply_text, Decimal, Envelope, Payload, L4};
use emu_types::{bitutil, Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes in every stored value (the service's fixed `VALUE_BYTES`).
pub(crate) const VALUE_LEN: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Get,
    Set([u8; VALUE_LEN]),
    Del,
}

struct PendingOp {
    key: usize,
    op: Op,
}

/// The protocol half of the memcached client; use [`McClient`].
pub struct McProto {
    mac: MacAddr,
    ip: Ipv4,
    sport: u16,
    server_mac: MacAddr,
    server_ip: Ipv4,
    keys: Vec<String>,
    /// Per-key candidate sets: `None` = absent. One candidate when the
    /// key's state is certain.
    shadow: Vec<Vec<Option<[u8; VALUE_LEN]>>>,
    rng: StdRng,
    pending: Option<PendingOp>,
}

/// A closed-loop memcached client agent.
pub type McClient = Client<McProto>;

impl McProto {
    /// "v" and the serial's last seven digits.
    fn value_for(serial: u64) -> [u8; VALUE_LEN] {
        let mut v = [b'v'; VALUE_LEN];
        v[1..].copy_from_slice(Decimal::new(serial % 10_000_000, VALUE_LEN - 1).as_bytes());
        v
    }
}

impl McClient {
    /// Builds a memcached client with `n_keys` private keys named
    /// `{prefix}{i}` (prefix + index must fit the service's 8-byte key
    /// cap). The `(ip, sport)` pair is the client's single flow — keep
    /// it unique per client so RSS shard affinity holds.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        mac: MacAddr,
        ip: Ipv4,
        sport: u16,
        server_mac: MacAddr,
        server_ip: Ipv4,
        key_prefix: &str,
        n_keys: usize,
        seed: u64,
        cfg: ClientConfig,
    ) -> Self {
        assert!(n_keys > 0, "need at least one key");
        let keys: Vec<String> = (0..n_keys).map(|i| format!("{key_prefix}{i}")).collect();
        for k in &keys {
            assert!(
                k.len() <= 8,
                "key {k:?} exceeds the service's 8-byte key cap"
            );
        }
        let shadow = vec![vec![None]; n_keys];
        Client::from_proto(
            name,
            McProto {
                mac,
                ip,
                sport,
                server_mac,
                server_ip,
                keys,
                shadow,
                rng: StdRng::seed_from_u64(seed ^ 0x6d63_c11e),
                pending: None,
            },
            cfg,
        )
    }
}

impl RequestProto for McProto {
    fn proto(&self) -> &'static str {
        "memcached"
    }

    fn build(&mut self, serial: u64) -> Frame {
        let key = self.rng.gen_range(0..self.keys.len());
        let roll = self.rng.gen_range(0u32..10);
        let op = match roll {
            0..=3 => Op::Set(Self::value_for(serial)),
            4..=7 => Op::Get,
            _ => Op::Del,
        };
        let k = self.keys[key].as_bytes();
        let text: &[&[u8]] = match &op {
            Op::Set(v) => &[b"set ", k, b" 0 0 8\r\n", v, b"\r\n"],
            Op::Get => &[b"get ", k, b"\r\n"],
            Op::Del => &[b"delete ", k, b"\r\n"],
        };
        // Numbered and checksummed as `wire::udp_frame` does.
        let env = Envelope {
            src_mac: self.mac,
            dst_mac: self.server_mac,
            src: self.ip,
            dst: self.server_ip,
            ident: self.sport ^ port::MEMCACHED,
            in_port: 0,
        };
        let l4 = L4::Udp {
            sport: self.sport,
            dport: port::MEMCACHED,
            checksum: true,
        };
        let id = serial as u16;
        let f = env.frame(l4, Payload::Mc { id, text });
        self.pending = Some(PendingOp { key, op });
        f
    }

    fn classify(&mut self, frame: &Frame, outstanding: Option<&Sent>) -> Classify {
        let b = frame.bytes();
        if frame.dst_mac() != self.mac
            || frame.ethertype() != ether_type::IPV4
            || b.len() < offset::L4 + 8 + 8
            || bitutil::get8(b, offset::IPV4_PROTO) != ip_proto::UDP
            || bitutil::get16(b, offset::L4) != port::MEMCACHED
            || bitutil::get16(b, offset::L4 + 2) != self.sport
        {
            return Classify::NotMine;
        }
        let req_id = bitutil::get16(b, offset::L4 + 8);
        let Some(sent) = outstanding else {
            return Classify::Stale;
        };
        if req_id != (sent.serial & 0xffff) as u16 {
            return Classify::Stale;
        }
        let p = self.pending.take().expect("outstanding implies pending");
        let text = reply_text(frame);
        let cand = &mut self.shadow[p.key];
        let retried = sent.retries > 0;
        let (verified, note, collapse) = match p.op {
            Op::Set(v) => {
                if text == b"STORED\r\n" {
                    (true, None, Some(Some(v)))
                } else {
                    (false, Some(format!("set answered {:?}", ascii(text))), None)
                }
            }
            Op::Get => {
                if text == b"END\r\n" {
                    if cand.contains(&None) {
                        (true, None, Some(None))
                    } else {
                        (
                            false,
                            Some(format!(
                                "get missed a key the shadow holds ({})",
                                self.keys[p.key]
                            )),
                            None,
                        )
                    }
                } else {
                    // `VALUE <key> 0 8\r\n<value>\r\nEND\r\n`, piece by piece.
                    let value = text
                        .strip_prefix(b"VALUE ")
                        .and_then(|t| t.strip_prefix(self.keys[p.key].as_bytes()))
                        .and_then(|t| t.strip_prefix(b" 0 8\r\n"))
                        .and_then(|t| t.strip_suffix(b"\r\nEND\r\n"))
                        .and_then(|v| <[u8; VALUE_LEN]>::try_from(v).ok());
                    if let Some(v) = value {
                        if cand.contains(&Some(v)) {
                            (true, None, Some(Some(v)))
                        } else {
                            (
                                false,
                                Some(format!(
                                    "get returned {:?}, not among the shadow candidates",
                                    ascii(&v)
                                )),
                                None,
                            )
                        }
                    } else {
                        (
                            false,
                            Some(format!("malformed get reply {:?}", ascii(text))),
                            None,
                        )
                    }
                }
            }
            Op::Del => {
                let was_present = cand.iter().any(Option::is_some);
                if text == b"DELETED\r\n" {
                    if was_present || retried {
                        (true, None, Some(None))
                    } else {
                        // A certainly-absent key answering DELETED means
                        // the server held state we never wrote.
                        (
                            false,
                            Some("delete hit a key the shadow says is absent".into()),
                            None,
                        )
                    }
                } else if text == b"NOT_FOUND\r\n" {
                    // Legitimate even when the shadow says present: a
                    // duplicated or retransmitted DELETE already removed
                    // the key, and its two answers may arrive in either
                    // order (see the module docs).
                    (true, None, Some(None))
                } else {
                    (
                        false,
                        Some(format!("delete answered {:?}", ascii(text))),
                        None,
                    )
                }
            }
        };
        if let Some(state) = collapse {
            cand.clear();
            cand.push(state);
        }
        Classify::Response { verified, note }
    }

    fn on_timeout(&mut self, _serial: u64) {
        let p = self.pending.take().expect("timeout implies pending");
        let cand = &mut self.shadow[p.key];
        // The write may or may not have applied: widen the candidates.
        match p.op {
            Op::Get => {}
            Op::Set(v) => {
                if !cand.contains(&Some(v)) {
                    cand.push(Some(v));
                }
            }
            Op::Del => {
                if !cand.contains(&None) {
                    cand.push(None);
                }
            }
        }
    }
}

fn ascii(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}
