//! Closed-loop DNS client (§4.2's resolver, driven from the outside).
//!
//! Queries a seeded, weighted mix of names against the
//! `emu_services::dns_server` zone and verifies each answer end to end:
//! names the zone holds must come back `NOERROR` with exactly the
//! configured A record; names it does not must come back `NXDOMAIN`
//! with no answers. The transaction id carries the request serial, so
//! responses match requests even when link impairments duplicate or
//! reorder them.

use crate::client::{Classify, Client, ClientConfig, RequestProto, Sent};
use emu_types::proto::{ether_type, ip_proto, offset, port};
use emu_types::wire::{self, Envelope, Payload, L4};
use emu_types::{bitutil, Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The protocol half of the DNS client; use [`DnsClient`].
pub struct DnsProto {
    mac: MacAddr,
    ip: Ipv4,
    sport: u16,
    server_mac: MacAddr,
    server_ip: Ipv4,
    /// `(name, expected)` — `Some(addr)` for zone names, `None` for
    /// names that must resolve to NXDOMAIN.
    names: Vec<(String, Option<Ipv4>)>,
    rng: StdRng,
    pending: Option<usize>,
}

/// A closed-loop DNS client agent.
pub type DnsClient = Client<DnsProto>;

impl DnsClient {
    /// Builds a DNS client querying `names` uniformly at random
    /// (seeded). `expected = None` marks a name the server's zone must
    /// *not* hold.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        mac: MacAddr,
        ip: Ipv4,
        sport: u16,
        server_mac: MacAddr,
        server_ip: Ipv4,
        names: Vec<(String, Option<Ipv4>)>,
        seed: u64,
        cfg: ClientConfig,
    ) -> Self {
        assert!(!names.is_empty(), "need at least one name to query");
        Client::from_proto(
            name,
            DnsProto {
                mac,
                ip,
                sport,
                server_mac,
                server_ip,
                names,
                rng: StdRng::seed_from_u64(seed ^ 0xd45_0123),
                pending: None,
            },
            cfg,
        )
    }
}

impl RequestProto for DnsProto {
    fn proto(&self) -> &'static str {
        "dns"
    }

    fn build(&mut self, serial: u64) -> Frame {
        let idx = self.rng.gen_range(0..self.names.len());
        self.pending = Some(idx);
        // Numbered and checksummed as `wire::udp_frame` does.
        let env = Envelope {
            src_mac: self.mac,
            dst_mac: self.server_mac,
            src: self.ip,
            dst: self.server_ip,
            ident: self.sport ^ port::DNS,
            in_port: 0,
        };
        let l4 = L4::Udp {
            sport: self.sport,
            dport: port::DNS,
            checksum: true,
        };
        let (id, name) = (serial as u16, self.names[idx].0.as_str());
        env.frame(l4, Payload::Dns { id, name })
    }

    fn classify(&mut self, frame: &Frame, outstanding: Option<&Sent>) -> Classify {
        let b = frame.bytes();
        if frame.dst_mac() != self.mac
            || frame.ethertype() != ether_type::IPV4
            || b.len() < offset::L4 + 8 + 12
            || bitutil::get8(b, offset::IPV4_PROTO) != ip_proto::UDP
            || bitutil::get16(b, offset::L4) != port::DNS
            || bitutil::get16(b, offset::L4 + 2) != self.sport
        {
            return Classify::NotMine;
        }
        let dns = offset::L4 + 8;
        let id = bitutil::get16(b, dns);
        let Some(sent) = outstanding else {
            return Classify::Stale;
        };
        if id != (sent.serial & 0xffff) as u16 {
            return Classify::Stale;
        }
        let idx = self.pending.take().expect("outstanding implies pending");
        let (name, expected) = &self.names[idx];
        let flags = bitutil::get16(b, dns + 2);
        let rcode = flags & 0x000f;
        let ancount = bitutil::get16(b, dns + 6);
        if flags & 0x8000 == 0 {
            return Classify::Response {
                verified: false,
                note: Some(format!("{name}: QR bit clear in response")),
            };
        }
        let (verified, note) = match expected {
            Some(addr) => {
                // Answer: pointer to the question name, type A, class
                // IN, TTL, RDLENGTH 4, then the address.
                let ans = dns + 12 + wire::dns_name_len(name) + 4;
                if rcode != 0 || ancount != 1 {
                    (
                        false,
                        Some(format!(
                            "{name}: expected NOERROR with 1 answer, got rcode {rcode} / {ancount} answers"
                        )),
                    )
                } else if b.len() < ans + 16 || bitutil::get16(b, ans) != 0xc00c {
                    (false, Some(format!("{name}: malformed answer section")))
                } else if bitutil::get32(b, ans + 12) != addr.0 {
                    let got = Ipv4(bitutil::get32(b, ans + 12));
                    (
                        false,
                        Some(format!("{name}: answered {got}, zone holds {addr}")),
                    )
                } else {
                    (true, None)
                }
            }
            None => {
                if rcode == 3 && ancount == 0 {
                    (true, None)
                } else {
                    (
                        false,
                        Some(format!(
                            "{name}: expected NXDOMAIN, got rcode {rcode} / {ancount} answers"
                        )),
                    )
                }
            }
        };
        Classify::Response { verified, note }
    }
}
