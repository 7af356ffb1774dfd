//! The six workloads: what is built, what is offered to it, and which
//! reference model checks it. The definitions here are normative —
//! `BENCHMARK.json` and `README.md` only describe them.
//!
//! Work per pass is a fixed frame (or request) count, identical on
//! both commits of a comparison; `--seconds` only decides how many
//! passes a run makes. `--smoke` divides every size by
//! [`SMOKE_DIV`], which changes the stream and therefore marks the
//! numbers as not comparable.

use emu_core::{EngineBuilder, NatSteering, Service, Target};
use emu_traffic::build::udp_frame;
use emu_traffic::{
    Background, Checker, DnsWeighted, MacChurn, McModel, MemcachedZipf, Mix, NatChecker,
    SwitchModel, TcpConversations, TrafficGen,
};
use emu_types::proto::offset;
use emu_types::{bitutil, Frame, Ipv4, MacAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default `--seed`. Claims must also hold on [`HELD_OUT_SEED`].
pub const DEFAULT_SEED: u64 = 0xe11b;
/// The second seed, never used while a change is being written.
pub const HELD_OUT_SEED: u64 = 0x5eed_0002;
/// Size divisor under `--smoke`.
pub const SMOKE_DIV: usize = 16;

/// What an engine workload offers: frames that put the tables into the
/// measured regime (untimed), then the measured stream.
pub struct Stream {
    pub warmup: Vec<Frame>,
    pub frames: Vec<Frame>,
}

impl Stream {
    /// FNV-1a over every generated byte and arrival port, so two
    /// commits can show they measured the same input.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for f in self.warmup.iter().chain(&self.frames) {
            eat(f.in_port);
            f.bytes().iter().copied().for_each(&mut eat);
        }
        h
    }

    pub fn mean_frame_bytes(&self) -> f64 {
        let bytes: usize = self.frames.iter().map(Frame::len).sum();
        bytes as f64 / self.frames.len() as f64
    }
}

/// The table one CAM of the workload's service is deployed with, for
/// the direct `CamTable` probe.
#[derive(Clone, Copy)]
pub struct CamGeometry {
    pub capacity: usize,
    pub key_bits: u16,
    pub value_bits: u16,
    pub ttl: Option<u64>,
    /// The key a frame makes the service present to its table, so the
    /// probe replays the workload's own key order.
    pub key_of: fn(&Frame) -> u64,
}

/// One engine workload.
pub struct EngineWorkload {
    pub name: &'static str,
    pub service: fn() -> Service,
    pub shards: usize,
    pub parallel: bool,
    pub nat_steering: bool,
    pub table: Option<(usize, u64)>,
    pub batch: usize,
    /// Frames in the measured stream.
    pub frames: usize,
    /// Times one timed pass replays the stream.
    pub replays: usize,
    pub stream: fn(u64, usize) -> Stream,
    pub checker: fn(&EngineWorkload, usize) -> Box<dyn Checker>,
    pub cam: CamGeometry,
}

impl EngineWorkload {
    /// The Cpu builder every pass, arm and check starts from (shards,
    /// dispatch, tables); callers add `parallel`/`telemetry`/`backend`.
    pub fn builder<'a>(&self, svc: &'a Service, div: usize) -> EngineBuilder<'a> {
        let mut b = svc.engine(Target::Cpu).shards(self.shards);
        if self.nat_steering {
            b = b.dispatch(NatSteering::default());
        }
        if let Some((entries, ttl)) = self.table {
            b = b.table_entries(entries / div).ttl_frames(ttl / div as u64);
        }
        b
    }
}

/// The closed-loop fabric workload.
pub struct FabricWorkload {
    pub name: &'static str,
    /// Requests each of the nine clients issues per pass.
    pub requests_per_client: u64,
    pub retries: u32,
}

pub enum Workload {
    Engine(EngineWorkload),
    Fabric(FabricWorkload),
}

pub const NAMES: [&str; 6] = [
    "min64-switch",
    "mtu1500-switch",
    "l7-memcached",
    "flows-1m-churn",
    "par2-nat",
    "fabric-closed-loop",
];

fn public_ip() -> Ipv4 {
    Ipv4::new(203, 0, 113, 1)
}

const STATIONS: u64 = 64;
/// UDP payload of a 60-byte frame (64 on the wire with the FCS) and of
/// a 1514-byte one: 14 Ethernet + 20 IPv4 + 8 UDP bytes of headers.
pub const MIN_PAYLOAD: usize = 18;
pub const MTU_PAYLOAD: usize = 1472;

fn station_mac(k: u64) -> MacAddr {
    MacAddr::from_u64(0x0200_0000_1000 + k)
}

/// UDP frames between 64 stations on 4 ports. The warm-up has every
/// station send once, so in the measured stream every destination
/// lookup hits and no source is new.
pub fn station_stream(seed: u64, frames: usize, payload_len: usize) -> Stream {
    let payload = vec![0xa5u8; payload_len];
    let frame = |src: u64, dst: u64| {
        udp_frame(
            station_mac(src),
            station_mac(dst),
            Ipv4::new(10, 0, 0, src as u8 + 1),
            4000 + src as u16,
            Ipv4::new(10, 0, 0, dst as u8 + 1),
            4000 + dst as u16,
            &payload,
            (src % 4) as u8,
        )
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57a7_1045);
    Stream {
        warmup: (0..STATIONS)
            .map(|k| frame(k, (k + 1) % STATIONS))
            .collect(),
        frames: (0..frames)
            .map(|_| {
                let src = rng.gen_range(0..STATIONS);
                let dst = (src + rng.gen_range(1..STATIONS)) % STATIONS;
                frame(src, dst)
            })
            .collect(),
    }
}

fn src_mac_key(f: &Frame) -> u64 {
    f.src_mac().to_u64()
}

fn switch_checker(w: &EngineWorkload, div: usize) -> Box<dyn Checker> {
    let m = SwitchModel::new(w.shards);
    Box::new(match w.table {
        Some((entries, ttl)) => m.with_table(entries / div, Some(ttl / div as u64)),
        None => m,
    })
}

fn switch_cam() -> CamGeometry {
    CamGeometry {
        capacity: emu_services::switch::TABLE_ENTRIES,
        key_bits: 48,
        value_bits: 8,
        ttl: None,
        key_of: src_mac_key,
    }
}

/// Live stations, table capacity and MAC aging of `flows-1m-churn`.
///
/// The table is smaller than the issue's 10^6 entries on purpose. A
/// pass only ever sees about 552 000 distinct stations (500 000 live,
/// 100 ‰ churn over 524 288 frames) and aging keeps freeing slots, so
/// a million-entry table never fills and never evicts. At 393 216
/// entries (3/4 of the stream length) with a 500 000-frame timeout
/// the table runs full: learning a station evicts another unless the
/// oldest entry has already aged out, so inserts, evictions and
/// expiries all fire throughout the measured stream.
const CHURN_LIVE: usize = 500_000;
const CHURN_TABLE: usize = 393_216;
const CHURN_TTL: u64 = 500_000;

fn churn_stream(seed: u64, frames: usize) -> Stream {
    let live = CHURN_LIVE * frames / 524_288;
    let mut gen = MacChurn::new(seed, live.max(1), 100);
    Stream {
        warmup: gen.warmup_frames(),
        frames: gen.take(frames),
    }
}

/// The `sustained` NAT composite: 8 TCP conversations : 3 DNS : 1
/// ARP/ICMP. NAT treats port 0 as its external side, so stray frames
/// are re-pinned to an internal port, as `sustained` and `soak` do.
fn nat_stream(seed: u64, frames: usize) -> Stream {
    let names = [
        ("example.com", 4),
        ("emu.cam.ac.uk", 2),
        ("a.b", 1),
        ("cache.io", 1),
    ];
    let mut mix = Mix::new(seed)
        .add(8, TcpConversations::new(seed ^ 1, 48, &[1, 2, 3]))
        .add(3, DnsWeighted::new(seed ^ 2, &names))
        .add(1, Background::new(seed ^ 3, &[1, 2, 3]));
    let frames = (0..frames)
        .map(|_| {
            let mut f = mix.next_frame();
            if f.in_port == 0 {
                f.in_port = 1 + (f.len() % 3) as u8;
            }
            f
        })
        .collect();
    Stream {
        warmup: Vec::new(),
        frames,
    }
}

/// NAT's forward-table key `{int_ip, int_port, proto}`.
fn nat_fwd_key(f: &Frame) -> u64 {
    let b = f.bytes();
    let word = |off: usize, n: usize| {
        b.get(off..off + n)
            .map_or(0, |s| s.iter().fold(0u64, |a, &x| (a << 8) | u64::from(x)))
    };
    (word(offset::IPV4_SRC, 4) << 24) | (word(offset::L4, 2) << 8) | word(offset::IPV4_PROTO, 1)
}

/// Memcached requests move their source port in lockstep with the key
/// index, so the port stands for the key.
fn mc_key(f: &Frame) -> u64 {
    u64::from(bitutil::get16(f.bytes(), offset::L4))
}

pub fn lookup(name: &str) -> Option<Workload> {
    let switch = |name, frames, stream: fn(u64, usize) -> Stream| EngineWorkload {
        name,
        service: emu_services::switch_ip_cam,
        shards: 1,
        parallel: false,
        nat_steering: false,
        table: None,
        batch: 256,
        frames,
        replays: 4,
        stream,
        checker: switch_checker,
        cam: switch_cam(),
    };
    Some(match name {
        "min64-switch" => Workload::Engine(switch("min64-switch", 262_144, |seed, n| {
            station_stream(seed, n, MIN_PAYLOAD)
        })),
        "mtu1500-switch" => Workload::Engine(switch("mtu1500-switch", 32_768, |seed, n| {
            station_stream(seed, n, MTU_PAYLOAD)
        })),
        "l7-memcached" => Workload::Engine(EngineWorkload {
            name: "l7-memcached",
            service: emu_services::memcached,
            shards: 1,
            parallel: false,
            nat_steering: false,
            table: None,
            batch: 256,
            frames: 262_144,
            replays: 1,
            stream: |seed, n| Stream {
                warmup: Vec::new(),
                frames: MemcachedZipf::new(seed, 256, 1.1, 0.9).take(n),
            },
            checker: |_, _| Box::new(McModel::new()),
            cam: CamGeometry {
                capacity: emu_services::memcached::STORE_ENTRIES,
                key_bits: emu_services::memcached::CAM_KEY_BITS,
                value_bits: 64,
                ttl: None,
                key_of: mc_key,
            },
        }),
        "flows-1m-churn" => Workload::Engine(EngineWorkload {
            name: "flows-1m-churn",
            service: emu_services::switch_ip_cam,
            shards: 1,
            parallel: false,
            nat_steering: false,
            table: Some((CHURN_TABLE, CHURN_TTL)),
            batch: 256,
            frames: 524_288,
            replays: 1,
            stream: churn_stream,
            checker: switch_checker,
            cam: CamGeometry {
                capacity: CHURN_TABLE,
                ttl: Some(CHURN_TTL),
                ..switch_cam()
            },
        }),
        "par2-nat" => Workload::Engine(EngineWorkload {
            name: "par2-nat",
            service: || emu_services::nat(public_ip()),
            shards: 2,
            parallel: true,
            nat_steering: true,
            table: None,
            batch: 1024,
            frames: 262_144,
            replays: 2,
            stream: nat_stream,
            checker: |w, _| Box::new(NatChecker::new(public_ip(), w.shards)),
            cam: CamGeometry {
                capacity: emu_services::nat::NAT_ENTRIES,
                key_bits: 56,
                value_bits: 16,
                ttl: None,
                key_of: nat_fwd_key,
            },
        }),
        "fabric-closed-loop" => Workload::Fabric(FabricWorkload {
            name: "fabric-closed-loop",
            requests_per_client: 4_096,
            retries: 4,
        }),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_is_a_workload_and_nothing_else_is() {
        for name in NAMES {
            assert!(lookup(name).is_some(), "{name}");
        }
        assert!(lookup("min64").is_none());
        assert!(lookup("").is_none());
    }

    /// The generated input is part of the benchmark's definition: a
    /// change to a generator, a size or a seed mix shows up here, and
    /// must be made as a change to the benchmark, not by accident.
    #[test]
    fn stream_digests_are_pinned_for_the_default_seed() {
        let pinned = [
            ("min64-switch", 0x7b20_7ae6_0acd_ec95u64),
            ("mtu1500-switch", 0x9f13_3ab5_2417_b5a5),
            ("l7-memcached", 0xc033_c9ba_bfb3_3c4d),
            ("flows-1m-churn", 0x4c2e_2685_1fbc_d69f),
            ("par2-nat", 0xbbbd_3f85_5a92_644a),
        ];
        for (name, digest) in pinned {
            let Some(Workload::Engine(w)) = lookup(name) else {
                panic!("{name} is an engine workload");
            };
            let s = (w.stream)(DEFAULT_SEED, w.frames);
            assert_eq!(s.frames.len(), w.frames, "{name}");
            assert_eq!(s.digest(), digest, "{name}: {:#018x}", s.digest());
            // Another seed gives another stream.
            assert_ne!(
                (w.stream)(HELD_OUT_SEED, 1024).digest(),
                (w.stream)(DEFAULT_SEED, 1024).digest()
            );
        }
    }
}
