//! Direct `CamTable` timings at the workload's table geometry and in
//! the workload's own key order — the "IP-block env" layer measured
//! from outside, without the engine around it.

use crate::workloads::{CamGeometry, Stream};
use emu_rtl::CamTable;
use emu_types::Bits;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Keys taken from the head of the stream.
const PROBE_KEYS: usize = 65_536;
/// Operations each timing should cover, by repeating small tables.
const MIN_OPS: usize = 16_384;

/// Host ns per table operation.
pub struct CamCosts {
    pub hit_ns: f64,
    pub miss_ns: f64,
    pub refresh_ns: f64,
    pub insert_ns: f64,
    pub evict_ns: f64,
}

fn filler(i: usize) -> u64 {
    0x0400_0000_0000 | i as u64
}

/// ns per call of `op` over `keys`.
fn per_op(keys: &[Bits], mut op: impl FnMut(&Bits)) -> f64 {
    let t = Instant::now();
    for k in keys {
        op(k);
    }
    t.elapsed().as_nanos() as f64 / keys.len() as f64
}

pub fn probe(geom: &CamGeometry, div: usize, stream: &Stream) -> CamCosts {
    let capacity = (geom.capacity / div).max(2);
    let key = |k: u64| Bits::from_u64(k, geom.key_bits);
    let value = Bits::from_u64(1, geom.value_bits);
    let table = || CamTable::new(capacity, geom.key_bits, geom.value_bits).with_ttl(geom.ttl);

    // The resident table: everything the warm-up and the stream head
    // would have taught it (evicting once full, as the service does).
    let head = &stream.frames[..stream.frames.len().min(PROBE_KEYS)];
    let mut resident = table();
    for f in stream.warmup.iter().chain(head) {
        resident.write(key((geom.key_of)(f)), value.clone());
    }
    // Top bit flipped: the same access order over keys nobody wrote.
    let flip = 1u64 << (geom.key_bits.min(64) - 1);
    let (mut present, mut absent) = (Vec::new(), Vec::new());
    for f in head {
        let k = (geom.key_of)(f);
        if resident.peek(&key(k)).is_some() {
            present.push(key(k));
        }
        if resident.peek(&key(k ^ flip)).is_none() {
            absent.push(key(k ^ flip));
        }
    }
    assert!(
        !present.is_empty() && !absent.is_empty(),
        "stream head leaves nothing to look up"
    );
    let hit_ns = per_op(&present, |k| {
        black_box(resident.lookup(k));
    });
    let miss_ns = per_op(&absent, |k| {
        black_box(resident.lookup(k));
    });
    let refresh_ns = per_op(&present, |k| {
        black_box(resident.write(k.clone(), value.clone()));
    });
    drop(resident);

    // Inserts and evictions need keys that are new to the table: the
    // distinct absent keys, written into a table pre-filled so that it
    // either has room for all of them (insert) or for none (evict).
    let mut seen = HashSet::new();
    let fresh: Vec<Bits> = absent
        .into_iter()
        .filter(|k| seen.insert(k.to_u64()))
        .take(capacity / 2)
        .collect();
    let rounds = MIN_OPS.div_ceil(fresh.len());
    let write_fresh = |prefill: usize| {
        let mut total = 0.0;
        for _ in 0..rounds {
            let mut t = table();
            for i in 0..prefill {
                t.write(key(filler(i)), value.clone());
            }
            total += per_op(&fresh, |k| {
                black_box(t.write(k.clone(), value.clone()));
            });
        }
        total / rounds as f64
    };
    CamCosts {
        hit_ns,
        miss_ns,
        refresh_ns,
        insert_ns: write_fresh(capacity - fresh.len()),
        evict_ns: write_fresh(capacity),
    }
}
