//! Workload generation: the memaslap analogue.
//!
//! §5.2: "The Memcached evaluation uses the memaslap benchmark,
//! configured to use a mix of 90 % GET and 10 % SET requests with random
//! keys".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One memcached operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McOp {
    /// Read the given key.
    Get(String),
    /// Store `key` with an 8-byte value.
    Set(String, [u8; 8]),
}

impl McOp {
    /// Renders the ASCII request body for this op.
    pub fn request_body(&self) -> String {
        match self {
            McOp::Get(k) => format!("get {k}\r\n"),
            McOp::Set(k, v) => {
                format!("set {k} 0 0 8\r\n{}\r\n", String::from_utf8_lossy(v))
            }
        }
    }

    /// True for SETs, which must be replicated to all cores in the §5.4
    /// multi-core configuration.
    pub fn is_set(&self) -> bool {
        matches!(self, McOp::Set(..))
    }
}

/// memaslap-style generator: fixed keyspace, 90/10 GET/SET (the paper's
/// mix, §5.2), random keys.
#[derive(Debug)]
pub struct Memaslap {
    rng: StdRng,
    keys: Vec<String>,
}

impl Memaslap {
    /// Probability of a GET.
    const GET_RATIO: f64 = 0.9;

    /// Creates a generator over `keyspace` distinct keys (≤8 chars each).
    pub fn new(keyspace: usize, seed: u64) -> Self {
        let keys = (0..keyspace).map(|i| format!("k{i:06}")).collect();
        Memaslap {
            rng: StdRng::seed_from_u64(seed),
            keys,
        }
    }

    /// SET ops covering the whole keyspace (cache warm-up).
    pub fn warmup(&mut self) -> Vec<McOp> {
        let mut v = [0u8; 8];
        self.keys
            .iter()
            .map(|k| {
                self.rng.fill(&mut v);
                for b in v.iter_mut() {
                    *b = b'A' + (*b % 26);
                }
                McOp::Set(k.clone(), v)
            })
            .collect()
    }

    /// The next operation under the configured mix.
    pub(crate) fn next_op(&mut self) -> McOp {
        let key = self.keys[self.rng.gen_range(0..self.keys.len())].clone();
        if self.rng.gen_bool(Self::GET_RATIO) {
            McOp::Get(key)
        } else {
            let mut v = [0u8; 8];
            self.rng.fill(&mut v);
            for b in v.iter_mut() {
                *b = b'A' + (*b % 26);
            }
            McOp::Set(key, v)
        }
    }

    /// Generates `n` operations.
    pub fn ops(&mut self, n: usize) -> Vec<McOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_ratio_respected() {
        let mut g = Memaslap::new(100, 1);
        let ops = g.ops(10_000);
        let gets = ops.iter().filter(|o| !o.is_set()).count();
        let ratio = gets as f64 / ops.len() as f64;
        assert!((ratio - 0.9).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn warmup_covers_keyspace() {
        let mut g = Memaslap::new(50, 2);
        let w = g.warmup();
        assert_eq!(w.len(), 50);
        assert!(w.iter().all(|o| o.is_set()));
    }

    #[test]
    fn request_bodies_are_wire_format() {
        assert_eq!(McOp::Get("abc".into()).request_body(), "get abc\r\n");
        let s = McOp::Set("k".into(), *b"AAAABBBB").request_body();
        assert_eq!(s, "set k 0 0 8\r\nAAAABBBB\r\n");
    }

    #[test]
    fn values_are_printable_ascii() {
        let mut g = Memaslap::new(10, 3);
        let mut sets = 0;
        for op in g.ops(1000) {
            if let McOp::Set(_, v) = op {
                assert!(v.iter().all(|b| b.is_ascii_uppercase()));
                sets += 1;
            }
        }
        assert!(sets > 0, "a mix of 1000 ops must hold SETs");
    }

    #[test]
    fn generator_is_deterministic_by_seed() {
        let a = Memaslap::new(10, 7).ops(20);
        let b = Memaslap::new(10, 7).ops(20);
        assert_eq!(a, b);
    }
}
