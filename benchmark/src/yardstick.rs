//! The host's speed, read from a reference kernel between stretches of
//! the timed work, and divided out of every host-time end-to-end
//! metric.
//!
//! The guest this benchmark runs in shares its cores with other
//! tenants, and its speed moves under it: by a tenth within
//! milliseconds, and by a third for stretches that outlast a run. No
//! summary of wall time alone is steady under that — ten runs of
//! unchanged code spread by up to 30 % of their median. So the timed
//! work is cut into stretches of a few milliseconds, a small fixed
//! kernel runs between them, and a stretch's time is scaled by how long
//! the kernel took next to it: seconds become *nominal seconds*, what
//! the stretch would have taken on the reference host left alone. The
//! median over a run's stretches then repeats within 1–5 %.
//!
//! The kernel is part of the benchmark's definition. It lives here,
//! depends on nothing in the repo, and must not change: a change to it
//! rescales every recorded number.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`RefKernel::run`] takes on the reference host (the
/// 2-vCPU Xeon guest the benchmark was written on) when nothing else
/// disturbs it. Only a scale: it makes nominal seconds read like
/// seconds of that host.
pub const NOMINAL_S: f64 = 270e-6;

/// Values as wide as the engine's `Bits` (72 bytes).
type Wide = [u64; 9];

/// Slots of the frame-like buffer: one wide value per byte of a
/// 1536-byte frame buffer, about 110 KB.
const FRAME_SLOTS: usize = 1536;
const FILL_ROUNDS: u64 = 48;
/// Words of the table the summing loop reads: 16 KB, resident in L1.
const TABLE_WORDS: usize = 2048;
const SUM_ROUNDS: u64 = 300;

/// A quarter of a millisecond of the two kinds of work that slow down
/// most, and most like the engine, when a neighbour is busy: filling a
/// frame-sized buffer of 72-byte values, as `load_frame` does (two
/// thirds of the time), and a loop of independent loads and adds over
/// a table in L1 (one third). Of the eleven kernels tried (README,
/// "Noise"), dependent arithmetic, pointer chasing, streaming reads and
/// a large code footprint all followed the engine's slowdowns at a
/// half to a third of their size; these two follow them at nine
/// tenths.
pub struct RefKernel {
    frame: Vec<Wide>,
    table: Vec<u64>,
    sums: [u64; 8],
}

impl RefKernel {
    pub fn new() -> Self {
        RefKernel {
            frame: vec![[0; 9]; FRAME_SLOTS],
            table: (0..TABLE_WORDS as u64).collect(),
            sums: [0; 8],
        }
    }

    /// Runs the kernel once; the seconds it took.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        for round in 0..FILL_ROUNDS {
            for (i, slot) in self.frame.iter_mut().enumerate() {
                *slot = [i as u64 ^ round, 0, 0, 0, 0, 0, 0, 0, 8];
            }
            black_box(&self.frame);
        }
        for round in 0..SUM_ROUNDS {
            for words in self.table.chunks_exact(8) {
                for (sum, word) in self.sums.iter_mut().zip(words) {
                    *sum = sum.wrapping_add(word ^ round);
                }
            }
        }
        black_box(&self.sums);
        t.elapsed().as_secs_f64()
    }
}

/// Reads the host's speed stretch by stretch.
pub struct Yardstick {
    kernel: RefKernel,
    /// The reading that closed the previous stretch.
    last_s: f64,
    readings: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        let mut kernel = RefKernel::new();
        // The first runs pay for page faults and cold caches.
        kernel.run();
        kernel.run();
        let last_s = kernel.run();
        Yardstick {
            kernel,
            last_s,
            readings: Vec::new(),
        }
    }

    /// The host's speed (1 = the reference host left alone) over the
    /// stretch since the previous call: [`NOMINAL_S`] over the mean of
    /// the reading that closed the previous stretch and a fresh one.
    /// Wall seconds of the stretch times this are its nominal seconds.
    /// Call it once and drop the result after anything that is not to
    /// count as part of the next stretch.
    pub fn speed(&mut self) -> f64 {
        let now_s = self.kernel.run();
        let mean_s = (self.last_s + now_s) / 2.0;
        self.last_s = now_s;
        self.readings.push(now_s);
        NOMINAL_S / mean_s
    }

    /// Median speed over every reading so far.
    pub fn median_speed(&self) -> f64 {
        NOMINAL_S / crate::stats::median(&self.readings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel is part of the benchmark's definition: what it
    /// computes is pinned, so an edit to it cannot pass unnoticed.
    #[test]
    fn the_kernel_computes_what_it_always_did() {
        let mut k = RefKernel::new();
        k.run();
        k.run();
        let digest = k
            .sums
            .iter()
            .chain(k.frame.iter().flatten())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
                (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(digest, 0x9e6b_b76a_8e96_f5c5, "{digest:#018x}");
    }

    #[test]
    fn speed_is_nominal_over_the_mean_of_two_readings() {
        let mut y = Yardstick::new();
        let before = y.last_s;
        let speed = y.speed();
        let mean = (before + y.last_s) / 2.0;
        assert_eq!(speed, NOMINAL_S / mean);
        assert_eq!(y.readings.len(), 1);
        assert!(y.median_speed() > 0.0);
    }
}
