//! AXI4-Stream beat arithmetic: the bus the NetFPGA SUME reference
//! pipeline uses.
//!
//! The SUME datapath moves packets as 256-bit beats at 200 MHz (§5.1),
//! giving 51.2 Gb/s of core bandwidth for 4×10G of line bandwidth — which
//! is why the Emu switch sustains full line rate (Table 3). A 64-byte
//! frame is exactly two beats; beat counts feed the latency and throughput
//! models in `netfpga-sim`.

/// Width of one beat in bytes.
const BEAT_BYTES: usize = 32;

/// Number of beats a frame of `len` bytes occupies.
pub fn beats_for_len(len: usize) -> u64 {
    (len.div_ceil(BEAT_BYTES).max(1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_arithmetic() {
        assert_eq!(beats_for_len(1), 1);
        assert_eq!(beats_for_len(32), 1);
        assert_eq!(beats_for_len(33), 2);
        assert_eq!(beats_for_len(64), 2);
        assert_eq!(beats_for_len(1514), 48);
    }
}
