//! Record / replay: a pcap-style binary capture of a frame stream
//! *plus* the engine's response to every frame, so any traffic window —
//! a failing soak segment, a regression scenario — round-trips into a
//! committed fixture that replays byte-exact on every target.
//!
//! Format (`EMUTRC01`, all integers little-endian):
//!
//! ```text
//! magic[8] = "EMUTRC01"
//! count: u32
//! entry*count:
//!   status: u8            0 = processed, 1 = rejected (e.g. oversize)
//!   in_port: u8
//!   len: u32, bytes[len]  the input frame
//!   out_count: u16
//!   out*out_count:
//!     ports: u8           destination port bitmap
//!     len: u32, bytes[len]
//! ```

use emu_core::{Engine, EngineError};
use emu_types::Frame;

const MAGIC: &[u8; 8] = b"EMUTRC01";

/// One recorded input with the engine's observed response.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The offered frame.
    pub input: Frame,
    /// Whether input validation rejected the frame (oversize).
    pub rejected: bool,
    /// Transmitted frames, as `(port bitmap, frame)`.
    pub outputs: Vec<(u8, Frame)>,
}

/// A recorded stream: inputs and byte-exact expected outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// The entries in offer order.
    pub entries: Vec<TraceEntry>,
}

impl Trace {
    /// Runs `frames` through `engine` (one batch) and records every
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics if the engine traps — a trace is a golden fixture, and a
    /// trap while recording one is a bug to fix, not to enshrine.
    pub fn record(engine: &mut Engine, frames: &[Frame]) -> Trace {
        let report = engine.process_batch(frames);
        let entries = frames
            .iter()
            .zip(&report.outputs)
            .map(|(f, r)| match r {
                Ok(out) => TraceEntry {
                    input: f.clone(),
                    rejected: false,
                    outputs: out.tx.iter().map(|t| (t.ports, t.frame.clone())).collect(),
                },
                Err(EngineError::Oversize { .. }) => TraceEntry {
                    input: f.clone(),
                    rejected: true,
                    outputs: Vec::new(),
                },
                Err(e) => panic!("engine trapped while recording a trace: {e}"),
            })
            .collect();
        Trace { entries }
    }

    /// The recorded input frames (for re-offering to another engine).
    pub fn inputs(&self) -> Vec<Frame> {
        self.entries.iter().map(|e| e.input.clone()).collect()
    }

    /// Replays the inputs through `engine` and verifies every response
    /// byte-exactly against the recording. Returns the first mismatch
    /// as an error.
    pub fn replay(&self, engine: &mut Engine) -> Result<(), String> {
        let frames = self.inputs();
        let report = engine.process_batch(&frames);
        for (i, (want, got)) in self.entries.iter().zip(&report.outputs).enumerate() {
            match got {
                Ok(out) => {
                    if want.rejected {
                        return Err(format!("frame {i}: expected rejection, got output"));
                    }
                    if out.tx.len() != want.outputs.len() {
                        return Err(format!(
                            "frame {i}: {} tx frames, recorded {}",
                            out.tx.len(),
                            want.outputs.len()
                        ));
                    }
                    for (j, (tx, (ports, frame))) in out.tx.iter().zip(&want.outputs).enumerate() {
                        if tx.ports != *ports {
                            return Err(format!(
                                "frame {i} tx {j}: ports {:#06b} != recorded {:#06b}",
                                tx.ports, ports
                            ));
                        }
                        if tx.frame.bytes() != frame.bytes() {
                            return Err(format!("frame {i} tx {j}: bytes diverged"));
                        }
                    }
                }
                Err(EngineError::Oversize { .. }) => {
                    if !want.rejected {
                        return Err(format!("frame {i}: unexpected rejection"));
                    }
                }
                Err(e) => return Err(format!("frame {i}: engine trapped: {e}")),
            }
        }
        Ok(())
    }

    /// Serializes the trace.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.push(u8::from(e.rejected));
            out.push(e.input.in_port);
            out.extend_from_slice(&(e.input.len() as u32).to_le_bytes());
            out.extend_from_slice(e.input.bytes());
            out.extend_from_slice(&(e.outputs.len() as u16).to_le_bytes());
            for (ports, f) in &e.outputs {
                out.push(*ports);
                out.extend_from_slice(&(f.len() as u32).to_le_bytes());
                out.extend_from_slice(f.bytes());
            }
        }
        out
    }

    /// Parses a serialized trace.
    pub(crate) fn from_bytes(data: &[u8]) -> Result<Trace, String> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            let s = data
                .get(*pos..*pos + n)
                .ok_or_else(|| format!("truncated trace at byte {pos}", pos = *pos))?;
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 8)? != MAGIC {
            return Err("bad trace magic".into());
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        // Counts come from the file: reserve no more than the bytes left
        // could hold (an entry is at least 8 bytes, an output at least 5).
        let mut entries = Vec::with_capacity(count.min((data.len() - pos) / 8));
        for _ in 0..count {
            let rejected = take(&mut pos, 1)?[0] != 0;
            let in_port = take(&mut pos, 1)?[0];
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let mut input = Frame::new(take(&mut pos, len)?.to_vec());
            input.in_port = in_port;
            let out_count = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
            let mut outputs = Vec::with_capacity(out_count.min((data.len() - pos) / 5));
            for _ in 0..out_count {
                let ports = take(&mut pos, 1)?[0];
                let flen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
                outputs.push((ports, Frame::new(take(&mut pos, flen)?.to_vec())));
            }
            entries.push(TraceEntry {
                input,
                rejected,
                outputs,
            });
        }
        if pos != data.len() {
            return Err(format!("{} trailing bytes after trace", data.len() - pos));
        }
        Ok(Trace { entries })
    }

    /// Writes the trace to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a trace from `path`.
    pub fn load(path: &std::path::Path) -> Result<Trace, String> {
        let data = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_bytes(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Background, TrafficGen};
    use emu_core::Target;

    #[test]
    fn traces_round_trip_through_bytes() {
        let svc = emu_services::switch_ip_cam();
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let frames = Background::new(1, &[0, 1, 2, 3]).take(24);
        let trace = Trace::record(&mut engine, &frames);
        let parsed = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(parsed, trace);
        assert!(parsed.entries.iter().any(|e| !e.outputs.is_empty()));
    }

    #[test]
    fn replay_detects_divergence() {
        let svc = emu_services::switch_ip_cam();
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let frames = Background::new(2, &[0, 1]).take(12);
        let mut trace = Trace::record(&mut engine, &frames);
        // Fresh engine, same inputs: replay must pass.
        let mut fresh = svc.engine(Target::Cpu).build().unwrap();
        trace.replay(&mut fresh).unwrap();
        // Tamper with a recorded output: replay must fail.
        let e = trace
            .entries
            .iter_mut()
            .find(|e| !e.outputs.is_empty())
            .unwrap();
        e.outputs[0].0 ^= 0b1;
        let mut fresh = svc.engine(Target::Cpu).build().unwrap();
        assert!(trace.replay(&mut fresh).is_err());
    }

    #[test]
    fn rejected_frames_are_recorded_as_such() {
        let svc = emu_services::memcached(); // 512 B frame cap
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let big = Frame::new(vec![0xaa; 900]);
        let trace = Trace::record(&mut engine, &[big]);
        assert!(trace.entries[0].rejected);
        let mut fresh = svc.engine(Target::Cpu).build().unwrap();
        trace.replay(&mut fresh).unwrap();
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert!(Trace::from_bytes(b"not a trace").is_err());
        // An entry count the file cannot hold must not be reserved.
        assert!(Trace::from_bytes(b"EMUTRC01\xff\xff\xff\xff").is_err());
        let svc = emu_services::switch_ip_cam();
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let trace = Trace::record(&mut engine, &Background::new(3, &[0]).take(4));
        let mut bytes = trace.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(Trace::from_bytes(&bytes).is_err());
        bytes.extend_from_slice(&[0; 40]);
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    /// A small trace with every shape the format has: an entry with no
    /// output, one with two, a rejected one, and an empty frame.
    fn fixture() -> Trace {
        let frame = |n: usize, seed: u8| Frame::new((0..n).map(|i| seed ^ i as u8).collect());
        let mut tagged = frame(42, 7);
        tagged.in_port = 3;
        Trace {
            entries: vec![
                TraceEntry {
                    input: frame(60, 1),
                    rejected: false,
                    outputs: Vec::new(),
                },
                TraceEntry {
                    input: tagged,
                    rejected: false,
                    outputs: vec![(0b0101, frame(64, 2)), (0b1000, frame(0, 3))],
                },
                TraceEntry {
                    input: frame(90, 4),
                    rejected: true,
                    outputs: Vec::new(),
                },
            ],
        }
    }

    /// Where a valid serialization keeps its entries (byte ranges) and
    /// its counts and lengths (`(offset, width)`: the entry `count`,
    /// then every `len` and `out_count`).
    fn layout(bytes: &[u8]) -> (Vec<std::ops::Range<usize>>, Vec<(usize, usize)>) {
        let le = |at: usize, w: usize| {
            let mut v = 0usize;
            for (k, b) in bytes[at..at + w].iter().enumerate() {
                v |= usize::from(*b) << (8 * k);
            }
            v
        };
        let (mut entries, mut fields) = (Vec::new(), vec![(8, 4)]);
        let mut pos = 12;
        for _ in 0..le(8, 4) {
            let start = pos;
            fields.push((pos + 2, 4));
            pos += 6 + le(pos + 2, 4);
            fields.push((pos, 2));
            let outs = le(pos, 2);
            pos += 2;
            for _ in 0..outs {
                fields.push((pos + 1, 4));
                pos += 5 + le(pos + 1, 4);
            }
            entries.push(start..pos);
        }
        (entries, fields)
    }

    /// One mutation of a valid serialization, chosen and placed by
    /// `pick`: flipped bits, a truncation, a count or length field set
    /// to an inflated value, or entries spliced in, out or over each
    /// other (with the entry count left as it was, or kept in step).
    fn mutate(valid: &[u8], pick: &[u64]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        let (entries, fields) = layout(valid);
        let at = |k: usize, n: usize| (pick[k % pick.len()] as usize) % n.max(1);
        match pick[0] % 5 {
            0 => {
                for k in 1..=1 + at(1, 8) {
                    let bit = at(k + 1, bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => bytes.truncate(at(1, bytes.len())),
            2 => {
                let (off, w) = fields[at(1, fields.len())];
                let old = bytes[off..off + w].to_vec();
                let grown: u64 = match pick[2] % 4 {
                    0 => u64::MAX,
                    1 => 1 << (8 * w - 1),
                    2 => old.iter().rev().fold(0, |v, b| v << 8 | u64::from(*b)) + 1,
                    _ => pick[3],
                };
                bytes[off..off + w].copy_from_slice(&grown.to_le_bytes()[..w]);
            }
            _ => {
                // Splice: copy one entry over, before or instead of
                // another, or cut one out.
                let src = entries[at(1, entries.len())].clone();
                let dst = entries[at(2, entries.len())].clone();
                let piece = valid[src].to_vec();
                let count = u32::from_le_bytes(valid[8..12].try_into().unwrap());
                let count = match pick[3] % 4 {
                    0 => {
                        bytes.splice(dst.start..dst.start, piece);
                        count + 1
                    }
                    1 => {
                        bytes.splice(dst, piece);
                        count
                    }
                    2 => {
                        bytes.drain(dst);
                        count - 1
                    }
                    _ => {
                        let cut = dst.start + at(4, dst.len());
                        bytes.splice(cut..cut, piece);
                        count + 1
                    }
                };
                if pick[0] % 5 == 4 {
                    bytes[8..12].copy_from_slice(&count.to_le_bytes());
                }
            }
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The reader never panics and never runs long on a damaged
        /// trace: whatever the bytes, it returns `Ok` or `Err`, and a
        /// trace it accepts serializes to bytes it reads back as that
        /// same trace.
        #[test]
        fn mutated_traces_parse_or_fail_cleanly(
            pick in proptest::collection::vec(proptest::prelude::any::<u64>(), 6..7)
        ) {
            let bytes = mutate(&fixture().to_bytes(), &pick);
            let t = std::time::Instant::now();
            let parsed = Trace::from_bytes(&bytes);
            proptest::prop_assert!(t.elapsed() < std::time::Duration::from_secs(1));
            if let Ok(trace) = parsed {
                proptest::prop_assert_eq!(Trace::from_bytes(&trace.to_bytes()), Ok(trace));
            }
        }
    }
}
