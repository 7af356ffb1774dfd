//! Direction packets: the in-band remote-debugging protocol of §3.5.
//!
//! "Direction packets are network packets in a custom and simple packet
//! format, whose payload consists of (i) code to be executed by the
//! controller; or (ii) status replies from the controller to the
//! director. It enables us to remotely direct a running program, similar
//! to gdb's remote serial protocol."
//!
//! Layout (after the Ethernet header, EtherType `0x88b5`):
//!
//! ```text
//! offset 14: opcode   (1 byte; replies set bit 7)
//! offset 15: variable (1 byte; index into the controller's var table)
//! offset 16: value    (8 bytes, big-endian)
//! offset 24: status   (1 byte; 0 = ok, 1 = bad var, 2 = bad op)
//! ```

use emu_types::proto::ether_type;
use emu_types::{bitutil, Frame, MacAddr};

/// Controller opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Read a variable: reply carries its value.
    ReadVar = 1,
    /// Write a variable from the value field.
    WriteVar = 2,
    /// Increment a variable.
    Increment = 3,
    /// Arm the trace unit: variable index + depth in the value field.
    TraceStart = 4,
    /// Read one trace-buffer slot (index in the value field).
    TraceRead = 5,
    /// Read trace status: reply value = (overflowed << 32) | fill.
    TraceStatus = 6,
    /// Stop tracing.
    TraceStop = 7,
}

impl Opcode {
    /// Parses a request opcode byte.
    pub(crate) fn from_byte(b: u8) -> Option<Opcode> {
        Some(match b {
            1 => Opcode::ReadVar,
            2 => Opcode::WriteVar,
            3 => Opcode::Increment,
            4 => Opcode::TraceStart,
            5 => Opcode::TraceRead,
            6 => Opcode::TraceStatus,
            7 => Opcode::TraceStop,
            _ => return None,
        })
    }
}

/// Reply status codes.
pub(crate) mod status {
    /// Success.
    pub(crate) const OK: u8 = 0;
    /// Unknown variable index.
    pub(crate) const BAD_VAR: u8 = 1;
    /// Opcode not compiled into this controller.
    pub(crate) const BAD_OP: u8 = 2;
}

/// Byte offsets of the packet fields (within the frame).
pub(crate) mod field {
    /// Opcode.
    pub(crate) const OPCODE: usize = 14;
    /// Variable index.
    pub(crate) const VAR: usize = 15;
    /// 64-bit value.
    pub(crate) const VALUE: usize = 16;
    /// Status byte (replies).
    pub(crate) const STATUS: usize = 24;
}

/// Reply bit OR-ed into the opcode byte.
pub(crate) const REPLY_BIT: u8 = 0x80;

/// A parsed direction packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectionPacket {
    /// The operation.
    pub opcode: Opcode,
    /// Target variable index.
    pub var: u8,
    /// Argument / result value.
    pub value: u64,
    /// Status (meaningful in replies).
    pub status: u8,
    /// Reply flag.
    pub is_reply: bool,
}

impl DirectionPacket {
    /// Builds a request.
    pub fn request(opcode: Opcode, var: u8, value: u64) -> Self {
        DirectionPacket {
            opcode,
            var,
            value,
            status: 0,
            is_reply: false,
        }
    }

    /// Encodes into a frame addressed `src → dst`.
    pub fn encode(&self, dst: MacAddr, src: MacAddr) -> Frame {
        let mut payload = vec![0u8; 46];
        payload[0] = self.opcode as u8 | if self.is_reply { REPLY_BIT } else { 0 };
        payload[1] = self.var;
        bitutil::set64(&mut payload, 2, self.value);
        payload[10] = self.status;
        Frame::ethernet(dst, src, ether_type::DIRECTION, &payload)
    }

    /// Decodes from a frame; `None` when the frame is not a direction
    /// packet or carries an unknown opcode.
    pub fn decode(frame: &Frame) -> Option<DirectionPacket> {
        if !frame.is_direction() {
            return None;
        }
        let b = frame.bytes();
        let raw = *b.get(field::OPCODE)?;
        let opcode = Opcode::from_byte(raw & !REPLY_BIT)?;
        Some(DirectionPacket {
            opcode,
            var: *b.get(field::VAR)?,
            value: bitutil::get64(b, field::VALUE),
            status: *b.get(field::STATUS)?,
            is_reply: raw & REPLY_BIT != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for op in [
            Opcode::ReadVar,
            Opcode::WriteVar,
            Opcode::Increment,
            Opcode::TraceStart,
            Opcode::TraceRead,
            Opcode::TraceStatus,
            Opcode::TraceStop,
        ] {
            let p = DirectionPacket::request(op, 3, 0xdead_beef_0042);
            let f = p.encode(MacAddr::from_u64(1), MacAddr::from_u64(2));
            let q = DirectionPacket::decode(&f).unwrap();
            assert_eq!(p, q);
        }
    }

    #[test]
    fn reply_bit_preserved() {
        let mut p = DirectionPacket::request(Opcode::ReadVar, 0, 7);
        p.is_reply = true;
        p.status = status::OK;
        let f = p.encode(MacAddr::from_u64(1), MacAddr::from_u64(2));
        let q = DirectionPacket::decode(&f).unwrap();
        assert!(q.is_reply);
        assert_eq!(q.status, status::OK);
    }

    #[test]
    fn non_direction_frames_rejected() {
        let f = Frame::ethernet(
            MacAddr::from_u64(1),
            MacAddr::from_u64(2),
            emu_types::proto::ether_type::IPV4,
            &[0; 46],
        );
        assert!(DirectionPacket::decode(&f).is_none());
    }

    #[test]
    fn unknown_opcode_rejected() {
        let p = DirectionPacket::request(Opcode::ReadVar, 0, 0);
        let mut f = p.encode(MacAddr::from_u64(1), MacAddr::from_u64(2));
        f.bytes_mut()[field::OPCODE] = 0x7f;
        assert!(DirectionPacket::decode(&f).is_none());
    }

    /// One mutation of a valid frame, chosen and placed by `pick`:
    /// flipped bits, a truncation, or a run of the frame's own bytes
    /// copied over, into or out of it.
    fn mutate(valid: &[u8], pick: &[u64]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        let at = |k: usize, n: usize| (pick[k % pick.len()] as usize) % n.max(1);
        match pick[0] % 3 {
            0 => {
                for k in 1..=1 + at(1, 8) {
                    let bit = at(k + 1, bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => bytes.truncate(at(1, bytes.len())),
            _ => {
                let src = at(1, valid.len());
                let piece = valid[src..src + at(2, valid.len() - src)].to_vec();
                let dst = at(3, bytes.len());
                match pick[4] % 3 {
                    0 => drop(bytes.splice(dst..dst, piece)),
                    1 => {
                        let end = (dst + piece.len()).min(bytes.len());
                        drop(bytes.splice(dst..end, piece));
                    }
                    _ => drop(bytes.drain(dst..dst + at(5, bytes.len() - dst))),
                }
            }
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The decoder never panics and never runs long on a damaged
        /// frame: it returns `Some` or `None`, and a packet it accepts
        /// encodes to a frame it decodes back to that same packet.
        #[test]
        fn mutated_packets_decode_or_fail_cleanly(
            pick in proptest::collection::vec(proptest::prelude::any::<u64>(), 8..9)
        ) {
            let mut p = DirectionPacket::request(
                Opcode::from_byte(1 + (pick[6] % 7) as u8).unwrap(),
                pick[6] as u8,
                pick[7],
            );
            p.is_reply = pick[6] & 1 << 20 != 0;
            p.status = (pick[6] >> 24) as u8 % 3;
            let (dst, src) = (MacAddr::from_u64(1), MacAddr::from_u64(2));
            let valid = p.encode(dst, src);
            let frame = Frame::new(mutate(valid.bytes(), &pick));
            let t = std::time::Instant::now();
            let decoded = DirectionPacket::decode(&frame);
            proptest::prop_assert!(t.elapsed() < std::time::Duration::from_secs(1));
            if let Some(q) = decoded {
                proptest::prop_assert_eq!(DirectionPacket::decode(&q.encode(dst, src)), Some(q));
            }
        }
    }

    #[test]
    fn field_offsets_match_layout() {
        let p = DirectionPacket::request(Opcode::WriteVar, 9, 0x0102030405060708);
        let f = p.encode(MacAddr::from_u64(1), MacAddr::from_u64(2));
        let b = f.bytes();
        assert_eq!(b[field::OPCODE], 2);
        assert_eq!(b[field::VAR], 9);
        assert_eq!(bitutil::get64(b, field::VALUE), 0x0102030405060708);
    }
}
