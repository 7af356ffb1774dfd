//! Ethernet frame buffer shared by every target.
//!
//! The Emu runtime moves frames between network logical ports and the
//! program (§3.3); `Frame` is the common in-memory representation used by
//! the RTL platform model, the host-stack simulator, and the Mininet
//! analogue, so that packets can cross target boundaries unchanged.

use crate::addr::MacAddr;
use crate::bitutil;
use crate::proto::{ether_type, frame, offset};
use std::fmt;

/// An Ethernet II frame (without FCS) plus receive metadata.
#[derive(PartialEq, Eq, Hash)]
pub struct Frame {
    bytes: Vec<u8>,
    /// Port index the frame arrived on (platform metadata, not on the wire).
    pub in_port: u8,
}

/// By hand for `clone_from`: the derived one is `*self = src.clone()`,
/// an allocation per call, where refilling a frame buffer that is
/// already large enough should copy bytes and nothing else.
impl Clone for Frame {
    fn clone(&self) -> Self {
        Frame {
            bytes: self.bytes.clone(),
            in_port: self.in_port,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.bytes.clone_from(&src.bytes);
        self.in_port = src.in_port;
    }
}

impl Frame {
    /// Wraps raw bytes as a frame. Frames shorter than the Ethernet minimum
    /// are padded with zeroes, as a MAC would on transmit.
    pub fn new(mut bytes: Vec<u8>) -> Self {
        if bytes.len() < frame::MIN {
            bytes.resize(frame::MIN, 0);
        }
        Frame { bytes, in_port: 0 }
    }

    /// Builds an Ethernet II frame from addresses, EtherType and payload,
    /// in one buffer of its padded length.
    pub fn ethernet(dst: MacAddr, src: MacAddr, ethertype: u16, payload: &[u8]) -> Self {
        let end = offset::L3 + payload.len();
        let mut bytes = crate::wire::ethernet_buf(dst, src, ethertype, end);
        bytes[offset::L3..end].copy_from_slice(payload);
        Frame::new(bytes)
    }

    /// Frame length in bytes (post-padding, without FCS).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True iff the frame is empty (never true for frames built through the
    /// constructors, which pad to the Ethernet minimum).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Immutable view of the frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable view of the frame bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Destination MAC address.
    pub fn dst_mac(&self) -> MacAddr {
        MacAddr::from_u64(bitutil::get48(&self.bytes, offset::ETH_DST))
    }

    /// Source MAC address.
    pub fn src_mac(&self) -> MacAddr {
        MacAddr::from_u64(bitutil::get48(&self.bytes, offset::ETH_SRC))
    }

    /// EtherType field.
    pub fn ethertype(&self) -> u16 {
        bitutil::get16(&self.bytes, offset::ETH_TYPE)
    }

    /// True iff this is a direction packet (§3.5) addressed to the embedded
    /// debug controller.
    pub fn is_direction(&self) -> bool {
        self.ethertype() == ether_type::DIRECTION
    }

    /// Wire occupancy of this frame on a link, in bytes: frame + FCS/IFG/
    /// preamble overhead. Used by the port models for line-rate pacing.
    pub fn wire_bytes(&self) -> usize {
        self.len().max(frame::MIN) + frame::WIRE_OVERHEAD
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Frame[{} -> {}, type {:#06x}, {} B, in_port {}]",
            self.src_mac(),
            self.dst_mac(),
            self.ethertype(),
            self.len(),
            self.in_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(x: u64) -> MacAddr {
        MacAddr::from_u64(x)
    }

    #[test]
    fn ethernet_constructor_lays_out_header() {
        let f = Frame::ethernet(mac(0x1), mac(0x2), ether_type::IPV4, &[0xaa; 50]);
        assert_eq!(f.dst_mac(), mac(0x1));
        assert_eq!(f.src_mac(), mac(0x2));
        assert_eq!(f.ethertype(), ether_type::IPV4);
        assert_eq!(f.len(), 64);
    }

    #[test]
    fn short_frames_are_padded_to_minimum() {
        let f = Frame::ethernet(mac(1), mac(2), ether_type::ARP, &[1, 2, 3]);
        assert_eq!(f.len(), frame::MIN);
        assert_eq!(f.bytes()[17], 0); // padding bytes are zero
    }

    #[test]
    fn wire_bytes_for_min_frame() {
        let f = Frame::new(vec![0u8; 60]);
        assert_eq!(f.wire_bytes(), 80); // 60 + 20 (the 64B-on-wire convention)
    }

    #[test]
    fn direction_frames_detected() {
        let f = Frame::ethernet(mac(1), mac(2), ether_type::DIRECTION, &[]);
        assert!(f.is_direction());
        let g = Frame::ethernet(mac(1), mac(2), ether_type::IPV4, &[]);
        assert!(!g.is_direction());
    }

    #[test]
    fn clone_from_refills_in_place_when_the_buffer_is_large_enough() {
        for len in [60usize, 1514] {
            let mut src = Frame::new((0..len).map(|i| i as u8).collect());
            src.in_port = 3;
            // Equal capacity, then larger: the same buffer both times.
            for spare in [len, len + 100] {
                let mut slot = Frame::new(vec![0xff; spare]);
                let buf = slot.bytes().as_ptr();
                slot.clone_from(&src);
                assert_eq!(slot, src, "{len} B into {spare} B");
                assert_eq!(slot.bytes().as_ptr(), buf, "{len} B into {spare} B");
            }
        }
    }
}
