//! Protocol wrappers: the reusable parsers of Figures 3 and 4.
//!
//! The paper instantiates one wrapper per protocol over the same frame
//! buffer:
//!
//! ```csharp
//! var eth = new EthernetWrapper(dataplane.tdata);
//! var ip  = new IPv4Wrapper(dataplane.tdata);
//! var tcp = new TCPWrapper(dataplane.tdata);
//! var arp = new ARPWrapper(dataplane.tdata);
//! ```
//!
//! Each wrapper exposes typed getters/setters over the byte array; here
//! they produce IR expressions/statements against the [`Dataplane`],
//! which itself carries the Ethernet fields (`dst_mac`, `src_mac`,
//! `ethertype` and their setters).
//! "Writing new parsers for custom protocols is straightforward" (§3.4) —
//! every wrapper below is a thin offset table, exactly like Figure 4.
//!
//! Fixed-offset L4 wrappers assume a 20-byte IPv4 header (IHL = 5), the
//! common case the paper's prototypes handle; `Ipv4Wrapper::has_options`
//! lets services detect and drop options-bearing packets explicitly.

use crate::dataplane::Dataplane;
use emu_types::proto::offset;
use kiwi_ir::dsl::*;
use kiwi_ir::{Expr, Stmt};

/// IPv4 header accessors (Figure 4's `DestinationIPAddress` et al.).
#[derive(Debug, Clone, Copy)]
pub struct Ipv4Wrapper {
    dp: Dataplane,
}

impl Ipv4Wrapper {
    /// Wraps the dataplane's frame buffer.
    pub fn new(dp: Dataplane) -> Self {
        Ipv4Wrapper { dp }
    }

    /// Version field (should be 4).
    pub fn version(&self) -> Expr {
        slice(self.dp.byte(offset::IPV4), 7, 4)
    }

    /// Header length in 32-bit words.
    pub fn ihl(&self) -> Expr {
        slice(self.dp.byte(offset::IPV4), 3, 0)
    }

    /// True when the header carries options (IHL ≠ 5).
    pub fn has_options(&self) -> Expr {
        ne(self.ihl(), lit(5, 4))
    }

    /// Total length field.
    pub fn total_len(&self) -> Expr {
        self.dp.get16(offset::IPV4 + 2)
    }

    /// TTL.
    pub fn ttl(&self) -> Expr {
        self.dp.byte(offset::IPV4_TTL)
    }

    /// Protocol byte.
    pub fn protocol(&self) -> Expr {
        self.dp.byte(offset::IPV4_PROTO)
    }

    /// True when the protocol byte equals `p`.
    pub fn protocol_is(&self, p: u8) -> Expr {
        eq(self.protocol(), lit(u64::from(p), 8))
    }

    /// Header checksum field.
    pub fn header_checksum(&self) -> Expr {
        self.dp.get16(offset::IPV4_CSUM)
    }

    /// Source address (Figure 4's `SourceIPAddress` getter).
    pub fn src(&self) -> Expr {
        self.dp.get32(offset::IPV4_SRC)
    }

    /// Destination address.
    pub fn dst(&self) -> Expr {
        self.dp.get32(offset::IPV4_DST)
    }

    /// Sets the source address (Figure 4's setter).
    pub fn set_src(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set32(offset::IPV4_SRC, v)
    }

    /// Sets the destination address.
    pub fn set_dst(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set32(offset::IPV4_DST, v)
    }

    /// Swaps source and destination addresses via a ≥32-bit scratch reg.
    pub fn swap_addrs(&self, scratch: kiwi_ir::VarId) -> Vec<Stmt> {
        let mut out = vec![assign(scratch, self.dst())];
        out.extend(self.set_dst(self.src()));
        out.extend(self.set_src(resize(var(scratch), 32)));
        out
    }
}

/// ICMP echo accessors (assumes IHL = 5).
#[derive(Debug, Clone, Copy)]
pub struct IcmpWrapper {
    dp: Dataplane,
}

impl IcmpWrapper {
    /// Wraps the dataplane's frame buffer.
    pub fn new(dp: Dataplane) -> Self {
        IcmpWrapper { dp }
    }

    /// Type byte (8 = echo request, 0 = echo reply).
    pub fn icmp_type(&self) -> Expr {
        self.dp.byte(offset::L4)
    }

    /// Sets the type byte.
    pub fn set_type(&self, v: Expr) -> Stmt {
        self.dp.set8(offset::L4, v)
    }

    /// Code byte.
    pub fn code(&self) -> Expr {
        self.dp.byte(offset::L4 + 1)
    }

    /// Checksum field.
    pub fn checksum(&self) -> Expr {
        self.dp.get16(offset::L4 + 2)
    }

    /// Sets the checksum field.
    pub fn set_checksum(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(offset::L4 + 2, v)
    }
}

/// UDP accessors (assumes IHL = 5).
#[derive(Debug, Clone, Copy)]
pub struct UdpWrapper {
    dp: Dataplane,
}

impl UdpWrapper {
    /// Wraps the dataplane's frame buffer.
    pub fn new(dp: Dataplane) -> Self {
        UdpWrapper { dp }
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> Expr {
        self.dp.get16(offset::L4)
    }

    /// Destination port.
    pub fn dst_port(&self) -> Expr {
        self.dp.get16(offset::L4 + 2)
    }

    /// Datagram length.
    pub fn len(&self) -> Expr {
        self.dp.get16(offset::L4 + 4)
    }

    /// Sets the source port.
    pub(crate) fn set_src_port(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(offset::L4, v)
    }

    /// Sets the destination port.
    pub(crate) fn set_dst_port(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(offset::L4 + 2, v)
    }

    /// Sets the length field.
    pub fn set_len(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(offset::L4 + 4, v)
    }

    /// Zeroes the UDP checksum — legal over IPv4 (checksum optional) and
    /// the standard trick in hardware UDP responders that rewrite the
    /// payload.
    pub fn clear_checksum(&self) -> Vec<Stmt> {
        self.dp.set16(offset::L4 + 6, lit(0, 16))
    }

    /// Swaps source and destination ports via a ≥16-bit scratch register.
    pub fn swap_ports(&self, scratch: kiwi_ir::VarId) -> Vec<Stmt> {
        let mut out = vec![assign(scratch, self.dst_port())];
        out.extend(self.set_dst_port(self.src_port()));
        out.extend(self.set_src_port(resize(var(scratch), 16)));
        out
    }

    /// Offset of the UDP payload.
    pub const PAYLOAD: usize = offset::L4 + 8;
}

/// TCP accessors (assumes IHL = 5).
#[derive(Debug, Clone, Copy)]
pub struct TcpWrapper {
    dp: Dataplane,
}

impl TcpWrapper {
    /// Wraps the dataplane's frame buffer.
    pub fn new(dp: Dataplane) -> Self {
        TcpWrapper { dp }
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> Expr {
        self.dp.get16(offset::L4)
    }

    /// Destination port.
    pub fn dst_port(&self) -> Expr {
        self.dp.get16(offset::L4 + 2)
    }

    /// Sequence number.
    pub fn seq(&self) -> Expr {
        self.dp.get32(offset::L4 + 4)
    }

    /// Acknowledgement number.
    pub fn ack(&self) -> Expr {
        self.dp.get32(offset::L4 + 8)
    }

    /// Flags byte (CWR..FIN).
    pub fn flags(&self) -> Expr {
        self.dp.byte(offset::L4 + 13)
    }

    /// The data-offset/reserved byte plus flags as one 16-bit word (the
    /// unit of incremental checksum updates).
    pub fn off_flags_word(&self) -> Expr {
        self.dp.get16(offset::L4 + 12)
    }

    /// Checksum field.
    pub fn checksum(&self) -> Expr {
        self.dp.get16(offset::L4 + 16)
    }

    /// Sets the source port.
    pub(crate) fn set_src_port(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(offset::L4, v)
    }

    /// Sets the destination port.
    pub(crate) fn set_dst_port(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(offset::L4 + 2, v)
    }

    /// Sets the sequence number.
    pub fn set_seq(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set32(offset::L4 + 4, v)
    }

    /// Sets the acknowledgement number.
    pub fn set_ack(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set32(offset::L4 + 8, v)
    }

    /// Sets the checksum field.
    pub fn set_checksum(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(offset::L4 + 16, v)
    }

    /// Swaps source and destination ports via a ≥16-bit scratch register.
    pub fn swap_ports(&self, scratch: kiwi_ir::VarId) -> Vec<Stmt> {
        let mut out = vec![assign(scratch, self.dst_port())];
        out.extend(self.set_dst_port(self.src_port()));
        out.extend(self.set_src_port(resize(var(scratch), 16)));
        out
    }

    /// SYN flag bit.
    pub fn syn(&self) -> Expr {
        slice(self.flags(), 1, 1)
    }

    /// ACK flag bit.
    pub fn ack_flag(&self) -> Expr {
        slice(self.flags(), 4, 4)
    }
}

/// DNS-over-UDP accessors (header at the UDP payload).
#[derive(Debug, Clone, Copy)]
pub struct DnsWrapper {
    dp: Dataplane,
}

impl DnsWrapper {
    /// Offset of the DNS header within the frame.
    pub(crate) const HDR: usize = UdpWrapper::PAYLOAD;
    /// Offset of the question section.
    pub const QUESTION: usize = Self::HDR + 12;

    /// Wraps the dataplane's frame buffer.
    pub fn new(dp: Dataplane) -> Self {
        DnsWrapper { dp }
    }

    /// Transaction id.
    pub fn id(&self) -> Expr {
        self.dp.get16(Self::HDR)
    }

    /// Flags word.
    pub fn flags(&self) -> Expr {
        self.dp.get16(Self::HDR + 2)
    }

    /// Sets the flags word.
    pub(crate) fn set_flags(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(Self::HDR + 2, v)
    }

    /// Question count.
    pub fn qdcount(&self) -> Expr {
        self.dp.get16(Self::HDR + 4)
    }

    /// Sets the answer count.
    pub fn set_ancount(&self, v: Expr) -> Vec<Stmt> {
        self.dp.set16(Self::HDR + 6, v)
    }

    /// Sets the RCODE nibble (keeping the response bit set): flags =
    /// 0x8180 | rcode for a standard response.
    pub fn set_response_flags(&self, rcode: u8) -> Vec<Stmt> {
        self.set_flags(lit(0x8180 | u64::from(rcode & 0xf), 16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::tests::rtl_driver;
    use crate::dataplane::Dataplane;
    use emu_types::proto::ip_proto;
    use emu_types::{wire, Frame, Ipv4, MacAddr};
    use kiwi_ir::interp::{NullEnv, NullObserver};
    use kiwi_ir::{ProgramBuilder, VarId};

    /// Builds a valid ICMP echo request frame for tests.
    fn icmp_echo_request() -> Frame {
        wire::ipv4_frame(
            MacAddr::from_u64(0x02_00_00_00_00_02),
            MacAddr::from_u64(0x02_00_00_00_00_01),
            Ipv4::new(10, 0, 0, 1),
            Ipv4::new(10, 0, 0, 2),
            ip_proto::ICMP,
            0x1234,
            &wire::echo_request(0x1234, 1, &[0x61; 56]),
            0,
        )
    }

    #[test]
    fn ipv4_wrapper_reads_real_header() {
        // A program copying parsed fields into registers for inspection.
        let mut pb = ProgramBuilder::new("parse");
        let dp = Dataplane::declare(&mut pb, 256);
        let ip = Ipv4Wrapper::new(dp);
        let v = pb.reg("ver", 4);
        let p = pb.reg("proto", 8);
        let s = pb.reg("src", 32);
        let d = pb.reg("dst", 32);
        let opt = pb.reg("opt", 1);
        pb.thread(
            "main",
            vec![forever(vec![
                dp.rx_wait(),
                assign(v, ip.version()),
                assign(p, ip.protocol()),
                assign(s, ip.src()),
                assign(d, ip.dst()),
                assign(opt, ip.has_options()),
                sig_write(dp.ports.rx_done, tru()),
                pause(),
                sig_write(dp.ports.rx_done, fls()),
            ])],
        );
        let prog = pb.build().unwrap();
        let mut drv = rtl_driver(&prog);
        drv.process(&icmp_echo_request(), &mut NullEnv, &mut NullObserver)
            .unwrap();
        let st = drv.core().state();
        assert_eq!(st.reg(VarId(0)).to_u64(), 4);
        assert_eq!(st.reg(VarId(1)).to_u64(), u64::from(ip_proto::ICMP));
        assert_eq!(st.reg(VarId(2)).to_u64(), 0x0a00_0001);
        assert_eq!(st.reg(VarId(3)).to_u64(), 0x0a00_0002);
        assert_eq!(st.reg(VarId(4)).to_u64(), 0);
    }

    #[test]
    fn ipv4_swap_addrs() {
        let mut pb = ProgramBuilder::new("swap");
        let dp = Dataplane::declare(&mut pb, 256);
        let ip = Ipv4Wrapper::new(dp);
        let scratch = pb.reg("scratch", 32);
        let mut body = vec![dp.rx_wait()];
        body.extend(ip.swap_addrs(scratch));
        body.push(dp.set_output_port(lit(0, 8)));
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let prog = pb.build().unwrap();
        let mut drv = rtl_driver(&prog);
        let out = drv
            .process(&icmp_echo_request(), &mut NullEnv, &mut NullObserver)
            .unwrap();
        let b = out.tx[0].frame.bytes();
        assert_eq!(emu_types::bitutil::get32(b, 26), 0x0a00_0002); // src now .2
        assert_eq!(emu_types::bitutil::get32(b, 30), 0x0a00_0001); // dst now .1
    }

    #[test]
    fn tcp_flag_bits() {
        // SYN = 0x02, ACK = 0x10; check the slice positions.
        let mut pb = ProgramBuilder::new("flags");
        let dp = Dataplane::declare(&mut pb, 64);
        let tcp = TcpWrapper::new(dp);
        let syn = pb.reg("syn", 1);
        let ack = pb.reg("ack", 1);
        pb.thread(
            "main",
            vec![forever(vec![
                dp.rx_wait(),
                assign(syn, tcp.syn()),
                assign(ack, tcp.ack_flag()),
                sig_write(dp.ports.rx_done, tru()),
                pause(),
                sig_write(dp.ports.rx_done, fls()),
            ])],
        );
        let prog = pb.build().unwrap();
        let mut drv = rtl_driver(&prog);
        let mut bytes = vec![0u8; 60];
        bytes[14 + 20 + 13] = 0x02; // SYN
        drv.process(&Frame::new(bytes), &mut NullEnv, &mut NullObserver)
            .unwrap();
        assert_eq!(drv.core().state().reg(VarId(0)).to_u64(), 1);
        assert_eq!(drv.core().state().reg(VarId(1)).to_u64(), 0);
    }

    #[test]
    fn wrapper_offsets_are_consistent() {
        assert_eq!(UdpWrapper::PAYLOAD, 42);
        assert_eq!(DnsWrapper::HDR, 42);
        assert_eq!(DnsWrapper::QUESTION, 54);
    }
}
