//! Program-side dataplane utilities — the paper's Figure 6 API.
//!
//! These helpers generate IR fragments against the platform contract
//! defined in `netfpga-sim::dataplane`. They are the direct analogues of
//! the utility functions the paper shows:
//!
//! ```csharp
//! public static void Get_Frame (NetFPGA_Data src, ref byte[] dst) ...
//! public static uint Read_Input_Port (NetFPGA_Data dataplane) ...
//! public static void Set_Output_Port (ref NetFPGA_Data dataplane, ulong value) ...
//! ```
//!
//! plus the `Broadcast` and `EtherType_Is` calls of Figure 2. Because the
//! frame lives in a byte array owned by the program, field access compiles
//! to array reads/writes — the same structure the paper's `BitUtil`
//! accessors produce (Figure 4).

use kiwi_ir::dsl::*;
use kiwi_ir::{Expr, ProgramBuilder, Stmt};
use netfpga_sim::dataplane::DataplanePorts;

/// Program-side handle to the dataplane: ports plus frame-field access.
#[derive(Debug, Clone, Copy)]
pub struct Dataplane {
    /// The underlying contract ports.
    pub ports: DataplanePorts,
}

impl Dataplane {
    /// Declares the dataplane contract and returns the program-side handle.
    pub fn declare(pb: &mut ProgramBuilder, frame_capacity: usize) -> Self {
        Dataplane {
            ports: netfpga_sim::declare(pb, frame_capacity),
        }
    }

    // -- frame byte/field access -------------------------------------

    /// Frame byte at a dynamic offset.
    pub fn byte_dyn(&self, off: Expr) -> Expr {
        arr_read(self.ports.frame, off)
    }

    /// Frame byte at a constant offset.
    pub fn byte(&self, off: usize) -> Expr {
        self.byte_dyn(lit(off as u64, 16))
    }

    /// Big-endian 16-bit field at a constant offset.
    pub fn get16(&self, off: usize) -> Expr {
        concat(self.byte(off), self.byte(off + 1))
    }

    /// Big-endian 32-bit field at a constant offset.
    pub fn get32(&self, off: usize) -> Expr {
        concat_all([
            self.byte(off),
            self.byte(off + 1),
            self.byte(off + 2),
            self.byte(off + 3),
        ])
    }

    /// Big-endian 48-bit field at a constant offset (MAC addresses).
    pub fn get48(&self, off: usize) -> Expr {
        concat_all((0..6).map(|i| self.byte(off + i)))
    }

    /// Big-endian 64-bit field at a constant offset.
    pub fn get64(&self, off: usize) -> Expr {
        concat_all((0..8).map(|i| self.byte(off + i)))
    }

    /// Writes a byte at a constant offset.
    pub fn set8(&self, off: usize, v: Expr) -> Stmt {
        arr_write(self.ports.frame, lit(off as u64, 16), v)
    }

    /// Writes a byte at a dynamic offset.
    pub fn set8_dyn(&self, off: Expr, v: Expr) -> Stmt {
        arr_write(self.ports.frame, off, v)
    }

    /// Writes a big-endian 16-bit field at a constant offset.
    ///
    /// The value expression is evaluated once per byte written; when `v`
    /// *reads the field being written* (incremental checksum updates do),
    /// use [`Dataplane::set16_via`] instead, which materializes the value
    /// in a register first.
    pub fn set16(&self, off: usize, v: Expr) -> Vec<Stmt> {
        vec![
            self.set8(off, slice(v.clone(), 15, 8)),
            self.set8(off + 1, slice(v, 7, 0)),
        ]
    }

    /// Writes a big-endian 16-bit field through a scratch register, making
    /// the write safe when `v` depends on the field's current content
    /// (e.g. RFC 1624 checksum updates reading the old checksum).
    pub fn set16_via(&self, tmp: kiwi_ir::VarId, off: usize, v: Expr) -> Vec<Stmt> {
        let mut out = vec![assign(tmp, v)];
        out.extend(self.set16(off, resize(var(tmp), 16)));
        out
    }

    /// Writes a big-endian 32-bit field at a constant offset.
    pub fn set32(&self, off: usize, v: Expr) -> Vec<Stmt> {
        (0..4)
            .map(|i| {
                let hi = 31 - 8 * i as u16;
                self.set8(off + i, slice(v.clone(), hi, hi - 7))
            })
            .collect()
    }

    /// Writes a big-endian 48-bit field at a constant offset.
    pub fn set48(&self, off: usize, v: Expr) -> Vec<Stmt> {
        (0..6)
            .map(|i| {
                let hi = 47 - 8 * i as u16;
                self.set8(off + i, slice(v.clone(), hi, hi - 7))
            })
            .collect()
    }

    /// Writes a big-endian 64-bit field at a constant offset.
    pub fn set64(&self, off: usize, v: Expr) -> Vec<Stmt> {
        (0..8)
            .map(|i| {
                let hi = 63 - 8 * i as u16;
                self.set8(off + i, slice(v.clone(), hi, hi - 7))
            })
            .collect()
    }

    // -- Ethernet header, Figure 2 style -----------------------------

    /// The EtherType field.
    pub fn ethertype(&self) -> Expr {
        self.get16(emu_types::proto::offset::ETH_TYPE)
    }

    /// `dataplane.tdata.EtherType_Is(EtherTypes.IPv4)` (Figure 2, line 2).
    pub fn ethertype_is(&self, et: u16) -> Expr {
        eq(self.ethertype(), lit(u64::from(et), 16))
    }

    /// Destination MAC as a 48-bit expression.
    pub fn dst_mac(&self) -> Expr {
        self.get48(emu_types::proto::offset::ETH_DST)
    }

    /// Source MAC as a 48-bit expression.
    pub fn src_mac(&self) -> Expr {
        self.get48(emu_types::proto::offset::ETH_SRC)
    }

    /// Sets the destination MAC.
    pub(crate) fn set_dst_mac(&self, v: Expr) -> Vec<Stmt> {
        self.set48(emu_types::proto::offset::ETH_DST, v)
    }

    /// Sets the source MAC.
    pub(crate) fn set_src_mac(&self, v: Expr) -> Vec<Stmt> {
        self.set48(emu_types::proto::offset::ETH_SRC, v)
    }

    /// Swaps source and destination MACs through the given scratch
    /// register (which must be ≥48 bits wide).
    pub fn swap_macs(&self, scratch: kiwi_ir::VarId) -> Vec<Stmt> {
        let mut out = vec![assign(scratch, self.dst_mac())];
        out.extend(self.set_dst_mac(self.src_mac()));
        out.extend(self.set_src_mac(resize(var(scratch), 48)));
        out
    }

    // -- platform interaction (Figure 6) ------------------------------

    /// Blocks until a frame is available (`rx_valid`).
    pub fn rx_wait(&self) -> Stmt {
        wait_until(sig(self.ports.rx_valid))
    }

    /// `Read_Input_Port`: the arrival port index.
    pub fn input_port(&self) -> Expr {
        sig(self.ports.rx_port)
    }

    /// Received frame length.
    pub fn rx_len(&self) -> Expr {
        sig(self.ports.rx_len)
    }

    /// `Set_Output_Port`: unicast to a port index.
    pub fn set_output_port(&self, port: Expr) -> Stmt {
        sig_write(self.ports.tx_ports, shl(lit(1, 8), port))
    }

    /// `Broadcast`: all ports except the arrival port (Figure 2, line 8).
    pub fn broadcast(&self) -> Stmt {
        sig_write(
            self.ports.tx_ports,
            band(lit(0b1111, 8), not(shl(lit(1, 8), sig(self.ports.rx_port)))),
        )
    }

    /// Transmits `len` bytes of the frame buffer to the ports previously
    /// selected: pulses `tx_valid` for one cycle.
    pub fn transmit(&self, len: Expr) -> Vec<Stmt> {
        vec![
            sig_write(self.ports.tx_len, len),
            sig_write(self.ports.tx_valid, tru()),
            pause(),
            sig_write(self.ports.tx_valid, fls()),
        ]
    }

    /// Finishes the current frame: pulses `rx_done` for one cycle.
    pub fn done(&self) -> Vec<Stmt> {
        vec![
            sig_write(self.ports.rx_done, tru()),
            pause(),
            sig_write(self.ports.rx_done, fls()),
        ]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use emu_types::proto::{ether_type, offset};
    use emu_types::{Frame, MacAddr};
    use kiwi_ir::interp::{NullEnv, NullObserver};
    use kiwi_ir::{Code, Core};
    use netfpga_sim::DataplaneDriver;

    /// `prog` compiled to the FSM behind a platform driver.
    pub(crate) fn rtl_driver(prog: &kiwi_ir::Program) -> DataplaneDriver {
        let fsm = kiwi::compile(prog).unwrap();
        DataplaneDriver::new(Core::new(Code::Fpga(fsm))).unwrap()
    }

    /// An echo service built only from the Figure 6-style helpers: swaps
    /// MACs and reflects the frame to its arrival port.
    fn macswap_service() -> kiwi_ir::Program {
        let mut pb = ProgramBuilder::new("macswap");
        let dp = Dataplane::declare(&mut pb, 128);
        let scratch = pb.reg("scratch", 48);
        let mut body = vec![dp.rx_wait()];
        body.extend(dp.swap_macs(scratch));
        body.push(dp.set_output_port(dp.input_port()));
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        pb.build().unwrap()
    }

    #[test]
    fn macswap_round_trip_on_rtl() {
        let prog = macswap_service();
        let mut drv = rtl_driver(&prog);
        let mut f = Frame::ethernet(
            MacAddr::from_u64(0x0a0b0c0d0e0f),
            MacAddr::from_u64(0x010203040506),
            ether_type::IPV4,
            &[0x42; 46],
        );
        f.in_port = 1;
        let out = drv.process(&f, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(out.tx.len(), 1);
        let reply = &out.tx[0].frame;
        assert_eq!(reply.dst_mac(), MacAddr::from_u64(0x010203040506));
        assert_eq!(reply.src_mac(), MacAddr::from_u64(0x0a0b0c0d0e0f));
        assert_eq!(out.tx[0].ports, 1 << 1);
        // Payload untouched.
        assert_eq!(&reply.bytes()[14..60], &[0x42; 46]);
    }

    #[test]
    fn field_accessors_round_trip() {
        // A one-shot program that rewrites fields then transmits.
        let mut pb = ProgramBuilder::new("fields");
        let dp = Dataplane::declare(&mut pb, 64);
        let mut body = vec![dp.rx_wait()];
        body.extend(dp.set16(20, lit(0xbeef, 16)));
        body.extend(dp.set32(24, lit(0xdead_beef, 32)));
        body.extend(dp.set64(32, lit(0x0102_0304_0506_0708, 64)));
        body.push(dp.set8(40, lit(0x7f, 8)));
        body.push(dp.set_output_port(lit(0, 8)));
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let prog = pb.build().unwrap();
        let mut drv = rtl_driver(&prog);
        let out = drv
            .process(&Frame::new(vec![0; 60]), &mut NullEnv, &mut NullObserver)
            .unwrap();
        let b = out.tx[0].frame.bytes();
        assert_eq!(emu_types::bitutil::get16(b, 20), 0xbeef);
        assert_eq!(emu_types::bitutil::get32(b, 24), 0xdead_beef);
        assert_eq!(emu_types::bitutil::get64(b, 32), 0x0102_0304_0506_0708);
        assert_eq!(b[40], 0x7f);
    }

    #[test]
    fn ethertype_is_discriminates() {
        // Forward IPv4, drop everything else (Figure 2's implicit drop).
        let mut pb = ProgramBuilder::new("ipv4_only");
        let dp = Dataplane::declare(&mut pb, 64);
        let mut fwd = vec![dp.set_output_port(lit(2, 8))];
        fwd.extend(dp.transmit(dp.rx_len()));
        let mut body = vec![dp.rx_wait()];
        body.push(if_then(dp.ethertype_is(ether_type::IPV4), fwd));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let prog = pb.build().unwrap();
        let mut drv = rtl_driver(&prog);

        let ipv4 = Frame::ethernet(MacAddr([0; 6]), MacAddr([0; 6]), ether_type::IPV4, &[0; 46]);
        let arp = Frame::ethernet(MacAddr([0; 6]), MacAddr([0; 6]), ether_type::ARP, &[0; 46]);
        let out1 = drv.process(&ipv4, &mut NullEnv, &mut NullObserver).unwrap();
        let out2 = drv.process(&arp, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(out1.tx.len(), 1);
        assert!(out2.tx.is_empty());
    }

    #[test]
    fn broadcast_excludes_input_port() {
        let mut pb = ProgramBuilder::new("bcast");
        let dp = Dataplane::declare(&mut pb, 64);
        let mut body = vec![dp.rx_wait(), dp.broadcast()];
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let prog = pb.build().unwrap();
        let mut drv = rtl_driver(&prog);
        for port in 0..4u8 {
            let mut f = Frame::new(vec![0; 60]);
            f.in_port = port;
            let out = drv.process(&f, &mut NullEnv, &mut NullObserver).unwrap();
            assert_eq!(out.tx[0].ports, 0b1111 & !(1 << port), "port {port}");
        }
    }

    #[test]
    fn dyn_offset_access() {
        // Copy the byte at offset `frame[14]` (as an index) to offset 15.
        let mut pb = ProgramBuilder::new("dyn");
        let dp = Dataplane::declare(&mut pb, 64);
        let mut body = vec![dp.rx_wait()];
        body.push(dp.set8_dyn(lit(15, 16), dp.byte_dyn(resize(dp.byte(14), 16))));
        body.push(dp.set_output_port(lit(0, 8)));
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let prog = pb.build().unwrap();
        let mut drv = rtl_driver(&prog);
        let mut bytes = vec![0u8; 60];
        bytes[14] = 20; // index
        bytes[20] = 0x99; // value to fetch
        let out = drv
            .process(&Frame::new(bytes), &mut NullEnv, &mut NullObserver)
            .unwrap();
        assert_eq!(out.tx[0].frame.bytes()[15], 0x99);
    }

    #[test]
    fn mac_field_offsets_match_proto_constants() {
        let mut pb = ProgramBuilder::new("t");
        let dp = Dataplane::declare(&mut pb, 64);
        // Structural check: dst_mac reads offsets 0..6, src 6..12.
        let mut offs = Vec::new();
        dp.dst_mac().visit(&mut |e| {
            if let kiwi_ir::Expr::ArrRead(_, idx) = e {
                if let kiwi_ir::Expr::Const(b) = idx.as_ref() {
                    offs.push(b.to_u64());
                }
            }
        });
        assert_eq!(offs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(offset::ETH_SRC, 6);
    }
}
