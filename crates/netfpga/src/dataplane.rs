//! The dataplane contract between an Emu program and the platform.
//!
//! This is the reproduction of the paper's Figure 6 utility surface
//! (`Get_Frame`, `Set_Frame`, `Read_Input_Port`, `Set_Output_Port`): the
//! platform DMA-copies each received frame into a byte array named
//! `frame`, presents metadata on input signals, and the program signals
//! transmission and completion on output signals. The *program-side*
//! convenience wrappers over this contract live in `emu-core::dataplane`;
//! this module owns the names, the declaration helper, their by-name
//! resolution in a built program ([`DataplanePorts::resolve`]), and the
//! platform-side driver.
//!
//! Signal protocol, from the program's perspective:
//!
//! * in  `rx_valid`  — a frame is in the `frame` array,
//! * in  `rx_len`    — its length in bytes,
//! * in  `rx_port`   — arrival port index,
//! * out `tx_valid`  — pulse: transmit `tx_len` bytes of `frame` to the
//!   ports in the `tx_ports` bitmap,
//! * out `tx_ports`  — destination bitmap (bit per port; several bits =
//!   multicast/broadcast, as `NetFPGA.Broadcast` sets),
//! * out `tx_len`    — transmit length,
//! * out `rx_done`   — pulse: finished with this frame (platform drops
//!   `rx_valid` the same tick).

use emu_types::Frame;
use kiwi_ir::interp::{Env, Observer};
use kiwi_ir::program::{ArrId, ArrayBacking, SigId};
use kiwi_ir::{Core, IrError, IrResult, Program, ProgramBuilder};

/// Canonical signal / array names of the dataplane contract.
pub mod names {
    /// Frame-available input.
    pub const RX_VALID: &str = "rx_valid";
    /// Frame length input.
    pub const RX_LEN: &str = "rx_len";
    /// Arrival port input.
    pub const RX_PORT: &str = "rx_port";
    /// Completion pulse output.
    pub const RX_DONE: &str = "rx_done";
    /// Transmit pulse output.
    pub const TX_VALID: &str = "tx_valid";
    /// Transmit length output.
    pub const TX_LEN: &str = "tx_len";
    /// Destination port bitmap output.
    pub const TX_PORTS: &str = "tx_ports";
    /// The frame buffer array.
    pub const FRAME: &str = "frame";
}

/// Resolved handles to the dataplane ports of a program.
#[derive(Debug, Clone, Copy)]
pub struct DataplanePorts {
    /// `rx_valid` input.
    pub rx_valid: SigId,
    /// `rx_len` input.
    pub rx_len: SigId,
    /// `rx_port` input.
    pub rx_port: SigId,
    /// `rx_done` output.
    pub rx_done: SigId,
    /// `tx_valid` output.
    pub tx_valid: SigId,
    /// `tx_len` output.
    pub tx_len: SigId,
    /// `tx_ports` output.
    pub tx_ports: SigId,
    /// The frame buffer.
    pub frame: ArrId,
}

impl DataplanePorts {
    /// Finds the contract's signals and frame array in `prog` by name —
    /// the one place a built program's dataplane is resolved.
    pub fn resolve(prog: &Program) -> IrResult<DataplanePorts> {
        let sig = |n: &str| {
            prog.signal_by_name(n)
                .ok_or_else(|| IrError(format!("program lacks dataplane signal `{n}`")))
        };
        Ok(DataplanePorts {
            rx_valid: sig(names::RX_VALID)?,
            rx_len: sig(names::RX_LEN)?,
            rx_port: sig(names::RX_PORT)?,
            rx_done: sig(names::RX_DONE)?,
            tx_valid: sig(names::TX_VALID)?,
            tx_len: sig(names::TX_LEN)?,
            tx_ports: sig(names::TX_PORTS)?,
            frame: prog
                .array_by_name(names::FRAME)
                .ok_or_else(|| IrError("program lacks `frame` array".into()))?,
        })
    }
}

/// Declares the dataplane contract on a program under construction.
///
/// `frame_capacity` sizes the frame buffer; services handling only small
/// packets declare a small buffer, which is visible in the resource
/// report (the paper's designs similarly size buffers to the workload).
pub fn declare(pb: &mut ProgramBuilder, frame_capacity: usize) -> DataplanePorts {
    DataplanePorts {
        rx_valid: pb.sig_in(names::RX_VALID, 1),
        rx_len: pb.sig_in(names::RX_LEN, 16),
        rx_port: pb.sig_in(names::RX_PORT, 8),
        rx_done: pb.sig_out(names::RX_DONE, 1),
        tx_valid: pb.sig_out(names::TX_VALID, 1),
        tx_len: pb.sig_out(names::TX_LEN, 16),
        tx_ports: pb.sig_out(names::TX_PORTS, 8),
        frame: pb.array(names::FRAME, 8, frame_capacity, ArrayBacking::BlockRam),
    }
}

/// One transmitted frame with its destination bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct TxFrame {
    /// Destination port bitmap.
    pub ports: u8,
    /// The frame bytes as transmitted.
    pub frame: Frame,
}

/// Result of processing one received frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreOutput {
    /// Frames transmitted while handling the input.
    pub tx: Vec<TxFrame>,
    /// Core-clock cycles consumed from `rx_valid` to `rx_done`.
    pub cycles: u64,
}

/// Platform-side driver: feeds frames to a program over the dataplane
/// contract and collects its transmissions.
///
/// It holds a [`Core`]: a shared code image — the cycle-accurate FSM
/// (hardware target), the compiled micro-op bytecode or the tree-walking
/// interpreter's ops (software targets) — plus this driver's machine
/// state, so the identical service program is driven by the same frame
/// loop on every target, and a `clone()` (one per engine shard) shares
/// the image and copies only the state.
#[derive(Clone)]
pub struct DataplaneDriver {
    core: Core,
    ports: DataplanePorts,
    /// Per-frame cycle budget before the driver declares the core hung.
    pub max_cycles_per_frame: u64,
}

/// Why the driver may treat the frame array as bytes.
const FRAME_IS_BYTES: &str = "frame array is 8 bits wide (checked in DataplaneDriver::new)";

impl DataplaneDriver {
    /// Wraps a core, resolving the contract's names and checking the
    /// shape the driver relies on: the `frame` array holds bytes (8-bit
    /// elements, so frames are copied in and out as byte slices) and is
    /// no longer than the 16-bit `rx_len`/`tx_len` signals can describe.
    pub fn new(core: Core) -> IrResult<Self> {
        let prog = core.program();
        let ports = DataplanePorts::resolve(prog)?;
        let frame = &prog.arrays()[ports.frame.0 as usize];
        if frame.elem_width != 8 {
            return Err(IrError(format!(
                "dataplane `frame` array must be 8 bits wide, found {}",
                frame.elem_width
            )));
        }
        if frame.len > usize::from(u16::MAX) {
            return Err(IrError(format!(
                "dataplane `frame` array of {} B exceeds the {} B that 16-bit rx_len/tx_len can describe",
                frame.len,
                u16::MAX
            )));
        }
        Ok(DataplaneDriver {
            core,
            ports,
            max_cycles_per_frame: 200_000,
        })
    }

    /// The wrapped core.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable access to the wrapped core.
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Frame buffer capacity of the wrapped program.
    pub fn frame_capacity(&self) -> usize {
        self.core.state().arrays[self.ports.frame.0 as usize].len()
    }

    /// DMA-copies `frame` into the core's buffer and raises `rx_valid`.
    ///
    /// The frame buffer is a byte slab ([`kiwi_ir::Cells`]), so this is
    /// one `memcpy` of the frame plus a zero-fill of whatever the
    /// previous frame left above it. Only the prefix up to the buffer's
    /// write high-water mark (or the frame length, whichever is larger)
    /// is touched: slots beyond it are already zero, because the driver
    /// zero-fills up to the mark and every execution backend maintains
    /// [`kiwi_ir::interp::MachineState::arr_high`] on every program-side
    /// store — a 64 B frame through a 1536 B buffer writes 64 bytes, not
    /// 1536. The caller has checked `frame.len() <= cap`.
    fn load_frame(&mut self, frame: &Frame, cap: usize) {
        let p = self.ports;
        let st = self.core.state_mut();
        let len = frame.len();
        let fill = st.arr_high[p.frame.0 as usize].max(len).min(cap);
        let buf = st.arrays[p.frame.0 as usize]
            .bytes_mut()
            .expect(FRAME_IS_BYTES);
        buf[..len].copy_from_slice(frame.bytes());
        buf[len..fill].fill(0);
        // The prefix [0, len) now holds frame bytes; everything above is
        // zero again.
        st.arr_high[p.frame.0 as usize] = len;
        st.sigs[p.rx_valid.0 as usize].set_u64(1);
        st.sigs[p.rx_len.0 as usize].set_u64(len as u64);
        st.sigs[p.rx_port.0 as usize].set_u64(u64::from(frame.in_port));
    }

    /// Delivers `frame` to the core and runs until the core pulses
    /// `rx_done`, collecting every `tx_valid` pulse along the way.
    ///
    /// The one frame loop of every target: the per-cycle step below runs
    /// inside [`Core::run`], which picks the machine once per frame. It
    /// is statically dispatched: handed a concrete environment and
    /// [`kiwi_ir::NullObserver`] the cycle loop monomorphizes and the
    /// observer hooks compile away (the engine's hot path); handed a
    /// `&mut dyn Observer` the same code is the observed path.
    pub fn process<E: Env + ?Sized, O: Observer + ?Sized>(
        &mut self,
        frame: &Frame,
        env: &mut E,
        obs: &mut O,
    ) -> IrResult<CoreOutput> {
        let cap = self.frame_capacity();
        if frame.len() > cap {
            return Err(IrError(format!(
                "frame of {} B exceeds core buffer of {cap} B",
                frame.len()
            )));
        }

        // One frame epoch: TTL-driven table models age by frames, not
        // cycles, so idle time between frames never expires anything.
        env.frame_start();

        // DMA the frame into the buffer and raise rx_valid.
        self.load_frame(frame, cap);

        let p = self.ports;
        let max = self.max_cycles_per_frame;
        let mut cycles = 0;
        let mut tx = Vec::new();
        let mut prev_tx = false;
        let mut prev_done = false;
        // One call per cycle, inlined into each machine's loop: left out
        // of line it cost emubench's `min64-switch` ~2 % of its frame
        // rate on a 2-vCPU Xeon host.
        let end = self.core.run(
            env,
            obs,
            #[inline(always)]
            |st| {
                cycles += 1;
                let tx_now = st.sigs[p.tx_valid.0 as usize].to_bool();
                let done_now = st.sigs[p.rx_done.0 as usize].to_bool();

                if tx_now && !prev_tx {
                    let len = (st.sigs[p.tx_len.0 as usize].to_u64() as usize).min(cap);
                    let ports = st.sigs[p.tx_ports.0 as usize].to_u64() as u8;
                    let buf = st.arrays[p.frame.0 as usize].bytes().expect(FRAME_IS_BYTES);
                    tx.push(TxFrame {
                        ports,
                        frame: Frame::new(buf[..len].to_vec()),
                    });
                }
                prev_tx = tx_now;

                if done_now && !prev_done {
                    // Drop rx_valid the same tick so the core's next loop
                    // iteration sees no frame.
                    st.sigs[p.rx_valid.0 as usize].set_u64(0);
                    return Some(Ok(()));
                }
                prev_done = done_now;
                (cycles > max)
                    .then(|| Err(IrError(format!("core exceeded {max} cycles on one frame"))))
            },
        )?;
        end.unwrap_or_else(|| Err(IrError("core halted while processing a frame".into())))?;
        Ok(CoreOutput { tx, cycles })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiwi_ir::dsl::*;
    use kiwi_ir::interp::{NullEnv, NullObserver};
    use kiwi_ir::Code;

    /// `prog` on the FSM.
    fn rtl(prog: &Program) -> Core {
        Core::new(Code::Fpga(kiwi::compile(prog).unwrap()))
    }

    /// `prog` on the tree-walker.
    fn treewalk(prog: &Program) -> Core {
        Core::new(Code::TreeWalk(kiwi_ir::flatten(prog).unwrap()))
    }

    /// A mirror service: sends every frame back out of its arrival port,
    /// the "quickstart"-grade service used throughout the platform tests.
    fn mirror_program() -> kiwi_ir::Program {
        let mut pb = ProgramBuilder::new("mirror");
        let dp = declare(&mut pb, 128);
        pb.thread(
            "main",
            vec![forever(vec![
                wait_until(sig(dp.rx_valid)),
                sig_write(dp.tx_len, sig(dp.rx_len)),
                // Echo to the arrival port: bitmap = 1 << rx_port.
                sig_write(dp.tx_ports, shl(lit(1, 8), sig(dp.rx_port))),
                sig_write(dp.tx_valid, tru()),
                pause(),
                sig_write(dp.tx_valid, fls()),
                sig_write(dp.rx_done, tru()),
                pause(),
                sig_write(dp.rx_done, fls()),
            ])],
        );
        pb.build().unwrap()
    }

    #[test]
    fn mirror_on_rtl_backend() {
        let prog = mirror_program();
        let mut drv = DataplaneDriver::new(rtl(&prog)).unwrap();
        let mut f = Frame::new(vec![0xab; 64]);
        f.in_port = 2;
        let out = drv.process(&f, &mut NullEnv, &mut NullObserver).unwrap();
        assert_eq!(out.tx.len(), 1);
        assert_eq!(out.tx[0].ports, 1 << 2);
        assert_eq!(out.tx[0].frame.bytes(), f.bytes());
        assert!(out.cycles >= 2 && out.cycles < 32, "cycles {}", out.cycles);
    }

    #[test]
    fn mirror_on_interpreter_backend_matches_rtl() {
        let prog = mirror_program();
        let mut rtl_drv = DataplaneDriver::new(rtl(&prog)).unwrap();
        let mut sw_drv = DataplaneDriver::new(treewalk(&prog)).unwrap();
        for len in [60usize, 64, 65, 100, 127] {
            let mut f = Frame::new((0..len).map(|i| i as u8).collect());
            f.in_port = (len % 4) as u8;
            let a = rtl_drv
                .process(&f, &mut NullEnv, &mut NullObserver)
                .unwrap();
            let b = sw_drv.process(&f, &mut NullEnv, &mut NullObserver).unwrap();
            assert_eq!(a.tx, b.tx, "targets disagree at len {len}");
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let prog = mirror_program();
        let mut drv = DataplaneDriver::new(rtl(&prog)).unwrap();
        let f = Frame::new(vec![0; 500]);
        assert!(drv.process(&f, &mut NullEnv, &mut NullObserver).is_err());
    }

    #[test]
    fn missing_contract_detected() {
        let mut pb = ProgramBuilder::new("bare");
        pb.thread("main", vec![forever(vec![pause()])]);
        let prog = pb.build().unwrap();
        assert!(DataplaneDriver::new(rtl(&prog)).is_err());
    }

    /// The contract's signals around a caller-shaped `frame` array, on
    /// the tree-walker.
    fn driver_with_frame_array(width: u16, len: usize) -> IrResult<DataplaneDriver> {
        let mut pb = ProgramBuilder::new("odd-frame");
        for (name, w) in [
            (names::RX_VALID, 1),
            (names::RX_LEN, 16),
            (names::RX_PORT, 8),
        ] {
            pb.sig_in(name, w);
        }
        for (name, w) in [
            (names::RX_DONE, 1),
            (names::TX_VALID, 1),
            (names::TX_LEN, 16),
            (names::TX_PORTS, 8),
        ] {
            pb.sig_out(name, w);
        }
        pb.array(names::FRAME, width, len, ArrayBacking::BlockRam);
        pb.thread("main", vec![forever(vec![pause()])]);
        DataplaneDriver::new(treewalk(&pb.build().unwrap()))
    }

    #[test]
    fn frame_array_must_hold_bytes() {
        assert!(driver_with_frame_array(8, 64).is_ok());
        for width in [4, 16, 96] {
            let err = driver_with_frame_array(width, 64).err().expect("rejected");
            assert!(err.0.contains("must be 8 bits wide"), "{width}: {}", err.0);
        }
    }

    #[test]
    fn frame_array_longer_than_rx_len_can_say_rejected() {
        assert!(driver_with_frame_array(8, 65_535).is_ok());
        let err = driver_with_frame_array(8, 65_536).err().expect("rejected");
        assert!(err.0.contains("exceeds the 65535 B"), "{}", err.0);
    }

    /// Echoes `rx_len + 8` bytes of every frame; a frame whose first byte
    /// is `0xa5` first gets `0xee` stored three bytes past its end.
    fn tail_echo_program() -> kiwi_ir::Program {
        let mut pb = ProgramBuilder::new("tail-echo");
        let dp = declare(&mut pb, 1536);
        pb.thread(
            "main",
            vec![forever(vec![
                wait_until(sig(dp.rx_valid)),
                if_then(
                    eq(arr_read(dp.frame, lit(0, 16)), lit(0xa5, 8)),
                    vec![arr_write(
                        dp.frame,
                        add(sig(dp.rx_len), lit(3, 16)),
                        lit(0xee, 8),
                    )],
                ),
                sig_write(dp.tx_len, add(sig(dp.rx_len), lit(8, 16))),
                sig_write(dp.tx_ports, lit(1, 8)),
                sig_write(dp.tx_valid, tru()),
                pause(),
                sig_write(dp.tx_valid, fls()),
                sig_write(dp.rx_done, tru()),
                pause(),
                sig_write(dp.rx_done, fls()),
            ])],
        );
        pb.build().unwrap()
    }

    /// Runs the zero-tail scenario on one backend; returns what the
    /// cross-backend comparison needs.
    fn zero_tail_run(core: Core) -> Vec<(Vec<TxFrame>, usize)> {
        let mut drv = DataplaneDriver::new(core).unwrap();
        let frame_id = drv.ports.frame.0 as usize;
        let long = Frame::new(vec![0xcc; 1514]);
        let mut storing = vec![0x11; 60];
        storing[0] = 0xa5;
        let plain = Frame::new(vec![0x22; 60]);
        let mut seen = Vec::new();
        for (f, tail) in [
            (&long, [0u8; 8]),
            // The stored byte and zeros: nothing of the 1514 B frame.
            (&Frame::new(storing), [0, 0, 0, 0xee, 0, 0, 0, 0]),
            (&plain, [0u8; 8]),
        ] {
            let out = drv.process(f, &mut NullEnv, &mut NullObserver).unwrap();
            assert_eq!(out.tx.len(), 1);
            let echoed = out.tx[0].frame.bytes();
            assert_eq!(echoed.len(), f.len() + 8);
            assert_eq!(&echoed[..f.len()], f.bytes());
            assert_eq!(echoed[f.len()..], tail);
            seen.push((out.tx, drv.core().state().arr_high[frame_id]));
        }
        seen
    }

    #[test]
    fn bytes_above_the_frame_are_zero_on_every_backend() {
        let prog = tail_echo_program();
        let tw = zero_tail_run(treewalk(&prog));
        let flat = kiwi_ir::flatten(&prog).unwrap();
        let cm = zero_tail_run(Core::new(Code::Compiled(kiwi_ir::compile(&flat).unwrap())));
        let fpga = zero_tail_run(rtl(&prog));
        // The mark the next load relies on: the store lifts it to 64,
        // plain frames leave it at their length.
        let marks: Vec<usize> = tw.iter().map(|(_, high)| *high).collect();
        assert_eq!(marks, [1514, 64, 60]);
        assert_eq!(tw, cm, "compiled diverged from the tree-walker");
        assert_eq!(tw, fpga, "RTL diverged from the tree-walker");
    }

    #[test]
    fn hung_core_times_out() {
        // A service that never signals rx_done.
        let mut pb = ProgramBuilder::new("hang");
        let _dp = declare(&mut pb, 64);
        pb.thread("main", vec![forever(vec![pause()])]);
        let prog = pb.build().unwrap();
        let mut drv = DataplaneDriver::new(rtl(&prog)).unwrap();
        drv.max_cycles_per_frame = 100;
        let err = drv
            .process(&Frame::new(vec![0; 60]), &mut NullEnv, &mut NullObserver)
            .unwrap_err();
        assert!(err.0.contains("exceeded"));
    }

    #[test]
    fn dropping_service_produces_no_tx() {
        // Consumes frames without transmitting: an L3 filter dropping.
        let mut pb = ProgramBuilder::new("drop");
        let dp = declare(&mut pb, 64);
        pb.thread(
            "main",
            vec![forever(vec![
                wait_until(sig(dp.rx_valid)),
                sig_write(dp.rx_done, tru()),
                pause(),
                sig_write(dp.rx_done, fls()),
            ])],
        );
        let prog = pb.build().unwrap();
        let mut drv = DataplaneDriver::new(rtl(&prog)).unwrap();
        let out = drv
            .process(&Frame::new(vec![0; 60]), &mut NullEnv, &mut NullObserver)
            .unwrap();
        assert!(out.tx.is_empty());
    }
}
