//! The two substitution programs of the ablation: what the engine
//! costs when the service itself does nothing.
//!
//! `null_drop` receives a frame and finishes it — plan, `load_frame`,
//! report and telemetry run, micro-op execution and tx harvest do not.
//! `null_tx` also transmits the frame unchanged, which adds exactly the
//! harvest. Both declare the frame buffer of the service they stand in
//! for, because buffer capacity is part of the load cost.

use emu_core::{service_builder, Service};
use kiwi_ir::dsl::forever;

pub fn null_drop(frame_capacity: usize) -> Service {
    let (mut pb, dp) = service_builder("null_drop", frame_capacity);
    let mut body = vec![dp.rx_wait()];
    body.extend(dp.done());
    pb.thread("main", vec![forever(body)]);
    Service::new(pb.build().expect("null_drop is well-formed"))
}

pub fn null_tx(frame_capacity: usize) -> Service {
    let (mut pb, dp) = service_builder("null_tx", frame_capacity);
    let mut body = vec![dp.rx_wait(), dp.set_output_port(dp.input_port())];
    body.extend(dp.transmit(dp.rx_len()));
    body.extend(dp.done());
    pb.thread("main", vec![forever(body)]);
    Service::new(pb.build().expect("null_tx is well-formed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::Target;
    use emu_types::Frame;

    fn frames() -> Vec<Frame> {
        [60usize, 61, 300, 1514]
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let mut f = Frame::new((0..len).map(|b| (b * 7 + i) as u8).collect());
                f.in_port = (i % 4) as u8;
                f
            })
            .collect()
    }

    #[test]
    fn null_drop_transmits_nothing() {
        let mut e = null_drop(1536).engine(Target::Cpu).build().expect("build");
        let report = e.process_batch(&frames());
        for out in report.outputs {
            assert!(out.expect("no trap").tx.is_empty());
        }
    }

    #[test]
    fn null_tx_echoes_byte_exactly_to_the_arrival_port() {
        let input = frames();
        let mut e = null_tx(1536).engine(Target::Cpu).build().expect("build");
        let report = e.process_batch(&input);
        for (f, out) in input.iter().zip(report.outputs) {
            let out = out.expect("no trap");
            assert_eq!(out.tx.len(), 1);
            assert_eq!(out.tx[0].frame.bytes(), f.bytes());
            assert_eq!(out.tx[0].ports, 1 << f.in_port);
        }
    }
}
