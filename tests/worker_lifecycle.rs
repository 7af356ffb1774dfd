//! A parallel engine's shard workers die with it.
//!
//! One test, in a test binary of its own: the harness runs the tests of
//! one binary on threads of one process, so any neighbour would move
//! the thread count this test reads.

use emu::prelude::*;
use emu::stdlib::service_builder;

/// The `Threads:` line of `/proc/self/status`; `None` off Linux.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
}

#[test]
fn dropping_a_parallel_engine_joins_its_workers() {
    let Some(before) = threads() else {
        return;
    };
    let (mut pb, dp) = service_builder("mirror", 128);
    let mut body = vec![dp.rx_wait(), dp.set_output_port(dp.input_port())];
    body.extend(dp.transmit(dp.rx_len()));
    body.extend(dp.done());
    pb.thread("main", vec![dsl::forever(body)]);
    let svc = Service::new(pb.build().unwrap());
    let frames: Vec<Frame> = (0..64u64)
        .map(|i| emu::types::wire::l2_frame(0x100 + i, 0xB, 0))
        .collect();

    // A leaked worker is a leaked stack for every engine ever built,
    // and emubench builds a fresh engine every pass.
    for i in 0..256 {
        let mut engine = svc
            .engine(Target::Cpu)
            .shards(4)
            .parallel(true)
            .build()
            .unwrap();
        assert_eq!(
            threads(),
            Some(before + 3),
            "engine {i}: one worker a shard but the first"
        );
        // Some die having worked, some without ever being woken.
        if i % 2 == 0 {
            let report = engine.process_batch(&frames);
            assert_eq!(report.ok_count(), frames.len());
            assert!(report.shard_cycles.iter().filter(|&&c| c > 0).count() > 1);
        }
        drop(engine);
        // `join` returns when the thread is done, a moment before the
        // kernel has taken it off the process's books.
        let gone = (0..2_000).any(|_| {
            threads() == Some(before) || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                false
            }
        });
        assert!(
            gone,
            "engine {i} left {:?} threads, started with {before}",
            threads()
        );
    }
}
