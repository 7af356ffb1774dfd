//! Scale-out NAT with bidirectional traffic: one service program, four
//! replicated pipelines, and a dispatch policy that solves what RSS
//! cannot — steering *return* traffic to the owning shard.
//!
//! Builds the paper's §4.4 NAT service and runs it through the unified
//! engine (`svc.engine(target).shards(4).dispatch(NatSteering)`):
//! outbound flows dispatch by the RSS flow hash; each shard allocates
//! external ports from its own residue class of the ephemeral range
//! (shard k hands out `FIRST_EPHEMERAL + k`, stepping by 4); inbound
//! replies are steered by their destination port back to the allocating
//! shard, where the reverse mapping lives. Under plain RSS the reply
//! 5-tuple hashes independently and most replies would be dropped —
//! `tests/sharding.rs` asserts exactly that failure.
//!
//! Run: `cargo run --release --example sharded_nat`

use emu::prelude::*;
use emu::services::nat;
use emu::types::bitutil;

fn main() {
    let public: emu::types::Ipv4 = "203.0.113.1".parse().unwrap();
    let svc = nat::nat(public);
    let shards = 4;
    let mut engine = svc
        .engine(Target::Fpga)
        .shards(shards)
        .dispatch(NatSteering)
        .build()
        .expect("build engine");
    println!(
        "NAT on {} FPGA pipelines, public {public}, dispatch `{}`\n",
        shards,
        engine.dispatch_name()
    );

    // Eight client flows (distinct source ports) send outbound...
    let outbound: Vec<Frame> = (0..8u16)
        .map(|flow| {
            nat::udp_frame(
                "192.168.1.50".parse().unwrap(),
                4000 + flow,
                "8.8.8.8".parse().unwrap(),
                53,
                1 + (flow % 3) as u8,
            )
        })
        .collect();

    println!("flow  sport -> out-shard  ext-port   reply -> in-shard");
    let mut replies = Vec::new();
    for (flow, f) in outbound.iter().enumerate() {
        let out_shard = engine.shard_of(f);
        let out = engine.process(f).expect("outbound");
        let ext = bitutil::get16(out.tx[0].frame.bytes(), 34);
        // The remote answers the public address at the allocated port.
        let reply = nat::udp_frame("8.8.8.8".parse().unwrap(), 53, public, ext, 0);
        let in_shard = engine.shard_of(&reply);
        assert_eq!(
            in_shard, out_shard,
            "reply must steer to the allocating shard"
        );
        assert_eq!(
            usize::from(ext - nat::FIRST_EPHEMERAL) % shards,
            out_shard,
            "allocated port must come from the shard's residue class"
        );
        println!(
            "  {flow}   {:>5} ->     {out_shard}      {ext}       :{ext} ->    {in_shard}",
            4000 + flow,
        );
        replies.push(reply);
    }

    // ...and every reply is translated back to the internal client.
    let report = engine.process_batch(&replies);
    assert_eq!(report.ok_count(), replies.len());
    for (flow, out) in report.outputs.iter().enumerate() {
        let tx = &out.as_ref().expect("reply processed").tx;
        assert_eq!(tx.len(), 1, "flow {flow}: reply must not be dropped");
        let b = tx[0].frame.bytes();
        assert_eq!(&b[30..34], &[192, 168, 1, 50], "flow {flow}");
        assert_eq!(
            bitutil::get16(b, 36),
            4000 + flow as u16,
            "flow {flow}: wrong internal port"
        );
    }
    println!(
        "\nall {} replies steered to their owning shard and translated back ✓",
        replies.len()
    );

    let wall_ns = report.wall_cycles() as f64 * emu::platform::timing::NS_PER_CYCLE;
    println!(
        "reply batch: busiest shard {} cycles -> {:.2} Mq/s aggregate",
        report.wall_cycles(),
        replies.len() as f64 / (wall_ns / 1e9) / 1e6
    );
    println!("shard busy cycles: {:?}", report.shard_cycles);
}
