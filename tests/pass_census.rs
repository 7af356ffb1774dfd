//! Optimizer census: every pass in the default pipeline and every
//! micro-op only the optimizer can produce must show up in the bytecode
//! of at least one *shipped* service, so a pass or fused op that stops
//! earning its lines fails here instead of waiting for a reviewer.
//!
//! `cargo test --test pass_census -- --nocapture` prints the table
//! (micro-ops per service under the default pipeline and under the
//! pipeline minus each pass).

use emu::debug::{extend_program, ControllerConfig};
use emu::ir::compile::MOp;
use emu::ir::{compile_with_passes, default_pipeline, flatten, Pass, Program};
use emu::services as s;

/// Every service program the repo ships: the eight `emu-services`
/// constructors, the rule-compiled filter switch, and one
/// direction-controller extension.
fn shipped() -> Vec<(&'static str, Program)> {
    let memcached = s::memcached().program;
    let directed = extend_program(
        &memcached,
        &ControllerConfig::full(&["n_get", "n_set", "n_hit"], 32),
    )
    .unwrap();
    let filter = s::filter::filter_switch_from_lines(
        &[
            "-A FORWARD -p tcp -s 10.0.0.0/8 --dport 80:443 -j DROP",
            "-A FORWARD -p udp --sport 53 -j ACCEPT",
        ],
        s::filter::FilterAction::Accept,
    )
    .unwrap();
    vec![
        ("switch_ip_cam", s::switch_ip_cam().program),
        ("switch_behavioural", s::switch_behavioural(16).program),
        ("icmp_echo", s::icmp_echo().program),
        ("tcp_ping", s::tcp_ping().program),
        (
            "dns_server",
            s::dns_server(vec![("a.b".to_string(), "1.2.3.4".parse().unwrap())]).program,
        ),
        ("memcached", memcached),
        ("nat", s::nat("203.0.113.1".parse().unwrap()).program),
        ("lru_cache", s::lru_cache().program),
        ("filter_switch", filter.program),
        ("memcached+direction", directed),
    ]
}

/// The micro-op streams of every thread under `passes`.
fn bytecode(prog: &Program, passes: &[Pass]) -> Vec<Vec<MOp>> {
    let cp = compile_with_passes(&flatten(prog).unwrap(), passes).unwrap();
    cp.threads.into_iter().map(|t| t.mops).collect()
}

fn total(code: &[Vec<MOp>]) -> usize {
    code.iter().map(Vec::len).sum()
}

/// The variant name of a micro-op only the optimizer can produce.
fn fused_name(m: &MOp) -> Option<&'static str> {
    Some(match m {
        MOp::LdArrCS { .. } => "LdArrCS",
        MOp::StArrCS { .. } => "StArrCS",
        MOp::LdArrPairS { .. } => "LdArrPairS",
        MOp::LdArrPairCS { .. } => "LdArrPairCS",
        MOp::ConcatLdCS { .. } => "ConcatLdCS",
        _ => return None,
    })
}

#[test]
fn every_default_pass_and_fused_op_shows_up_in_a_shipped_service() {
    let services = shipped();
    let full: Vec<_> = services
        .iter()
        .map(|(_, p)| bytecode(p, default_pipeline()))
        .collect();

    // (a) Removing any one pass must change some service's bytecode.
    let mut rows: Vec<String> = services
        .iter()
        .zip(&full)
        .map(|((name, _), code)| format!("{name:<22}{:>8}", total(code)))
        .collect();
    let mut idle = Vec::new();
    for (k, pass) in default_pipeline().iter().enumerate() {
        let mut minus = default_pipeline().to_vec();
        minus.remove(k);
        let mut moved = false;
        for (((_, prog), want), row) in services.iter().zip(&full).zip(&mut rows) {
            let got = bytecode(prog, &minus);
            moved |= &got != want;
            row.push_str(&format!("{:>8}", total(&got)));
        }
        if !moved {
            idle.push(*pass);
        }
    }
    println!(
        "{:<22}{:>8}  minus each of {:?}",
        "service",
        "default",
        default_pipeline()
    );
    println!("{}", rows.join("\n"));
    assert!(
        idle.is_empty(),
        "passes that change no shipped service's bytecode when removed: {idle:?}"
    );

    // (b) Every micro-op that lowering never emits — only a pass can
    // produce it — must occur somewhere.
    for name in [
        "LdArrCS",
        "StArrCS",
        "LdArrPairS",
        "LdArrPairCS",
        "ConcatLdCS",
    ] {
        let users: Vec<_> = services
            .iter()
            .zip(&full)
            .filter(|(_, code)| code.iter().flatten().any(|m| fused_name(m) == Some(name)))
            .map(|((svc, _), _)| *svc)
            .collect();
        println!("{name:<12} emitted by {users:?}");
        assert!(!users.is_empty(), "no shipped service emits MOp::{name}");
    }
}
