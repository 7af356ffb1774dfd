//! Artefact checks over every service: compiles, emits lintable Verilog,
//! has sane resource accounting, and traces to VCD.

use emu::prelude::*;
use emu::services as s;

fn all_services() -> Vec<(&'static str, emu::stdlib::Service)> {
    vec![
        ("switch-cam", s::switch::switch_ip_cam()),
        ("switch-behavioural", s::switch::switch_behavioural(16)),
        (
            "filter",
            s::filter::filter_switch_from_lines(
                &["-A FORWARD -p tcp --dport 80 -j DROP"],
                s::filter::FilterAction::Accept,
            )
            .unwrap(),
        ),
        ("icmp", s::icmp::icmp_echo()),
        ("tcp-ping", s::tcp_ping::tcp_ping()),
        (
            "dns",
            s::dns::dns_server(vec![("a.b".into(), "1.2.3.4".parse().unwrap())]),
        ),
        ("memcached", s::memcached::memcached()),
        ("nat", s::nat::nat("203.0.113.1".parse().unwrap())),
        ("cache", s::cache::lru_cache()),
    ]
}

/// FNV-1a of a text, the digest the pinned artefacts below are held to.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_service_compiles_and_emits_valid_verilog() {
    for (name, svc) in all_services() {
        let fsm = compile(&svc.program).unwrap_or_else(|e| panic!("{name}: {e}"));
        let v = emit(&fsm).unwrap_or_else(|e| panic!("{name}: {e}"));
        kiwi::lint(&v).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(v.lines().count() > 50, "{name}: suspiciously small Verilog");
        assert!(v.contains("module"), "{name}");
    }
}

/// Every service's emitted Verilog (FNV-1a of the text) and each
/// thread's FSM state count, pinned as literals: the FSM's in-memory
/// representation may change, the schedule and the Verilog may not.
/// (`-- --nocapture` prints a run's values in literal syntax.)
#[test]
fn verilog_and_state_counts_are_pinned() {
    let got: Vec<(&str, u64, Vec<usize>)> = all_services()
        .into_iter()
        .map(|(name, svc)| {
            let fsm = compile(&svc.program).unwrap();
            let states = fsm.threads.iter().map(|t| t.state_count()).collect();
            (name, fnv(&emit(&fsm).unwrap()), states)
        })
        .collect();
    for (name, digest, states) in &got {
        println!("        (\"{name}\", {digest:#018x}, vec!{states:?}),");
    }
    let want: Vec<(&str, u64, Vec<usize>)> = vec![
        ("switch-cam", 0x0f5f9baeade99209, vec![7]),
        ("switch-behavioural", 0x794840d9b80b32b1, vec![8]),
        ("filter", 0x75304396205a6d41, vec![8]),
        ("icmp", 0x93c24cd7ad3307d9, vec![29]),
        ("tcp-ping", 0x7de6798857739697, vec![41]),
        ("dns", 0x2904d37198ba5010, vec![59]),
        ("memcached", 0x549b3ccfa56d579c, vec![212]),
        ("nat", 0xf8211546bbc76610, vec![45]),
        ("cache", 0x923c44633f59773d, vec![82]),
    ];
    assert_eq!(got, want, "the schedule or the emitted Verilog moved");
}

/// The product bytecode: every thread's default-pipeline listing of
/// every shipped program (the services above plus one direction
/// extension), pinned as an FNV-1a digest per program. How lowering
/// walks an expression may change; the micro-ops it ends in may not.
/// (`-- --nocapture` prints a run's values in literal syntax.)
#[test]
fn default_listings_are_pinned() {
    use emu::ir::compile::mops_to_string;
    use emu::ir::{compile_with_passes, default_pipeline, flatten};
    let mut programs: Vec<(&str, emu::ir::Program)> = all_services()
        .into_iter()
        .map(|(name, svc)| (name, svc.program))
        .collect();
    let directed = emu::debug::extend_program(
        &s::memcached::memcached().program,
        &ControllerConfig::full(&["n_get", "n_set", "n_hit"], 32),
    )
    .unwrap();
    programs.push(("memcached+direction", directed));
    let got: Vec<(&str, u64)> = programs
        .iter()
        .map(|(name, prog)| {
            let cp = compile_with_passes(&flatten(prog).unwrap(), default_pipeline()).unwrap();
            let text: String = (0..cp.threads.len())
                .map(|ti| mops_to_string(&cp, ti))
                .collect();
            (*name, fnv(&text))
        })
        .collect();
    for (name, digest) in &got {
        println!("        (\"{name}\", {digest:#018x}),");
    }
    let want: Vec<(&str, u64)> = vec![
        ("switch-cam", 0x650564d29ebe408a),
        ("switch-behavioural", 0x028ba1bfbe11ceaa),
        ("filter", 0xd1d45c74e198b18f),
        ("icmp", 0x9754fecc84683052),
        ("tcp-ping", 0x935f6ed71f263141),
        ("dns", 0x673cadcc65d31357),
        ("memcached", 0x8346f96f526aaffd),
        ("nat", 0xb7e9faa5d0e61706),
        ("cache", 0xe08df84363346c14),
        ("memcached+direction", 0xc8f9ed03573d9f21),
    ];
    assert_eq!(got, want, "the compiled bytecode moved");
}

#[test]
fn resource_reports_are_sane_and_ordered() {
    let mut logic = Vec::new();
    for (name, svc) in all_services() {
        let fsm = compile(&svc.program).unwrap();
        let rep = estimate(&fsm, &[]);
        assert!(rep.logic > 0, "{name}: zero logic");
        assert!(rep.ffs > 0, "{name}: zero FFs");
        logic.push((name, rep.logic));
    }
    // The paper: no use case exhausts the FPGA; < 33% of a Virtex-7 690T
    // (~433k LUTs), i.e. < ~143k logic units even with generous margins.
    for (name, l) in &logic {
        assert!(*l < 143_000, "{name}: {l} exceeds the paper's ceiling");
    }
    // Memcached (parsers + responses) must out-cost the icmp echo core.
    let get = |n: &str| logic.iter().find(|(m, _)| *m == n).unwrap().1;
    assert!(get("memcached") > get("icmp"));
}

#[test]
fn vcd_traces_capture_service_activity() {
    let svc = s::icmp::icmp_echo();
    let prog = svc.program.clone();
    let flat = kiwi_ir::flatten(&prog).unwrap();
    let mut m = kiwi_ir::Core::new(kiwi_ir::Code::TreeWalk(flat));
    let mut vcd = emu::rtl::VcdTrace::new(&prog, 5.0);
    let mut env = kiwi_ir::NullEnv;
    for cycle in 0..50 {
        m.step_cycle(&mut env, &mut kiwi_ir::NullObserver).unwrap();
        vcd.sample(cycle, m.state());
    }
    let text = vcd.finish();
    assert!(text.contains("$enddefinitions"));
    assert!(text.contains("csum_acc"));
}

#[test]
fn state_occupancy_profile_identifies_wait_state() {
    use kiwi_ir::interp::{NullEnv, NullObserver};
    // An idle service spends ~all cycles in its rx-wait state — the
    // profiler (Emu's "where does time go" tooling) must show that.
    let svc = s::icmp::icmp_echo();
    let fsm = compile(&svc.program).unwrap();
    let mut rtl = kiwi_ir::Core::new(kiwi_ir::Code::Fpga(fsm));
    rtl.run_cycles(500, &mut NullEnv, &mut NullObserver)
        .unwrap();
    let max = rtl.occupancy().iter().flatten().max().copied().unwrap_or(0);
    assert!(max > 450, "idle core must sit in one state, max={max}");
    assert!(rtl.occupancy_report().contains("%"));
}

#[test]
fn verilog_grows_with_service_complexity() {
    let small = emit(&compile(&s::icmp::icmp_echo().program).unwrap()).unwrap();
    let big = emit(&compile(&s::memcached::memcached().program).unwrap()).unwrap();
    assert!(
        big.lines().count() > small.lines().count(),
        "memcached ({}) vs icmp ({})",
        big.lines().count(),
        small.lines().count()
    );
}
