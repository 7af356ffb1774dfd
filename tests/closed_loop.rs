//! Closed-loop host behavior over generated topologies.
//!
//! Everything here runs a seeded `emu::hosts` fat-tree — sharded
//! learning-switch engines, the three service leaves, a closed-loop
//! client on every remaining slot — and checks *end-to-end* properties
//! the per-engine suites cannot see:
//!
//! * retransmission actually recovers goodput under link loss,
//! * duplicated links produce suppressed duplicates, never double
//!   completions or checker violations,
//! * loss, duplication, reorder and jitter together still leave every
//!   request completed and verified,
//! * measured RTT is monotone in configured link delay and never dips
//!   below the model's floor (links plus the fixed node paths),
//! * the whole-network telemetry snapshot is byte-identical across
//!   sequential/parallel engine execution and the compiled/tree-walk
//!   CPU backends, and replays byte-identically per seed.

use emu::hosts::{fat_tree, ClientConfig, TopoSpec};
use emu::prelude::*;
use emu::simnet::Impairments;
use emu::traffic::ClientCheck;

/// A small tree (core + 1 agg + 2 edges: 4 switches, 3 services,
/// 3 clients) with a short RTO so retry tails stay cheap in debug
/// builds.
fn small_spec() -> TopoSpec {
    TopoSpec {
        aggs: 1,
        edges_per_agg: 2,
        client: ClientConfig {
            requests: 50,
            rto_ns: 200_000.0, // 200 µs; clean RTT is ~13 µs
            retries: 4,
        },
        ..TopoSpec::default()
    }
}

/// Runs a spec to quiescence and returns `(summary, checker)`.
fn run(spec: TopoSpec) -> (emu::hosts::TopoSummary, ClientCheck) {
    let mut topo = fat_tree(spec).expect("engines build");
    topo.start();
    topo.run().expect("run to quiescence");
    let mut check = ClientCheck::new(spec.client.retries).rtt_floor_ns(topo.rtt_floor_ns());
    let sum = topo.harvest(&mut check);
    assert_eq!(
        check.violations(),
        0,
        "end-to-end violations: {:?}",
        check.notes()
    );
    assert_eq!(sum.issued, check.frames(), "every request must resolve");
    (sum, check)
}

#[test]
fn retries_recover_goodput_under_loss() {
    // 8% loss on *every* link; a request crosses up to four links each
    // way, so a single attempt fails a lot. The same seed with and
    // without a retry budget isolates what retransmission buys.
    let lossy = Impairments {
        loss: 0.08,
        seed: 0x10_55,
        ..Impairments::default()
    };
    let mut spec = small_spec();
    spec.impair = Some(lossy);

    let (with_retries, _) = run(spec);

    spec.client.retries = 0;
    let (without, _) = run(spec);

    assert!(
        with_retries.completed > without.completed,
        "retries must recover goodput: {} completed with retries vs {} without",
        with_retries.completed,
        without.completed
    );
    assert!(
        with_retries.retransmits > 0,
        "loss must actually trigger retransmission"
    );
    assert!(
        without.timeouts > 0,
        "8% per-link loss with no retries must time some requests out"
    );
    // The retry budget is generous enough that nearly everything lands.
    assert!(
        with_retries.completed * 10 >= with_retries.issued * 9,
        "retries should complete >=90%: {}/{}",
        with_retries.completed,
        with_retries.issued
    );
}

#[test]
fn duplicated_links_are_suppressed_not_double_counted() {
    let mut spec = small_spec();
    spec.impair = Some(Impairments {
        duplicate: 0.15,
        seed: 0xd0_b1e,
        ..Impairments::default()
    });
    let (sum, _) = run(spec);
    assert!(
        sum.duplicates > 0,
        "15% per-link duplication must surface duplicate responses"
    );
    // No loss: every request completes exactly once, no timeouts, and
    // the checker (via `run`) saw exactly `issued` outcomes.
    assert_eq!(sum.completed, sum.issued);
    assert_eq!(sum.timeouts, 0);
    assert_eq!(sum.mismatches, 0);
}

#[test]
fn chaos_links_leave_every_request_completed_and_verified() {
    // Loss, duplication, reorder and jitter on every link at once: the
    // impairments interact (a reordered duplicate of a retransmitted
    // request is the interesting frame), so the checker inside `run`
    // must stay silent with all four armed, and the retry budget must
    // still land every request.
    let mut spec = small_spec();
    spec.impair = Some(Impairments {
        loss: 0.02,
        duplicate: 0.02,
        reorder: 0.05,
        jitter_ns: 2_000.0,
        seed: 0xc4a05,
    });
    let (sum, _) = run(spec);
    assert!(sum.retransmits > 0, "2% loss must trigger retransmission");
    assert!(sum.duplicates > 0, "2% duplication must surface duplicates");
    assert_eq!(sum.completed, sum.issued, "{} timed out", sum.timeouts);
    assert_eq!(sum.mismatches, 0);
}

#[test]
fn rtt_is_monotone_in_link_delay_and_respects_the_floor() {
    let mut p50s = Vec::new();
    for delay_ns in [500.0, 2_000.0, 8_000.0] {
        let mut spec = small_spec();
        spec.link_delay_ns = delay_ns;
        let floor = fat_tree(spec).expect("engines build").rtt_floor_ns();
        // The floor is the model's: four link delays plus the edge
        // switch's fixed node path both ways and the server's once.
        assert!(floor > (4.0 * delay_ns) as u64);
        let (sum, _) = run(spec);
        let fastest = sum.rtt.min().expect("clean RTT samples");
        assert!(
            fastest >= floor,
            "an RTT of {fastest} ns beats the model's {floor} ns floor at {delay_ns} ns links"
        );
        p50s.push(sum.rtt.quantile(0.50).expect("clean RTT samples"));
    }
    assert!(
        p50s.windows(2).all(|w| w[0] < w[1]),
        "median RTT must grow with link delay: {p50s:?}"
    );
}

#[test]
fn topology_telemetry_is_identical_across_backends_modes_and_replays() {
    // The full default tree (7 switches + 3 services, 9 clients), run
    // under all four execution configurations plus a replay. Engine
    // cycle accounting is backend- and mode-independent, timer and
    // impairment draws are seed-derived, and client stats fold only
    // sim-time quantities — so the *entire* network snapshot, final
    // sim clock included, must come out byte-identical.
    let mut spec = TopoSpec {
        client: ClientConfig {
            requests: 30,
            ..ClientConfig::default()
        },
        impair: Some(Impairments {
            loss: 0.03,
            duplicate: 0.02,
            seed: 0x5eed,
            ..Impairments::default()
        }),
        ..TopoSpec::default()
    };

    let mut snaps = Vec::new();
    for (parallel, backend, label) in [
        (false, Backend::Compiled, "seq/compiled"),
        (true, Backend::Compiled, "par/compiled"),
        (false, Backend::TreeWalk, "seq/treewalk"),
        (true, Backend::TreeWalk, "par/treewalk"),
        (true, Backend::Compiled, "par/compiled replay"),
    ] {
        spec.parallel = parallel;
        spec.backend = backend;
        let mut topo = fat_tree(spec).expect("engines build");
        topo.start();
        topo.run().expect("run to quiescence");
        let mut check = ClientCheck::new(spec.client.retries);
        let sum = topo.harvest(&mut check);
        assert_eq!(check.violations(), 0, "{label}: {:?}", check.notes());
        assert!(sum.completed > 0, "{label}: nothing completed");
        snaps.push((label, topo.net.telemetry().pretty()));
    }
    let (ref_label, reference) = &snaps[0];
    for (label, snap) in &snaps[1..] {
        assert_eq!(
            snap, reference,
            "telemetry diverged between {ref_label} and {label}"
        );
    }
}
