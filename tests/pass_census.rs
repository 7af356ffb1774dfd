//! Backend census: every pass in the default pipeline, every micro-op
//! only the optimizer can produce and every micro-op lowering can emit
//! must show up in the bytecode of at least one *shipped* service, so a
//! pass or micro-op that stops earning its lines fails here instead of
//! waiting for a reviewer.
//!
//! `cargo test --test pass_census -- --nocapture` prints the tables
//! (micro-ops per service under the default pipeline, under the
//! pipeline minus each pass, and under the empty pipeline with the
//! share that is handed to the reference `eval`). The empty pipeline's
//! counts are pinned: they are what lowering makes of shared nodes.
//!
//! The same programs pin the contracts of the slot file's registers,
//! signals, scratch and constant pool, and that the execution encoding
//! runs their frame fields as words.

use emu::debug::{extend_program, ControllerConfig};
use emu::ir::compile::MOp;
use emu::ir::{compile_with_passes, default_pipeline, flatten, CompiledThread, Pass, Program};
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

/// The variant name of a micro-op, from its derived `Debug`.
fn variant(m: &MOp) -> String {
    let s = format!("{m:?}");
    let end = s.find(|c: char| !c.is_alphanumeric()).unwrap_or(s.len());
    s[..end].to_string()
}

/// Every variant of [`MOp`]. Lowering emits all but the one of part
/// (b), which only a pass produces.
const VARIANTS: [&str; 29] = [
    "LdArrS",
    "LdArrCS",
    "LdBytesCS",
    "CopyS",
    "MaskS",
    "NotS",
    "NegS",
    "RedOrS",
    "BinS",
    "CmpS",
    "ShlS",
    "ShrS",
    "ConcatS",
    "SliceS",
    "MuxS",
    "EvalS",
    "StVarS",
    "StVarE",
    "StArrS",
    "StArrCS",
    "StArrE",
    "StSigS",
    "StSigE",
    "BranchZ",
    "Jmp",
    "PauseOp",
    "LabelOp",
    "ExtOp",
    "HaltOp",
];

/// Variants no shipped program emits, each with the reason it stays.
const KEPT_IDLE: [(&str, &str); 2] = [
    (
        "NegS",
        "`UnOp::Neg` is IR surface; the random programs of `backend_equiv` exercise it",
    ),
    (
        "StArrE",
        "an array of elements beyond 64 bits is IR surface (`Cells` has the class); \
         `backend_equiv`'s `memw` exercises it",
    ),
];

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

    // (b) The one micro-op that lowering never emits — only a pass can
    // produce it — must occur somewhere.
    let users: Vec<_> = services
        .iter()
        .zip(&full)
        .filter(|(_, code)| code.iter().flatten().any(|m| variant(m) == "LdBytesCS"))
        .map(|((svc, _), _)| *svc)
        .collect();
    println!("LdBytesCS    emitted by {users:?}");
    assert!(!users.is_empty(), "no shipped service emits MOp::LdBytesCS");

    // (c) Every micro-op is emitted for some shipped program, by the
    // default or by the empty pipeline, or is on the short list above.
    let naive: Vec<_> = services.iter().map(|(_, p)| bytecode(p, &[])).collect();
    let mut seen = std::collections::BTreeSet::new();
    println!(
        "{:<22}{:>8}{:>6}{:>8}{:>6}  (micro-ops, of which Eval*/St*E)",
        "service", "default", "", "none", ""
    );
    for (((name, _), opt), raw) in services.iter().zip(&full).zip(&naive) {
        let mut row = format!("{name:<22}");
        for code in [opt, raw] {
            let names: Vec<String> = code.iter().flatten().map(variant).collect();
            let evaluated = names
                .iter()
                .filter(|v| v.ends_with('E') || *v == "EvalS")
                .count();
            row.push_str(&format!("{:>8}{evaluated:>6}", names.len()));
            seen.extend(names);
        }
        println!("{row}");
    }
    // The empty pipeline's micro-op counts, pinned: lowering visits a
    // shared node once per statement, so a count that grows is a node
    // lowered once per use.
    let naive_counts: Vec<(&str, usize)> = services
        .iter()
        .zip(&naive)
        .map(|((name, _), code)| (*name, total(code)))
        .collect();
    assert_eq!(
        naive_counts,
        vec![
            ("switch_ip_cam", 77),
            ("switch_behavioural", 508),
            ("icmp_echo", 316),
            ("tcp_ping", 685),
            ("dns_server", 395),
            ("memcached", 1609),
            ("nat", 790),
            ("lru_cache", 586),
            ("filter_switch", 124),
            ("memcached+direction", 1870),
        ],
        "the naive lowering moved"
    );
    for v in &seen {
        assert!(
            VARIANTS.contains(&v.as_str()),
            "{v} is missing from VARIANTS"
        );
    }
    let idle: Vec<&str> = VARIANTS
        .iter()
        .copied()
        .filter(|v| !seen.contains(*v))
        .collect();
    println!("emitted by no shipped program: {idle:?}");
    let kept: Vec<&str> = KEPT_IDLE.iter().map(|(v, _)| *v).collect();
    assert_eq!(
        idle, kept,
        "a micro-op no shipped program emits must go, or be listed in KEPT_IDLE with its reason"
    );
    // The machine is 64 bits wide: no micro-op carries more than one
    // 64-bit immediate.
    assert!(
        std::mem::size_of::<MOp>() <= 24,
        "size_of::<MOp>() = {}",
        std::mem::size_of::<MOp>()
    );
}

/// The scratch, on every shipped program under the default and the
/// empty pipeline: a scratch slot is one micro-op lowering emitted, so
/// no thread numbers more scratch slots than its naive lowering has
/// micro-ops. A node an expression shares is lowered once per statement
/// and numbered once; numbering it again per use is what this catches.
#[test]
fn scratch_is_numbered_by_what_lowering_emits() {
    println!(
        "{:<22}{:>8}{:>8}  (scratch slots, widest thread)",
        "service", "default", "none"
    );
    for (name, prog) in shipped() {
        let naive = bytecode(&prog, &[]);
        let mut row = format!("{name:<22}");
        for passes in [default_pipeline(), &[][..]] {
            let cp = compile_with_passes(&flatten(&prog).unwrap(), passes).unwrap();
            for (t, raw) in cp.threads.iter().zip(&naive) {
                assert!(
                    t.n_slots <= raw.len(),
                    "{name} ({} passes), thread {}: {} scratch slots for {} naive micro-ops",
                    passes.len(),
                    t.name,
                    t.n_slots,
                    raw.len()
                );
            }
            let widest = cp.threads.iter().map(|t| t.n_slots).max().unwrap_or(0);
            row.push_str(&format!("{widest:>8}"));
        }
        println!("{row}");
    }
}

/// The constant pool, on every shipped program under the default and
/// the empty pipeline: no micro-op writes a pool slot; none loads a
/// constant at run time (a copy out of a pool slot is such a load); and
/// the pool holds each value once, every one read by some micro-op.
#[test]
fn constants_are_pooled_once_and_never_loaded() {
    for (name, prog) in shipped() {
        for passes in [default_pipeline(), &[][..]] {
            let cp = compile_with_passes(&flatten(&prog).unwrap(), passes).unwrap();
            let base = cp.pool_base() as u32;
            let mut read = vec![false; cp.pool.len()];
            for m in cp.threads.iter().flat_map(|t| &t.mops) {
                assert!(
                    m.dst().is_none_or(|d| d < base),
                    "{name} ({} passes): {m:?} writes a pool slot",
                    passes.len()
                );
                if let MOp::CopyS { a, .. } = m {
                    assert!(
                        *a < base,
                        "{name} ({} passes): {m:?} loads a constant",
                        passes.len()
                    );
                }
                m.uses(&mut |s| {
                    if s >= base {
                        read[(s - base) as usize] = true;
                    }
                });
            }
            assert!(!cp.pool.is_empty(), "{name} has literals");
            assert!(
                read.iter().all(|&r| r),
                "{name}: a pool entry nothing reads"
            );
            let distinct: std::collections::BTreeSet<_> = cp.pool.iter().collect();
            assert_eq!(
                distinct.len(),
                cp.pool.len(),
                "{name}: a value pooled twice"
            );
        }
    }
}

/// The registers, on every shipped program under the default and the
/// empty pipeline: slot `v` is register `v`, and no micro-op defines a
/// register slot — only the register stores write one, `StVarS` in
/// place. A register read is its slot, so no micro-op reads a register
/// into scratch either.
#[test]
fn registers_are_written_only_by_stores() {
    for (name, prog) in shipped() {
        for passes in [default_pipeline(), &[][..]] {
            let cp = compile_with_passes(&flatten(&prog).unwrap(), passes).unwrap();
            let regs = cp.sig_base() as u32;
            assert_eq!(regs as usize, prog.vars().len());
            let mut read = false;
            for m in cp.threads.iter().flat_map(|t| &t.mops) {
                assert!(
                    m.dst().is_none_or(|d| d >= regs),
                    "{name} ({} passes): {m:?} writes a register slot",
                    passes.len()
                );
                if let MOp::StVarS { var, w, .. } = m {
                    assert!(*var < regs && *w <= 64, "{name}: {m:?}");
                }
                m.uses(&mut |s| read |= s < regs);
            }
            assert!(read, "{name}: some micro-op reads a register slot");
        }
    }
}

/// The signals, on every shipped program under the default and the
/// empty pipeline: slot `sig_base + s` is signal `s`, and no micro-op
/// defines a signal slot — only `StSigS` writes one, in place. A signal
/// read is its slot, so no micro-op samples a signal into scratch.
#[test]
fn signals_are_written_only_by_stores() {
    for (name, prog) in shipped() {
        for passes in [default_pipeline(), &[][..]] {
            let cp = compile_with_passes(&flatten(&prog).unwrap(), passes).unwrap();
            let sigs = cp.sig_base() as u32..cp.scratch_base() as u32;
            assert_eq!(sigs.len(), prog.signals().len());
            let (mut read, mut written) = (false, false);
            for m in cp.threads.iter().flat_map(|t| &t.mops) {
                assert!(
                    m.dst().is_none_or(|d| !sigs.contains(&d)),
                    "{name} ({} passes): {m:?} writes a signal slot",
                    passes.len()
                );
                if let MOp::StSigS { sig, w, .. } = m {
                    assert!(sigs.contains(sig) && *w <= 64, "{name}: {m:?}");
                    written = true;
                }
                m.uses(&mut |s| read |= sigs.contains(&s));
            }
            assert!(read, "{name}: some micro-op reads a signal slot");
            assert!(written, "{name}: some micro-op stores a signal slot");
        }
    }
}

/// The default pipeline is a fixpoint: run twice, it compiles every
/// shipped program to the micro-ops it compiles them to once. Value
/// numbering is one forward scan because of this: a second scan, or a
/// split of the scan into its steps, finds nothing more to rewrite.
#[test]
fn the_default_pipeline_is_a_fixpoint() {
    let twice = [default_pipeline(), default_pipeline()].concat();
    for (name, prog) in shipped() {
        assert_eq!(
            bytecode(&prog, &twice),
            bytecode(&prog, default_pipeline()),
            "{name}: a second run of the default pipeline moved the bytecode"
        );
    }
}

/// Encoding variants no shipped program produces under the default
/// pipeline, each with the reason it stays. All are one-for-one forms
/// of a micro-op or an operator; no fused form is among them.
const KEPT_IDLE_EXEC: [(&str, &str); 4] = [
    (
        "Copy",
        "value numbering reads every use through its copy and dead scratch \
         elimination then removes the `CopyS`; the empty pipeline and each pass \
         alone run it",
    ),
    ("Neg", "the encoding of `NegS`, kept in `KEPT_IDLE`"),
    (
        "Xor",
        "`BinOp::Xor` is IR surface; the random programs of `backend_equiv` exercise it",
    ),
    ("StArrE", "the encoding of `StArrE`, kept in `KEPT_IDLE`"),
];

/// The execution encoding, the form of the micro-ops the compiled
/// image runs: every variant, the fused pairs above all, must be
/// produced for at least one shipped service under the default
/// pipeline, so a fused form that stops firing is deleted, not carried.
#[test]
fn every_encoding_variant_is_produced() {
    let mut seen: Vec<(&str, usize)> = Vec::new();
    for (name, prog) in shipped() {
        let cp = compile_with_passes(&flatten(&prog).unwrap(), default_pipeline()).unwrap();
        let (mut ops, mut mops) = (0, 0);
        for t in &cp.threads {
            mops += t.mops.len();
            for (k, (v, n)) in t.exec_census().into_iter().enumerate() {
                if seen.len() == k {
                    seen.push((v, 0));
                }
                seen[k].1 += n;
                ops += n;
            }
        }
        println!("{name:<22}{mops:>6} micro-ops{ops:>6} encoded");
    }
    println!("encoding variants over every shipped program: {seen:?}");
    let idle: Vec<&str> = seen
        .iter()
        .filter(|(_, n)| *n == 0)
        .map(|(v, _)| *v)
        .collect();
    let kept: Vec<&str> = KEPT_IDLE_EXEC.iter().map(|(v, _)| *v).collect();
    assert_eq!(
        idle, kept,
        "an encoding variant no shipped program produces must go, or be listed in \
         KEPT_IDLE_EXEC with its reason"
    );
}

/// One operation of an execution encoding: its variant and its fields.
type XOp = (String, Vec<(String, u64)>);

/// Thread `t`'s execution encoding, read from its derived `Debug` (the
/// encoding is the crate's own; its fields are all integers).
fn encoding(t: &CompiledThread) -> Vec<XOp> {
    let text = format!("{t:?}");
    let body = &text[text.find("exec: [").unwrap() + "exec: [".len()..text.rfind(']').unwrap()];
    let mut ops = Vec::new();
    let mut rest = body.trim_start();
    while !rest.is_empty() {
        let end = rest
            .find(|c: char| !c.is_alphanumeric())
            .unwrap_or(rest.len());
        let mut fields = Vec::new();
        let (name, after) = rest.split_at(end);
        rest = after.trim_start();
        if let Some(inner) = rest.strip_prefix('{') {
            let close = inner.find('}').unwrap();
            for field in inner[..close].split(',') {
                let (k, v) = field.split_once(':').unwrap();
                fields.push((k.trim().to_string(), v.trim().parse().unwrap()));
            }
            rest = &inner[close + 1..];
        }
        rest = rest.trim_start().trim_start_matches(',').trim_start();
        ops.push((name.to_string(), fields));
    }
    ops
}

fn field(op: &XOp, name: &str) -> u64 {
    op.1.iter().find(|(k, _)| k == name).unwrap().1
}

/// A `ConcatS` of `t` that value numbering could have fused: a byte loaded
/// at a constant index onto the load of the bytes just before it in an
/// array of bytes, fewer than eight bytes in all, the word from the first
/// byte in bounds, and no store into the array between either load and
/// the concat.
fn unfused_field(prog: &Program, t: &CompiledThread) -> Option<MOp> {
    let mut bounds = vec![0];
    bounds.extend(t.regions.iter().map(|r| r.start as usize));
    bounds.push(t.mops.len());
    bounds.dedup();
    for w in bounds.windows(2) {
        let region = &t.mops[w[0]..w[1]];
        for (p, m) in region.iter().enumerate() {
            let MOp::ConcatS { a, b, bw: 8, .. } = *m else {
                continue;
            };
            // The constant-index load that defines `s` in the region, of
            // `n` bytes, with no store into its array up to the concat.
            let load = |s: u32| {
                let q = region[..p].iter().rposition(|d| d.dst() == Some(s))?;
                let (arr, idx, n) = match region[q] {
                    MOp::LdArrCS { arr, idx, .. } => (arr, idx, 1),
                    MOp::LdBytesCS { arr, idx, n, .. } => (arr, idx, n),
                    _ => return None,
                };
                let stored = region[q..p].iter().any(|st| {
                    matches!(st, MOp::StArrS { arr: r, .. }
                        | MOp::StArrCS { arr: r, .. }
                        | MOp::StArrE { arr: r, .. } if *r == arr)
                });
                (!stored).then_some((arr, idx, n))
            };
            if let (Some((arr, idx, n)), Some(low)) = (load(a), load(b)) {
                let decl = &prog.arrays()[arr as usize];
                if low == (arr, idx + u32::from(n), 1)
                    && n < 8
                    && decl.elem_width == 8
                    && idx as usize + 8 <= decl.len
                {
                    return Some(*m);
                }
            }
        }
    }
    None
}

/// Frame fields run as words: under the default pipeline every field
/// load of a shipped service is one `LdBytesCS`, encoded as one
/// `LdBytesC`, and no `ConcatS` is left that value numbering could
/// have fused; and no encoding keeps two adjacent `SliceStArrC` that one
/// byte-store run would take.
#[test]
fn frame_fields_run_as_words() {
    for (name, prog) in shipped() {
        let cp = compile_with_passes(&flatten(&prog).unwrap(), default_pipeline()).unwrap();
        for t in &cp.threads {
            let ops = encoding(t);
            assert_eq!(
                ops.len(),
                t.exec_census().iter().map(|(_, n)| n).sum::<usize>()
            );
            let loads = t
                .mops
                .iter()
                .filter(|m| matches!(m, MOp::LdBytesCS { .. }))
                .count();
            let encoded = ops.iter().filter(|op| op.0 == "LdBytesC").count();
            assert_eq!(loads, encoded, "{name}: a field load encoded otherwise");
            if let Some(m) = unfused_field(&cp.prog, t) {
                panic!("{name}: a field value numbering could have fused: {m:?}");
            }
            for pair in ops.windows(2) {
                let [x, y] = pair else { unreachable!() };
                if x.0 != "SliceStArrC" || y.0 != "SliceStArrC" {
                    continue;
                }
                let same = |k: &str| field(x, k) == field(y, k);
                let arr = &cp.prog.arrays()[field(x, "arr") as usize];
                let run = same("a")
                    && same("arr")
                    && arr.elem_width == 8
                    && field(x, "idx") as usize + 8 <= arr.len
                    && field(x, "mask") == 0xff
                    && field(y, "mask") == 0xff
                    && field(y, "idx") == field(x, "idx") + 1
                    && field(y, "lo") + 8 == field(x, "lo");
                assert!(
                    !run,
                    "{name}: two byte stores a run would take: {x:?}, {y:?}"
                );
            }
        }
    }
}
