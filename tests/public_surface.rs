//! Public-surface census: every `pub` item in the library crates has a
//! caller outside the tests.
//!
//! The corpus is the non-test part of every `crates/*/src/**/*.rs`
//! (except the offline stand-ins under `crates/compat`) and of `src/`:
//! each file up to its first `#[cfg(test)]`. Each `pub fn`, `const`,
//! `static`, `struct`, `enum`, `type` and `trait` declared there must
//! have another whole-word occurrence in that corpus, in `examples/` or
//! in `benchmark/src`. Comment lines, `pub use` re-exports and a
//! function's calls to itself do not count as uses; a plain `use` does,
//! since clippy denies an unused import. The search is by word, so two
//! items that share a name share their callers.
//!
//! An item that nothing outside the tests calls is deleted, or moved
//! into its crate's test module. The only exceptions are the entries of
//! `KEPT`, each with its reason: program-side DSL or a shipped service
//! that a user of the library writes against, or a harness, fixture
//! builder or reference implementation that another crate's tests or a
//! root test call, with no other path.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Items kept without a non-test caller, each as `name: reason`.
const KEPT: &[&str] = &[
    // (a) Program-side DSL and shipped services, written against by users.
    "lit_bits: DSL, a literal wider than 64 bits",
    "neg: DSL, two's-complement negation",
    "continue_loop: DSL, `continue` in a service's loop",
    "csum_of_words: DSL, the Internet checksum of a list of 16-bit words",
    "version: Ipv4Wrapper, the IPv4 header's version field",
    "lru_cache: shipped service, the LRU cache",
    "switch_behavioural: shipped service, the behavioural learning switch",
    "filter_switch_from_lines: shipped service, the filter built from rule lines",
    // (b) Harnesses, fixture builders and reference implementations that
    // root tests, emubench's tests or another crate's tests call.
    "run_cycles: Core, a machine run without frames (tests/verilog_lockstep.rs)",
    "lint: kiwi, the structural lint of emitted Verilog (tests/artifacts.rs)",
    "num_shards: Engine, the shape a build made (tests/sharding.rs)",
    "shard_error: Engine, why a shard is poisoned (tests/failure_injection.rs)",
    "total_cycles: BatchReport, a batch's model cycles (tests/sharding.rs)",
    "summary: PipelineSim, a run's latency summary (tests/failure_injection.rs)",
    "proto_mut: Client, the protocol a test drives (hosts' classify_allocs)",
    "update_u32: checksum, the RFC 1624 reference of emu-core's csum tests",
    "pearson8_seeded: checksum, the Pearson block's reference (tests/sharding.rs)",
    "ipv4_frame: wire, a fixture builder (tests/host_vs_emu_functional.rs)",
    "echo_request: wire, a fixture builder (tests/differential_props.rs)",
    "dns_query: wire, a fixture builder (tests/sharding.rs)",
    "mc_request: wire, a fixture builder (hoststack's service tests)",
    "as_arr: Json, an array's elements (emubench's and netsim's tests)",
    "assert_targets_agree: the three-target harness (tests/three_targets.rs)",
    "visit: Expr, a pre-order walk (emu-core's csum and dataplane tests)",
    "env_mut: Engine's (tests/failure_injection.rs) and Shard's, which only Engine's calls",
    "exec_census: CompiledThread, the execution encoding by variant (tests/pass_census.rs)",
    "checkpoint: Shard, its state as a value (tests/sharding.rs); the flight recorder will call it",
    "restore: Shard, back to a checkpoint (tests/sharding.rs); the flight recorder will call it",
];

/// The item a `KEPT` entry names.
fn kept_name(entry: &str) -> &str {
    entry.split(':').next().unwrap()
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// A file's lines, numbered from 1, up to its first `#[cfg(test)]`,
/// without comment lines and `pub use` items (which may span lines up to
/// their `;`).
fn code_lines(path: &Path) -> Vec<(usize, String)> {
    let text = fs::read_to_string(path).unwrap();
    let mut out = Vec::new();
    let mut in_pub_use = false;
    for (n, line) in text.lines().enumerate() {
        let t = line.trim_start();
        if t.starts_with("#[cfg(test)]") {
            break;
        }
        if in_pub_use || t.starts_with("pub use ") {
            in_pub_use = !t.contains(';');
            continue;
        }
        if !t.starts_with("//") {
            out.push((n + 1, line.to_string()));
        }
    }
    out
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every identifier on a line (a word that does not start with a digit).
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_word(c))
        .filter(|w| w.chars().next().is_some_and(|c| !c.is_ascii_digit()))
}

/// The name a line declares as a `pub` item, if it does, and whether
/// the item is a function.
fn declared(line: &str) -> Option<(&str, bool)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for q in ["const fn ", "unsafe fn ", "async fn "] {
        if rest.starts_with(q) {
            rest = &rest[q.len() - 3..];
        }
    }
    let kinds = [
        "fn ", "const ", "static ", "struct ", "enum ", "type ", "trait ",
    ];
    let kind = kinds.iter().find(|k| rest.starts_with(**k))?;
    let name = rest[kind.len()..].split(|c: char| !is_word(c)).next()?;
    (!name.is_empty()).then_some((name, *kind == "fn "))
}

#[test]
fn every_public_item_has_a_caller_outside_the_tests() {
    let root = root();
    let mut library = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if krate.file_name().is_some_and(|n| n != "compat") {
            rust_files(&krate.join("src"), &mut library);
        }
    }
    rust_files(&root.join("src"), &mut library);
    let mut callers = Vec::new();
    rust_files(&root.join("examples"), &mut callers);
    rust_files(&root.join("benchmark/src"), &mut callers);

    // Declarations, and every word's occurrences across the corpus.
    let mut decls: Vec<(String, String)> = Vec::new();
    let mut occurrences: HashMap<String, usize> = HashMap::new();
    for (i, path) in library.iter().chain(&callers).enumerate() {
        let rel = path.strip_prefix(&root).unwrap().display().to_string();
        // The `pub fn`s whose bodies this line is in, with the indent of
        // their closing brace: a function's calls to itself are not
        // callers.
        let mut inside: Vec<(String, usize)> = Vec::new();
        for (n, line) in code_lines(path) {
            let indent = line.len() - line.trim_start().len();
            if line.trim_start().starts_with('}') {
                inside.retain(|(_, at)| *at != indent);
            }
            for w in words(&line) {
                if !inside.iter().any(|(f, _)| f == w) {
                    *occurrences.entry(w.to_string()).or_default() += 1;
                }
            }
            if let Some((name, is_fn)) = declared(&line) {
                if i < library.len() {
                    decls.push((name.to_string(), format!("{rel}:{n}")));
                }
                let end = line.trim_end();
                if is_fn && !end.ends_with('}') && !end.ends_with(';') {
                    inside.push((name.to_string(), indent));
                }
            }
        }
    }
    let mut decl_count: HashMap<&str, usize> = HashMap::new();
    for (name, _) in &decls {
        *decl_count.entry(name).or_default() += 1;
    }

    let kept = |name: &str| KEPT.iter().any(|k| kept_name(k) == name);
    let unused: Vec<String> = decls
        .iter()
        .filter(|(name, _)| occurrences[name.as_str()] == decl_count[name.as_str()])
        .filter(|(name, _)| !kept(name))
        .map(|(name, at)| format!("{at}: {name}"))
        .collect();
    assert!(
        unused.is_empty(),
        "{} public item(s) with no caller outside the tests (delete them, move \
         them into the crate's test module, or add a KEPT entry with a reason):\n{}",
        unused.len(),
        unused.join("\n")
    );

    // A KEPT entry whose item is gone, or has gained a caller, goes too.
    let stale: Vec<&str> = KEPT
        .iter()
        .map(|k| kept_name(k))
        .filter(|k| decl_count.get(k).is_none_or(|&d| occurrences[*k] > d))
        .collect();
    assert!(
        stale.is_empty(),
        "KEPT entries with a caller or no item: {stale:?}"
    );
}
