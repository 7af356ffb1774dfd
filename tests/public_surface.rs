//! Public-surface census: every `pub` item in the library crates has a
//! caller outside the tests.
//!
//! The corpus is the non-test part of every `crates/*/src/**/*.rs`
//! (except the offline stand-ins under `crates/compat`) and of `src/`:
//! each file up to its first `#[cfg(test)]`. Each `pub fn`, `const`,
//! `static`, `struct`, `enum`, `type` and `trait` declared there must
//! have another whole-word occurrence in that corpus, in `examples/` or
//! in `benchmark/src`. Comment lines, `pub use` re-exports, a
//! function's calls to itself and a type's own `impl` lines (`impl X`,
//! `impl Trait for X`) do not count as uses; a plain `use` does,
//! since clippy denies an unused import. The search is by word, so two
//! items that share a name share their callers.
//!
//! An item that nothing outside the tests calls is deleted, or moved
//! into its crate's test module. The only exceptions are the entries of
//! `KEPT`, each with its reason: program-side DSL or a shipped service
//! that a user of the library writes against, or a harness, fixture
//! builder or reference implementation that another crate's tests or a
//! root test call, with no other path.
//!
//! A crate's items are public through its root's `pub use` list; a
//! module stays `pub` only while code outside its crate names it by
//! path. What is `pub` but unreachable, rustc's `unreachable_pub` lint
//! (on in every library crate root) reports.

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
    "NullEnv: a machine run with no IP blocks attached; the crates' and root tests",
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

/// `text` with the contents of its string and char literals blanked,
/// so a name in an `expect("…")` or an error text is no caller. A format
/// string's `{name}` arguments are uses and stay; newlines stay, so line
/// numbers hold; a `//` comment is passed over as it stands.
fn blank_literals(text: &str) -> String {
    let c: Vec<char> = text.chars().collect();
    let at = |i: usize| c.get(i).copied().unwrap_or('\0');
    let mut out = String::with_capacity(text.len());
    let blank = |out: &mut String, ch: char| out.push(if ch == '\n' { ch } else { ' ' });
    let mut i = 0;
    while i < c.len() {
        let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
        if c[i] == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                out.push(c[i]);
                i += 1;
            }
        } else if c[i] == 'r' && (i == 0 || !is_word(c[i - 1])) && at(i + 1 + hashes) == '"' {
            // A raw string, `r"…"` or `r#"…"#`: no escapes, no arguments.
            let open = i + 2 + hashes;
            out.extend(&c[i..open]);
            i = open;
            while i < c.len() && !(c[i] == '"' && (1..=hashes).all(|k| at(i + k) == '#')) {
                blank(&mut out, c[i]);
                i += 1;
            }
            out.extend(&c[i..(i + 1 + hashes).min(c.len())]);
            i += 1 + hashes;
        } else if c[i] == '"' {
            out.push('"');
            i += 1;
            while i < c.len() && c[i] != '"' {
                if c[i] == '\\' {
                    blank(&mut out, c[i]);
                    blank(&mut out, at(i + 1));
                    i += 2;
                } else if c[i] == '{' && (is_word(at(i + 1)) || at(i + 1) == ':') {
                    while i < c.len() && c[i] != '}' && c[i] != '"' {
                        out.push(c[i]);
                        i += 1;
                    }
                } else {
                    blank(&mut out, c[i]);
                    i += 1;
                }
            }
            out.push('"');
            i += 1;
        } else if c[i] == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A char literal (`'x'`, `'\n'`, `'\u{..}'`), not a lifetime.
            let mut end = if at(i + 1) == '\\' { i + 3 } else { i + 2 };
            while end < c.len() && c[end] != '\'' {
                end += 1;
            }
            out.push('\'');
            for &ch in &c[i + 1..end.min(c.len())] {
                blank(&mut out, ch);
            }
            out.push('\'');
            i = end + 1;
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// A file's lines, numbered from 1, up to its first `#[cfg(test)]`,
/// without comment lines and `pub use` items (which may span lines up to
/// their `;`), with string and char literals blanked.
fn code_lines(path: &Path) -> Vec<(usize, String)> {
    let text = blank_literals(&fs::read_to_string(path).unwrap());
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

/// The type an `impl` block's first line implements for: `X` in
/// `impl X {` and in `impl<T> Trait<T> for path::X<T> {`. A line that
/// ends in `,` is an argument's `impl Trait`, not a block.
fn impl_self_type(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("impl")?;
    if line.trim_end().ends_with(',') {
        return None;
    }
    if let Some(generics) = rest.strip_prefix('<') {
        let mut depth = 1;
        let end = generics.find(|c| {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            depth == 0
        })?;
        rest = &generics[end + 1..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let ty = rest.rsplit(" for ").next()?.trim_start();
    let path = ty.split(|c: char| !is_word(c) && c != ':').next()?;
    path.rsplit("::").next().filter(|name| !name.is_empty())
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
            let mut own = impl_self_type(&line);
            for w in words(&line) {
                if own == Some(w) {
                    own = None;
                } else if !inside.iter().any(|(f, _)| f == w) {
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

/// The library crates: each one's `src` and the name other code calls it
/// by, its package name with `_` for `-`.
fn library_crates(root: &Path) -> Vec<(PathBuf, String)> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().is_some_and(|n| n != "compat"))
        .collect();
    dirs.sort();
    dirs.into_iter()
        .map(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let package = manifest
                .lines()
                .find_map(|l| l.strip_prefix("name = \""))
                .unwrap();
            (
                dir.join("src"),
                package.trim_end_matches('"').replace('-', "_"),
            )
        })
        .collect()
}

/// A file's code, up to its first `#[cfg(test)]` when `non_test`, with
/// string and char literals blanked and `//` comments cut.
fn code(path: &Path, non_test: bool) -> String {
    let text = blank_literals(&fs::read_to_string(path).unwrap());
    let mut out = String::new();
    for line in text.lines() {
        if non_test && line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        out.push_str(line.split("//").next().unwrap());
        out.push('\n');
    }
    out
}

/// Splits `s` at the commas outside braces.
fn top_level(s: &str) -> Vec<&str> {
    let (mut parts, mut depth, mut start) = (Vec::new(), 0, 0);
    for (i, c) in s.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// A `use` tree's paths, each with the name it binds:
/// `a::{b, c::{self, d as e}}` gives `a::b`, `a::c` and `a::c::d` (as `e`).
fn use_paths(tree: &str, prefix: &str, out: &mut Vec<(String, String)>) {
    let tree = tree.trim();
    if tree.is_empty() {
        return;
    }
    if let Some((head, rest)) = tree.split_once('{') {
        let inner = rest.trim_end().strip_suffix('}').unwrap_or(rest);
        for part in top_level(inner) {
            use_paths(part, &format!("{prefix}{head}"), out);
        }
        return;
    }
    let (path, alias) = match tree.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim())),
        None => (tree, None),
    };
    let full = match path {
        "self" => prefix.trim_end_matches("::").to_string(),
        _ => format!("{prefix}{path}"),
    };
    let name = alias.unwrap_or_else(|| full.rsplit("::").next().unwrap());
    out.push((name.to_string(), full.to_string()));
}

/// Every path `text` names: its `use` trees flattened, and the `a::b`
/// paths of its code, with a first segment that a `use` binds replaced
/// by the path it binds.
fn named_paths(text: &str) -> Vec<String> {
    let mut uses = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("use ") {
        let starts_word = rest[..at].chars().next_back().is_none_or(|c| !is_word(c));
        let end = rest[at..].find(';').map_or(rest.len(), |e| at + e);
        if starts_word {
            let tree: String = rest[at + 4..end]
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ");
            use_paths(
                &tree.replace(":: ", "::").replace(" ::", "::"),
                "",
                &mut uses,
            );
            rest = &rest[end..];
        } else {
            rest = &rest[at + 4..];
        }
    }
    let mut paths: Vec<String> = uses.iter().map(|(_, p)| p.clone()).collect();
    for token in text.split(|c: char| !is_word(c) && c != ':') {
        let token = token.trim_matches(':');
        if let Some((first, tail)) = token.split_once("::") {
            match uses
                .iter()
                .find(|(name, path)| name == first && path != first)
            {
                Some((_, path)) => paths.push(format!("{path}::{tail}")),
                None => paths.push(token.to_string()),
            }
        }
    }
    paths
}

#[test]
fn every_public_module_is_named_by_path_outside_its_crate() {
    let root = root();
    let crates = library_crates(&root);
    // `pub use X as Y` in the facade: a path through `emu::Y` names X.
    let facade: Vec<(String, String)> = code(&root.join("src/lib.rs"), true)
        .lines()
        .filter_map(|l| {
            let (x, y) = l
                .trim()
                .strip_prefix("pub use ")?
                .strip_suffix(';')?
                .split_once(" as ")?;
            Some((format!("emu::{y}"), x.to_string()))
        })
        .collect();

    // Callers: every library crate's code, its test modules too (its
    // `src/bin` targets are crates of their own), the facade, root and
    // integration tests, examples and emubench's sources; each file with
    // the crate whose `src` it is part of, if any.
    let mut files: Vec<(PathBuf, Option<usize>)> = Vec::new();
    for (k, (src, _)) in crates.iter().enumerate() {
        let mut own = Vec::new();
        rust_files(src, &mut own);
        for p in own {
            let owner = (!p.starts_with(src.join("bin"))).then_some(k);
            files.push((p, owner));
        }
        let mut tests = Vec::new();
        rust_files(&src.with_file_name("tests"), &mut tests);
        files.extend(tests.into_iter().map(|p| (p, None)));
    }
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        let mut more = Vec::new();
        rust_files(&root.join(dir), &mut more);
        files.extend(more.into_iter().map(|p| (p, None)));
    }
    let named: Vec<(Option<usize>, Vec<String>)> = files
        .iter()
        .map(|(p, owner)| {
            let paths = named_paths(&code(p, p.starts_with(root.join("src"))))
                .into_iter()
                .map(|path| {
                    match facade
                        .iter()
                        .find(|(y, _)| path.starts_with(&format!("{y}::")))
                    {
                        Some((y, x)) => format!("{x}{}", &path[y.len()..]),
                        None => path,
                    }
                })
                .collect();
            (*owner, paths)
        })
        .collect();

    let mut unnamed = Vec::new();
    for (k, (src, name)) in crates.iter().enumerate() {
        for line in code(&src.join("lib.rs"), true).lines() {
            let Some(m) = line
                .trim()
                .strip_prefix("pub mod ")
                .and_then(|m| m.strip_suffix(';'))
            else {
                continue;
            };
            let path = format!("{name}::{m}");
            let is_named = named.iter().any(|(owner, paths)| {
                *owner != Some(k)
                    && paths
                        .iter()
                        .any(|p| p == &path || p.starts_with(&format!("{path}::")))
            });
            if !is_named {
                unnamed.push(path);
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "{} public module(s) that no other crate, test, example or emubench \
         names by path (make them private `mod`s; their items are public \
         through the crate root's `pub use` list):\n{}",
        unnamed.len(),
        unnamed.join("\n")
    );
}

#[test]
fn an_impl_line_is_no_caller_of_its_self_type() {
    for (line, ty) in [
        ("impl Foo {", Some("Foo")),
        (
            "    impl Observer for NullObserver {}",
            Some("NullObserver"),
        ),
        (
            "impl<'a, T: Bar<U>> Trait<X> for crate::m::Foo<'a, T> {",
            Some("Foo"),
        ),
        ("impl<T> From<T> for Wrap<T>", Some("Wrap")),
        ("        impl Fn(u32) -> bool,", None),
        ("let implied = impl_thing();", None),
    ] {
        assert_eq!(impl_self_type(line), ty, "{line}");
    }
}

#[test]
fn a_use_tree_binds_each_of_its_paths() {
    let text = "use emu::services as s;\nuse kiwi_ir::{dsl::*, program::{self, SigDir as D}};\n\
                fn f() { s::cache::lru_cache(); program::x(); D::In; }";
    let paths = named_paths(text);
    for path in [
        "emu::services",
        "kiwi_ir::dsl::*",
        "kiwi_ir::program",
        "kiwi_ir::program::SigDir",
        "emu::services::cache::lru_cache",
        "kiwi_ir::program::x",
        "kiwi_ir::program::SigDir::In",
    ] {
        assert!(
            paths.iter().any(|p| p == path),
            "{path} missing from {paths:?}"
        );
    }
}

#[test]
fn a_name_inside_a_literal_is_no_caller() {
    let text = "let v = f.expect(\"call spawn_all first\\\" \"); let q = '\"';\n\
                let w = r#\"a \"raw\" join_all\"#; g(tail, '\\'', \"{width} {:>pad$}\"); // h(\"x\n";
    let blanked = blank_literals(text);
    let seen: Vec<&str> = blanked.lines().flat_map(words).collect();
    for name in ["expect", "tail", "width", "pad", "g", "h", "x"] {
        assert!(
            seen.contains(&name),
            "{name} is code or a format argument: {blanked}"
        );
    }
    for name in ["call", "spawn_all", "first", "raw", "join_all"] {
        assert!(
            !seen.contains(&name),
            "{name} is inside a literal: {blanked}"
        );
    }
    assert_eq!(
        blanked.lines().count(),
        text.lines().count(),
        "newlines stay"
    );
}
