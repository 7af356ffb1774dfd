//! The direction-command language of Table 2.
//!
//! Commands are parsed from gdb-like text, then *compiled*: commands the
//! embedded controller supports become CASP programs — sequences of
//! counter/array/stored-procedure operations carried by direction packets
//! (§3.5 models the controller "as a counters, arrays, and stored
//! procedures (CASP) machine") — while purely observational commands
//! (`watch`, `count`, `backtrace`, `break`) attach to the software
//! target's observer hooks, reproducing the paper's heterogeneous debug
//! environment.

use crate::packet::Opcode;
use kiwi_ir::interp::{MachineState, Observer};
use std::collections::HashMap;
use std::fmt;

/// A comparison condition `⟨var⟩ ⟨op⟩ ⟨literal⟩` (the `⟨B⟩` of Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    /// Variable name.
    pub var: String,
    /// One of `== != < <= > >=`.
    pub op: String,
    /// Right-hand literal.
    pub value: u64,
}

impl Cond {
    /// Evaluates against a value of `self.var`.
    pub fn eval(&self, v: u64) -> bool {
        match self.op.as_str() {
            "==" => v == self.value,
            "!=" => v != self.value,
            "<" => v < self.value,
            "<=" => v <= self.value,
            ">" => v > self.value,
            ">=" => v >= self.value,
            _ => false,
        }
    }
}

/// A direction command (Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `print X`
    Print(String),
    /// `set X <value>` (the writing counterpart used by the +W variant).
    Set(String, u64),
    /// `increment X` (the +I variant).
    Increment(String),
    /// `break L [cond]`
    Break(String, Option<Cond>),
    /// `unbreak L`
    Unbreak(String),
    /// `backtrace [n]`
    Backtrace(Option<usize>),
    /// `watch X [cond]`
    Watch(String, Option<Cond>),
    /// `unwatch X`
    Unwatch(String),
    /// `count writes X` / `count calls L`
    Count {
        /// `"writes"` or `"calls"`.
        what: String,
        /// Variable or label name.
        target: String,
    },
    /// `trace start X [depth]`
    TraceStart(String, usize),
    /// `trace stop X`
    TraceStop(String),
    /// `trace clear X`
    TraceClear(String),
    /// `trace print X`
    TracePrint(String),
    /// `trace full X`
    TraceFull(String),
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Print(x) => write!(f, "print {x}"),
            Command::Set(x, v) => write!(f, "set {x} {v}"),
            Command::Increment(x) => write!(f, "increment {x}"),
            Command::Break(l, None) => write!(f, "break {l}"),
            Command::Break(l, Some(c)) => write!(f, "break {l} {} {} {}", c.var, c.op, c.value),
            Command::Unbreak(l) => write!(f, "unbreak {l}"),
            Command::Backtrace(None) => write!(f, "backtrace"),
            Command::Backtrace(Some(n)) => write!(f, "backtrace {n}"),
            Command::Watch(x, None) => write!(f, "watch {x}"),
            Command::Watch(x, Some(c)) => write!(f, "watch {x} {} {} {}", c.var, c.op, c.value),
            Command::Unwatch(x) => write!(f, "unwatch {x}"),
            Command::Count { what, target } => write!(f, "count {what} {target}"),
            Command::TraceStart(x, d) => write!(f, "trace start {x} {d}"),
            Command::TraceStop(x) => write!(f, "trace stop {x}"),
            Command::TraceClear(x) => write!(f, "trace clear {x}"),
            Command::TracePrint(x) => write!(f, "trace print {x}"),
            Command::TraceFull(x) => write!(f, "trace full {x}"),
        }
    }
}

/// Parses one command line.
pub fn parse(line: &str) -> Result<Command, String> {
    let t: Vec<&str> = line.split_whitespace().collect();
    let cond_of = |toks: &[&str]| -> Result<Option<Cond>, String> {
        match toks {
            [] => Ok(None),
            [v, op, lit] => Ok(Some(Cond {
                var: v.to_string(),
                op: op.to_string(),
                value: lit.parse().map_err(|e| format!("bad literal: {e}"))?,
            })),
            _ => Err("condition must be `<var> <op> <value>`".into()),
        }
    };
    match t.as_slice() {
        ["print", x] => Ok(Command::Print(x.to_string())),
        ["set", x, v] => Ok(Command::Set(
            x.to_string(),
            v.parse().map_err(|e| format!("bad value: {e}"))?,
        )),
        ["increment", x] => Ok(Command::Increment(x.to_string())),
        ["break", l, rest @ ..] => Ok(Command::Break(l.to_string(), cond_of(rest)?)),
        ["unbreak", l] => Ok(Command::Unbreak(l.to_string())),
        ["backtrace"] => Ok(Command::Backtrace(None)),
        ["backtrace", n] => Ok(Command::Backtrace(Some(
            n.parse().map_err(|e| format!("bad depth: {e}"))?,
        ))),
        ["watch", x, rest @ ..] => Ok(Command::Watch(x.to_string(), cond_of(rest)?)),
        ["unwatch", x] => Ok(Command::Unwatch(x.to_string())),
        ["count", what @ ("writes" | "calls" | "reads"), tgt] => Ok(Command::Count {
            what: what.to_string(),
            target: tgt.to_string(),
        }),
        ["trace", "start", x] => Ok(Command::TraceStart(x.to_string(), 64)),
        ["trace", "start", x, d] => Ok(Command::TraceStart(
            x.to_string(),
            d.parse().map_err(|e| format!("bad depth: {e}"))?,
        )),
        ["trace", "stop", x] => Ok(Command::TraceStop(x.to_string())),
        ["trace", "clear", x] => Ok(Command::TraceClear(x.to_string())),
        ["trace", "print", x] => Ok(Command::TracePrint(x.to_string())),
        ["trace", "full", x] => Ok(Command::TraceFull(x.to_string())),
        _ => Err(format!("unrecognized command: {line}")),
    }
}

/// One CASP-machine operation, carried by a direction packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaspOp {
    /// Read a variable into the result.
    ReadVar(u8),
    /// Write a variable.
    WriteVar(u8, u64),
    /// Increment a variable.
    Inc(u8),
    /// Arm the trace unit.
    TraceStart(u8, u64),
    /// Read a trace slot.
    TraceRead(u64),
    /// Read fill/overflow status.
    TraceStatus,
    /// Disarm the trace unit.
    TraceStop,
}

impl CaspOp {
    /// The wire opcode plus var/value arguments.
    pub fn encode(&self) -> (Opcode, u8, u64) {
        match *self {
            CaspOp::ReadVar(v) => (Opcode::ReadVar, v, 0),
            CaspOp::WriteVar(v, x) => (Opcode::WriteVar, v, x),
            CaspOp::Inc(v) => (Opcode::Increment, v, 0),
            CaspOp::TraceStart(v, d) => (Opcode::TraceStart, v, d),
            CaspOp::TraceRead(i) => (Opcode::TraceRead, 0, i),
            CaspOp::TraceStatus => (Opcode::TraceStatus, 0, 0),
            CaspOp::TraceStop => (Opcode::TraceStop, 0, 0),
        }
    }
}

/// Compiles a command into controller ops, resolving variable names via
/// the controller's var table. Commands without a hardware mapping
/// (watch/break/count/backtrace) return an empty program — they run on
/// the software target's observer instead.
pub fn compile(cmd: &Command, var_table: &[String]) -> Result<Vec<CaspOp>, String> {
    let idx = |name: &str| -> Result<u8, String> {
        var_table
            .iter()
            .position(|v| v == name)
            .map(|i| i as u8)
            .ok_or_else(|| format!("variable `{name}` not exported to the controller"))
    };
    Ok(match cmd {
        Command::Print(x) => vec![CaspOp::ReadVar(idx(x)?)],
        Command::Set(x, v) => vec![CaspOp::WriteVar(idx(x)?, *v)],
        Command::Increment(x) => vec![CaspOp::Inc(idx(x)?)],
        Command::TraceStart(x, d) => vec![CaspOp::TraceStart(idx(x)?, *d as u64)],
        Command::TraceStop(_) => vec![CaspOp::TraceStop],
        Command::TraceClear(x) => vec![CaspOp::TraceStop, CaspOp::TraceStart(idx(x)?, 0)],
        Command::TraceFull(_) | Command::TracePrint(_) => vec![CaspOp::TraceStatus],
        _ => Vec::new(),
    })
}

/// Labels a [`DirectionObserver`]'s backtrace keeps, newest last.
const BACKTRACE_DEPTH: usize = 32;

/// Software-target direction support: an [`Observer`] implementing
/// watchpoints, breakpoints, write/call counters and a label backtrace
/// of the last `BACKTRACE_DEPTH` labels.
#[derive(Debug, Default)]
pub struct DirectionObserver {
    /// Active watchpoints: var index → optional condition.
    pub watches: HashMap<u32, Option<Cond>>,
    /// Triggered watch events: (var index, old, new).
    pub watch_hits: Vec<(u32, u64, u64)>,
    /// Active breakpoints by label name.
    pub breaks: HashMap<String, Option<Cond>>,
    /// Labels whose breakpoints fired.
    pub break_hits: Vec<String>,
    /// Write counters per var index.
    pub write_counts: HashMap<u32, u64>,
    /// Call (label-crossing) counters.
    pub call_counts: HashMap<String, u64>,
    /// Rolling label history (the "function call stack" of `backtrace`).
    pub backtrace: Vec<String>,
}

impl DirectionObserver {
    /// Creates an observer with nothing watched, broken on or counted.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for DirectionObserver {
    fn on_assign(&mut self, var: u32, old: &emu_types::Bits, new: &emu_types::Bits) {
        *self.write_counts.entry(var).or_insert(0) += 1;
        if let Some(cond) = self.watches.get(&var) {
            let fire = cond.as_ref().is_none_or(|c| c.eval(new.to_u64()));
            if fire {
                self.watch_hits.push((var, old.to_u64(), new.to_u64()));
            }
        }
    }

    fn on_label(&mut self, name: &str) {
        *self.call_counts.entry(name.to_string()).or_insert(0) += 1;
        self.backtrace.push(name.to_string());
        if self.backtrace.len() > BACKTRACE_DEPTH {
            self.backtrace.remove(0);
        }
        if let Some(cond) = self.breaks.get(name) {
            if cond.is_none() {
                self.break_hits.push(name.to_string());
            }
        }
    }

    fn on_ext_point(&mut self, _id: u32, _state: &mut MachineState) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for line in LINES {
            let cmd = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let printed = cmd.to_string();
            let reparsed = parse(&printed).unwrap();
            assert_eq!(cmd, reparsed, "{line}");
        }
    }

    /// One line of every command form, with and without the optional
    /// parts.
    const LINES: [&str; 18] = [
        "print count",
        "set count 42",
        "increment count",
        "break rx",
        "break rx count > 5",
        "unbreak rx",
        "backtrace",
        "backtrace 8",
        "watch count",
        "watch count count == 3",
        "unwatch count",
        "count writes count",
        "count calls rx",
        "trace start count 16",
        "trace stop count",
        "trace clear count",
        "trace print count",
        "trace full count",
    ];

    /// One mutation of a valid line, chosen and placed by `pick`:
    /// flipped bits, a truncation, or a piece of another line spliced
    /// into it, over part of it, or a piece cut out of it.
    fn mutate(valid: &[u8], pick: &[u64]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        let at = |k: usize, n: usize| (pick[k % pick.len()] as usize) % n.max(1);
        match pick[0] % 3 {
            0 => {
                for k in 1..=1 + at(1, 8) {
                    let bit = at(k + 1, bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => bytes.truncate(at(1, bytes.len())),
            _ => {
                let other = LINES[at(1, LINES.len())].as_bytes();
                let src = at(2, other.len());
                let piece = other[src..src + at(3, other.len() - src + 1)].to_vec();
                let dst = at(4, bytes.len() + 1);
                match pick[5] % 3 {
                    0 => drop(bytes.splice(dst..dst, piece)),
                    1 => {
                        let end = (dst + piece.len()).min(bytes.len());
                        drop(bytes.splice(dst..end, piece));
                    }
                    _ => drop(bytes.drain(dst..dst + at(6, bytes.len() - dst + 1))),
                }
            }
        }
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The parser never panics and never runs long on a damaged
        /// line: it returns `Ok` or `Err`, and a command it accepts
        /// prints as a line that parses back to that same command.
        #[test]
        fn mutated_lines_parse_or_fail_cleanly(
            pick in proptest::collection::vec(proptest::prelude::any::<u64>(), 8..9)
        ) {
            let valid = LINES[(pick[7] % LINES.len() as u64) as usize];
            let bytes = mutate(valid.as_bytes(), &pick);
            let line = String::from_utf8_lossy(&bytes);
            let t = std::time::Instant::now();
            let parsed = parse(&line);
            proptest::prop_assert!(t.elapsed() < std::time::Duration::from_secs(1));
            if let Ok(cmd) = parsed {
                proptest::prop_assert_eq!(parse(&cmd.to_string()), Ok(cmd));
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("prynt x").is_err());
        assert!(parse("set x notanumber").is_err());
        assert!(parse("break rx count >").is_err());
        assert!(parse("count flops x").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn compile_maps_to_controller_ops() {
        let table = vec!["count".to_string(), "free".to_string()];
        assert_eq!(
            compile(&parse("print free").unwrap(), &table).unwrap(),
            vec![CaspOp::ReadVar(1)]
        );
        assert_eq!(
            compile(&parse("set count 9").unwrap(), &table).unwrap(),
            vec![CaspOp::WriteVar(0, 9)]
        );
        assert_eq!(
            compile(&parse("trace start count 32").unwrap(), &table).unwrap(),
            vec![CaspOp::TraceStart(0, 32)]
        );
        // Unknown variable.
        assert!(compile(&parse("print nope").unwrap(), &table).is_err());
        // Software-only commands compile to no packets.
        assert!(compile(&parse("watch count").unwrap(), &table)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cond_evaluation() {
        let c = Cond {
            var: "x".into(),
            op: ">=".into(),
            value: 10,
        };
        assert!(c.eval(10));
        assert!(c.eval(11));
        assert!(!c.eval(9));
    }

    #[test]
    fn observer_counts_and_watches() {
        use kiwi_ir::interp::Observer as _;
        let mut obs = DirectionObserver::new();
        obs.watches.insert(
            2,
            Some(Cond {
                var: "x".into(),
                op: ">".into(),
                value: 5,
            }),
        );
        obs.on_assign(
            2,
            &emu_types::Bits::from_u64(1, 32),
            &emu_types::Bits::from_u64(3, 32),
        );
        obs.on_assign(
            2,
            &emu_types::Bits::from_u64(3, 32),
            &emu_types::Bits::from_u64(9, 32),
        );
        assert_eq!(obs.write_counts[&2], 2);
        assert_eq!(obs.watch_hits.len(), 1);
        assert_eq!(obs.watch_hits[0], (2, 3, 9));

        obs.breaks.insert("rx".into(), None);
        obs.on_label("rx");
        obs.on_label("rx");
        assert_eq!(obs.call_counts["rx"], 2);
        assert_eq!(obs.break_hits.len(), 2);
        assert_eq!(obs.backtrace, vec!["rx", "rx"]);
    }

    #[test]
    fn every_observer_keeps_the_last_backtrace_depth_labels() {
        use kiwi_ir::interp::Observer as _;
        let mut obs = DirectionObserver::default();
        for i in 0..BACKTRACE_DEPTH + 8 {
            obs.on_label(&format!("l{i}"));
        }
        assert_eq!(obs.backtrace.len(), BACKTRACE_DEPTH);
        assert_eq!(obs.backtrace[0], "l8");
        assert_eq!(
            obs.backtrace[BACKTRACE_DEPTH - 1],
            format!("l{}", BACKTRACE_DEPTH + 7)
        );
    }
}
