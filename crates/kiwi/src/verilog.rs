//! Verilog emission: the final stage of the Kiwi flow (Figure 1, step B1).
//!
//! Emission is two steps. [`lower`] turns the FSM into an [`RtlTable`]:
//! for each thread and state, the [`Row`]s of guarded non-blocking
//! assignments one clock edge performs. Within a state the op stream is
//! symbolically executed: registers, array elements and outputs written
//! earlier in the cycle are *forward-substituted* into later reads, so
//! every expression in a row reads pre-edge values; branches accumulate
//! the row's guard, and a row ends exactly where the FSM machine
//! (`kiwi_ir::fsm::step_thread`) ends a cycle. [`print()`] is a walk of the
//! table, one `always @(posedge clk)` block per thread.
//!
//! The emitted text is syntactically valid Verilog-2001, and its structure
//! is tested here: balanced blocks, declared identifiers, complete state
//! coverage. No RTL simulator ships with this reproduction, so the text is
//! not run, but the table it prints is: `tests/verilog_lockstep.rs`
//! evaluates it with Verilog's non-blocking semantics beside
//! `kiwi_ir::Core` on the FSM, on every cycle of every shipped service.

use crate::fsm::{Fsm, FsmThread};
use kiwi_ir::ast::{BinOp, Expr, UnOp};
use kiwi_ir::flat::Op;
use kiwi_ir::program::{ArrId, Program, SigDir, SigId, VarId};
use kiwi_ir::{IrError, IrResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Maximum within-cycle control paths before we refuse to emit (guards
/// against pathological branch fans; the largest state of a shipped
/// service has 13).
const MAX_PATHS: usize = 4096;

/// A lowered design: per thread and state, what one clock edge assigns.
/// It borrows the program's declarations, so [`print()`] needs nothing else.
#[derive(Debug, Clone)]
pub struct RtlTable<'a> {
    /// Declarations (registers, arrays, signals).
    pub prog: &'a Program,
    /// One entry per FSM thread.
    pub threads: Vec<RtlThread<'a>>,
}

/// One thread of an [`RtlTable`].
#[derive(Debug, Clone)]
pub struct RtlThread<'a> {
    /// Thread name.
    pub name: &'a str,
    /// The state the thread resets into.
    pub entry: usize,
    /// Per state, by state number: the pc it begins at and its rows, of
    /// which exactly one's guard holds on any pre-edge state.
    pub states: Vec<(usize, Vec<Row>)>,
}

/// One control path through a state: the guarded non-blocking
/// assignments of one clock edge. Every expression reads pre-edge values.
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// The branch conditions on the path, each with the outcome taken.
    pub guard: Vec<(Expr, bool)>,
    /// The last write to each register.
    pub regs: BTreeMap<VarId, Expr>,
    /// The last write to each output signal, in the order of those writes.
    pub sigs: Vec<(SigId, Expr)>,
    /// Array writes as `(array, index, value)`, in order.
    pub arrs: Vec<(ArrId, Expr, Expr)>,
    /// The next state, or `None` when the thread halts.
    pub next: Option<usize>,
}

/// Emits a complete Verilog module for the compiled design.
pub fn emit(fsm: &Fsm) -> IrResult<String> {
    Ok(print(&lower(fsm)?))
}

/// Lowers every state of every thread of `fsm` to its rows.
pub fn lower(fsm: &Fsm) -> IrResult<RtlTable<'_>> {
    let threads = fsm.threads.iter().map(|t| {
        let states = t
            .states()
            .map(|(pc, _)| Ok((pc, lower_state(&fsm.prog, t, pc)?)));
        Ok(RtlThread {
            name: &t.name,
            entry: t.state_at(t.entry_pc).unwrap_or(0),
            states: states.collect::<IrResult<_>>()?,
        })
    });
    Ok(RtlTable {
        prog: &fsm.prog,
        threads: threads.collect::<IrResult<_>>()?,
    })
}

/// The rows of the state beginning at `start`: every path from it to
/// where the FSM machine ends the cycle — a `Pause`, a `Halt`, a pc past
/// the last op, or a state start reached after at least one op.
fn lower_state(prog: &Program, t: &FsmThread, start: usize) -> IrResult<Vec<Row>> {
    let mut done = Vec::new();
    // (pc, ops taken, the row so far)
    let mut work = vec![(start, 0, Row::default())];
    while let Some((mut pc, mut steps, mut row)) = work.pop() {
        if done.len() + work.len() > MAX_PATHS {
            return Err(IrError(format!(
                "state at pc {start} exceeds {MAX_PATHS} control paths"
            )));
        }
        row.next = loop {
            if steps > 0 && t.is_boundary(pc) {
                break t.state_at(pc);
            }
            if steps > t.ops.len() {
                return Err(IrError(format!("non-terminating path from pc {start}")));
            }
            steps += 1;
            let Some(op) = t.ops.get(pc) else { break None };
            match op {
                Op::Assign(d, e) => {
                    let e = row.subst(prog, e);
                    row.regs.insert(*d, e);
                }
                Op::ArrWrite(a, i, val) => {
                    let w = (*a, row.subst(prog, i), row.subst(prog, val));
                    row.arrs.push(w);
                }
                Op::SigWrite(s, e) => {
                    let e = row.subst(prog, e);
                    row.sigs.retain(|(id, _)| id != s);
                    row.sigs.push((*s, e));
                }
                Op::Branch(c, if_false) => {
                    let c = row.subst(prog, c);
                    let mut other = row.clone();
                    other.guard.push((c.clone(), false));
                    work.push((*if_false, steps, other));
                    row.guard.push((c, true));
                }
                Op::Jump(tgt) => {
                    pc = *tgt;
                    continue;
                }
                Op::Label(_) | Op::ExtPoint(_) => {}
                Op::Pause => break t.state_at(t.resolve(pc + 1)),
                Op::Halt => break None,
            }
            pc += 1;
        };
        done.push(row);
    }
    Ok(done)
}

impl Row {
    /// `e` with this row's pending writes forwarded into its reads, so it
    /// reads pre-edge values only. A read of an array element becomes a
    /// mux over the pending writes to that array, the latest outermost;
    /// a write whose index and the read's are distinct constants is
    /// skipped.
    fn subst(&self, prog: &Program, e: &Expr) -> Expr {
        let sub = |x: &Arc<Expr>| Arc::new(self.subst(prog, x));
        match e {
            Expr::Const(_) => e.clone(),
            Expr::Var(r) => match self.regs.get(r) {
                Some(w) => written(prog, e, w),
                None => e.clone(),
            },
            Expr::SigRead(s) => match self.sigs.iter().find(|(id, _)| id == s) {
                Some((_, w)) => written(prog, e, w),
                None => e.clone(),
            },
            Expr::ArrRead(a, i) => {
                let i = sub(i);
                let read = Expr::ArrRead(*a, i.clone());
                let writes = self.arrs.iter().filter(|(b, ..)| b == a);
                writes.fold(read.clone(), |older, (_, at, val)| match (&*i, at) {
                    (Expr::Const(x), Expr::Const(y)) if x.cmp_u(y).is_ne() => older,
                    _ => Expr::Mux(
                        Arc::new(Expr::Bin(BinOp::Eq, i.clone(), Arc::new(at.clone()))),
                        Arc::new(written(prog, &read, val)),
                        Arc::new(older),
                    ),
                })
            }
            Expr::Un(op, x) => Expr::Un(*op, sub(x)),
            Expr::Bin(op, l, r) => Expr::Bin(*op, sub(l), sub(r)),
            Expr::Mux(c, t, f) => Expr::Mux(sub(c), sub(t), sub(f)),
            Expr::Slice(x, hi, lo) => Expr::Slice(sub(x), *hi, *lo),
            Expr::Concat(l, r) => Expr::Concat(sub(l), sub(r)),
            Expr::Resize(x, w) => Expr::Resize(sub(x), *w),
        }
    }
}

/// `val` as the location `read` names holds it once written: cut or
/// zero-extended to the location's width.
fn written(prog: &Program, read: &Expr, val: &Expr) -> Expr {
    match (read.width(prog), val.width(prog)) {
        (Ok(w), Ok(v)) if w != v => Expr::Resize(Arc::new(val.clone()), w),
        _ => val.clone(),
    }
}

/// Prints a lowered design as one Verilog module.
pub fn print(table: &RtlTable) -> String {
    let prog = table.prog;
    let mut v = String::new();
    let _ = writeln!(v, "// Generated by kiwi (Emu reproduction) — do not edit.");
    let _ = writeln!(v, "// Program: {}", prog.name);
    let _ = writeln!(v, "module {} (", sanitize(&prog.name));
    let _ = writeln!(v, "    input  wire clk,");
    let _ = write!(v, "    input  wire rst");
    for s in prog.signals() {
        let range = range_of(s.width);
        match s.dir {
            SigDir::In => {
                let _ = write!(v, ",\n    input  wire {range}{}", sanitize(&s.name));
            }
            SigDir::Out => {
                let _ = write!(v, ",\n    output reg  {range}{}", sanitize(&s.name));
            }
        }
    }
    let _ = writeln!(v, "\n);");

    for d in prog.vars() {
        let _ = writeln!(v, "  reg {}{};", range_of(d.width), sanitize(&d.name));
    }
    for a in prog.arrays() {
        let _ = writeln!(
            v,
            "  reg {}{} [0:{}];",
            range_of(a.elem_width),
            sanitize(&a.name),
            a.len - 1
        );
    }

    for (ti, t) in table.threads.iter().enumerate() {
        // One past the last state is the halt state, which the width
        // `bits_for(n)` of a register numbering states `0..=n` holds.
        let halt = t.states.len();
        let _ = writeln!(v, "  reg [{}:0] t{ti}_state;", bits_for(halt) - 1);
        for (sid, (pc, _)) in t.states.iter().enumerate() {
            let _ = writeln!(v, "  localparam T{ti}_S{sid} = {sid}; // pc {pc}");
        }
        let _ = writeln!(v, "  localparam T{ti}_HALT = {halt};");
    }

    for (ti, t) in table.threads.iter().enumerate() {
        print_thread(&mut v, prog, t, ti);
    }

    let _ = writeln!(v, "endmodule");
    v
}

fn print_thread(v: &mut String, prog: &Program, t: &RtlThread, ti: usize) {
    let _ = writeln!(v, "  // thread {}", t.name);
    let _ = writeln!(v, "  always @(posedge clk) begin");
    let _ = writeln!(v, "    if (rst) begin");
    for d in prog.vars() {
        let _ = writeln!(v, "      {} <= {};", sanitize(&d.name), d.init);
    }
    for s in prog.signals() {
        if s.dir == SigDir::Out {
            let _ = writeln!(v, "      {} <= {};", sanitize(&s.name), s.init);
        }
    }
    let _ = writeln!(v, "      t{ti}_state <= T{ti}_S{};", t.entry);
    let _ = writeln!(v, "    end else begin");
    let _ = writeln!(v, "      case (t{ti}_state)");

    for (sid, (_, rows)) in t.states.iter().enumerate() {
        let _ = writeln!(v, "        T{ti}_S{sid}: begin");
        for row in rows {
            let _ = writeln!(v, "          if ({}) begin", guard_text(prog, &row.guard));
            // Each target printed as the read of it: `name` or `name[index]`.
            let regs = row.regs.iter().map(|(r, e)| (Expr::Var(*r), e));
            let sigs = row.sigs.iter().map(|(s, e)| (Expr::SigRead(*s), e));
            let arrs = row
                .arrs
                .iter()
                .map(|(a, i, e)| (Expr::ArrRead(*a, i.clone().into()), e));
            for (target, e) in regs.chain(sigs).chain(arrs) {
                let (target, e) = (vexpr(prog, &target), vexpr(prog, e));
                let _ = writeln!(v, "            {target} <= {e};");
            }
            let _ = match row.next {
                Some(sid) => writeln!(v, "            t{ti}_state <= T{ti}_S{sid};"),
                None => writeln!(v, "            t{ti}_state <= T{ti}_HALT;"),
            };
            let _ = writeln!(v, "          end");
        }
        if rows.is_empty() {
            let _ = writeln!(v, "          // unreachable state");
        }
        let _ = writeln!(v, "        end");
    }

    let _ = writeln!(v, "        T{ti}_HALT: ; // halted: no row fires");
    let _ = writeln!(v, "        default: t{ti}_state <= T{ti}_S{};", t.entry);
    let _ = writeln!(v, "      endcase");
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "  end");
}

fn guard_text(prog: &Program, guard: &[(Expr, bool)]) -> String {
    if guard.is_empty() {
        return "1'b1".to_string();
    }
    guard
        .iter()
        .map(|(c, taken)| {
            let c = vexpr(prog, c);
            if *taken {
                format!("(|({c}))")
            } else {
                format!("(!(|({c})))")
            }
        })
        .collect::<Vec<_>>()
        .join(" && ")
}

/// Renders an expression as Verilog. Slices become shift-and-mask so that
/// arbitrary sub-expressions stay legal; resizes become masks.
fn vexpr(prog: &Program, e: &Expr) -> String {
    match e {
        Expr::Const(b) => b.to_string(),
        Expr::Var(r) => sanitize(prog.var(*r).map_or("", |d| &d.name)),
        Expr::SigRead(s) => sanitize(prog.signal(*s).map_or("", |d| &d.name)),
        Expr::ArrRead(a, i) => {
            let name = sanitize(prog.array(*a).map_or("", |d| &d.name));
            format!("{name}[{}]", vexpr(prog, i))
        }
        Expr::Un(op, x) => match op {
            UnOp::Not => format!("(~{})", vexpr(prog, x)),
            UnOp::Neg => format!("(-{})", vexpr(prog, x)),
            UnOp::RedOr => format!("(|{})", vexpr(prog, x)),
        },
        Expr::Bin(op, l, r) => {
            // The IR shift rule (see `kiwi_ir::ast::BinOp`): the result
            // keeps the *left* operand's width. Verilog context-widens
            // the left operand of `<<` to the surrounding expression
            // width, which would retain bits the IR discards, so the
            // emitter masks the shift back to `width(lhs)`. `>>` needs
            // no mask: zero-extension cannot add low bits.
            if *op == BinOp::Shl {
                let wl = l.width(prog).unwrap_or(emu_types::bits::MAX_WIDTH);
                let mask = emu_types::Bits::zero(wl).not();
                return format!("((({}) << ({})) & {mask})", vexpr(prog, l), vexpr(prog, r));
            }
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::And => "&",
                BinOp::Or => "|",
                BinOp::Xor => "^",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
            };
            format!("({} {sym} {})", vexpr(prog, l), vexpr(prog, r))
        }
        Expr::Mux(c, t, f) => format!(
            "((|{}) ? {} : {})",
            vexpr(prog, c),
            vexpr(prog, t),
            vexpr(prog, f)
        ),
        Expr::Slice(x, hi, lo) => {
            let w = hi - lo + 1;
            let mask = emu_types::Bits::zero(w).not();
            format!("(({} >> {lo}) & {mask})", vexpr(prog, x))
        }
        Expr::Concat(l, r) => {
            // Verilog `{}` concat needs self-determined widths; shift-or is
            // always safe for expression operands.
            let rw = r.width(prog).unwrap_or(0);
            format!("(({} << {rw}) | {})", vexpr(prog, l), vexpr(prog, r))
        }
        Expr::Resize(x, w) => {
            let mask = emu_types::Bits::zero(*w).not();
            format!("({} & {mask})", vexpr(prog, x))
        }
    }
}

fn range_of(w: u16) -> String {
    if w == 1 {
        "".to_string()
    } else {
        format!("[{}:0] ", w - 1)
    }
}

fn bits_for(n: usize) -> u32 {
    (usize::BITS - n.max(1).leading_zeros()).max(1)
}

/// Verilog-2001 reserved words that legal C#/IR identifiers can collide
/// with (the ICMP service has a register called `end`).
const VERILOG_KEYWORDS: &[&str] = &[
    "always",
    "begin",
    "case",
    "end",
    "endcase",
    "endmodule",
    "if",
    "input",
    "module",
    "output",
    "reg",
    "wire",
    "assign",
    "else",
    "for",
    "function",
    "initial",
    "localparam",
    "parameter",
    "posedge",
    "negedge",
    "signed",
    "table",
    "task",
    "while",
];

fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    if VERILOG_KEYWORDS.contains(&out.as_str()) {
        out = format!("v_{out}");
    }
    out
}

/// Structural lint for generated Verilog used by tests: balanced
/// begin/end, module/endmodule pairing, and case coverage.
pub fn lint(text: &str) -> IrResult<()> {
    let begins = text.split_whitespace().filter(|w| *w == "begin").count();
    let ends = text
        .split_whitespace()
        .filter(|w| *w == "end" || w.starts_with("end;"))
        .count();
    if begins != ends {
        return Err(IrError(format!("unbalanced begin({begins})/end({ends})")));
    }
    let cases = text.matches("case (").count();
    let endcases = text.matches("endcase").count();
    if cases != endcases {
        return Err(IrError("unbalanced case/endcase".into()));
    }
    if text.matches("module ").count() != text.matches("endmodule").count() {
        return Err(IrError("unbalanced module/endmodule".into()));
    }
    if text.contains("18446744073709551615") {
        return Err(IrError("unpatched jump target leaked into output".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{schedule, CostModel};
    use kiwi_ir::dsl::*;
    use kiwi_ir::flat::flatten;
    use kiwi_ir::program::{ArrayBacking, ProgramBuilder};

    fn compile(pb: ProgramBuilder) -> Fsm {
        schedule(
            &flatten(&pb.build().unwrap()).unwrap(),
            CostModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn shl_is_masked_to_left_operand_width() {
        // The IR shift rule: shl keeps width(lhs). Emitted Verilog must
        // mask the shift so context widening cannot retain bits the IR
        // discards; shr needs no mask.
        let mut pb = ProgramBuilder::new("shifts");
        let a = pb.reg("a", 8);
        let b = pb.reg("left_dst", 32);
        let c = pb.reg("right_dst", 32);
        pb.thread(
            "main",
            vec![
                assign(b, resize(shl(var(a), lit(1, 16)), 32)),
                assign(c, resize(shr(var(a), lit(1, 16)), 32)),
                halt(),
            ],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        assert!(
            text.contains("(((a) << (16'h1)) & 8'hff)"),
            "shl must truncate to width(lhs):\n{text}"
        );
        assert!(text.contains("(a >> 16'h1)"), "shr stays unmasked:\n{text}");
    }

    #[test]
    fn counter_module_emits() {
        let mut pb = ProgramBuilder::new("counter");
        let c = pb.reg("c", 32);
        pb.thread(
            "main",
            vec![forever(vec![assign(c, add(var(c), lit(1, 32))), pause()])],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        assert!(text.contains("module counter"));
        assert!(text.contains("reg [31:0] c;"));
        assert!(text.contains("c <= (c + 32'h1);"));
        assert!(text.contains("always @(posedge clk)"));
    }

    #[test]
    fn forward_substitution_feeds_later_reads() {
        // b must read the *new* value of a within the same cycle.
        let mut pb = ProgramBuilder::new("fwd");
        let a = pb.reg("a", 8);
        let b = pb.reg("b", 8);
        pb.thread(
            "main",
            vec![
                assign(a, lit(5, 8)),
                assign(b, add(var(a), lit(1, 8))),
                halt(),
            ],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        // After substitution b's RHS contains the literal 5, not `a`.
        assert!(text.contains("b <= (8'h5 + 8'h1);"), "emitted:\n{text}");
    }

    #[test]
    fn array_writes_feed_later_reads_of_the_array() {
        // A read after writes to its array is a mux over them, the latest
        // outermost; a write at another constant index is skipped, and the
        // written value is cut to the element width.
        let mut pb = ProgramBuilder::new("fwd_arr");
        let t = pb.array("t", 8, 4, ArrayBacking::BlockRam);
        let (i, j) = (pb.reg("i", 2), pb.reg("j", 2));
        let (y, z) = (pb.reg("y", 8), pb.reg("z", 8));
        pb.thread(
            "main",
            vec![
                arr_write(t, var(i), lit(0x107, 16)),
                arr_write(t, lit(1, 2), lit(9, 8)),
                assign(y, arr_read(t, var(j))),
                assign(z, arr_read(t, lit(2, 2))),
                halt(),
            ],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        let latest = "((|(j == 2'h1)) ? 8'h9 : ((|(j == i)) ? (16'h107 & 8'hff) : t[j]))";
        assert!(text.contains(&format!("y <= {latest};")), "{text}");
        let at_2 = "((|(2'h2 == i)) ? (16'h107 & 8'hff) : t[2'h2])";
        assert!(text.contains(&format!("z <= {at_2};")), "{text}");
    }

    #[test]
    fn output_writes_feed_later_reads_of_the_output() {
        let mut pb = ProgramBuilder::new("fwd_sig");
        let o = pb.sig_out("o", 8);
        let r = pb.reg("r", 8);
        pb.thread(
            "main",
            vec![
                sig_write(o, lit(0x105, 12)),
                assign(r, add(sig(o), lit(1, 8))),
                halt(),
            ],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        assert!(text.contains("r <= ((12'h105 & 8'hff) + 8'h1);"), "{text}");
    }

    #[test]
    fn a_halting_row_parks_the_thread_in_a_state_with_no_rows() {
        // `c := c + 1; halt` counts once, as the FSM does: the row that
        // halts leaves for a state that assigns nothing, instead of
        // re-firing on every later clock.
        let mut pb = ProgramBuilder::new("once");
        let c = pb.reg("c", 8);
        pb.thread("main", vec![assign(c, add(var(c), lit(1, 8))), halt()]);
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        assert!(text.contains("localparam T0_HALT = 1;"), "{text}");
        assert!(
            text.contains("c <= (c + 8'h1);\n            t0_state <= T0_HALT;"),
            "{text}"
        );
        assert!(
            text.contains("        T0_HALT: ; // halted: no row fires\n"),
            "{text}"
        );
        assert!(!text.contains("t0_state <= t0_state"), "{text}");
    }

    #[test]
    fn branches_become_guards() {
        let mut pb = ProgramBuilder::new("guards");
        let a = pb.reg("a", 8);
        let rdy = pb.sig_in("rdy", 1);
        pb.thread(
            "main",
            vec![forever(vec![
                if_else(
                    sig(rdy),
                    vec![assign(a, lit(1, 8))],
                    vec![assign(a, lit(2, 8))],
                ),
                pause(),
            ])],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        assert!(text.contains("(|(rdy))"), "emitted:\n{text}");
        assert!(text.contains("(!(|(rdy)))"), "emitted:\n{text}");
    }

    #[test]
    fn ports_and_arrays_declared() {
        let mut pb = ProgramBuilder::new("io");
        let t = pb.array("tab", 16, 256, ArrayBacking::BlockRam);
        let din = pb.sig_in("din", 16);
        let dout = pb.sig_out("dout", 16);
        pb.thread(
            "main",
            vec![forever(vec![
                arr_write(t, lit(0, 8), sig(din)),
                sig_write(dout, arr_read(t, lit(0, 8))),
                pause(),
            ])],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        assert!(text.contains("input  wire [15:0] din"));
        assert!(text.contains("output reg  [15:0] dout"));
        assert!(text.contains("reg [15:0] tab [0:255];"));
        assert!(text.contains("tab[8'h0] <="));
    }

    #[test]
    fn multi_state_case_arms() {
        let mut pb = ProgramBuilder::new("steps");
        let a = pb.reg("a", 8);
        pb.thread(
            "main",
            vec![forever(vec![
                assign(a, lit(1, 8)),
                pause(),
                assign(a, lit(2, 8)),
                pause(),
            ])],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        assert!(text.contains("T0_S0"));
        assert!(text.contains("T0_S1"));
    }

    #[test]
    fn wide_literals_render() {
        let mut pb = ProgramBuilder::new("wide");
        let a = pb.reg("a", 256);
        pb.thread(
            "main",
            vec![
                assign(a, lit_bits(emu_types::Bits::one(256).shl(200))),
                halt(),
            ],
        );
        let text = emit(&compile(pb)).unwrap();
        lint(&text).unwrap();
        assert!(text.contains("reg [255:0] a;"));
        assert!(text.contains("256'h"));
    }

    #[test]
    fn lint_catches_imbalance() {
        assert!(lint("module x (); begin end endmodule").is_ok());
        assert!(lint("module x (); begin endmodule").is_err());
        assert!(lint("module x (); case (y) endcase case (z)").is_err());
    }
}
