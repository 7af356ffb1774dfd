//! Verilog emission: the final stage of the Kiwi flow (Figure 1, step B1).
//!
//! Each FSM thread becomes one `always @(posedge clk)` block. Within a
//! state, the op stream is symbolically executed: registers written earlier
//! in the cycle are *forward-substituted* into later reads, turning the
//! sequential pause-to-pause region into the parallel guarded non-blocking
//! assignments a synthesis tool expects. Branches accumulate path guards;
//! every leaving edge (pause, boundary, halt) records a guarded next-state.
//!
//! The emitted text is syntactically valid Verilog-2001. It is not run
//! here (no RTL simulator ships with this reproduction — `kiwi_ir::Core`
//! executes the same FSM natively, cycle by cycle), but the structure is
//! tested: balanced blocks, declared identifiers, complete state coverage.

use crate::fsm::{Fsm, FsmThread};
use kiwi_ir::ast::{BinOp, Expr, UnOp};
use kiwi_ir::flat::Op;
use kiwi_ir::program::{Program, SigDir};
use kiwi_ir::{IrError, IrResult};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Maximum within-cycle control paths before we refuse to emit (guards
/// against pathological branch fans; services in this repo stay < 64).
const MAX_PATHS: usize = 4096;

/// Emits a complete Verilog module for the compiled design.
pub fn emit(fsm: &Fsm) -> IrResult<String> {
    let prog = &fsm.prog;
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

    for (ti, t) in fsm.threads.iter().enumerate() {
        let state_bits = bits_for(t.state_count());
        let _ = writeln!(v, "  reg [{}:0] t{}_state;", state_bits.max(1) - 1, ti);
        for (pc, sid) in t.states() {
            let _ = writeln!(v, "  localparam T{}_S{} = {}; // pc {}", ti, sid, sid, pc);
        }
    }

    for (ti, t) in fsm.threads.iter().enumerate() {
        emit_thread(&mut v, prog, t, ti)?;
    }

    let _ = writeln!(v, "endmodule");
    Ok(v)
}

fn emit_thread(v: &mut String, prog: &Program, t: &FsmThread, ti: usize) -> IrResult<()> {
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
    let entry_sid = t.state_at(t.entry_pc).unwrap_or(0);
    let _ = writeln!(v, "      t{}_state <= T{}_S{};", ti, ti, entry_sid);
    let _ = writeln!(v, "    end else begin");
    let _ = writeln!(v, "      case (t{}_state)", ti);

    for (pc, sid) in t.states() {
        let _ = writeln!(v, "        T{}_S{}: begin", ti, sid);
        let paths = enumerate_paths(prog, t, pc)?;
        emit_state_body(v, prog, t, ti, &paths);
        let _ = writeln!(v, "        end");
    }

    let _ = writeln!(
        v,
        "        default: t{}_state <= T{}_S{};",
        ti, ti, entry_sid
    );
    let _ = writeln!(v, "      endcase");
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "  end");
    Ok(())
}

/// One within-cycle control path through a state.
struct Path {
    /// Conjunction of branch conditions taken (already substituted).
    guard: Vec<(Expr, bool)>,
    /// Final substituted register writes (last write per var).
    writes: Vec<(u32, Expr)>,
    /// Output-signal writes.
    sig_writes: Vec<(u32, Expr)>,
    /// Array writes, in order.
    arr_writes: Vec<(u32, Expr, Expr)>,
    /// Next state id, or `None` when the thread halts.
    next: Option<usize>,
}

/// Substitutes pending register writes into an expression (forward
/// substitution turning sequential reads-after-writes into combinational
/// feed-through).
fn subst(e: &Expr, env: &HashMap<u32, Expr>) -> Expr {
    match e {
        Expr::Const(_) | Expr::SigRead(_) => e.clone(),
        Expr::Var(vid) => env.get(&vid.0).cloned().unwrap_or_else(|| e.clone()),
        Expr::ArrRead(a, i) => Expr::ArrRead(*a, Arc::new(subst(i, env))),
        Expr::Un(op, x) => Expr::Un(*op, Arc::new(subst(x, env))),
        Expr::Bin(op, l, r) => Expr::Bin(*op, Arc::new(subst(l, env)), Arc::new(subst(r, env))),
        Expr::Mux(c, t, f) => Expr::Mux(
            Arc::new(subst(c, env)),
            Arc::new(subst(t, env)),
            Arc::new(subst(f, env)),
        ),
        Expr::Slice(x, hi, lo) => Expr::Slice(Arc::new(subst(x, env)), *hi, *lo),
        Expr::Concat(l, r) => Expr::Concat(Arc::new(subst(l, env)), Arc::new(subst(r, env))),
        Expr::Resize(x, w) => Expr::Resize(Arc::new(subst(x, env)), *w),
    }
}

fn enumerate_paths(_prog: &Program, t: &FsmThread, start: usize) -> IrResult<Vec<Path>> {
    let mut done = Vec::new();
    // (pc, guard, env, sig_writes, arr_writes, steps)
    #[allow(clippy::type_complexity)]
    let mut work: Vec<(
        usize,
        Vec<(Expr, bool)>,
        HashMap<u32, Expr>,
        Vec<(u32, Expr)>,
        Vec<(u32, Expr, Expr)>,
    )> = vec![(start, Vec::new(), HashMap::new(), Vec::new(), Vec::new())];
    let mut first = true;

    while let Some((mut pc, mut guard, mut env, mut sigw, mut arrw)) = work.pop() {
        if done.len() + work.len() > MAX_PATHS {
            return Err(IrError(format!(
                "state at pc {start} exceeds {MAX_PATHS} control paths"
            )));
        }
        let starting = first;
        first = false;
        let mut steps = 0usize;
        loop {
            // Arriving at another state boundary ends the cycle.
            if (steps > 0 || !starting) && t.is_boundary(pc) && pc != start || steps > t.ops.len() {
                if t.is_boundary(pc) {
                    done.push(Path {
                        guard,
                        writes: env.into_iter().collect(),
                        sig_writes: sigw,
                        arr_writes: arrw,
                        next: t.state_at(pc),
                    });
                    break;
                }
                return Err(IrError(format!("non-terminating path from pc {start}")));
            }
            if steps > 0 && pc == start && t.is_boundary(pc) {
                // Came back around to our own header: 1-cycle loop.
                done.push(Path {
                    guard,
                    writes: env.into_iter().collect(),
                    sig_writes: sigw,
                    arr_writes: arrw,
                    next: t.state_at(pc),
                });
                break;
            }
            steps += 1;
            match &t.ops[pc] {
                Op::Assign(d, e) => {
                    let e2 = subst(e, &env);
                    env.insert(d.0, e2);
                    pc += 1;
                }
                Op::ArrWrite(a, i, val) => {
                    arrw.push((a.0, subst(i, &env), subst(val, &env)));
                    pc += 1;
                }
                Op::SigWrite(s, e) => {
                    let e2 = subst(e, &env);
                    sigw.retain(|(sid, _)| *sid != s.0);
                    sigw.push((s.0, e2));
                    pc += 1;
                }
                Op::Branch(c, if_false) => {
                    let c2 = subst(c, &env);
                    let mut g_false = guard.clone();
                    g_false.push((c2.clone(), false));
                    work.push((*if_false, g_false, env.clone(), sigw.clone(), arrw.clone()));
                    guard.push((c2, true));
                    pc += 1;
                }
                Op::Jump(tgt) => pc = *tgt,
                Op::Label(_) | Op::ExtPoint(_) => pc += 1,
                Op::Pause => {
                    let next_pc = t.resolve(pc + 1);
                    done.push(Path {
                        guard,
                        writes: env.into_iter().collect(),
                        sig_writes: sigw,
                        arr_writes: arrw,
                        next: t.state_at(next_pc),
                    });
                    break;
                }
                Op::Halt => {
                    done.push(Path {
                        guard,
                        writes: env.into_iter().collect(),
                        sig_writes: sigw,
                        arr_writes: arrw,
                        next: None,
                    });
                    break;
                }
            }
        }
    }
    Ok(done)
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

fn emit_state_body(v: &mut String, prog: &Program, _t: &FsmThread, ti: usize, paths: &[Path]) {
    for p in paths {
        let g = guard_text(prog, &p.guard);
        let mut body = String::new();
        let mut writes = p.writes.clone();
        writes.sort_by_key(|(vid, _)| *vid);
        for (vid, e) in &writes {
            let name = prog
                .var(kiwi_ir::VarId(*vid))
                .map(|d| sanitize(&d.name))
                .unwrap_or_default();
            let _ = writeln!(body, "            {} <= {};", name, vexpr(prog, e));
        }
        for (sid, e) in &p.sig_writes {
            let name = prog
                .signal(kiwi_ir::SigId(*sid))
                .map(|d| sanitize(&d.name))
                .unwrap_or_default();
            let _ = writeln!(body, "            {} <= {};", name, vexpr(prog, e));
        }
        for (aid, i, val) in &p.arr_writes {
            let name = prog
                .array(kiwi_ir::ArrId(*aid))
                .map(|d| sanitize(&d.name))
                .unwrap_or_default();
            let _ = writeln!(
                body,
                "            {}[{}] <= {};",
                name,
                vexpr(prog, i),
                vexpr(prog, val)
            );
        }
        match p.next {
            Some(sid) => {
                let _ = writeln!(body, "            t{}_state <= T{}_S{};", ti, ti, sid);
            }
            None => {
                let _ = writeln!(body, "            t{}_state <= t{}_state; // halt", ti, ti);
            }
        }
        let _ = writeln!(v, "          if ({g}) begin");
        v.push_str(&body);
        let _ = writeln!(v, "          end");
    }
    if paths.is_empty() {
        let _ = writeln!(v, "          // unreachable state");
    }
}

/// Renders an expression as Verilog. Slices become shift-and-mask so that
/// arbitrary sub-expressions stay legal; resizes become masks.
fn vexpr(prog: &Program, e: &Expr) -> String {
    match e {
        Expr::Const(b) => b.to_string(),
        Expr::Var(vid) => prog
            .var(*vid)
            .map(|d| sanitize(&d.name))
            .unwrap_or_default(),
        Expr::SigRead(s) => prog
            .signal(*s)
            .map(|d| sanitize(&d.name))
            .unwrap_or_default(),
        Expr::ArrRead(a, i) => format!(
            "{}[{}]",
            prog.array(*a)
                .map(|d| sanitize(&d.name))
                .unwrap_or_default(),
            vexpr(prog, i)
        ),
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
