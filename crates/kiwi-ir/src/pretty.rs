//! The expression printer behind the compiled image's micro-op listing
//! (`EMU_CPU_DUMP_MOPS=1`), where an op handed to the reference `eval`
//! shows its expression.

use crate::ast::{BinOp, Expr, UnOp};
use crate::program::Program;

/// Renders an expression as a compact infix string.
pub(crate) fn expr_to_string(e: &Expr, prog: &Program) -> String {
    match e {
        Expr::Const(b) => b.to_string(),
        Expr::Var(v) => prog
            .var(*v)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("?v{}", v.0)),
        Expr::ArrRead(a, i) => format!(
            "{}[{}]",
            prog.array(*a)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| format!("?a{}", a.0)),
            expr_to_string(i, prog)
        ),
        Expr::SigRead(s) => format!(
            "${}",
            prog.signal(*s)
                .map(|d| d.name.clone())
                .unwrap_or_else(|| format!("?s{}", s.0))
        ),
        Expr::Un(op, e) => {
            let sym = match op {
                UnOp::Not => "~",
                UnOp::Neg => "-",
                UnOp::RedOr => "|",
            };
            format!("{sym}({})", expr_to_string(e, prog))
        }
        Expr::Bin(op, l, r) => {
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
            format!(
                "({} {sym} {})",
                expr_to_string(l, prog),
                expr_to_string(r, prog)
            )
        }
        Expr::Mux(c, t, e2) => format!(
            "({} ? {} : {})",
            expr_to_string(c, prog),
            expr_to_string(t, prog),
            expr_to_string(e2, prog)
        ),
        Expr::Slice(e, hi, lo) => format!("{}[{hi}:{lo}]", expr_to_string(e, prog)),
        Expr::Concat(h, l) => format!(
            "{{{}, {}}}",
            expr_to_string(h, prog),
            expr_to_string(l, prog)
        ),
        Expr::Resize(e, w) => format!("{}'({})", w, expr_to_string(e, prog)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn expr_rendering_covers_forms() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.reg("a", 16);
        let p = pb.build().unwrap();
        let e = mux(
            eq(var(a), lit(3, 16)),
            concat(slice(var(a), 15, 8), lit(0, 8)),
            resize(neg(var(a)), 16),
        );
        let s = expr_to_string(&e, &p);
        assert!(s.contains('?'));
        assert!(s.contains("a[15:8]"));
        assert!(s.contains("16'("));
    }
}
