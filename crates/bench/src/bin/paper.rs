//! Prints every cell of the paper's evaluation (§5) beside ours: Tables
//! 3–5, the §5.4 four-core speedup, the §5.3 ablation and the §5.6 tail
//! bounds, one line per cell, as `emu_bench::readings` measures them
//! and `every_paper_cell_holds` gates them.
//!
//! Run: `cargo run --release -p emu-bench --bin paper`

use emu_bench::{readings, Check};

/// Four significant figures or so, whatever the cell's magnitude.
fn num(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 100.0 => format!("{v:.1}"),
        a if a >= 10.0 => format!("{v:.2}"),
        _ => format!("{v:.3}"),
    }
}

fn main() {
    println!(
        "{:<8} {:<26} {:<36} {:>9} {:>9}  verdict",
        "artefact", "row", "column", "paper", "ours"
    );
    for r in readings().expect("measure") {
        let c = r.cell;
        let verdict = match r.verdict() {
            Ok(None) => match c.check {
                Check::Near(0.0) => "exact".to_string(),
                Check::Near(tol) => format!("near (±{} %)", tol * 100.0),
                Check::Below => "holds (below the paper's bound)".to_string(),
                Check::Above => "holds (above the paper's bound)".to_string(),
            },
            Ok(Some(d)) => format!("deviation ({})", d.why),
            Err(e) => format!("FAILS: {e}"),
        };
        println!(
            "{:<8} {:<26} {:<36} {:>9} {:>9}  {verdict}",
            c.artefact,
            c.row,
            c.column,
            num(c.paper),
            num(r.ours)
        );
    }
}
