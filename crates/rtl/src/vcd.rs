//! Value-change-dump (VCD) trace writer.
//!
//! Emu's debugging story (§2, §3.5) includes inspecting runtime behaviour
//! without an RTL-level simulator; dumping register traffic in the VCD
//! format lets any standard waveform viewer display a run of the
//! cycle-accurate simulator. The writer records every register and every
//! signal, input and output, each sampled cycle, emitting changes only.

use emu_types::Bits;
use kiwi_ir::interp::MachineState;
use kiwi_ir::program::Program;
use std::fmt::Write as _;

/// Incremental VCD writer over a program's registers and signals.
pub struct VcdTrace {
    header: String,
    body: String,
    ids: Vec<(String, u16)>, // (vcd id, width) per tracked slot
    last: Vec<Option<Bits>>,
}

fn vcd_id(i: usize) -> String {
    // Printable identifier alphabet per the VCD spec.
    let mut n = i;
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

impl VcdTrace {
    /// Creates a trace for `prog`, writing declarations for every register
    /// and every signal.
    pub fn new(prog: &Program, timescale_ns: f64) -> Self {
        let mut header = String::new();
        let _ = writeln!(header, "$date Emu reproduction trace $end");
        let _ = writeln!(header, "$timescale {}ns $end", timescale_ns.max(1.0) as u64);
        let _ = writeln!(header, "$scope module {} $end", prog.name);
        let mut ids = Vec::new();
        for v in prog.vars() {
            let id = vcd_id(ids.len());
            let _ = writeln!(header, "$var reg {} {} {} $end", v.width, id, v.name);
            ids.push((id, v.width));
        }
        for s in prog.signals() {
            let id = vcd_id(ids.len());
            let _ = writeln!(header, "$var wire {} {} {} $end", s.width, id, s.name);
            ids.push((id, s.width));
        }
        let _ = writeln!(header, "$upscope $end");
        let _ = writeln!(header, "$enddefinitions $end");
        let last = vec![None; ids.len()];
        VcdTrace {
            header,
            body: String::new(),
            ids,
            last,
        }
    }

    fn emit_value(body: &mut String, id: &str, width: u16, v: &Bits) {
        if width == 1 {
            let _ = writeln!(body, "{}{}", u64::from(v.to_bool()), id);
        } else {
            let mut bits = String::with_capacity(usize::from(width));
            for i in (0..width).rev() {
                bits.push(if v.bit(i) { '1' } else { '0' });
            }
            let _ = writeln!(body, "b{bits} {id}");
        }
    }

    /// Samples the machine state at `cycle`, appending changes.
    pub fn sample(&mut self, cycle: u64, st: &MachineState) {
        let mut stamp_written = false;
        let (regs, sigs) = (st.regs(), st.sigs());
        let values = regs.iter().chain(&sigs);
        for (((id, width), last), v) in self.ids.iter().zip(&mut self.last).zip(values) {
            if last.as_ref() != Some(v) {
                if !stamp_written {
                    let _ = writeln!(self.body, "#{cycle}");
                    stamp_written = true;
                }
                Self::emit_value(&mut self.body, id, *width, v);
                *last = Some(v.clone());
            }
        }
    }

    /// Finishes and returns the VCD text.
    pub fn finish(self) -> String {
        format!("{}{}", self.header, self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiwi_ir::dsl::*;
    use kiwi_ir::interp::{NullEnv, NullObserver};
    use kiwi_ir::{Code, Core, ProgramBuilder};

    #[test]
    fn vcd_has_declarations_and_changes() {
        let mut pb = ProgramBuilder::new("trace_me");
        let c = pb.reg("count", 8);
        pb.sig_out("led", 1);
        pb.thread(
            "main",
            vec![forever(vec![assign(c, add(var(c), lit(1, 8))), pause()])],
        );
        let prog = pb.build().unwrap();
        let mut m = Core::new(Code::TreeWalk(kiwi_ir::flatten(&prog).unwrap()));
        let mut vcd = VcdTrace::new(m.program(), 5.0);
        for cycle in 0..5 {
            m.step_cycle(&mut NullEnv, &mut NullObserver).unwrap();
            vcd.sample(cycle, m.state());
        }
        let text = vcd.finish();
        assert!(text.contains("$var reg 8"));
        assert!(text.contains("count"));
        assert!(text.contains("$enddefinitions"));
        assert!(text.contains("#0"));
        assert!(text.contains("b00000011")); // count reaches 3
    }

    #[test]
    fn unchanged_values_not_re_emitted() {
        let mut pb = ProgramBuilder::new("quiet");
        pb.reg("still", 8);
        pb.thread("main", vec![forever(vec![pause()])]);
        let prog = pb.build().unwrap();
        let mut m = Core::new(Code::TreeWalk(kiwi_ir::flatten(&prog).unwrap()));
        let mut vcd = VcdTrace::new(m.program(), 5.0);
        for cycle in 0..10 {
            m.step_cycle(&mut NullEnv, &mut NullObserver).unwrap();
            vcd.sample(cycle, m.state());
        }
        let text = vcd.finish();
        // Exactly one change record (the initial value at #0).
        assert_eq!(text.matches("b00000000").count(), 1);
        assert!(!text.contains("#5"));
    }

    #[test]
    fn vcd_ids_unique_for_many_vars() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            assert!(seen.insert(vcd_id(i)), "duplicate id at {i}");
        }
    }
}
