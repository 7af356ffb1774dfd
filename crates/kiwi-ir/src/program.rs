//! Program containers: registers, arrays, signals, threads.
//!
//! A [`Program`] corresponds to one Emu service — the unit the paper
//! compiles to a NetFPGA "main logical core" (§5.1, Figure 10). State is
//! split the way Kiwi splits it:
//!
//! * **registers** (C# static fields) — [`VarDecl`],
//! * **arrays** (C# arrays; BRAM or LUTRAM on the FPGA) — [`ArrayDecl`],
//! * **signals** — the wires crossing the program boundary, used both for
//!   the platform substrate (frame ready/send handshake) and for IP block
//!   protocols like the hash-seed handshake of Figure 5 — [`SigDecl`],
//! * **threads** — Kiwi's hardware-semantics threads, which become
//!   parallel logical sub-circuits (§3.4) — [`Thread`].

use crate::ast::{IrError, IrResult, Stmt};
use emu_types::Bits;

/// Handle to a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Handle to an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrId(pub u32);

/// Handle to a boundary signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SigId(pub u32);

/// Signal direction, from the program's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigDir {
    /// Driven by the environment, sampled by the program.
    In,
    /// Driven by the program, sampled by the environment.
    Out,
}

/// A register declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Source-level name (unique within the program).
    pub name: String,
    /// Width in bits.
    pub width: u16,
    /// Reset value.
    pub init: Bits,
}

/// Hint for how an array should be realized on the FPGA; affects resource
/// accounting (`kiwi::resources`), not simulation semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayBacking {
    /// Distributed LUT RAM: cheap for small arrays, combinational read.
    LutRam,
    /// Block RAM: the default for anything sizeable.
    BlockRam,
    /// Content-addressable memory IP block (the paper's CAM, §4.1).
    Cam,
}

/// An array declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Source-level name (unique within the program).
    pub name: String,
    /// Element width in bits.
    pub elem_width: u16,
    /// Number of elements.
    pub len: usize,
    /// Backing hint for resource estimation.
    pub backing: ArrayBacking,
    /// Optional non-zero initial contents (e.g. a DNS resolution table).
    pub init: Vec<(usize, Bits)>,
}

/// A boundary signal declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigDecl {
    /// Name (unique within the program); the platform and IP block models
    /// bind to signals by name.
    pub name: String,
    /// Width in bits.
    pub width: u16,
    /// Direction.
    pub dir: SigDir,
    /// Reset value (zero for every signal the builder declares).
    pub init: Bits,
}

/// One hardware thread: a statement list executed as an implicit
/// `while (true)` if `looping` is set, else run once to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct Thread {
    /// Thread name (unique within the program).
    pub name: String,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A complete IR program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (becomes the Verilog module name).
    pub name: String,
    vars: Vec<VarDecl>,
    arrays: Vec<ArrayDecl>,
    signals: Vec<SigDecl>,
    /// Threads, executed in lockstep (one cycle each per clock).
    pub threads: Vec<Thread>,
}

impl Program {
    /// Looks up a register declaration.
    pub fn var(&self, id: VarId) -> Option<&VarDecl> {
        self.vars.get(id.0 as usize)
    }

    /// Looks up an array declaration.
    pub fn array(&self, id: ArrId) -> Option<&ArrayDecl> {
        self.arrays.get(id.0 as usize)
    }

    /// Looks up a signal declaration.
    pub fn signal(&self, id: SigId) -> Option<&SigDecl> {
        self.signals.get(id.0 as usize)
    }

    /// All register declarations, indexed by [`VarId`].
    pub fn vars(&self) -> &[VarDecl] {
        &self.vars
    }

    /// All array declarations, indexed by [`ArrId`].
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// All signal declarations, indexed by [`SigId`].
    pub fn signals(&self) -> &[SigDecl] {
        &self.signals
    }

    /// Finds a register by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    /// Finds an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrId> {
        self.arrays
            .iter()
            .position(|v| v.name == name)
            .map(|i| ArrId(i as u32))
    }

    /// Finds a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SigId> {
        self.signals
            .iter()
            .position(|v| v.name == name)
            .map(|i| SigId(i as u32))
    }

    /// Validates the whole program: declaration uniqueness, width legality,
    /// and expression well-formedness in every thread.
    pub(crate) fn validate(&self) -> IrResult<()> {
        let mut names = std::collections::HashSet::new();
        for v in &self.vars {
            if v.width == 0 || v.width > emu_types::bits::MAX_WIDTH {
                return Err(IrError(format!(
                    "register {} has invalid width {}",
                    v.name, v.width
                )));
            }
            if !names.insert(format!("v:{}", v.name)) {
                return Err(IrError(format!("duplicate register name {}", v.name)));
            }
        }
        for a in &self.arrays {
            if a.elem_width == 0 || a.elem_width > emu_types::bits::MAX_WIDTH {
                return Err(IrError(format!(
                    "array {} has invalid width {}",
                    a.name, a.elem_width
                )));
            }
            if a.len == 0 {
                return Err(IrError(format!("array {} has zero length", a.name)));
            }
            if !names.insert(format!("a:{}", a.name)) {
                return Err(IrError(format!("duplicate array name {}", a.name)));
            }
            for (i, _) in &a.init {
                if *i >= a.len {
                    return Err(IrError(format!(
                        "array {} init index {} out of range",
                        a.name, i
                    )));
                }
            }
        }
        for s in &self.signals {
            if s.width == 0 || s.width > emu_types::bits::MAX_WIDTH {
                return Err(IrError(format!(
                    "signal {} has invalid width {}",
                    s.name, s.width
                )));
            }
            if !names.insert(format!("s:{}", s.name)) {
                return Err(IrError(format!("duplicate signal name {}", s.name)));
            }
        }
        let mut tnames = std::collections::HashSet::new();
        for t in &self.threads {
            if !tnames.insert(t.name.clone()) {
                return Err(IrError(format!("duplicate thread name {}", t.name)));
            }
            for s in &t.body {
                self.validate_stmt(s)?;
            }
        }
        Ok(())
    }

    fn validate_stmt(&self, s: &Stmt) -> IrResult<()> {
        match s {
            Stmt::Assign(dst, e) => {
                self.var(*dst)
                    .ok_or_else(|| IrError(format!("assign to unknown var {dst:?}")))?;
                e.width(self)?;
            }
            Stmt::ArrWrite(arr, idx, val) => {
                self.array(*arr)
                    .ok_or_else(|| IrError(format!("write to unknown array {arr:?}")))?;
                idx.width(self)?;
                val.width(self)?;
            }
            Stmt::SigWrite(sig, val) => {
                let d = self
                    .signal(*sig)
                    .ok_or_else(|| IrError(format!("write to unknown signal {sig:?}")))?;
                if d.dir != SigDir::Out {
                    return Err(IrError(format!("write to input signal {}", d.name)));
                }
                val.width(self)?;
            }
            Stmt::If(c, t, e) => {
                c.width(self)?;
                for s in t {
                    self.validate_stmt(s)?;
                }
                for s in e {
                    self.validate_stmt(s)?;
                }
            }
            Stmt::While(c, b) => {
                c.width(self)?;
                for s in b {
                    self.validate_stmt(s)?;
                }
            }
            Stmt::Pause
            | Stmt::Label(_)
            | Stmt::ExtPoint(_)
            | Stmt::Break
            | Stmt::Continue
            | Stmt::Halt => {}
        }
        Ok(())
    }
}

/// Incremental builder for [`Program`].
///
/// # Examples
///
/// ```
/// use kiwi_ir::{ProgramBuilder, dsl::*};
///
/// let mut pb = ProgramBuilder::new("counter");
/// let count = pb.reg("count", 32);
/// pb.thread("main", vec![
///     forever(vec![
///         assign(count, add(var(count), lit(1, 32))),
///         pause(),
///     ]),
/// ]);
/// let prog = pb.build().unwrap();
/// assert_eq!(prog.vars().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    prog: Program,
}

impl ProgramBuilder {
    /// Starts a new program.
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            prog: Program {
                name: name.to_string(),
                vars: Vec::new(),
                arrays: Vec::new(),
                signals: Vec::new(),
                threads: Vec::new(),
            },
        }
    }

    /// Declares a zero-initialized register.
    pub fn reg(&mut self, name: &str, width: u16) -> VarId {
        self.reg_init(name, width, Bits::zero(width.max(1)))
    }

    /// Declares a register with an explicit reset value.
    pub fn reg_init(&mut self, name: &str, width: u16, init: Bits) -> VarId {
        let id = VarId(self.prog.vars.len() as u32);
        self.prog.vars.push(VarDecl {
            name: name.to_string(),
            width,
            init: init.resize(width.max(1)),
        });
        id
    }

    /// Declares an array with a backing hint.
    pub fn array(
        &mut self,
        name: &str,
        elem_width: u16,
        len: usize,
        backing: ArrayBacking,
    ) -> ArrId {
        let id = ArrId(self.prog.arrays.len() as u32);
        self.prog.arrays.push(ArrayDecl {
            name: name.to_string(),
            elem_width,
            len,
            backing,
            init: Vec::new(),
        });
        id
    }

    /// Declares an array with initial contents.
    pub fn array_init(
        &mut self,
        name: &str,
        elem_width: u16,
        len: usize,
        backing: ArrayBacking,
        init: Vec<(usize, Bits)>,
    ) -> ArrId {
        let id = self.array(name, elem_width, len, backing);
        self.prog.arrays[id.0 as usize].init = init;
        id
    }

    /// Declares an input signal.
    pub fn sig_in(&mut self, name: &str, width: u16) -> SigId {
        let id = SigId(self.prog.signals.len() as u32);
        self.prog.signals.push(SigDecl {
            name: name.to_string(),
            width,
            dir: SigDir::In,
            init: Bits::zero(width.max(1)),
        });
        id
    }

    /// Declares an output signal (reset to zero).
    pub fn sig_out(&mut self, name: &str, width: u16) -> SigId {
        let id = SigId(self.prog.signals.len() as u32);
        self.prog.signals.push(SigDecl {
            name: name.to_string(),
            width,
            dir: SigDir::Out,
            init: Bits::zero(width.max(1)),
        });
        id
    }

    /// Adds a thread with the given body.
    pub fn thread(&mut self, name: &str, body: Vec<Stmt>) {
        self.prog.threads.push(Thread {
            name: name.to_string(),
            body,
        });
    }

    /// Finishes and validates the program.
    pub fn build(self) -> IrResult<Program> {
        self.prog.validate()?;
        Ok(self.prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn builder_round_trip() {
        let mut pb = ProgramBuilder::new("p");
        let a = pb.reg("a", 8);
        let arr = pb.array("t", 16, 4, ArrayBacking::LutRam);
        let s = pb.sig_out("led", 1);
        pb.thread(
            "main",
            vec![
                assign(a, lit(1, 8)),
                arr_write(arr, lit(0, 2), lit(0xbeef, 16)),
                sig_write(s, lit(1, 1)),
                halt(),
            ],
        );
        let p = pb.build().unwrap();
        assert_eq!(p.var_by_name("a"), Some(a));
        assert_eq!(p.array_by_name("t"), Some(arr));
        assert_eq!(p.signal_by_name("led"), Some(s));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut pb = ProgramBuilder::new("p");
        pb.reg("x", 8);
        pb.reg("x", 8);
        assert!(pb.build().is_err());
    }

    #[test]
    fn write_to_input_signal_rejected() {
        let mut pb = ProgramBuilder::new("p");
        let s = pb.sig_in("ready", 1);
        pb.thread("main", vec![sig_write(s, lit(1, 1))]);
        assert!(pb.build().is_err());
    }

    #[test]
    fn bad_array_init_rejected() {
        let mut pb = ProgramBuilder::new("p");
        pb.array_init(
            "t",
            8,
            4,
            ArrayBacking::BlockRam,
            vec![(9, Bits::from_u64(1, 8))],
        );
        assert!(pb.build().is_err());
    }

    #[test]
    fn zero_len_array_rejected() {
        let mut pb = ProgramBuilder::new("p");
        pb.array("t", 8, 0, ArrayBacking::BlockRam);
        assert!(pb.build().is_err());
    }
}
