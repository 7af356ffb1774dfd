//! `MachineState` against a frozen copy of its earlier layout.
//!
//! Every register, signal and array element is a run of `u64` limbs in
//! the state's words. `Frozen` below is the layout it replaced, kept as
//! it was but for names and only ever used by this test: a word per
//! register and signal with a [`Bits`] beside the file for each one
//! wider than 64 bits, and arrays in three classes (`u8`, `u64` and
//! `Bits` cells). Random sequences of accessor calls run on both, and
//! every read must agree.
//!
//! All three machines share `MachineState`, so the differential suites
//! cannot see a layout fault that all of them would share; this test
//! can. It runs the sequences on a tree-walking [`Core`] and on a
//! compiled one, whose scratch and constant pool lie above the runs
//! (a `Step` runs one cycle of a program that reads and writes wide
//! values), and on a shard's registers across a
//! [`emu::stdlib::Shard::checkpoint`] round trip.

use emu::ir::dsl::*;
use emu::ir::{
    compile_with_passes, default_pipeline, flatten, ArrayBacking, Code, Core, MachineState,
    NullEnv, NullObserver, Program, ProgramBuilder, SigId, Stmt, VarId,
};
use emu::prelude::{Frame, MacAddr, Target};
use emu::stdlib::{service_builder, Service};
use emu::types::Bits;
use frozen::Frozen;
use proptest::prelude::*;

/// The reference: the state's accessors as they were before values
/// became runs of words, kept verbatim but for names and for
/// `Bits::set_u64`, an in-place store gone with them, written as the
/// value it stored.
mod frozen {
    use emu::ir::{Program, SigId, VarId};
    use emu::types::Bits;

    fn mask_of(w: u16) -> u64 {
        if w >= 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        }
    }

    fn fit(v: Bits, w: u16) -> Bits {
        if v.width() == w {
            v
        } else {
            v.resize(w)
        }
    }

    #[derive(Clone, Copy)]
    struct Decl {
        width: u16,
        wide: u32,
    }

    #[derive(Clone)]
    enum Store {
        U8(Vec<u8>),
        U64(Vec<u64>),
        Wide(Vec<Bits>),
    }

    #[derive(Clone)]
    pub struct Cells {
        width: u16,
        store: Store,
    }

    impl Cells {
        fn zeroed(width: u16, len: usize) -> Self {
            let store = match width {
                1..=8 => Store::U8(vec![0; len]),
                9..=64 => Store::U64(vec![0; len]),
                _ => Store::Wide(vec![Bits::zero(width); len]),
            };
            Cells { width, store }
        }

        pub fn len(&self) -> usize {
            match &self.store {
                Store::U8(d) => d.len(),
                Store::U64(d) => d.len(),
                Store::Wide(d) => d.len(),
            }
        }

        pub fn get(&self, i: usize) -> Option<Bits> {
            match &self.store {
                Store::U8(d) => d.get(i).map(|&v| Bits::from_u64(u64::from(v), self.width)),
                Store::U64(d) => d.get(i).map(|&v| Bits::from_u64(v, self.width)),
                Store::Wide(d) => d.get(i).cloned(),
            }
        }

        pub fn get_u64(&self, i: usize) -> Option<u64> {
            match &self.store {
                Store::U8(d) => d.get(i).map(|&v| u64::from(v)),
                Store::U64(d) => d.get(i).copied(),
                Store::Wide(d) => d.get(i).map(Bits::to_u64),
            }
        }

        pub fn set(&mut self, i: usize, v: &Bits) -> bool {
            match &mut self.store {
                Store::Wide(d) => store_at(d, i, v.resize(self.width)),
                _ => self.set_u64(i, v.to_u64()),
            }
        }

        pub fn set_u64(&mut self, i: usize, v: u64) -> bool {
            let mask = mask_of(self.width);
            match &mut self.store {
                Store::U8(d) => store_at(d, i, (v & mask) as u8),
                Store::U64(d) => store_at(d, i, v & mask),
                Store::Wide(d) => store_at(d, i, Bits::from_u64(v, self.width)),
            }
        }
    }

    fn store_at<T>(d: &mut [T], i: usize, v: T) -> bool {
        match d.get_mut(i) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    #[derive(Clone)]
    pub struct Frozen {
        words: Vec<u64>,
        decls: Vec<Decl>,
        sig_base: usize,
        wide: Vec<Bits>,
        pub arrays: Vec<Cells>,
    }

    impl Frozen {
        pub fn init(prog: &Program) -> Self {
            let (mut words, mut decls, mut wide) = (Vec::new(), Vec::new(), Vec::new());
            let inits = prog.vars().iter().map(|v| &v.init);
            for init in inits.chain(prog.signals().iter().map(|s| &s.init)) {
                let width = init.width();
                decls.push(Decl {
                    width,
                    wide: wide.len() as u32,
                });
                words.push(init.to_u64());
                if width > 64 {
                    wide.push(init.clone());
                }
            }
            Frozen {
                words,
                decls,
                sig_base: prog.vars().len(),
                wide,
                arrays: prog
                    .arrays()
                    .iter()
                    .map(|a| {
                        let mut data = Cells::zeroed(a.elem_width, a.len);
                        for (i, v) in &a.init {
                            data.set(*i, v);
                        }
                        data
                    })
                    .collect(),
            }
        }

        fn value(&self, i: usize) -> Bits {
            let d = self.decls[i];
            if d.width <= 64 {
                Bits::from_u64(self.words[i], d.width)
            } else {
                self.wide[d.wide as usize].clone()
            }
        }

        fn put(&mut self, i: usize, value: Bits) {
            let d = self.decls[i];
            if d.width <= 64 {
                self.words[i] = value.to_u64() & mask_of(d.width);
            } else {
                let value = fit(value, d.width);
                self.words[i] = value.to_u64();
                self.wide[d.wide as usize] = value;
            }
        }

        pub fn reg(&self, v: VarId) -> Bits {
            self.value(v.0 as usize)
        }

        pub fn regs(&self) -> Vec<Bits> {
            (0..self.sig_base).map(|i| self.value(i)).collect()
        }

        pub fn set_reg(&mut self, v: VarId, value: Bits) {
            self.put(v.0 as usize, value);
        }

        pub fn sig(&self, s: SigId) -> Bits {
            self.value(self.sig_base + s.0 as usize)
        }

        pub fn sigs(&self) -> Vec<Bits> {
            (self.sig_base..self.decls.len())
                .map(|i| self.value(i))
                .collect()
        }

        pub fn set_sig(&mut self, s: SigId, value: Bits) {
            self.put(self.sig_base + s.0 as usize, value);
        }

        pub fn sig_word(&self, s: SigId) -> u64 {
            self.words[self.sig_base + s.0 as usize]
        }

        pub fn set_sig_word(&mut self, s: SigId, v: u64) {
            let i = self.sig_base + s.0 as usize;
            let d = self.decls[i];
            self.words[i] = v & mask_of(d.width);
            if d.width > 64 {
                self.wide[d.wide as usize] = Bits::from_u64(v, d.width);
            }
        }

        pub fn sig_limbs(&self, s: SigId) -> &[u64] {
            let i = self.sig_base + s.0 as usize;
            let d = self.decls[i];
            if d.width <= 64 {
                std::slice::from_ref(&self.words[i])
            } else {
                self.wide[d.wide as usize].limbs()
            }
        }

        pub fn set_sig_limbs(&mut self, s: SigId, limbs: &[u64]) {
            let i = self.sig_base + s.0 as usize;
            let d = self.decls[i];
            self.words[i] = limbs.first().map_or(0, |&l| l & mask_of(d.width));
            if d.width > 64 {
                self.wide[d.wide as usize] = Bits::from_limbs(limbs, d.width);
            }
        }
    }
}

/// Register and signal widths: each side of every limb boundary, the
/// memcached CAM key's 72 and the DNS key's 208.
const WIDTHS: [u16; 11] = [1, 8, 63, 64, 65, 72, 128, 208, 256, 257, 512];

/// Array element widths: both byte-slab classes and limb runs of one,
/// two, five and eight words.
const ARRAY_WIDTHS: [u16; 7] = [1, 8, 9, 64, 65, 300, 512];

/// Elements per array.
const ARRAY_LEN: usize = 5;

/// A constant the step adds, so the compiled image has a pool.
const K: u64 = 0x0123_4567_89ab_cdef;

/// A value of `width` bits that fills every limb, so a reset value that
/// lands in the wrong word shows.
fn pattern(width: u16, salt: u64) -> Bits {
    let limbs: Vec<u64> = (0..8)
        .map(|k: u64| (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
        .collect();
    Bits::from_limbs(&limbs, width)
}

/// What the tests name in a program built by [`declare`].
struct Names {
    /// One register per width of [`WIDTHS`], with a reset value.
    regs: Vec<VarId>,
    /// One signal per width, inputs and outputs alternating.
    sigs: Vec<SigId>,
    /// The register the step writes from the 208-bit one.
    sink: VarId,
    /// The 72-bit output signal the step drives.
    out72: SigId,
}

/// Declares the registers and signals of [`WIDTHS`], interleaved, and
/// the arrays of [`ARRAY_WIDTHS`], some of them initialised.
fn declare(pb: &mut ProgramBuilder) -> Names {
    let (mut regs, mut sigs) = (Vec::new(), Vec::new());
    for (k, &w) in WIDTHS.iter().enumerate() {
        regs.push(pb.reg_init(&format!("r{w}"), w, pattern(w, k as u64)));
        sigs.push(if k % 2 == 0 {
            pb.sig_in(&format!("i{w}"), w)
        } else {
            pb.sig_out(&format!("o{w}"), w)
        });
    }
    for (k, &w) in ARRAY_WIDTHS.iter().enumerate() {
        let init = vec![
            (k % ARRAY_LEN, pattern(w, 0x51)),
            (ARRAY_LEN - 1, Bits::one(w)),
        ];
        pb.array_init(&format!("a{w}"), w, ARRAY_LEN, ArrayBacking::LutRam, init);
    }
    Names {
        sink: pb.reg("sink", 64),
        out72: sigs[5],
        regs,
        sigs,
    }
}

/// The step's statements: a narrow store of a wide register's low limb
/// plus a pooled constant, a wide store of a concatenation and a drive
/// of the 72-bit output.
fn step_stmts(n: &Names) -> Vec<Stmt> {
    let (r8, r208, r256, r257) = (n.regs[1], n.regs[7], n.regs[8], n.regs[9]);
    vec![
        assign(n.sink, add(slice(var(r208), 63, 0), lit(K, 64))),
        assign(r257, concat(var(r8), var(r256))),
        sig_write(n.out72, concat(var(r8), var(n.sink))),
    ]
}

/// What [`step_stmts`] does, on the frozen state.
fn frozen_step(f: &mut Frozen, n: &Names) {
    let (r8, r208, r256, r257) = (n.regs[1], n.regs[7], n.regs[8], n.regs[9]);
    let sink = f.reg(r208).to_u64().wrapping_add(K);
    f.set_reg(n.sink, Bits::from_u64(sink, 64));
    f.set_reg(r257, f.reg(r8).concat(&f.reg(r256)));
    f.set_sig(n.out72, f.reg(r8).concat(&Bits::from_u64(sink, 64)));
}

/// The program of the machine tests: the declarations and a thread
/// that runs the step once a cycle.
fn program() -> (Program, Names) {
    let mut pb = ProgramBuilder::new("state_reference");
    let n = declare(&mut pb);
    let mut body = step_stmts(&n);
    body.push(pause());
    pb.thread("main", vec![forever(body)]);
    (pb.build().unwrap(), n)
}

/// One accessor call, drawn as `(kind, who, index, limbs)`.
type Call = (u8, u32, u64, Vec<u64>);

fn calls() -> impl Strategy<Value = Vec<Call>> {
    let call = (
        0u8..12,
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(any::<u64>(), 0..=8),
    );
    proptest::collection::vec(call, 1..40)
}

/// An array index: in range or just past it on even draws, anything on
/// odd ones (almost always far out of range).
fn index(raw: u64) -> usize {
    if raw.is_multiple_of(2) {
        (raw / 2 % (ARRAY_LEN as u64 + 2)) as usize
    } else {
        (raw / 2) as usize
    }
}

/// Applies one call to the state and the reference, and compares what
/// each returns. A `Step` (kind 11) runs one cycle of `core`'s program.
fn apply(
    st: &mut MachineState,
    f: &mut Frozen,
    n: &Names,
    (kind, who, raw, limbs): &Call,
) -> Result<(), TestCaseError> {
    let who = *who as usize;
    let (v, s) = (n.regs[who % WIDTHS.len()], n.sigs[who % WIDTHS.len()]);
    let a = who % ARRAY_WIDTHS.len();
    let value = Bits::from_limbs(limbs, 1 + (*raw % 512) as u16);
    let word = limbs.first().copied().unwrap_or(*raw);
    match kind {
        0 => {
            st.set_reg(v, value.clone());
            f.set_reg(v, value);
        }
        1 => {
            st.set_sig(s, value.clone());
            f.set_sig(s, value);
        }
        2 => {
            st.set_sig_word(s, word);
            f.set_sig_word(s, word);
        }
        3 => {
            st.set_sig_limbs(s, limbs);
            f.set_sig_limbs(s, limbs);
        }
        4 => {
            let i = index(*raw);
            prop_assert_eq!(st.arrays[a].set(i, &value), f.arrays[a].set(i, &value));
        }
        5 => {
            let i = index(*raw);
            prop_assert_eq!(st.arrays[a].set_u64(i, word), f.arrays[a].set_u64(i, word));
        }
        6 => {
            let i = index(*raw);
            prop_assert_eq!(st.arrays[a].get(i), f.arrays[a].get(i), "get {}", i);
            prop_assert_eq!(
                st.arrays[a].get(i).map(|b| b.to_u64()),
                f.arrays[a].get_u64(i),
                "get_u64 {}",
                i
            );
        }
        7 => prop_assert_eq!(st.reg(v), f.reg(v)),
        8 => prop_assert_eq!(st.sig(s), f.sig(s)),
        9 => prop_assert_eq!(st.sig_word(s), f.sig_word(s)),
        10 => prop_assert_eq!(st.sig_limbs(s), f.sig_limbs(s)),
        _ => unreachable!("a step is run by the caller"),
    }
    Ok(())
}

/// Every register, signal and array element, on the state and the
/// reference.
fn agree(st: &MachineState, f: &Frozen) -> Result<(), TestCaseError> {
    prop_assert_eq!(st.regs(), f.regs());
    prop_assert_eq!(st.sigs(), f.sigs());
    for (a, (c, r)) in st.arrays.iter().zip(&f.arrays).enumerate() {
        prop_assert_eq!(c.len(), r.len(), "array {}", a);
        for i in 0..c.len() + 1 {
            prop_assert_eq!(c.get(i), r.get(i), "array {} element {}", a, i);
            let low = c.get(i).map(|b| b.to_u64());
            prop_assert_eq!(low, r.get_u64(i), "array {} element {}", a, i);
        }
    }
    Ok(())
}

/// Runs `calls` on `core` and on a fresh reference, with a cycle of the
/// program for every `Step`, then checks the whole state — also on a
/// clone of the core, which is what a shard's checkpoint holds.
fn check_core(mut core: Core, n: &Names, calls: &[Call]) -> Result<(), TestCaseError> {
    let mut f = Frozen::init(core.program());
    agree(core.state(), &f)?;
    for call in calls {
        if call.0 == 11 {
            core.step_cycle(&mut NullEnv, &mut NullObserver).unwrap();
            frozen_step(&mut f, n);
        } else {
            apply(core.state_mut(), &mut f, n, call)?;
        }
    }
    agree(core.state(), &f)?;
    agree(core.clone().state(), &f)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn accessors_agree_with_the_frozen_layout(calls in calls()) {
        let (prog, n) = program();
        let flat = flatten(&prog).unwrap();
        check_core(Core::new(Code::TreeWalk(flat.clone())), &n, &calls)?;
        let cp = compile_with_passes(&flat, default_pipeline()).unwrap();
        prop_assert!(cp.pool_base() > cp.scratch_base() && !cp.pool.is_empty());
        check_core(Core::new(Code::Compiled(cp)), &n, &calls)?;
    }

    #[test]
    fn a_checkpoint_round_trip_keeps_every_register(
        writes in proptest::collection::vec((any::<u32>(), any::<u64>()), 1..24),
        frames in 1usize..4,
    ) {
        let (mut pb, dp) = service_builder("state_reference", 128);
        let n = declare(&mut pb);
        let mut body = vec![dp.rx_wait()];
        body.extend(step_stmts(&n));
        body.push(dp.set_output_port(dp.input_port()));
        body.extend(dp.transmit(dp.rx_len()));
        body.extend(dp.done());
        pb.thread("main", vec![forever(body)]);
        let prog = pb.build().unwrap();
        let svc = Service::new(prog.clone());
        let mut engine = svc.engine(Target::Cpu).build().unwrap();
        let mut f = Frozen::init(&prog);
        let name = |v: VarId| prog.var(v).unwrap().name.clone();
        for (who, value) in &writes {
            let v = n.regs[*who as usize % WIDTHS.len()];
            prop_assert!(engine.shard_mut(0).write_reg(&name(v), *value));
            f.set_reg(v, Bits::from_u64(*value, 64));
        }
        let frame = Frame::ethernet(MacAddr::from_u64(0xB), MacAddr::from_u64(0xA), 0x0900, &[0x11; 46]);
        for _ in 0..frames {
            engine.process(&frame).unwrap();
            frozen_step(&mut f, &n);
        }
        let cp = engine.shard(0).checkpoint().unwrap();
        let mut fresh = svc.engine(Target::Cpu).build().unwrap();
        fresh.shard_mut(0).restore(&cp);
        for &v in n.regs.iter().chain([&n.sink]) {
            prop_assert_eq!(fresh.shard(0).read_reg(&name(v)), Some(f.reg(v)), "{}", name(v));
        }
    }
}
