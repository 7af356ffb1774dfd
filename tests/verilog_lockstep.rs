//! The emitted Verilog's table, run in lockstep with the FSM.
//!
//! `kiwi::lower` turns a scheduled FSM into the table `kiwi::print`
//! writes out as Verilog: per thread and state, guarded rows of
//! non-blocking assignments. No Verilog simulator ships with this
//! reproduction, so this suite simulates the table. On each clock edge
//! exactly one row of each live thread's state must have a guard that
//! holds; every right-hand side of that row is evaluated with the
//! reference `kiwi_ir::eval` on the pre-edge state, and the last write to
//! a location wins (Verilog's non-blocking semantics). It runs beside
//! `kiwi_ir::Core` on `Code::Fpga`, against the same IP-block models from
//! `Engine::into_fpga_parts`, and after every edge, before the models
//! tick, the two machine states must agree: registers, signals, arrays
//! and their write high-water marks. After every frame, each thread's
//! state trajectory (the cycles begun in each state) and halt status must
//! agree too.

mod common;

use emu::prelude::*;
use emu::services as s;
use emu_traffic::{Adversarial, Background, MemcachedZipf, Mix, TrafficGen};
use kiwi::verilog::{lower, Row, RtlTable};
use kiwi_ir::dsl::*;
use kiwi_ir::interp::{eval, Env, MachineState, NullEnv, NullObserver};
use kiwi_ir::program::ArrayBacking;
use kiwi_ir::{Code, Core, Program};
use netfpga_sim::dataplane::DataplanePorts;

/// The table's own run: the state the next edge reads and where each
/// thread is.
struct TableRun<'t> {
    table: &'t RtlTable<'t>,
    /// The pre-edge state of the next edge.
    pre: MachineState,
    /// The state the last edge left.
    post: MachineState,
    /// Per thread, its state, or `None` once it has halted.
    at: Vec<Option<usize>>,
    /// Per thread, the edges taken in each state, shaped as
    /// `Core::occupancy` (whose last slot, a cycle begun past the last
    /// op, a table never takes).
    occupancy: Vec<Vec<u64>>,
}

impl<'t> TableRun<'t> {
    /// A run from `reset`, every thread in its entry state.
    fn new(table: &'t RtlTable<'t>, reset: &MachineState) -> Self {
        TableRun {
            table,
            pre: reset.clone(),
            post: reset.clone(),
            at: table.threads.iter().map(|t| Some(t.entry)).collect(),
            occupancy: table
                .threads
                .iter()
                .map(|t| vec![0; t.states.len() + 1])
                .collect(),
        }
    }

    /// One clock edge; returns the state it leaves.
    fn edge(&mut self) -> &MachineState {
        let TableRun {
            table,
            pre,
            post,
            at,
            occupancy,
        } = self;
        post.clone_from(pre);
        for (ti, t) in table.threads.iter().enumerate() {
            let Some(state) = at[ti] else { continue };
            occupancy[ti][state] += 1;
            let rows = &t.states[state].1;
            let holds = |row: &&Row| {
                row.guard
                    .iter()
                    .all(|(c, taken)| eval(c, pre).to_bool() == *taken)
            };
            let fired: Vec<_> = rows.iter().filter(holds).collect();
            assert_eq!(
                fired.len(),
                1,
                "thread {} state {state}: {} of {} rows' guards hold",
                t.name,
                fired.len(),
                rows.len()
            );
            let row = fired[0];
            for (r, e) in &row.regs {
                post.set_reg(*r, eval(e, pre));
            }
            for (sig, e) in &row.sigs {
                post.set_sig(*sig, eval(e, pre));
            }
            for (a, i, e) in &row.arrs {
                let (a, i) = (a.0 as usize, eval(i, pre).to_u64() as usize);
                if post.arrays[a].set(i, &eval(e, pre)) {
                    post.note_arr_write(a, i);
                }
            }
            at[ti] = row.next;
        }
        post
    }

    fn halted(&self) -> bool {
        self.at.iter().all(Option::is_none)
    }
}

/// The environment the FSM runs against: on each tick it first checks
/// the state the threads left against the table's edge from the same
/// pre-edge state, then lets the wrapped models tick, and keeps what they
/// leave as the next edge's pre-edge state.
struct Lockstep<'t, E> {
    run: TableRun<'t>,
    inner: E,
    /// Names the frame being processed in a failure.
    what: String,
}

impl<E: Env> Env for Lockstep<'_, E> {
    fn tick(&mut self, cycle: u64, prog: &Program, state: &mut MachineState) {
        assert_agree(prog, &self.what, cycle, state, self.run.edge());
        self.inner.tick(cycle, prog, state);
        self.run.pre.clone_from(state);
    }

    fn frame_start(&mut self) {
        self.inner.frame_start();
    }
}

/// Asserts that the FSM's state and the table's agree, naming the first
/// register, signal or array where they do not.
fn assert_agree(prog: &Program, what: &str, cycle: u64, fsm: &MachineState, table: &MachineState) {
    let differ = |kind: &str, names: Vec<&str>, a: Vec<String>, b: Vec<String>| {
        if let Some(k) = (0..a.len()).find(|&k| a[k] != b[k]) {
            panic!(
                "{what}, cycle {cycle}: {kind} {} is {} on the FSM, {} in the table",
                names[k], a[k], b[k]
            );
        }
    };
    let show = |v: Vec<emu_types::Bits>| v.iter().map(|b| b.to_string()).collect();
    let var_names = prog.vars().iter().map(|d| d.name.as_str()).collect();
    differ("register", var_names, show(fsm.regs()), show(table.regs()));
    let sig_names = prog.signals().iter().map(|d| d.name.as_str()).collect();
    differ("signal", sig_names, show(fsm.sigs()), show(table.sigs()));
    let arr_names: Vec<&str> = prog.arrays().iter().map(|d| d.name.as_str()).collect();
    for (a, name) in arr_names.iter().enumerate() {
        let (x, y) = (&fsm.arrays[a], &table.arrays[a]);
        if let Some(i) = (0..x.len()).find(|&i| x.get(i) != y.get(i)) {
            panic!(
                "{what}, cycle {cycle}: {name}[{i}] is {:?} on the FSM, {:?} in the table",
                x.get(i),
                y.get(i)
            );
        }
    }
    let high = |st: &MachineState| st.arr_high.iter().map(|h| h.to_string()).collect();
    differ("high-water mark of", arr_names, high(fsm), high(table));
}

/// What `DataplaneDriver::load_frame` does to the core's state before
/// the frame's first cycle, done to the table's pre-edge state.
fn load_frame(st: &mut MachineState, p: &DataplanePorts, frame: &Frame) {
    let a = p.frame.0 as usize;
    let len = frame.len();
    let fill = st.arr_high[a].max(len).min(st.arrays[a].len());
    let buf = st.arrays[a].bytes_mut().expect("frame is a byte array");
    buf[..len].copy_from_slice(frame.bytes());
    buf[len..fill].fill(0);
    st.arr_high[a] = len;
    st.set_sig_word(p.rx_valid, 1);
    st.set_sig_word(p.rx_len, len as u64);
    st.set_sig_word(p.rx_port, u64::from(frame.in_port));
}

/// Drives `frames` frames of `gen` through `svc`'s FSM beside its table.
/// Returns how many of the FSM's states the run visited.
fn lockstep(
    label: &str,
    svc: &emu::stdlib::Service,
    gen: &mut dyn TrafficGen,
    frames: usize,
) -> usize {
    let engine = svc.engine(Target::Fpga).build().unwrap();
    let (mut driver, env) = engine.into_fpga_parts().expect("a 1-shard FPGA engine");
    let code = driver.core().code().clone();
    let Code::Fpga(fsm) = &*code else {
        unreachable!("into_fpga_parts hands back the FSM image")
    };
    let table = lower(fsm).unwrap();
    let ports = DataplanePorts::resolve(&fsm.prog).unwrap();
    assert_eq!(
        driver.core().cycle(),
        0,
        "{label}: the core starts from reset"
    );
    let mut ls = Lockstep {
        run: TableRun::new(&table, driver.core().state()),
        inner: env,
        what: String::new(),
    };
    for i in 0..frames {
        let frame = gen.next_frame();
        ls.what = format!("{label}, frame {i}");
        // An oversize frame is refused before it is loaded or run.
        if frame.len() <= driver.frame_capacity() {
            load_frame(&mut ls.run.pre, &ports, &frame);
        }
        let _ = driver.process(&frame, &mut ls, &mut NullObserver);
        let core = driver.core();
        assert_eq!(core.occupancy(), ls.run.occupancy, "{}: states", ls.what);
        assert_eq!(core.halted(), ls.run.halted(), "{}: halt", ls.what);
    }
    let states = |t: &Vec<u64>| t[..t.len() - 1].iter().filter(|&&c| c > 0).count();
    driver.core().occupancy().iter().map(states).sum()
}

/// `Mix(Background, Adversarial)`, for a service with no soak pairing.
fn chatter(seed: u64) -> Box<dyn TrafficGen> {
    Box::new(
        Mix::new(seed)
            .add(3, Background::new(seed ^ 1, &[0, 1, 2, 3]))
            .add(1, Adversarial::new(seed ^ 2, &[0, 1, 2, 3])),
    )
}

/// Frames per service: enough for every service to answer, learn and
/// refuse, few enough for a debug build.
const FRAMES: usize = 48;

/// `label`'s soak pairing, seeded.
fn paired(label: &str) {
    let (_, svc, mut gen) = common::soak_pairings(0x7e51)
        .into_iter()
        .find(|(l, ..)| *l == label)
        .unwrap();
    lockstep(label, &svc, &mut *gen, FRAMES);
}

#[test]
fn tcp_ping_table_agrees_with_the_fsm() {
    paired("tcp-ping");
}

#[test]
fn memcached_table_agrees_with_the_fsm() {
    paired("memcached");
}

#[test]
fn dns_table_agrees_with_the_fsm() {
    paired("dns");
}

#[test]
fn nat_table_agrees_with_the_fsm() {
    paired("nat");
}

#[test]
fn switch_cam_table_agrees_with_the_fsm() {
    paired("switch");
}

#[test]
fn switch_behavioural_table_agrees_with_the_fsm() {
    let svc = s::switch::switch_behavioural(16);
    lockstep("switch-behavioural", &svc, &mut *chatter(0xb5), FRAMES);
}

#[test]
fn filter_table_agrees_with_the_fsm() {
    let svc = s::filter::filter_switch_from_lines(
        &["-A FORWARD -p tcp --dport 80 -j DROP"],
        s::filter::FilterAction::Accept,
    )
    .unwrap();
    lockstep("filter", &svc, &mut *chatter(0xf1), FRAMES);
}

#[test]
fn icmp_table_agrees_with_the_fsm() {
    lockstep("icmp", &s::icmp::icmp_echo(), &mut *chatter(0x1c), FRAMES);
}

#[test]
fn cache_table_agrees_with_the_fsm() {
    // Memcached requests reach the cache's request paths, where
    // `Mix(Background, Adversarial)` alone visits 4 of its 82 states.
    let mut gen = Mix::new(0xca)
        .add(3, Background::new(0xca ^ 1, &[0, 1, 2, 3]))
        .add(1, Adversarial::new(0xca ^ 2, &[0, 1, 2, 3]))
        .add(8, MemcachedZipf::new(0xca ^ 3, 16, 1.0, 0.5));
    let visited = lockstep("cache", &s::cache::lru_cache(), &mut gen, FRAMES);
    assert!(visited >= 80, "cache: {visited} of 82 states visited");
}

/// Reads of array elements and outputs written earlier in the same
/// state: the table must read the values those writes leave, cut to the
/// location's width, as the FSM does.
#[test]
fn reads_after_writes_in_one_state_agree() {
    let mut pb = ProgramBuilder::new("raw");
    let t = pb.array("t", 8, 4, ArrayBacking::BlockRam);
    let o = pb.sig_out("o", 8);
    let (i, j) = (pb.reg("i", 2), pb.reg("j", 2));
    let (x, y, z, w) = (
        pb.reg("x", 16),
        pb.reg("y", 16),
        pb.reg("z", 16),
        pb.reg("w", 8),
    );
    pb.thread(
        "main",
        vec![forever(vec![
            arr_write(t, var(i), var(x)),
            arr_write(t, lit(3, 2), var(j)),
            assign(y, resize(arr_read(t, var(j)), 16)),
            assign(w, arr_read(t, lit(3, 2))),
            sig_write(o, var(x)),
            assign(z, resize(sig(o), 16)),
            pause(),
            assign(i, add(var(i), lit(1, 2))),
            assign(j, add(var(j), lit(3, 2))),
            assign(x, add(var(x), lit(0x1a5, 16))),
            pause(),
        ])],
    );
    let fsm = compile(&pb.build().unwrap()).unwrap();
    let table = lower(&fsm).unwrap();
    let mut core = Core::new(Code::Fpga(fsm.clone()));
    let mut ls = Lockstep {
        run: TableRun::new(&table, core.state()),
        inner: NullEnv,
        what: "reads after writes".into(),
    };
    assert_eq!(core.run_cycles(64, &mut ls, &mut NullObserver).unwrap(), 64);
    assert_eq!(core.occupancy(), ls.run.occupancy);
}

/// A thread that halts beside one that runs on: from the halting edge
/// on, the table fires no row of the halted thread, as the FSM steps it
/// no more, while the other thread's rows go on agreeing every cycle.
#[test]
fn a_halted_thread_stays_halted_beside_a_running_one() {
    let mut pb = ProgramBuilder::new("halts");
    let (n, c, t) = (pb.reg("n", 8), pb.reg("c", 8), pb.reg("t", 8));
    pb.thread(
        "once",
        vec![
            while_loop(
                lt(var(n), lit(3, 8)),
                vec![assign(n, add(var(n), lit(1, 8))), pause()],
            ),
            assign(c, add(var(c), lit(1, 8))),
            halt(),
        ],
    );
    pb.thread(
        "ticks",
        vec![forever(vec![assign(t, add(var(t), lit(1, 8))), pause()])],
    );
    let fsm = compile(&pb.build().unwrap()).unwrap();
    let table = lower(&fsm).unwrap();
    let mut core = Core::new(Code::Fpga(fsm.clone()));
    let mut ls = Lockstep {
        run: TableRun::new(&table, core.state()),
        inner: NullEnv,
        what: "halting".into(),
    };
    assert_eq!(core.run_cycles(32, &mut ls, &mut NullObserver).unwrap(), 32);
    assert_eq!(ls.run.at[0], None, "the first thread halted");
    assert_eq!(core.occupancy(), ls.run.occupancy);
    assert_eq!(core.state().reg(c).to_u64(), 1, "counted once");
    assert_eq!(core.state().reg(t).to_u64(), 32);
}
