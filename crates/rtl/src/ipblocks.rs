//! Hardware IP blocks: each block's port handle beside the behavioural
//! model built from it.
//!
//! §3.4 of the paper: "to maximize the performance of a design, it is
//! sometimes recommended to use specialized IP blocks that take advantage
//! of the hardware capabilities, such as content addressable memory". Emu
//! programs talk to IP blocks over explicit signal protocols (Figure 5
//! shows the hash unit's seed handshake); because the protocol lives in
//! ordinary program code, "this enables us to interface with any IP
//! block".
//!
//! This module is the one place that says what a block's ports are, and
//! they are bound once, when the program is written. A block's
//! `declare(pb, prefix, widths…)` adds its boundary signals to the
//! program, named `<prefix>_<port>`, and returns the block's *handle*
//! ([`CamIf`], [`HashIf`], [`NaughtyQIf`]; [`LruIf`] composes the CAM
//! and the NaughtyQ): the signal ids and widths. The program
//! generates its protocol statements from the handle (`lookup`, `seed`,
//! `enlist`, …) and the model is constructed from the same handle
//! (`CamModel::new(&cam_if, entries, native)`), reading and driving the
//! machine's signal words by those ids every cycle — nothing is looked
//! up by name while frames flow, widths are stated once, and the prefix
//! survives only as the label on telemetry and errors. The engine runs
//! [`IpEnv::check`] once per shard at build, so a model whose handle
//! came from another program is a build error naming the block.
//!
//! Each model advances one cycle per [`Env::tick`]: the sequential
//! interpreter ticks them at each `pause()`, the RTL executor at each
//! clock edge. All protocols are level-based (request/ready), so they
//! tolerate the extra states inserted by the scheduler's budget cuts.

use crate::cam::CamStats;
use crate::cam::{CamPair, CamTable};
use emu_telemetry::CamCounters;
use emu_types::checksum::PEARSON_TABLE;
use emu_types::Bits;
use kiwi::resources::IpBlock;
use kiwi_ir::dsl::*;
use kiwi_ir::interp::{Env, MachineState};
use kiwi_ir::program::{Program, SigDir};
use kiwi_ir::{Expr, ProgramBuilder, SigId, Stmt, VarId};
use std::collections::VecDeque;
use SigDir::{In, Out};

/// A steppable IP block model, built from its block's port handle.
///
/// Models must be [`Send`] so a service instance (and its environment)
/// can move to a worker thread — the engine's parallel execution mode
/// runs each shard's pipeline on its own thread.
pub trait IpBlockModel: Send {
    /// One clock cycle: sample the program's outputs, drive its inputs.
    fn step(&mut self, prog: &Program, st: &mut MachineState);
    /// Resource accounting entries for `kiwi::resources::estimate`, one
    /// per hardware block modelled.
    fn resources(&self) -> Vec<IpBlock>;
    /// Whether this model can serve `prog`: every port of its handle is
    /// the signal it was declared as (same index, name, direction and
    /// width), and the model's own geometry is usable. `Err` names the
    /// block. Models without ports have nothing to check.
    fn check(&self, _prog: &Program) -> Result<(), String> {
        Ok(())
    }
    /// One frame epoch: called once per delivered frame, before the
    /// frame enters the pipeline. TTL-expiring tables age here; idle
    /// cycles between frames never age anything.
    fn frame_start(&mut self) {}
    /// Telemetry counters of any CAM tables this block hosts.
    fn cam_snapshots(&self) -> Vec<CamCounters> {
        Vec::new()
    }
    /// Zeroes any CAM statistics (table contents untouched).
    fn reset_cam_stats(&mut self) {}
    /// A copy of this model in its current state, for a shard
    /// checkpoint; `None` (the default) when the model cannot be copied,
    /// which makes the checkpoint fail with [`IpBlockModel::name`].
    fn clone_box(&self) -> Option<Box<dyn IpBlockModel>> {
        None
    }
    /// The model's name in errors about it: its type's.
    fn name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }
}

/// An environment hosting a set of IP blocks.
#[derive(Default)]
pub struct IpEnv {
    blocks: Vec<Box<dyn IpBlockModel>>,
}

impl IpEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a block.
    pub fn attach(&mut self, b: Box<dyn IpBlockModel>) -> &mut Self {
        self.blocks.push(b);
        self
    }

    /// Runs every attached block's [`IpBlockModel::check`] against the
    /// program this environment is about to serve.
    pub fn check(&self, prog: &Program) -> Result<(), String> {
        self.blocks.iter().try_for_each(|b| b.check(prog))
    }

    /// Resource entries for all attached blocks.
    pub fn resources(&self) -> Vec<IpBlock> {
        self.blocks.iter().flat_map(|b| b.resources()).collect()
    }

    /// Telemetry counters of every CAM table hosted by any block.
    pub fn cam_snapshots(&self) -> Vec<CamCounters> {
        self.blocks.iter().flat_map(|b| b.cam_snapshots()).collect()
    }

    /// Zeroes every block's CAM statistics (table contents untouched).
    pub fn reset_cam_stats(&mut self) {
        for b in &mut self.blocks {
            b.reset_cam_stats();
        }
    }

    /// A copy of every attached block in its current state
    /// ([`IpBlockModel::clone_box`]); `Err` names the first block that
    /// cannot be copied.
    pub fn try_clone(&self) -> Result<IpEnv, String> {
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                b.clone_box()
                    .ok_or_else(|| format!("IP block model `{}` cannot be copied", b.name()))
            })
            .collect::<Result<_, _>>()?;
        Ok(IpEnv { blocks })
    }
}

impl Env for IpEnv {
    fn tick(&mut self, _cycle: u64, prog: &Program, st: &mut MachineState) {
        for b in &mut self.blocks {
            b.step(prog, st);
        }
    }

    fn frame_start(&mut self) {
        for b in &mut self.blocks {
            b.frame_start();
        }
    }
}

/// One boundary signal of a block, as its model uses it each cycle.
#[derive(Debug, Clone, Copy)]
struct Port {
    id: SigId,
    width: u16,
}

impl Port {
    /// The low 64 bits of the value on this port: its signal's word.
    #[inline]
    fn get(&self, st: &MachineState) -> u64 {
        st.sig_word(self.id)
    }

    /// Whether this 1-bit strobe is raised.
    #[inline]
    fn high(&self, st: &MachineState) -> bool {
        self.get(st) != 0
    }

    /// Drives this `In` port for the program's next cycle with `v` cut
    /// to the port's width: a store of its signal's word.
    #[inline]
    fn drive(&self, st: &mut MachineState, v: u64) {
        st.set_sig_word(self.id, v);
    }

    /// The value on this port as little-endian limbs, at the port's
    /// width: one word up to 64 bits.
    #[inline]
    fn limbs<'a>(&self, st: &'a MachineState) -> &'a [u64] {
        st.sig_limbs(self.id)
    }
}

/// What a handle declared, kept so a model can prove at engine build
/// that it is attached to the program its handle came from.
#[derive(Debug, Clone)]
struct Bound {
    /// The prefix: the block's label on telemetry and in errors.
    label: String,
    ports: Vec<(SigId, String, SigDir, u16)>,
}

impl Bound {
    fn new(prefix: &str) -> Bound {
        Bound {
            label: prefix.to_string(),
            ports: Vec::new(),
        }
    }

    /// Declares `<prefix>_<suffix>` on the program.
    fn port(&mut self, pb: &mut ProgramBuilder, suffix: &str, dir: SigDir, width: u16) -> Port {
        let name = format!("{}_{suffix}", self.label);
        let id = match dir {
            In => pb.sig_in(&name, width),
            Out => pb.sig_out(&name, width),
        };
        self.ports.push((id, name, dir, width));
        Port { id, width }
    }

    /// The build-time binding check behind [`IpBlockModel::check`]:
    /// every port must be, in `prog`, exactly the signal declared here.
    fn check(&self, prog: &Program) -> Result<(), String> {
        for (id, name, dir, width) in &self.ports {
            let decl = prog.signal(*id);
            if !decl.is_some_and(|d| d.name == *name && d.dir == *dir && d.width == *width) {
                return Err(format!(
                    "IP block `{}`: port `{name}` ({dir:?}, {width} bits) is not signal {} of \
                     program `{}` — build the model from the handle that program declared",
                    self.label, id.0, prog.name
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// CAM
// ---------------------------------------------------------------------

/// Port handle of a CAM block.
///
/// Ports: out `{p}_lookup_en`, `{p}_lookup_key`, `{p}_write_en`,
/// `{p}_write_key`, `{p}_write_value`; in `{p}_match`, `{p}_value`; and,
/// once a [`CamDeleteIf`] is declared on the handle, out `{p}_delete_en`,
/// `{p}_delete_key`.
#[derive(Debug, Clone)]
pub struct CamIf {
    lookup_en: Port,
    lookup_key: Port,
    write_en: Port,
    write_key: Port,
    write_value: Port,
    matched: Port,
    value: Port,
    /// Strobe and key of the optional delete extension.
    delete: Option<(Port, Port)>,
    bound: Bound,
}

impl CamIf {
    /// Declares the CAM ports under `prefix`.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str, key_bits: u16, value_bits: u16) -> Self {
        let mut b = Bound::new(prefix);
        CamIf {
            lookup_en: b.port(pb, "lookup_en", Out, 1),
            lookup_key: b.port(pb, "lookup_key", Out, key_bits),
            write_en: b.port(pb, "write_en", Out, 1),
            write_key: b.port(pb, "write_key", Out, key_bits),
            write_value: b.port(pb, "write_value", Out, value_bits),
            matched: b.port(pb, "match", In, 1),
            value: b.port(pb, "value", In, value_bits),
            delete: None,
            bound: b,
        }
    }

    /// Key width in bits.
    pub fn key_bits(&self) -> u16 {
        self.lookup_key.width
    }

    /// Value width in bits.
    pub fn value_bits(&self) -> u16 {
        self.value.width
    }

    /// Launches a lookup for `key`; results are valid after the embedded
    /// pause (read them with [`CamIf::matched`] / [`CamIf::value`]).
    pub fn lookup(&self, key: Expr) -> Vec<Stmt> {
        request(self.lookup_en, 1, self.lookup_key, key)
    }

    /// Match flag of the most recent lookup.
    pub fn matched(&self) -> Expr {
        sig(self.matched.id)
    }

    /// Value of the most recent lookup.
    pub fn value(&self) -> Expr {
        sig(self.value.id)
    }

    /// Inserts `key → value` (replaces in place on key match, else fills
    /// a free slot, else evicts; see [`CamModel`]).
    pub fn write(&self, key: Expr, value: Expr) -> Vec<Stmt> {
        let mut stmts = vec![sig_write(self.write_key.id, key)];
        stmts.extend(request(self.write_en, 1, self.write_value, value));
        stmts
    }
}

/// The one-cycle request every block protocol here is made of: put `v`
/// on `operand`, hold `strobe` at `on` across one pause, drop it to zero.
fn request(strobe: Port, on: u64, operand: Port, v: Expr) -> Vec<Stmt> {
    vec![
        sig_write(operand.id, v),
        sig_write(strobe.id, lit(on, strobe.width)),
        pause(),
        sig_write(strobe.id, lit(0, strobe.width)),
    ]
}

/// Optional delete extension of the CAM protocol (used by Memcached's
/// DELETE command). Declared separately so CAM users without deletion
/// pay nothing.
#[derive(Debug, Clone, Copy)]
pub struct CamDeleteIf {
    en: Port,
    key: Port,
}

impl CamDeleteIf {
    /// Declares the delete strobe/key on `cam` (same prefix, same key
    /// width), so a model built from `cam` serves them.
    pub fn declare(pb: &mut ProgramBuilder, cam: &mut CamIf) -> Self {
        let en = cam.bound.port(pb, "delete_en", Out, 1);
        let key = cam.bound.port(pb, "delete_key", Out, cam.key_bits());
        cam.delete = Some((en, key));
        CamDeleteIf { en, key }
    }

    /// Removes `key` from the CAM (no-op when absent).
    pub fn delete(&self, key: Expr) -> Vec<Stmt> {
        request(self.en, 1, self.key, key)
    }
}

/// One cycle of the CAM port protocol on one port set: an optional
/// delete, then a write, then a lookup whose `match`/`value` the program
/// reads next cycle. [`CamModel`] serves its table through this once per
/// cycle, [`PairedCamModel`] once per side, through the tables' limb
/// entry points: keys go in as the ports' signal words and a hit's value
/// comes back as limbs into the `value` port's word, so no [`Bits`] is
/// built on the way.
#[inline]
fn serve<T>(
    ports: &CamIf,
    st: &mut MachineState,
    table: &mut T,
    (delete, write, lookup): (
        impl FnOnce(&mut T, &[u64]),
        impl FnOnce(&mut T, &[u64], &[u64]),
        impl for<'t> FnOnce(&'t mut T, &[u64]) -> Option<&'t [u64]>,
    ),
) {
    if let Some((en, key)) = &ports.delete {
        if en.high(st) {
            delete(table, key.limbs(st));
        }
    }
    if ports.write_en.high(st) {
        let (key, value) = (ports.write_key.limbs(st), ports.write_value.limbs(st));
        write(table, key, value);
    }
    if ports.lookup_en.high(st) {
        let hit = lookup(table, ports.lookup_key.limbs(st));
        ports.matched.drive(st, u64::from(hit.is_some()));
        st.set_sig_limbs(ports.value.id, hit.unwrap_or(&[]));
    }
}

fn cam_block(t: &CamTable, native: bool) -> IpBlock {
    IpBlock::Cam {
        entries: t.capacity(),
        key_bits: t.key_bits(),
        value_bits: t.value_bits(),
        native,
    }
}

fn cam_counters(ports: &CamIf, t: &CamTable) -> CamCounters {
    CamCounters {
        prefix: ports.bound.label.clone(),
        capacity: t.capacity() as u64,
        occupancy: t.occupancy() as u64,
        lookups: t.stats.lookups,
        hits: t.stats.hits,
        writes: t.stats.writes,
        evictions: t.stats.evictions,
        expiries: t.stats.expiries,
    }
}

/// Content-addressable memory with single-cycle lookup, backed by a
/// hashed [`CamTable`] (see the `cam` module for the
/// capacity/expiry/eviction contract).
///
/// A lookup launched in cycle *n* presents `match`/`value` during cycle
/// *n + 1*. Writes replace an existing key in place, otherwise fill a
/// free slot, otherwise reclaim an expired entry, otherwise overwrite
/// round-robin (how the NetFPGA reference switch handles MAC-table
/// overflow).
///
/// The one-cycle lookup is a modelling choice: the paper gives no CAM
/// latency, only the switch's module latency. It is pinned by
/// `emu_bench`'s cell Table 3 · Emu · module latency (6 cycles, a
/// recorded deviation from the paper's 8) and by every Emu latency cell
/// of Table 4 whose service looks up a CAM (nat, memcached), and cycle
/// for cycle by `tests/ipblock_golden.rs`.
#[derive(Clone)]
pub struct CamModel {
    ports: CamIf,
    native: bool,
    table: CamTable,
}

impl CamModel {
    /// Creates a CAM of `entries` entries serving `ports`, with the
    /// handle's key/value widths and no expiry.
    pub fn new(ports: &CamIf, entries: usize, native: bool) -> Self {
        CamModel {
            ports: ports.clone(),
            native,
            table: CamTable::new(entries, ports.key_bits(), ports.value_bits()),
        }
    }

    /// Sets the idle timeout in frame epochs (`None` disables expiry).
    pub fn with_ttl(mut self, ttl: Option<u64>) -> Self {
        self.table = self.table.with_ttl(ttl);
        self
    }

    /// Resident entries (live + expired-but-not-yet-reclaimed).
    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CamStats {
        &self.table.stats
    }

    /// Preloads an entry (control-plane table population, e.g. a DNS
    /// resolution table or static NAT mappings). Accounts writes and
    /// evictions exactly like the dataplane write strobe.
    pub fn insert(&mut self, key: Bits, value: Bits) {
        self.table.write(key, value);
    }
}

impl IpBlockModel for CamModel {
    fn clone_box(&self) -> Option<Box<dyn IpBlockModel>> {
        Some(Box::new(self.clone()))
    }

    fn step(&mut self, _prog: &Program, st: &mut MachineState) {
        let (ports, table) = (&self.ports, &mut self.table);
        let ops = (
            |t: &mut CamTable, key: &[u64]| {
                t.delete_limbs(key);
            },
            |t: &mut CamTable, key: &[u64], value: &[u64]| {
                t.write_limbs(key, value);
            },
            CamTable::lookup_limbs,
        );
        serve(ports, st, table, ops);
    }

    fn resources(&self) -> Vec<IpBlock> {
        vec![cam_block(&self.table, self.native)]
    }

    fn check(&self, prog: &Program) -> Result<(), String> {
        self.ports.bound.check(prog)
    }

    fn frame_start(&mut self) {
        self.table.tick_frame();
    }

    fn cam_snapshots(&self) -> Vec<CamCounters> {
        vec![cam_counters(&self.ports, &self.table)]
    }

    fn reset_cam_stats(&mut self) {
        self.table.reset_stats();
    }
}

/// Two CAM port sets bound to one [`CamPair`]: entries on the two sides
/// exist in 1:1 correspondence, and any eviction or expiry on one side
/// atomically removes the partner entry from the other — the fix for
/// the paired-table desync where a round-robin overwrite in one table
/// left a half-dead mapping in its twin.
///
/// Each side speaks the same port protocol as [`CamModel`] on its own
/// handle, so programs are unchanged.
#[derive(Clone)]
pub struct PairedCamModel {
    ports_a: CamIf,
    ports_b: CamIf,
    native: bool,
    pair: CamPair,
}

impl PairedCamModel {
    /// Serves `pair` on two port sets (side A, side B); each side's
    /// table must have its handle's key/value widths.
    pub fn new(ports_a: &CamIf, ports_b: &CamIf, pair: CamPair, native: bool) -> Self {
        PairedCamModel {
            ports_a: ports_a.clone(),
            ports_b: ports_b.clone(),
            native,
            pair,
        }
    }
}

impl IpBlockModel for PairedCamModel {
    fn clone_box(&self) -> Option<Box<dyn IpBlockModel>> {
        Some(Box::new(self.clone()))
    }

    fn step(&mut self, _prog: &Program, st: &mut MachineState) {
        let (a, b, pair) = (&self.ports_a, &self.ports_b, &mut self.pair);
        let ops_a = (
            CamPair::delete_a_limbs,
            CamPair::write_a_limbs,
            CamPair::lookup_a_limbs,
        );
        let ops_b = (
            CamPair::delete_b_limbs,
            CamPair::write_b_limbs,
            CamPair::lookup_b_limbs,
        );
        serve(a, st, pair, ops_a);
        serve(b, st, pair, ops_b);
    }

    fn resources(&self) -> Vec<IpBlock> {
        vec![
            cam_block(&self.pair.a, self.native),
            cam_block(&self.pair.b, self.native),
        ]
    }

    fn check(&self, prog: &Program) -> Result<(), String> {
        for (ports, t) in [(&self.ports_a, &self.pair.a), (&self.ports_b, &self.pair.b)] {
            ports.bound.check(prog)?;
            let (have, want) = (
                (t.key_bits(), t.value_bits()),
                (ports.key_bits(), ports.value_bits()),
            );
            if have != want {
                return Err(format!(
                    "IP block `{}`: a {have:?}-bit key/value table cannot serve {want:?}-bit ports",
                    ports.bound.label
                ));
            }
        }
        Ok(())
    }

    fn frame_start(&mut self) {
        self.pair.tick_frame();
    }

    fn cam_snapshots(&self) -> Vec<CamCounters> {
        vec![
            cam_counters(&self.ports_a, &self.pair.a),
            cam_counters(&self.ports_b, &self.pair.b),
        ]
    }

    fn reset_cam_stats(&mut self) {
        self.pair.a.reset_stats();
        self.pair.b.reset_stats();
    }
}

// ---------------------------------------------------------------------
// Pearson hash (Figure 5)
// ---------------------------------------------------------------------

/// Port handle of the streaming Pearson hash unit.
///
/// Ports: out `{p}_data_in` (8), `{p}_init_enable`, `{p}_feed_en`,
/// `{p}_clear`; in `{p}_init_ready`, `{p}_digest` (8).
#[derive(Debug, Clone)]
pub struct HashIf {
    data_in: Port,
    init_enable: Port,
    feed_en: Port,
    clear: Port,
    init_ready: Port,
    digest: Port,
    bound: Bound,
}

impl HashIf {
    /// Declares the hash unit's ports under `prefix`.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str) -> Self {
        let mut b = Bound::new(prefix);
        HashIf {
            data_in: b.port(pb, "data_in", Out, 8),
            init_enable: b.port(pb, "init_enable", Out, 1),
            feed_en: b.port(pb, "feed_en", Out, 1),
            clear: b.port(pb, "clear", Out, 1),
            init_ready: b.port(pb, "init_ready", In, 1),
            digest: b.port(pb, "digest", In, 8),
            bound: b,
        }
    }

    /// The seed protocol of Figure 5, transliterated:
    ///
    /// ```csharp
    /// while (init_hash_ready) { Kiwi.Pause(); }
    /// PearsonHash.data_in = data_in;
    /// init_hash_enable = true;  Kiwi.Pause();
    /// while (!init_hash_ready) { Kiwi.Pause(); }  Kiwi.Pause();
    /// init_hash_enable = false; Kiwi.Pause();
    /// ```
    pub fn seed(&self, data: Expr) -> Vec<Stmt> {
        vec![
            wait_until(lnot(sig(self.init_ready.id))),
            sig_write(self.data_in.id, data),
            sig_write(self.init_enable.id, tru()),
            pause(),
            wait_until(sig(self.init_ready.id)),
            pause(),
            sig_write(self.init_enable.id, fls()),
            pause(),
        ]
    }

    /// Feeds one byte into the digest (one cycle).
    pub fn feed(&self, data: Expr) -> Vec<Stmt> {
        request(self.feed_en, 1, self.data_in, data)
    }

    /// Clears the digest (one cycle).
    pub fn clear(&self) -> Vec<Stmt> {
        vec![
            sig_write(self.clear.id, tru()),
            pause(),
            sig_write(self.clear.id, fls()),
        ]
    }

    /// The current digest value.
    pub fn digest(&self) -> Expr {
        sig(self.digest.id)
    }
}

/// Streaming Pearson hash unit with the Figure 5 seed handshake.
///
/// One byte a cycle and a one-cycle seed handshake are modelling
/// choices (the paper gives the protocol, not its timing); no paper cell
/// reads them and no shipped service uses the unit.
///
/// Seeding (paper Figure 5): the program waits for `init_ready` low, puts
/// the seed on `data_in`, raises `init_enable`; the unit latches the seed,
/// raises `init_ready`; the program drops `init_enable`; the unit drops
/// `init_ready` and is seeded. Feeding: each cycle with `feed_en` high
/// absorbs one byte from `data_in`. `clear` resets the digest.
#[derive(Clone)]
pub struct PearsonHashModel {
    ports: HashIf,
    h: u8,
    init_ready: bool,
    /// Bytes absorbed since the last clear/seed.
    pub fed: u64,
}

impl PearsonHashModel {
    /// Creates a hash unit serving `ports`.
    pub fn new(ports: &HashIf) -> Self {
        PearsonHashModel {
            ports: ports.clone(),
            h: 0,
            init_ready: false,
            fed: 0,
        }
    }
}

impl IpBlockModel for PearsonHashModel {
    fn clone_box(&self) -> Option<Box<dyn IpBlockModel>> {
        Some(Box::new(self.clone()))
    }

    fn step(&mut self, _prog: &Program, st: &mut MachineState) {
        let p = &self.ports;
        let data = p.data_in.get(st) as u8;
        let init_en = p.init_enable.high(st);

        if p.clear.high(st) {
            self.h = 0;
            self.fed = 0;
        }
        if init_en && !self.init_ready {
            // Latch seed, acknowledge.
            self.h = PEARSON_TABLE[usize::from(data)];
            self.fed = 0;
            self.init_ready = true;
        } else if !init_en && self.init_ready {
            self.init_ready = false;
        } else if p.feed_en.high(st) {
            self.h = PEARSON_TABLE[usize::from(self.h ^ data)];
            self.fed += 1;
        }

        p.init_ready.drive(st, u64::from(self.init_ready));
        p.digest.drive(st, u64::from(self.h));
    }

    fn resources(&self) -> Vec<IpBlock> {
        vec![IpBlock::Hash]
    }

    fn check(&self, prog: &Program) -> Result<(), String> {
        self.ports.bound.check(prog)
    }
}

// ---------------------------------------------------------------------
// NaughtyQ and the LRU cache of Figure 9
// ---------------------------------------------------------------------

/// Port handle of the NaughtyQ slot store (Figure 9).
///
/// Ports: out `{p}_op` (2: 0 idle, 1 enlist, 2 read, 3 back-of-q),
/// `{p}_value_in`, `{p}_idx_in` (16); in `{p}_idx_out` (16),
/// `{p}_value_out`, `{p}_evicted` (1), `{p}_evicted_idx` (16).
#[derive(Debug, Clone)]
pub struct NaughtyQIf {
    op: Port,
    value_in: Port,
    idx_in: Port,
    idx_out: Port,
    value_out: Port,
    evicted: Port,
    evicted_idx: Port,
    bound: Bound,
}

impl NaughtyQIf {
    /// Declares the block's ports under `prefix`.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str, width: u16) -> Self {
        let mut b = Bound::new(prefix);
        NaughtyQIf {
            op: b.port(pb, "op", Out, 2),
            value_in: b.port(pb, "value_in", Out, width),
            idx_in: b.port(pb, "idx_in", Out, 16),
            idx_out: b.port(pb, "idx_out", In, 16),
            value_out: b.port(pb, "value_out", In, width),
            evicted: b.port(pb, "evicted", In, 1),
            evicted_idx: b.port(pb, "evicted_idx", In, 16),
            bound: b,
        }
    }

    /// `NaughtyQ.Enlist(value)`: allocates a slot; index readable via
    /// `NaughtyQIf::idx_out` after the pause.
    pub fn enlist(&self, value: Expr) -> Vec<Stmt> {
        request(self.op, 1, self.value_in, value)
    }

    /// `NaughtyQ.Read(idx)`: value readable via `NaughtyQIf::value_out`
    /// after the pause.
    pub fn read(&self, idx: Expr) -> Vec<Stmt> {
        request(self.op, 2, self.idx_in, idx)
    }

    /// `NaughtyQ.BackOfQ(idx)`: marks the slot most recently used.
    pub(crate) fn back_of_q(&self, idx: Expr) -> Vec<Stmt> {
        request(self.op, 3, self.idx_in, idx)
    }

    /// Slot index returned by the last enlist.
    pub(crate) fn idx_out(&self) -> Expr {
        sig(self.idx_out.id)
    }

    /// Value returned by the last read.
    pub(crate) fn value_out(&self) -> Expr {
        sig(self.value_out.id)
    }
}

/// The slot-store + recency-queue block behind the paper's LRU cache
/// (Figure 9: `NaughtyQ.Enlist`, `NaughtyQ.Read`, `NaughtyQ.BackOfQ`).
/// Each operation answers in the cycle after its request, a modelling
/// choice no paper cell reads; `lru_cache_is_pinned` in
/// `tests/ipblock_golden.rs` pins it cycle for cycle.
///
/// `Enlist` allocates a slot for a value (evicting the least-recently-used
/// slot when full — the eviction logic that would have to live in the
/// control plane under P4, §4.4) and reports the slot index. `Read`
/// returns a slot's value. `BackOfQ` marks a slot most-recently-used.
#[derive(Clone)]
pub struct NaughtyQModel {
    ports: NaughtyQIf,
    slots: Vec<Option<Bits>>,
    /// Recency order: front = least recently used. Holds exactly the
    /// occupied slots.
    order: VecDeque<usize>,
}

impl NaughtyQModel {
    /// Creates a queue of `cap` slots serving `ports`. `cap` must be
    /// between 1 and 65 536 (slot indices travel on 16-bit ports);
    /// [`IpBlockModel::check`] rejects anything else at engine build.
    pub fn new(ports: &NaughtyQIf, cap: usize) -> Self {
        NaughtyQModel {
            ports: ports.clone(),
            slots: vec![None; cap],
            order: VecDeque::new(),
        }
    }
}

/// Moves slot `idx` to the most-recently-used end of `order`.
fn touch(order: &mut VecDeque<usize>, idx: usize) {
    order.retain(|&i| i != idx);
    order.push_back(idx);
}

impl IpBlockModel for NaughtyQModel {
    fn clone_box(&self) -> Option<Box<dyn IpBlockModel>> {
        Some(Box::new(self.clone()))
    }

    fn step(&mut self, _prog: &Program, st: &mut MachineState) {
        let p = &self.ports;
        let mut evicted = None;
        match p.op.get(st) {
            1 => {
                // Enlist.
                let idx = match self.slots.iter().position(|s| s.is_none()) {
                    Some(free) => free,
                    None => {
                        evicted = self.order.pop_front();
                        evicted.expect("a full queue of at least one slot has an LRU slot")
                    }
                };
                self.slots[idx] = Some(st.sig(p.value_in.id));
                touch(&mut self.order, idx);
                p.idx_out.drive(st, idx as u64);
            }
            2 => {
                // Read.
                let idx = p.idx_in.get(st) as usize;
                let v = self.slots.get(idx).and_then(|s| s.clone());
                let empty = || Bits::zero(p.value_out.width);
                st.set_sig(p.value_out.id, v.unwrap_or_else(empty));
            }
            3 => {
                // BackOfQ.
                let idx = p.idx_in.get(st) as usize;
                if idx < self.slots.len() {
                    touch(&mut self.order, idx);
                }
            }
            _ => {}
        }
        // An eviction report lasts one cycle. Only this model writes the
        // two ports, so when neither last cycle nor this one evicted they
        // already read zero and an idle cycle writes nothing.
        if evicted.is_some() || p.evicted.high(st) {
            let idx = evicted.unwrap_or(0) as u64;
            p.evicted.drive(st, u64::from(evicted.is_some()));
            p.evicted_idx.drive(st, idx);
        }
    }

    fn resources(&self) -> Vec<IpBlock> {
        let width = self.ports.value_in.width;
        vec![IpBlock::NaughtyQ {
            slots: self.slots.len(),
            width,
        }]
    }

    fn check(&self, prog: &Program) -> Result<(), String> {
        let (label, cap) = (&self.ports.bound.label, self.slots.len());
        if !(1..=1 << 16).contains(&cap) {
            return Err(format!(
                "IP block `{label}`: a NaughtyQ holds between 1 and 65536 slots, not {cap}"
            ));
        }
        self.ports.bound.check(prog)
    }
}

/// The look-aside LRU cache of Figure 9, assembled from a HashCAM and a
/// NaughtyQ exactly as the paper's C# does. Attach a [`CamModel`] built
/// from `cam` and a [`NaughtyQModel`] built from `q`.
#[derive(Debug, Clone)]
pub struct LruIf {
    /// Key → slot-index CAM ("HashCAM").
    pub cam: CamIf,
    /// Slot store + recency queue.
    pub q: NaughtyQIf,
}

impl LruIf {
    /// Declares both sub-blocks under `prefix`.
    pub fn declare(pb: &mut ProgramBuilder, prefix: &str, key_bits: u16, value_bits: u16) -> Self {
        LruIf {
            cam: CamIf::declare(pb, &format!("{prefix}_cam"), key_bits, 16),
            q: NaughtyQIf::declare(pb, &format!("{prefix}_q"), value_bits),
        }
    }

    /// `LRU.Lookup(key)` (Figure 9): sets `matched` and `result`, touching
    /// the entry on hit:
    ///
    /// ```csharp
    /// ulong idx = HashCAM.Read(key_in);
    /// if (HashCAM.matched) {
    ///     res.result = NaughtyQ.Read(idx);
    ///     NaughtyQ.BackOfQ(idx);
    /// }
    /// ```
    pub fn lookup(
        &self,
        key: Expr,
        matched: VarId,
        result: VarId,
        idx_scratch: VarId,
    ) -> Vec<Stmt> {
        let mut out = self.cam.lookup(key);
        out.push(assign(matched, self.cam.matched()));
        out.push(assign(idx_scratch, self.cam.value()));
        let mut hit = self.q.read(resize(var(idx_scratch), 16));
        hit.push(assign(result, self.q.value_out()));
        hit.extend(self.q.back_of_q(resize(var(idx_scratch), 16)));
        out.push(if_then(var(matched), hit));
        out
    }

    /// `LRU.Cache(key, value)` (Figure 9):
    ///
    /// ```csharp
    /// ulong idx = NaughtyQ.Enlist(value_in);
    /// HashCAM.Write(key_in, idx);
    /// ```
    pub fn cache(&self, key: Expr, value: Expr, idx_scratch: VarId) -> Vec<Stmt> {
        let mut out = self.q.enlist(value);
        out.push(assign(idx_scratch, self.q.idx_out()));
        out.extend(self.cam.write(key, resize(var(idx_scratch), 16)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiwi_ir::interp::NullObserver;
    use kiwi_ir::{Code, Core, VarId};

    /// A program that only declares a block's ports, and its reset
    /// state — for driving a model directly.
    fn ports_only<H>(declare: impl FnOnce(&mut ProgramBuilder) -> H) -> (H, Program, MachineState) {
        let mut pb = ProgramBuilder::new("t");
        let handle = declare(&mut pb);
        pb.thread("main", vec![halt()]);
        let prog = pb.build().unwrap();
        let st = MachineState::init(&prog);
        (handle, prog, st)
    }

    /// Program side of a directly driven model: puts `v` on an `Out` port.
    fn put(st: &mut MachineState, port: Port, v: u64) {
        st.set_sig_word(port.id, v);
    }

    /// Program side of a directly driven model: reads an `In` port.
    fn read(st: &MachineState, port: Port) -> u64 {
        port.get(st)
    }

    /// `prog` on the tree-walker.
    fn treewalk(prog: &Program) -> Core {
        Core::new(Code::TreeWalk(kiwi_ir::flatten(prog).unwrap()))
    }

    #[test]
    fn cam_write_then_lookup_hits() {
        let mut pb = ProgramBuilder::new("t");
        let cam = CamIf::declare(&mut pb, "cam", 48, 16);
        let matched = pb.reg("matched", 1);
        let value = pb.reg("value", 16);
        // Write 0xAABB -> 7, then look it up.
        let mut body = cam.write(lit(0xAABB, 48), lit(7, 16));
        body.extend(cam.lookup(lit(0xAABB, 48)));
        body.push(assign(matched, cam.matched()));
        body.push(assign(value, cam.value()));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut m = treewalk(&prog);
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new(&cam, 16, false)));
        env.check(&prog).unwrap();
        m.run_cycles(10, &mut env, &mut NullObserver).unwrap();
        assert!(m.halted());
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 1, "lookup must match");
        assert_eq!(m.state().reg(VarId(1)).to_u64(), 7);
    }

    #[test]
    fn cam_miss_reports_no_match() {
        let mut pb = ProgramBuilder::new("t");
        let cam = CamIf::declare(&mut pb, "cam", 48, 16);
        let matched = pb.reg_init("matched", 1, Bits::from_u64(1, 1));
        let mut body = cam.lookup(lit(0x1234, 48));
        body.push(assign(matched, cam.matched()));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut m = treewalk(&prog);
        let mut env = IpEnv::new();
        env.attach(Box::new(CamModel::new(&cam, 4, false)));
        m.run_cycles(10, &mut env, &mut NullObserver).unwrap();
        assert_eq!(m.state().reg(VarId(0)).to_u64(), 0);
    }

    #[test]
    fn cam_model_direct_eviction_round_robin() {
        // Drive the model directly (no program) to test replacement.
        let (c, prog, mut st) = ports_only(|pb| CamIf::declare(pb, "c", 8, 8));
        let mut cam = CamModel::new(&c, 2, true);
        for i in 0..3u64 {
            put(&mut st, c.write_en, 1);
            put(&mut st, c.write_key, i);
            put(&mut st, c.write_value, i * 10);
            cam.step(&prog, &mut st);
        }
        assert_eq!(cam.occupancy(), 2);
        assert_eq!(cam.stats().writes, 3);
        assert_eq!(cam.stats().evictions, 1);
    }

    #[test]
    fn cam_insert_accounts_stats_like_the_dataplane_path() {
        // The control-plane preload path must not be invisible to the
        // write/eviction counters.
        let (c, _, _) = ports_only(|pb| CamIf::declare(pb, "c", 8, 8));
        let mut cam = CamModel::new(&c, 2, true);
        for i in 0..3u64 {
            cam.insert(Bits::from_u64(i, 8), Bits::from_u64(i * 10, 8));
        }
        assert_eq!(cam.occupancy(), 2);
        assert_eq!(cam.stats().writes, 3);
        assert_eq!(cam.stats().evictions, 1, "rr overwrite must count");
        // Replacing in place is a write, not an eviction.
        cam.insert(Bits::from_u64(2, 8), Bits::from_u64(99, 8));
        assert_eq!(cam.stats().writes, 4);
        assert_eq!(cam.stats().evictions, 1);
    }

    #[test]
    fn hash_handshake_matches_software_pearson() {
        // Program follows Figure 5: seed with 0x5A, then feed "ab".
        let mut pb = ProgramBuilder::new("t");
        let h = HashIf::declare(&mut pb, "h");
        let out = pb.reg("out", 8);
        let mut body = h.seed(lit(0x5A, 8));
        body.extend(h.feed(lit(u64::from(b'a'), 8)));
        body.extend(h.feed(lit(u64::from(b'b'), 8)));
        body.push(assign(out, h.digest()));
        body.push(halt());
        pb.thread("main", body);
        let prog = pb.build().unwrap();
        let mut m = treewalk(&prog);
        let mut env = IpEnv::new();
        env.attach(Box::new(PearsonHashModel::new(&h)));
        env.check(&prog).unwrap();
        m.run_cycles(40, &mut env, &mut NullObserver).unwrap();
        assert!(m.halted());
        let expect = emu_types::checksum::pearson8_seeded(0x5A, b"ab");
        assert_eq!(m.state().reg(VarId(0)).to_u64(), u64::from(expect));
    }

    #[test]
    fn naughtyq_lru_eviction_order() {
        let (n, prog, mut st) = ports_only(|pb| NaughtyQIf::declare(pb, "nq", 32));
        let mut nq = NaughtyQModel::new(&n, 2);
        nq.check(&prog).unwrap();

        // Enlist A, B (fills both slots).
        put(&mut st, n.op, 1);
        put(&mut st, n.value_in, 0xA);
        nq.step(&prog, &mut st);
        let idx_a = read(&st, n.idx_out);
        put(&mut st, n.value_in, 0xB);
        nq.step(&prog, &mut st);

        // Touch A (BackOfQ) so B becomes LRU.
        put(&mut st, n.op, 3);
        put(&mut st, n.idx_in, idx_a);
        nq.step(&prog, &mut st);

        // Enlist C: must evict B's slot, not A's.
        put(&mut st, n.op, 1);
        put(&mut st, n.value_in, 0xC);
        nq.step(&prog, &mut st);
        assert_eq!(read(&st, n.evicted), 1);
        assert_ne!(read(&st, n.evicted_idx), idx_a);

        // Read A's slot: still 0xA.
        put(&mut st, n.op, 2);
        put(&mut st, n.idx_in, idx_a);
        nq.step(&prog, &mut st);
        assert_eq!(read(&st, n.value_out), 0xA);
    }
}
