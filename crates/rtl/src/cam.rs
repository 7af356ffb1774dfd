//! Hashed CAM state with TTL expiry and atomic pairing.
//!
//! [`CamTable`] is the storage engine behind the behavioural CAM models
//! in [`crate::ipblocks`]: a slot store plus a hashed key index, so
//! lookup/write/delete are O(1) regardless of capacity — the paper's
//! Table-3 BRAM geometries and a million-entry software deployment run
//! the same code. The port protocol the programs speak is unchanged;
//! only the model behind it scales.
//!
//! # Storage
//!
//! The modelled block answers in one cycle whatever the key looks like,
//! so the host cost of a probe should follow the *declared* geometry,
//! not the [`Bits`] a key travels in. Entries live in one flat
//! `Vec<u64>` slab: slot *i* is `stride = kw + vw + 1` consecutive
//! words — `kw = ⌈key_bits/64⌉` key limbs, `vw = ⌈value_bits/64⌉`
//! value limbs, then the stamp (frame epoch of the last touch;
//! `u64::MAX` marks a free slot). A 48-bit MAC → 8-bit port table is
//! 24 B an entry, NAT's 56 → 16 and 24 → 56 tables likewise, a 72-bit
//! memcached key is `kw = 2`. The slab grows one slot at a time up to
//! `capacity`, so memory tracks resident entries.
//!
//! Keys are found through an open-addressed `Vec<u32>` of slot numbers
//! with linear probing: power-of-two length, at most half full (so 8
//! to 16 B of index per resident entry and a probe sequence that ends
//! within a cache line or two), doubled by re-placing the slot numbers,
//! and repaired on removal by backward shift, so there are no
//! tombstones to skip. A hit reads one index line and one slab line.
//!
//! Every entry point takes its key as little-endian limbs (`&[u64]`)
//! and returns a value as limbs borrowed from the slab (`lookup_limbs`,
//! `peek_limbs`, `write_limbs`, `touch_limbs`, `delete_limbs`): the CAM
//! models serve their ports through these, straight from and into the
//! machine's signal words. A [`CamPair`] speaks limbs only. A table's
//! [`Bits`] methods (`lookup`, `peek`, `write`, `touch`) are thin
//! wrappers over them that rebuild a value on the way out; nothing
//! inside hashes, stores or compares a `Bits`.
//!
//! The index hash is std's keyed SipHash
//! ([`RandomState`], a fresh key per table) over the `kw` limbs. Keys
//! are MAC addresses, 5-tuples and memcached keys taken from received
//! frames; with an unkeyed hash a sender could aim every key at one
//! probe run and turn the single-cycle CAM into a linear scan.
//!
//! Expiry order is a queue of `(slot, stamp)` records beside the slab,
//! not a recency list threaded through it: a touch appends one record
//! sequentially (and only once per slot per epoch), whereas relinking
//! a list would dirty two neighbours' cache lines on every hit. With a
//! TTL the queue adds 16 B per touched entry per epoch it was touched
//! in, dropped again as the front ages out.
//!
//! # Capacity / expiry / eviction contract
//!
//! * Slots grow on demand up to `capacity`; memory tracks resident
//!   entries, not the configured ceiling.
//! * With a TTL (in *frame epochs* — see [`CamTable::tick_frame`]), an
//!   entry whose last touch is more than `ttl` frames old is dead: a
//!   lookup of it misses (and reclaims it, counted in
//!   [`CamStats::expiries`]); a bounded sweep also reclaims a few
//!   oldest expired entries per frame.
//! * A write into a full table reclaims an expired entry first and only
//!   round-robin-evicts live entries ([`CamStats::evictions`]) when
//!   none has expired.
//! * Lookups and writes *touch* (re-stamp) their entry; expiry is
//!   therefore an idle timeout, like a NAT mapping timeout or MAC
//!   aging.
//! * Every entry point reads its key the way [`CamTable::write`] stores
//!   it: truncated or zero-extended to `key_bits`.
//!
//! [`CamPair`] binds two tables whose entries exist in 1:1
//! correspondence (NAT's `fwd`/`rev`): any eviction or expiry on one
//! side atomically removes the partner entry from the other (counted
//! under the same cause in the sibling's stats), and touches propagate,
//! so the pair ages in lockstep and half-dead mappings cannot exist.

use emu_types::Bits;
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hasher};

/// Expired entries reclaimed per frame by the background sweep.
const TICK_RECLAIM: usize = 4;

/// Index word of a position that names no slot.
const EMPTY: u32 = u32::MAX;

/// Stamp word of a slot that holds no entry.
const FREE: u64 = u64::MAX;

/// Index positions of a new table (power of two).
const INDEX_MIN: usize = 8;

/// CAM lifetime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CamStats {
    /// Lookup strobes observed.
    pub lookups: u64,
    /// Lookups that matched a live entry.
    pub hits: u64,
    /// Write strobes observed.
    pub writes: u64,
    /// Entries displaced live (round-robin overwrite at capacity, or a
    /// partner removed because its pair twin was evicted).
    pub evictions: u64,
    /// Entries reclaimed after their TTL lapsed (on lookup, on the
    /// per-frame sweep, on a write into a full table, or as a pair
    /// twin).
    pub expiries: u64,
}

/// Why an entry left a [`CamTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RemoveCause {
    /// TTL lapsed.
    Expired,
    /// Displaced live to make room.
    Evicted,
}

/// An involuntarily removed entry, reported so a [`CamPair`] can
/// remove its twin.
#[derive(Debug, Clone)]
struct Removed {
    key: Bits,
    value: Bits,
    cause: RemoveCause,
}

/// Effect of a [`CamTable::write`] on the written key itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteEffect {
    /// The key was not resident; a new entry was created.
    Fresh,
    /// The key was resident; its value was replaced (old value inside).
    Replaced(Bits),
}

/// The `⌈width/64⌉` table words of the value whose little-endian limbs
/// are `limbs`, cut or zero-extended to `width`. The one place a caller's
/// key or value becomes table words, so every entry point agrees on what
/// a key is. A port's word or a `Bits` of the table's width already is
/// that, and is borrowed as it is, not copied.
#[inline]
fn at_width(limbs: &[u64], width: u16) -> Cow<'_, [u64]> {
    let n = usize::from(width).div_ceil(64);
    let top = u64::MAX >> (64 * n - usize::from(width));
    if limbs.len() == n && limbs[n - 1] & !top == 0 {
        return Cow::Borrowed(limbs);
    }
    let mut words = vec![0; n];
    let k = limbs.len().min(n);
    words[..k].copy_from_slice(&limbs[..k]);
    words[n - 1] &= top;
    Cow::Owned(words)
}

/// Hashed, TTL-aware CAM storage (see the module docs for the storage
/// layout and the capacity/expiry/eviction contract).
#[derive(Debug, Clone)]
pub struct CamTable {
    capacity: usize,
    key_bits: u16,
    value_bits: u16,
    ttl: Option<u64>,
    now: u64,
    /// Key limbs per slot.
    kw: usize,
    /// Value limbs per slot.
    vw: usize,
    /// Slot `i` is words `i * stride ..`: `kw` key limbs, `vw` value
    /// limbs, the stamp ([`FREE`] while the slot holds no entry).
    slab: Vec<u64>,
    /// Open-addressed slot numbers ([`EMPTY`] where none), linear
    /// probing from `hash & (len - 1)`; at most half full.
    index: Vec<u32>,
    /// Slot numbers in `index`.
    len: usize,
    hasher: RandomState,
    free: Vec<u32>,
    rr: usize,
    /// (slot, stamp) records in stamp order; a record is valid iff the
    /// slot still holds an entry with that exact stamp, so the
    /// front-most valid record always names the oldest-stamped resident
    /// entry — amortized-O(1) oldest-first reclaim.
    exp_q: VecDeque<(u32, u64)>,
    /// The involuntary removals of the last `lookup`, `write`,
    /// `delete`, `touch` or `tick_frame`: each starts by clearing them,
    /// so the table holds at most one call's reports.
    removed: Vec<Removed>,
    /// The value the last `write` replaced (`vw` limbs).
    replaced: Vec<u64>,
    /// Lifetime statistics.
    pub stats: CamStats,
}

impl CamTable {
    /// Creates an empty table with the given geometry and no TTL.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u32::MAX` (slots are
    /// numbered in `u32`, and one number marks an empty index position).
    pub fn new(capacity: usize, key_bits: u16, value_bits: u16) -> Self {
        assert!(capacity > 0, "a CAM needs at least one entry");
        assert!(
            capacity <= EMPTY as usize,
            "a CAM's slots are numbered in 32 bits: {capacity} entries are too many"
        );
        CamTable {
            capacity,
            key_bits,
            value_bits,
            ttl: None,
            now: 0,
            kw: usize::from(key_bits).div_ceil(64),
            vw: usize::from(value_bits).div_ceil(64),
            slab: Vec::new(),
            index: vec![EMPTY; INDEX_MIN],
            len: 0,
            hasher: RandomState::new(),
            free: Vec::new(),
            rr: 0,
            exp_q: VecDeque::new(),
            removed: Vec::new(),
            replaced: Vec::new(),
            stats: CamStats::default(),
        }
    }

    /// Sets the idle timeout in frame epochs (`None` disables expiry).
    pub fn with_ttl(mut self, ttl: Option<u64>) -> Self {
        self.ttl = ttl;
        self
    }

    /// Configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Key width in bits.
    pub fn key_bits(&self) -> u16 {
        self.key_bits
    }

    /// Value width in bits.
    pub fn value_bits(&self) -> u16 {
        self.value_bits
    }

    /// Resident entries (live + expired-but-not-yet-reclaimed).
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// The current frame epoch.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Zeroes the lifetime counters (table contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CamStats::default();
    }

    fn is_expired(&self, stamp: u64) -> bool {
        self.ttl.is_some_and(|t| self.now.saturating_sub(stamp) > t)
    }

    fn stride(&self) -> usize {
        self.kw + self.vw + 1
    }

    /// Slots the slab has grown to (occupied or free).
    fn n_slots(&self) -> usize {
        self.slab.len() / self.stride()
    }

    fn key_of(&self, slot: u32) -> &[u64] {
        let at = slot as usize * self.stride();
        &self.slab[at..at + self.kw]
    }

    fn value_of(&self, slot: u32) -> &[u64] {
        let at = slot as usize * self.stride() + self.kw;
        &self.slab[at..at + self.vw]
    }

    /// The value of `slot` as a `Bits` of `value_bits`.
    fn value_bits_at(&self, slot: u32) -> Bits {
        Bits::from_limbs(self.value_of(slot), self.value_bits)
    }

    /// The key and value of `slot` as `Bits` of the table's widths.
    fn entry_bits(&self, slot: u32) -> (Bits, Bits) {
        let key = Bits::from_limbs(self.key_of(slot), self.key_bits);
        (key, self.value_bits_at(slot))
    }

    fn stamp_at(&self, slot: u32) -> usize {
        slot as usize * self.stride() + self.kw + self.vw
    }

    fn hash(&self, key: &[u64]) -> u64 {
        let mut h = self.hasher.build_hasher();
        for &limb in key {
            h.write_u64(limb);
        }
        h.finish()
    }

    /// Index position and slot of the entry keyed `key`, if resident.
    fn find(&self, hash: u64, key: &[u64]) -> Option<(usize, u32)> {
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let slot = self.index[pos];
            if slot == EMPTY {
                return None;
            }
            // Limb by limb: `==` on slices of unknown length calls memcmp.
            if self.key_of(slot).iter().eq(key) {
                return Some((pos, slot));
            }
            pos = (pos + 1) & mask;
        }
    }

    /// [`CamTable::find`] for a caller's key limbs, read the way
    /// `write` stores a key: cut or zero-extended to `key_bits`.
    #[inline]
    fn probe(&self, key: &[u64]) -> Option<(usize, u32)> {
        let key = at_width(key, self.key_bits);
        self.find(self.hash(&key), &key)
    }

    /// Index position naming the occupied `slot`.
    fn pos_of(&self, slot: u32) -> usize {
        let mask = self.index.len() - 1;
        let mut pos = self.hash(self.key_of(slot)) as usize & mask;
        while self.index[pos] != slot {
            assert!(self.index[pos] != EMPTY, "indexed");
            pos = (pos + 1) & mask;
        }
        pos
    }

    /// Puts `slot` at the first empty position of its probe run.
    fn place(index: &mut [u32], hash: u64, slot: u32) {
        let mask = index.len() - 1;
        let mut pos = hash as usize & mask;
        while index[pos] != EMPTY {
            pos = (pos + 1) & mask;
        }
        index[pos] = slot;
    }

    /// Indexes `slot` (whose key hashes to `hash`), doubling the index
    /// first if it would pass half full.
    fn index_insert(&mut self, hash: u64, slot: u32) {
        if (self.len + 1) * 2 > self.index.len() {
            let mut wider = vec![EMPTY; self.index.len() * 2];
            for &s in self.index.iter().filter(|&&s| s != EMPTY) {
                Self::place(&mut wider, self.hash(self.key_of(s)), s);
            }
            self.index = wider;
        }
        Self::place(&mut self.index, hash, slot);
        self.len += 1;
    }

    /// Empties index position `hole` and shifts the rest of its probe
    /// run back over it, so every remaining entry stays reachable from
    /// its home position without tombstones.
    fn index_remove(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let slot = self.index[pos];
            if slot == EMPTY {
                break;
            }
            let home = self.hash(self.key_of(slot)) as usize & mask;
            // Movable iff its home is no later in the run than the hole.
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(hole) & mask) {
                self.index[hole] = slot;
                hole = pos;
            }
        }
        self.index[hole] = EMPTY;
        self.len -= 1;
    }

    /// Re-stamps `slot` to the current epoch (at most one queue record
    /// per slot per frame, so held strobes stay idempotent).
    fn restamp(&mut self, slot: u32) {
        let now = self.now;
        let at = self.stamp_at(slot);
        assert!(self.slab[at] != FREE, "occupied slot");
        if self.slab[at] != now {
            self.slab[at] = now;
            if self.ttl.is_some() {
                self.exp_q.push_back((slot, now));
            }
        }
    }

    /// Frees the entry in `slot`, indexed at `pos`. Its words stay in
    /// the slab until the slot is written again.
    fn remove_slot(&mut self, pos: usize, slot: u32, cause: Option<RemoveCause>) {
        let at = self.stamp_at(slot);
        assert!(self.slab[at] != FREE, "occupied slot");
        self.slab[at] = FREE;
        self.index_remove(pos);
        self.free.push(slot);
        match cause {
            Some(RemoveCause::Expired) => self.stats.expiries += 1,
            Some(RemoveCause::Evicted) => self.stats.evictions += 1,
            None => {}
        }
    }

    /// Removes the entry in `slot` involuntarily and reports it.
    fn expel(&mut self, pos: usize, slot: u32, cause: RemoveCause) {
        self.remove_slot(pos, slot, Some(cause));
        let (key, value) = self.entry_bits(slot);
        self.removed.push(Removed { key, value, cause });
    }

    /// Pops stale queue records; if the front-most valid record names an
    /// expired entry, reclaims it and returns its freed slot.
    fn reclaim_oldest_expired(&mut self) -> Option<u32> {
        while let Some(&(slot, stamp)) = self.exp_q.front() {
            // Stale: the slot is free or was re-stamped since.
            if self.slab[self.stamp_at(slot)] != stamp {
                self.exp_q.pop_front();
                continue;
            }
            if !self.is_expired(stamp) {
                return None;
            }
            self.exp_q.pop_front();
            self.expel(self.pos_of(slot), slot, RemoveCause::Expired);
            return Some(slot);
        }
        None
    }

    /// Advances the frame epoch and reclaims up to `TICK_RECLAIM`
    /// expired entries. Call once per delivered frame.
    pub fn tick_frame(&mut self) {
        self.removed.clear();
        self.now += 1;
        if self.ttl.is_some() {
            for _ in 0..TICK_RECLAIM {
                if self.reclaim_oldest_expired().is_none() {
                    break;
                }
            }
        }
    }

    /// The slot of `key`'s live entry, touched; an expired resident
    /// entry is reclaimed and reported as a miss.
    #[inline]
    fn lookup_slot(&mut self, key: &[u64]) -> Option<u32> {
        self.removed.clear();
        self.stats.lookups += 1;
        let (pos, slot) = self.probe(key)?;
        let stamp = self.slab[self.stamp_at(slot)];
        assert!(stamp != FREE, "indexed");
        if self.is_expired(stamp) {
            self.expel(pos, slot, RemoveCause::Expired);
            return None;
        }
        self.stats.hits += 1;
        self.restamp(slot);
        Some(slot)
    }

    /// Looks the key whose limbs are `key` up; a live hit is touched
    /// (re-stamped) and its value's limbs returned, an expired resident
    /// entry is reclaimed and reported as a miss.
    pub fn lookup_limbs(&mut self, key: &[u64]) -> Option<&[u64]> {
        let slot = self.lookup_slot(key)?;
        Some(self.value_of(slot))
    }

    /// [`CamTable::lookup_limbs`] for a `Bits` key.
    pub fn lookup(&mut self, key: &Bits) -> Option<Bits> {
        let slot = self.lookup_slot(key.limbs())?;
        Some(self.value_bits_at(slot))
    }

    /// The value limbs of `key` if it is resident and live. No touch,
    /// no stats, no reclaim.
    pub fn peek_limbs(&self, key: &[u64]) -> Option<&[u64]> {
        let (_, slot) = self.probe(key)?;
        let stamp = self.slab[self.stamp_at(slot)];
        assert!(stamp != FREE, "indexed");
        (!self.is_expired(stamp)).then(|| self.value_of(slot))
    }

    /// [`CamTable::peek_limbs`] for a `Bits` key.
    pub fn peek(&self, key: &Bits) -> Option<Bits> {
        let v = self.peek_limbs(key.limbs())?;
        Some(Bits::from_limbs(v, self.value_bits))
    }

    /// Re-stamps `key` if resident (pair-twin touch propagation).
    pub fn touch_limbs(&mut self, key: &[u64]) {
        self.removed.clear();
        if let Some((_, slot)) = self.probe(key) {
            self.restamp(slot);
        }
    }

    /// [`CamTable::touch_limbs`] for a `Bits` key.
    pub fn touch(&mut self, key: &Bits) {
        self.touch_limbs(key.limbs());
    }

    /// [`CamTable::write_limbs`] for a `Bits` key and value.
    pub fn write(&mut self, key: Bits, value: Bits) -> WriteEffect {
        let vb = self.value_bits;
        match self.write_limbs(key.limbs(), value.limbs()) {
            None => WriteEffect::Fresh,
            Some(old) => WriteEffect::Replaced(Bits::from_limbs(old, vb)),
        }
    }

    /// Writes `key → value` (both as limbs): replaces in place on key
    /// match, else fills a free slot, else (at capacity) reclaims the
    /// oldest expired entry, else evicts round-robin. Returns the limbs
    /// of the value it replaced, or `None` when the key was not resident
    /// (a fresh entry).
    pub fn write_limbs(&mut self, key: &[u64], value: &[u64]) -> Option<&[u64]> {
        self.removed.clear();
        self.stats.writes += 1;
        let (key, value) = (
            at_width(key, self.key_bits),
            at_width(value, self.value_bits),
        );
        let hash = self.hash(&key);
        if let Some((_, slot)) = self.find(hash, &key) {
            let at = slot as usize * self.stride() + self.kw;
            let old = &mut self.slab[at..at + self.vw];
            self.replaced.clear();
            self.replaced.extend_from_slice(old);
            old.copy_from_slice(&value);
            self.restamp(slot);
            return Some(&self.replaced);
        }
        let slot = if let Some(s) = self.free.pop() {
            s
        } else if self.n_slots() < self.capacity {
            let grown = self.slab.len() + self.stride();
            self.slab.resize(grown, FREE);
            (self.n_slots() - 1) as u32
        } else if let Some(s) = self.reclaim_oldest_expired() {
            self.free.pop();
            s
        } else {
            // All resident and live: round-robin overwrite, like the
            // NetFPGA reference switch on MAC-table overflow.
            let victim = (self.rr % self.n_slots()) as u32;
            self.rr = (self.rr + 1) % self.n_slots();
            self.expel(self.pos_of(victim), victim, RemoveCause::Evicted);
            self.free.pop();
            victim
        };
        let at = slot as usize * self.stride();
        self.slab[at..at + self.kw].copy_from_slice(&key);
        self.slab[at + self.kw..at + self.kw + self.vw].copy_from_slice(&value);
        self.slab[at + self.kw + self.vw] = self.now;
        self.index_insert(hash, slot);
        if self.ttl.is_some() {
            self.exp_q.push_back((slot, self.now));
        }
        None
    }

    /// Removes `key` if resident (live or expired); returns the entry's
    /// key and value limbs. Explicit deletes count in no statistic.
    pub fn delete_limbs(&mut self, key: &[u64]) -> Option<(&[u64], &[u64])> {
        self.removed.clear();
        let (pos, slot) = self.probe(key)?;
        self.remove_slot(pos, slot, None);
        Some((self.key_of(slot), self.value_of(slot)))
    }

    /// Removes `key` on behalf of a pair twin, charging `cause` to this
    /// table's stats. Does not report (no propagation loops).
    fn remove_for_pair(&mut self, key: &Bits, cause: RemoveCause) {
        if let Some((pos, slot)) = self.probe(key.limbs()) {
            self.remove_slot(pos, slot, Some(cause));
        }
    }
}

/// Derives the partner table's key from one side's `(key, value)`.
pub type PartnerKeyFn = fn(&Bits, &Bits) -> Bits;

/// Two [`CamTable`]s whose entries exist in 1:1 correspondence; every
/// involuntary removal on one side atomically removes the partner, and
/// touches propagate (see the module docs).
#[derive(Debug, Clone)]
pub struct CamPair {
    /// Side A (NAT: the forward table).
    pub a: CamTable,
    /// Side B (NAT: the reverse table).
    pub b: CamTable,
    a_to_b: PartnerKeyFn,
    b_to_a: PartnerKeyFn,
}

impl CamPair {
    /// Binds two tables with their partner-key derivations.
    pub fn new(a: CamTable, b: CamTable, a_to_b: PartnerKeyFn, b_to_a: PartnerKeyFn) -> Self {
        CamPair {
            a,
            b,
            a_to_b,
            b_to_a,
        }
    }

    /// Advances both sides' frame epochs; expired entries take their
    /// partners with them.
    pub fn tick_frame(&mut self) {
        self.a.tick_frame();
        propagate(&self.a, &mut self.b, self.a_to_b);
        self.b.tick_frame();
        propagate(&self.b, &mut self.a, self.b_to_a);
    }

    /// Looks up side A; a hit touches the B partner too.
    pub fn lookup_a_limbs(&mut self, key: &[u64]) -> Option<&[u64]> {
        let slot = lookup(&mut self.a, &mut self.b, self.a_to_b, key)?;
        Some(self.a.value_of(slot))
    }

    /// Looks up side B; a hit touches the A partner too.
    pub fn lookup_b_limbs(&mut self, key: &[u64]) -> Option<&[u64]> {
        let slot = lookup(&mut self.b, &mut self.a, self.b_to_a, key)?;
        Some(self.b.value_of(slot))
    }

    /// Writes into side A; an eviction takes the B partner with it.
    pub fn write_a_limbs(&mut self, key: &[u64], value: &[u64]) {
        write(&mut self.a, &mut self.b, self.a_to_b, key, value);
    }

    /// Writes into side B; an eviction takes the A partner with it.
    pub fn write_b_limbs(&mut self, key: &[u64], value: &[u64]) {
        write(&mut self.b, &mut self.a, self.b_to_a, key, value);
    }

    /// Deletes from side A, taking the B partner with it.
    pub fn delete_a_limbs(&mut self, key: &[u64]) {
        delete(&mut self.a, &mut self.b, self.a_to_b, key);
    }

    /// Deletes from side B, taking the A partner with it.
    pub fn delete_b_limbs(&mut self, key: &[u64]) {
        delete(&mut self.b, &mut self.a, self.b_to_a, key);
    }
}

// One side of a pair at a time: `this` is the side called, `twin` the
// other, and `to_twin` derives a partner key from an entry of `this`.

/// Removes the twins of the entries `this`'s last call removed.
fn propagate(this: &CamTable, twin: &mut CamTable, to_twin: PartnerKeyFn) {
    for r in &this.removed {
        twin.remove_for_pair(&to_twin(&r.key, &r.value), r.cause);
    }
}

/// A lookup on `this`; a hit touches its twin. Returns the hit's slot.
fn lookup(
    this: &mut CamTable,
    twin: &mut CamTable,
    to_twin: PartnerKeyFn,
    key: &[u64],
) -> Option<u32> {
    let slot = this.lookup_slot(key);
    if let Some(slot) = slot {
        let (k, v) = this.entry_bits(slot);
        twin.touch(&to_twin(&k, &v));
    }
    propagate(this, twin, to_twin);
    slot
}

/// A write into `this`: a changed mapping orphans the old value's twin,
/// which goes as displaced; an unchanged one touches it.
fn write(
    this: &mut CamTable,
    twin: &mut CamTable,
    to_twin: PartnerKeyFn,
    key: &[u64],
    value: &[u64],
) {
    let value = at_width(value, this.value_bits);
    let (kb, vb) = (this.key_bits, this.value_bits);
    if let Some(old) = this.write_limbs(key, &value) {
        let k = Bits::from_limbs(&at_width(key, kb), kb);
        let pk = to_twin(&k, &Bits::from_limbs(old, vb));
        if old != &*value {
            twin.remove_for_pair(&pk, RemoveCause::Evicted);
        } else {
            twin.touch(&pk);
        }
    }
    propagate(this, twin, to_twin);
}

/// A delete from `this`, taking the twin with it.
fn delete(this: &mut CamTable, twin: &mut CamTable, to_twin: PartnerKeyFn, key: &[u64]) {
    let (kb, vb) = (this.key_bits, this.value_bits);
    if let Some((k, v)) = this.delete_limbs(key) {
        let pk = to_twin(&Bits::from_limbs(k, kb), &Bits::from_limbs(v, vb));
        twin.delete_limbs(pk.limbs());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(v: u64, w: u16) -> Bits {
        Bits::from_u64(v, w)
    }

    impl CamTable {
        /// [`CamTable::delete_limbs`] for a `Bits` key.
        fn delete(&mut self, key: &Bits) -> Option<(Bits, Bits)> {
            let (kb, vb) = (self.key_bits, self.value_bits);
            let (k, v) = self.delete_limbs(key.limbs())?;
            Some((Bits::from_limbs(k, kb), Bits::from_limbs(v, vb)))
        }
    }

    #[test]
    fn write_lookup_delete_round_trip() {
        let mut t = CamTable::new(4, 16, 8);
        assert_eq!(t.write(b(10, 16), b(1, 8)), WriteEffect::Fresh);
        assert_eq!(t.lookup(&b(10, 16)), Some(b(1, 8)));
        assert_eq!(t.lookup(&b(11, 16)), None);
        assert_eq!(t.write(b(10, 16), b(2, 8)), WriteEffect::Replaced(b(1, 8)));
        assert_eq!(t.delete(&b(10, 16)), Some((b(10, 16), b(2, 8))));
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.stats.lookups, 2);
        assert_eq!(t.stats.hits, 1);
        assert_eq!(t.stats.writes, 2);
        assert_eq!(t.stats.evictions, 0);
    }

    #[test]
    fn full_table_evicts_round_robin_oldest_slot_first() {
        let mut t = CamTable::new(2, 8, 8);
        t.write(b(1, 8), b(0x11, 8));
        t.write(b(2, 8), b(0x22, 8));
        t.write(b(3, 8), b(0x33, 8)); // evicts slot 0 (key 1)
        assert_eq!(t.occupancy(), 2);
        assert_eq!(t.stats.evictions, 1);
        assert!(t.peek(&b(1, 8)).is_none());
        assert_eq!(t.peek(&b(2, 8)), Some(b(0x22, 8)));
        assert_eq!(t.peek(&b(3, 8)), Some(b(0x33, 8)));
        assert_eq!(t.removed.len(), 1);
        assert_eq!(t.removed[0].key, b(1, 8));
        assert_eq!(t.removed[0].cause, RemoveCause::Evicted);
    }

    #[test]
    fn reports_are_those_of_the_last_call() {
        // A table nobody drains (an unpaired CAM, a checker's shadow)
        // must not keep a report per eviction.
        let mut t = CamTable::new(2, 16, 8);
        for k in 0..1000 {
            t.write(b(k, 16), b(0, 8));
            assert!(t.removed.len() <= 1, "after key {k}: {}", t.removed.len());
        }
        assert_eq!(t.stats.evictions, 998);
    }

    #[test]
    fn ttl_expires_idle_entries_and_touches_keep_them_alive() {
        let mut t = CamTable::new(8, 8, 8).with_ttl(Some(2));
        t.write(b(1, 8), b(0xAA, 8));
        t.write(b(2, 8), b(0xBB, 8));
        for _ in 0..2 {
            t.tick_frame();
            // Touch key 1 every frame; key 2 idles.
            assert!(t.lookup(&b(1, 8)).is_some());
        }
        t.tick_frame(); // key 2's stamp is now 3 epochs old: dead.
        assert_eq!(t.lookup(&b(2, 8)), None, "expired entry must miss");
        assert_eq!(t.stats.expiries, 1);
        assert!(t.lookup(&b(1, 8)).is_some(), "touched entry stays live");
    }

    #[test]
    fn sweep_reclaims_expired_entries_without_lookups() {
        let mut t = CamTable::new(64, 8, 8).with_ttl(Some(1));
        for k in 0..8 {
            t.write(b(k, 8), b(k, 8));
        }
        assert_eq!(t.occupancy(), 8);
        t.tick_frame();
        t.tick_frame();
        // All 8 are now expired; the bounded sweep drains them over the
        // next frames.
        t.tick_frame();
        assert!(t.occupancy() <= 8 - 4);
        t.tick_frame();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.stats.expiries, 8);
    }

    #[test]
    fn full_table_reclaims_expired_before_evicting_live() {
        let mut t = CamTable::new(2, 8, 8).with_ttl(Some(1));
        t.write(b(1, 8), b(0x11, 8));
        t.tick_frame();
        t.tick_frame(); // key 1 expired (sweep budget may reclaim it)
        t.write(b(2, 8), b(0x22, 8));
        t.write(b(3, 8), b(0x33, 8)); // full: must reclaim 1, not evict 2
        assert_eq!(t.stats.evictions, 0, "live entry must survive");
        assert!(t.peek(&b(2, 8)).is_some());
        assert!(t.peek(&b(3, 8)).is_some());
        assert!(t.stats.expiries >= 1);
    }

    #[test]
    fn pair_removals_and_touches_propagate() {
        // a: key k → value v; partner key in b is v; b: value is k.
        fn a2b(_k: &Bits, v: &Bits) -> Bits {
            v.clone().resize(8)
        }
        fn b2a(_k: &Bits, v: &Bits) -> Bits {
            v.clone().resize(8)
        }
        let mk = || {
            CamPair::new(
                CamTable::new(2, 8, 8).with_ttl(Some(10)),
                CamTable::new(2, 8, 8).with_ttl(Some(10)),
                a2b,
                b2a,
            )
        };

        // Eviction in a removes the partner in b.
        let mut p = mk();
        for k in 1..=3u64 {
            p.write_a_limbs(&[k], &[0x10 + k]);
            p.write_b_limbs(&[0x10 + k], &[k]);
        }
        // k=3's write into a evicted a's k=1 → b's 0x11 partner must be gone.
        assert_eq!(p.a.occupancy(), 2);
        assert_eq!(p.b.occupancy(), 2);
        assert!(p.a.peek(&b(1, 8)).is_none());
        assert!(p.b.peek(&b(0x11, 8)).is_none(), "partner must die too");
        assert_eq!(p.b.stats.evictions, 1, "same-cause stat in sibling");

        // Touch on one side keeps the partner alive past its TTL.
        let mut p = mk();
        p.write_a_limbs(&[1], &[0x11]);
        p.write_b_limbs(&[0x11], &[1]);
        for _ in 0..20 {
            p.tick_frame();
            assert!(p.lookup_a_limbs(&[1]).is_some());
        }
        assert!(p.b.peek(&b(0x11, 8)).is_some(), "touch must propagate");

        // Expiry removes both sides.
        let mut p = mk();
        p.write_a_limbs(&[1], &[0x11]);
        p.write_b_limbs(&[0x11], &[1]);
        for _ in 0..12 {
            p.tick_frame();
        }
        assert_eq!(p.a.occupancy(), 0);
        assert_eq!(p.b.occupancy(), 0);
        assert_eq!(p.a.stats.expiries + p.b.stats.expiries, 2);
    }

    #[test]
    fn held_strobe_replay_is_idempotent() {
        // Re-running a write/lookup with identical operands (an FSM
        // holding a strobe across a budget cut) must not change state.
        let mut t = CamTable::new(2, 8, 8).with_ttl(Some(5));
        t.write(b(1, 8), b(7, 8));
        let occ = t.occupancy();
        let q_len = t.exp_q.len();
        t.write(b(1, 8), b(7, 8));
        t.lookup(&b(1, 8));
        t.lookup(&b(1, 8));
        assert_eq!(t.occupancy(), occ);
        assert_eq!(t.exp_q.len(), q_len, "no duplicate queue records");
        assert_eq!(t.peek(&b(1, 8)), Some(b(7, 8)));
    }

    #[test]
    fn key_of_another_width_follows_the_write_rule() {
        // `write` stores the 16-bit key 0x0101 as the 8-bit key 0x01;
        // every other entry point must read a wider or narrower
        // spelling of that key the same way.
        let mut t = CamTable::new(4, 8, 8).with_ttl(Some(2));
        assert_eq!(t.write(b(0x0101, 16), b(7, 8)), WriteEffect::Fresh);
        assert_eq!(t.write(b(1, 8), b(8, 8)), WriteEffect::Replaced(b(7, 8)));
        assert_eq!(t.peek(&b(0x0101, 16)), Some(b(8, 8)));
        assert_eq!(t.peek(&b(1, 4)), Some(b(8, 8)), "narrow keys zero-extend");
        assert_eq!(t.lookup(&b(0x0101, 16)), Some(b(8, 8)));
        assert_eq!((t.stats.lookups, t.stats.hits), (1, 1));

        // Stamped at epoch 0 with a TTL of 2, the entry dies at epoch 3
        // unless the touch at epoch 2 reached it.
        t.tick_frame();
        t.tick_frame();
        t.touch(&b(0x0201, 16));
        t.tick_frame();
        assert_eq!(t.peek(&b(1, 8)), Some(b(8, 8)), "touch must re-stamp");

        t.write(b(2, 8), b(9, 8));
        t.remove_for_pair(&b(0x0302, 16), RemoveCause::Evicted);
        assert_eq!(t.peek(&b(2, 8)), None);
        assert_eq!(t.stats.evictions, 1);

        assert_eq!(t.delete(&b(0x0101, 16)), Some((b(1, 8), b(8, 8))));
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn slot_numbers_bound_the_capacity() {
        // Nothing is allocated for capacity, so the largest table the
        // 32-bit slot numbers can address is cheap to make.
        let t = CamTable::new(u32::MAX as usize, 48, 8);
        assert_eq!(t.capacity(), u32::MAX as usize);
        assert!(t.slab.is_empty());
    }

    #[test]
    #[should_panic(expected = "numbered in 32 bits")]
    fn capacity_beyond_the_slot_numbers_rejected() {
        let _ = CamTable::new(u32::MAX as usize + 1, 48, 8);
    }

    /// Fills a table to capacity (every index doubling from
    /// `INDEX_MIN`), deletes every other key, and checks that the index
    /// still finds exactly the survivors and that the freed slots are
    /// reused last-freed first.
    fn index_survives_churn(key_bits: u16, key: impl Fn(u64) -> Bits) {
        const N: u64 = 50_000;
        let val = |i| b(i, 32);
        let mut t = CamTable::new(N as usize, key_bits, 32);
        for i in 0..N {
            assert_eq!(t.write(key(i), val(i)), WriteEffect::Fresh);
        }
        assert_eq!(t.occupancy(), N as usize);
        assert!(t.index.len() >= 2 * N as usize && t.index.len().is_power_of_two());
        for i in (0..N).step_by(2) {
            assert_eq!(t.delete(&key(i)), Some((key(i), val(i))));
        }
        assert_eq!(t.occupancy(), N as usize / 2);
        for i in 0..N {
            assert_eq!(t.peek(&key(i)), (i % 2 == 1).then(|| val(i)), "key {i}");
        }
        // Key i was written into slot i, so the free list holds the even
        // slots in rising order and hands them back from the top.
        for (j, i) in (0..N).step_by(2).enumerate() {
            assert_eq!(t.write(key(N + i), val(N + i)), WriteEffect::Fresh);
            let (_, slot) = t.probe(key(N + i).limbs()).expect("just written");
            assert_eq!(u64::from(slot), N - 2 - 2 * j as u64);
        }
        assert_eq!(t.occupancy(), N as usize);
        assert_eq!(t.n_slots(), N as usize);
        for i in 0..N {
            assert_eq!(t.lookup(&key(N + i)), (i % 2 == 0).then(|| val(N + i)));
            assert_eq!(t.lookup(&key(i)), (i % 2 == 1).then(|| val(i)));
        }
        assert_eq!((t.stats.evictions, t.stats.expiries), (0, 0));
    }

    #[test]
    fn index_finds_every_survivor_after_churn() {
        // Multiplying by an odd constant permutes the 48-bit keys.
        index_survives_churn(48, |i| b(i.wrapping_mul(0x9e37_79b9_7f4b), 48));
    }

    #[test]
    fn index_tells_keys_apart_by_their_high_limb() {
        index_survives_churn(96, |i| Bits::from_u128((u128::from(i) << 64) | 0xfeed, 96));
    }

    /// The table as the module docs state its contract, by linear scan:
    /// no hash, no index, and the expiry order kept as an append-only
    /// log that is searched from the start every time.
    #[derive(Default)]
    struct Model {
        cap: usize,
        ttl: Option<u64>,
        now: u64,
        rr: usize,
        /// `(key, value, stamp)` per slot.
        slots: Vec<Option<(Bits, Bits, u64)>>,
        free: Vec<usize>,
        log: Vec<(usize, u64)>,
        stats: CamStats,
        removed: Vec<(Bits, Bits, RemoveCause)>,
    }

    impl Model {
        fn expired(&self, stamp: u64) -> bool {
            self.ttl.is_some_and(|t| self.now - stamp > t)
        }

        fn find(&self, key: &Bits) -> Option<usize> {
            let holds = |s: &Option<(Bits, Bits, u64)>| s.as_ref().is_some_and(|e| e.0 == *key);
            self.slots.iter().position(holds)
        }

        fn restamp(&mut self, i: usize) {
            let e = self.slots[i].as_mut().unwrap();
            if e.2 != self.now {
                e.2 = self.now;
                self.log.push((i, self.now));
            }
        }

        fn remove(&mut self, i: usize, cause: Option<RemoveCause>) -> (Bits, Bits) {
            let (key, value, _) = self.slots[i].take().unwrap();
            self.free.push(i);
            if let Some(cause) = cause {
                match cause {
                    RemoveCause::Expired => self.stats.expiries += 1,
                    RemoveCause::Evicted => self.stats.evictions += 1,
                }
                self.removed.push((key.clone(), value.clone(), cause));
            }
            (key, value)
        }

        /// The first log record that still describes its slot names the
        /// oldest-stamped entry; reclaim it if it has expired.
        fn reclaim(&mut self) -> Option<usize> {
            let current =
                |&&(i, s): &&(usize, u64)| self.slots[i].as_ref().is_some_and(|e| e.2 == s);
            let &(i, stamp) = self.log.iter().find(current)?;
            self.expired(stamp).then(|| {
                self.remove(i, Some(RemoveCause::Expired));
                i
            })
        }

        fn tick(&mut self) {
            self.now += 1;
            for _ in 0..TICK_RECLAIM {
                if self.reclaim().is_none() {
                    break;
                }
            }
        }

        fn lookup(&mut self, key: &Bits) -> Option<Bits> {
            self.stats.lookups += 1;
            let i = self.find(key)?;
            if self.expired(self.slots[i].as_ref().unwrap().2) {
                self.remove(i, Some(RemoveCause::Expired));
                return None;
            }
            self.stats.hits += 1;
            self.restamp(i);
            self.slots[i].as_ref().map(|e| e.1.clone())
        }

        fn peek(&self, key: &Bits) -> Option<Bits> {
            let e = self.slots[self.find(key)?].as_ref().unwrap();
            (!self.expired(e.2)).then(|| e.1.clone())
        }

        fn write(&mut self, key: Bits, value: Bits) -> WriteEffect {
            self.stats.writes += 1;
            if let Some(i) = self.find(&key) {
                let old = std::mem::replace(&mut self.slots[i].as_mut().unwrap().1, value);
                self.restamp(i);
                return WriteEffect::Replaced(old);
            }
            let i = if let Some(i) = self.free.pop() {
                i
            } else if self.slots.len() < self.cap {
                self.slots.push(None);
                self.slots.len() - 1
            } else {
                let i = self.reclaim().unwrap_or_else(|| {
                    let victim = self.rr % self.cap;
                    self.rr = (self.rr + 1) % self.cap;
                    self.remove(victim, Some(RemoveCause::Evicted));
                    victim
                });
                assert_eq!(self.free.pop(), Some(i));
                i
            };
            self.slots[i] = Some((key, value, self.now));
            self.log.push((i, self.now));
            WriteEffect::Fresh
        }
    }

    /// `v`'s low two bits at the bottom of the width and the rest at the
    /// top, so wide keys differ in their highest limb.
    fn spread(v: u64, w: u16) -> Bits {
        let top = Bits::from_u64(v >> 2, w).shl(u32::from(w) - 6);
        top.or(&b(v & 3, w))
    }

    /// NAT's partner-key derivations (`emu_services::nat_cam_pair`).
    fn fwd_to_rev(key: &Bits, value: &Bits) -> Bits {
        Bits::from_u64((value.to_u64() << 8) | (key.to_u64() & 0xff), 24)
    }

    fn rev_to_fwd(key: &Bits, value: &Bits) -> Bits {
        Bits::from_u64(((value.to_u64() >> 8) << 8) | (key.to_u64() & 0xff), 56)
    }

    const WIDTHS: [u16; 5] = [8, 48, 64, 72, 200];
    const TTLS: [Option<u64>; 3] = [None, Some(1), Some(3)];

    proptest! {
        /// Every return value, counter, occupancy and removal report
        /// (key, value, cause, order) agrees with the linear-scan
        /// reference after every operation, at one-limb, boundary and
        /// multi-limb widths, through growth, free-list reuse,
        /// expired-first reclaim and round-robin eviction.
        #[test]
        fn table_matches_the_linear_scan_reference(
            (kw, vw, ttl) in (0usize..5, 0usize..5, 0usize..3),
            capacity in 1usize..=8,
            ops in proptest::collection::vec((0u8..8, 0u64..16, any::<u64>()), 1..200),
        ) {
            let (kb, vb, ttl) = (WIDTHS[kw], WIDTHS[vw], TTLS[ttl]);
            let mut t = CamTable::new(capacity, kb, vb).with_ttl(ttl);
            let mut m = Model {
                cap: capacity,
                ttl,
                ..Model::default()
            };
            for (op, k, v) in ops {
                let key = spread(k, kb);
                let value = Bits::from_limbs(&[v, !v, v.rotate_left(21), v ^ 0xa5a5], vb);
                // Every operation but a peek replaces the reports.
                if op != 4 {
                    m.removed.clear();
                }
                match op {
                    0 | 1 => prop_assert_eq!(
                        t.write(key.clone(), value.clone()),
                        m.write(key, value)
                    ),
                    2 | 3 => prop_assert_eq!(t.lookup(&key), m.lookup(&key)),
                    4 => prop_assert_eq!(t.peek(&key), m.peek(&key)),
                    5 => {
                        t.touch(&key);
                        if let Some(i) = m.find(&key) {
                            m.restamp(i);
                        }
                    }
                    6 => prop_assert_eq!(
                        t.delete(&key),
                        m.find(&key).map(|i| m.remove(i, None))
                    ),
                    _ => {
                        t.tick_frame();
                        m.tick();
                    }
                }
                prop_assert_eq!(t.stats, m.stats);
                prop_assert_eq!(t.occupancy(), m.slots.iter().flatten().count());
                let reported: Vec<_> = t
                    .removed
                    .iter()
                    .map(|r| (r.key.clone(), r.value.clone(), r.cause))
                    .collect();
                prop_assert_eq!(&reported, &m.removed);
            }
        }

        /// NAT's two tables never disagree: after every operation the
        /// sides hold equally many entries and a flow is live on one
        /// side iff its twin is live on the other.
        #[test]
        fn pair_sides_stay_in_lockstep(
            capacity in 1usize..=8,
            ttl in 0usize..3,
            ops in proptest::collection::vec((0u8..6, 0u64..16), 1..200),
        ) {
            let ttl = TTLS[ttl];
            let mut p = CamPair::new(
                CamTable::new(capacity, 56, 16).with_ttl(ttl),
                CamTable::new(capacity, 24, 56).with_ttl(ttl),
                fwd_to_rev,
                rev_to_fwd,
            );
            // Flow f: {int_ip, int_port} and proto → external port.
            let flow = |f: u64| {
                let (host, proto, port) = (0x0a00_0001_1000 + f, 6 + 11 * (f % 2), 50_000 + f);
                let fwd = (b((host << 8) | proto, 56), b(port, 16));
                let rev = (b((port << 8) | proto, 24), b((host << 8) | (1 + f % 3), 56));
                (fwd, rev)
            };
            for (op, f) in ops {
                let ((fk, fv), (rk, rv)) = flow(f);
                match op {
                    0 | 1 => {
                        p.write_a_limbs(fk.limbs(), fv.limbs());
                        p.write_b_limbs(rk.limbs(), rv.limbs());
                    }
                    2 => prop_assert_eq!(
                        p.lookup_a_limbs(fk.limbs()).is_some(),
                        p.b.peek(&rk).is_some()
                    ),
                    3 => prop_assert_eq!(
                        p.lookup_b_limbs(rk.limbs()).is_some(),
                        p.a.peek(&fk).is_some()
                    ),
                    4 if f % 2 == 0 => p.delete_a_limbs(fk.limbs()),
                    4 => p.delete_b_limbs(rk.limbs()),
                    _ => p.tick_frame(),
                }
                prop_assert_eq!(p.a.occupancy(), p.b.occupancy());
                for g in 0..16 {
                    let ((fk, fv), (rk, rv)) = flow(g);
                    let (a, b) = (p.a.peek(&fk), p.b.peek(&rk));
                    prop_assert_eq!(a.is_some(), b.is_some(), "flow {} is half-dead", g);
                    prop_assert!(a.is_none() || (a, b) == (Some(fv), Some(rv)));
                }
            }
        }

        /// One implementation: a table driven through the `Bits` entry
        /// points and a twin driven through the limb entry points, with
        /// keys and values narrower, as wide as and wider than the
        /// table's widths, agree on every hit, value, write effect,
        /// statistic, occupancy and removal report.
        #[test]
        fn bits_and_limb_entry_points_agree(
            (kw, vw, ttl) in (0usize..5, 0usize..5, 0usize..3),
            capacity in 1usize..=8,
            ops in proptest::collection::vec((0u8..8, 0u64..16, any::<u64>(), 0u8..3), 1..200),
        ) {
            let (kb, vb, ttl) = (WIDTHS[kw], WIDTHS[vw], TTLS[ttl]);
            let mut by_bits = CamTable::new(capacity, kb, vb).with_ttl(ttl);
            let mut by_limbs = CamTable::new(capacity, kb, vb).with_ttl(ttl);
            let value_of = |v: &[u64]| Bits::from_limbs(v, vb);
            for (op, k, v, w) in ops {
                // Narrower, as wide as, or 40 bits wider than the table.
                let width = |b: u16| [b - b / 4, b, b + 40][usize::from(w)];
                let key = spread(k, width(kb));
                let value = Bits::from_limbs(&[v, !v, v.rotate_left(21), v ^ 0xa5a5], width(vb));
                match op {
                    0 | 1 => prop_assert_eq!(
                        by_bits.write(key.clone(), value.clone()),
                        match by_limbs.write_limbs(key.limbs(), value.limbs()) {
                            None => WriteEffect::Fresh,
                            Some(old) => WriteEffect::Replaced(value_of(old)),
                        }
                    ),
                    2 => prop_assert_eq!(
                        by_bits.lookup(&key),
                        by_limbs.lookup_limbs(key.limbs()).map(value_of)
                    ),
                    3 => prop_assert_eq!(
                        by_bits.peek(&key),
                        by_limbs.peek_limbs(key.limbs()).map(value_of)
                    ),
                    4 => {
                        by_bits.touch(&key);
                        by_limbs.touch_limbs(key.limbs());
                    }
                    5 => prop_assert_eq!(
                        by_bits.delete(&key),
                        by_limbs
                            .delete_limbs(key.limbs())
                            .map(|(k, v)| (Bits::from_limbs(k, kb), value_of(v)))
                    ),
                    _ => {
                        by_bits.tick_frame();
                        by_limbs.tick_frame();
                    }
                }
                prop_assert_eq!(by_bits.stats, by_limbs.stats);
                prop_assert_eq!(by_bits.occupancy(), by_limbs.occupancy());
                let reports = |t: &CamTable| -> Vec<_> {
                    t.removed
                        .iter()
                        .map(|r| (r.key.clone(), r.value.clone(), r.cause))
                        .collect()
                };
                prop_assert_eq!(reports(&by_bits), reports(&by_limbs));
            }
        }

        /// The same for a [`CamPair`] (NAT's geometry and partner keys),
        /// which speaks limbs only: a pair fed each key and value as a
        /// `Bits` spelt narrower than, as wide as or 40 bits wider than its
        /// table's width, and a twin fed the one-limb words, agree on every
        /// hit and value, and so do both sides' statistics, occupancy and
        /// contents, so a twin removed through one spelling is removed
        /// through the other.
        #[test]
        fn pair_bits_and_limb_entry_points_agree(
            capacity in 1usize..=8,
            ttl in 0usize..3,
            ops in proptest::collection::vec((0u8..7, 0u64..16, 0u8..3), 1..200),
        ) {
            let ttl = TTLS[ttl];
            let pair = || CamPair::new(
                CamTable::new(capacity, 56, 16).with_ttl(ttl),
                CamTable::new(capacity, 24, 56).with_ttl(ttl),
                fwd_to_rev,
                rev_to_fwd,
            );
            let (mut by_bits, mut by_limbs) = (pair(), pair());
            // Flow f's forward and reverse keys and values, each spelt
            // narrower than, as wide as or 40 bits wider than its table's.
            let flow = |f: u64, w: u8| {
                let at = |v: u64, b: u16| {
                    let b = [b - 8, b, b + 40][usize::from(w)];
                    Bits::from_u64(v, b)
                };
                let (host, proto, port) = (0x0a00_0001_1000 + f, 6 + 11 * (f % 2), 50_000 + f % 5);
                let fwd = (at((host << 8) | proto, 56), at(port, 16));
                let rev = (at((port << 8) | proto, 24), at((host << 8) | (1 + f % 3), 56));
                (fwd, rev)
            };
            let word = |x: &Bits| [x.to_u64()];
            for (op, f, w) in ops {
                let ((fk, fv), (rk, rv)) = flow(f, w);
                match op {
                    0 => {
                        by_bits.write_a_limbs(fk.limbs(), fv.limbs());
                        by_limbs.write_a_limbs(&word(&fk), &word(&fv));
                    }
                    1 => {
                        by_bits.write_b_limbs(rk.limbs(), rv.limbs());
                        by_limbs.write_b_limbs(&word(&rk), &word(&rv));
                    }
                    2 => prop_assert_eq!(
                        by_bits.lookup_a_limbs(fk.limbs()).map(<[u64]>::to_vec),
                        by_limbs.lookup_a_limbs(&word(&fk)).map(<[u64]>::to_vec)
                    ),
                    3 => prop_assert_eq!(
                        by_bits.lookup_b_limbs(rk.limbs()).map(<[u64]>::to_vec),
                        by_limbs.lookup_b_limbs(&word(&rk)).map(<[u64]>::to_vec)
                    ),
                    4 => {
                        by_bits.delete_a_limbs(fk.limbs());
                        by_limbs.delete_a_limbs(&word(&fk));
                    }
                    5 => {
                        by_bits.delete_b_limbs(rk.limbs());
                        by_limbs.delete_b_limbs(&word(&rk));
                    }
                    _ => {
                        by_bits.tick_frame();
                        by_limbs.tick_frame();
                    }
                }
                for (x, y) in [(&by_bits.a, &by_limbs.a), (&by_bits.b, &by_limbs.b)] {
                    prop_assert_eq!(x.stats, y.stats);
                    prop_assert_eq!(x.occupancy(), y.occupancy());
                }
                for g in 0..16 {
                    let ((fk, _), (rk, _)) = flow(g, 1);
                    prop_assert_eq!(by_bits.a.peek(&fk), by_limbs.a.peek(&fk));
                    prop_assert_eq!(by_bits.b.peek(&rk), by_limbs.b.peek(&rk));
                }
            }
        }
    }
}
