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
//! `Bits` exist only at the API boundary: a key is cut to its `kw`
//! limbs on the way in and values are rebuilt on the way out; nothing
//! inside hashes, stores or compares one.
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
pub enum RemoveCause {
    /// TTL lapsed.
    Expired,
    /// Displaced live to make room.
    Evicted,
}

/// An involuntarily removed entry, reported so callers (pair twins,
/// checker shadows) can react.
#[derive(Debug, Clone)]
pub struct Removed {
    /// The removed entry's key.
    pub key: Bits,
    /// The removed entry's value.
    pub value: Bits,
    /// Why it was removed.
    pub cause: RemoveCause,
}

/// Effect of a [`CamTable::write`] on the written key itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteEffect {
    /// The key was not resident; a new entry was created.
    Fresh,
    /// The key was resident; its value was replaced (old value inside).
    Replaced(Bits),
}

/// `bits` cut or zero-extended to `width`, whose `⌈width/64⌉` limbs
/// are the table words. The one place a `Bits` becomes table words, so
/// every entry point agrees on what a key is. A port samples a value at
/// its declared width, which is borrowed as it is, not copied.
fn at_width(bits: &Bits, width: u16) -> Cow<'_, Bits> {
    if bits.width() == width {
        Cow::Borrowed(bits)
    } else {
        Cow::Owned(bits.resize(width))
    }
}

/// Hashed, TTL-aware CAM storage (see the module docs for the storage
/// layout and the capacity/expiry/eviction contract).
#[derive(Debug)]
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
    removed: Vec<Removed>,
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

    /// Drains the involuntary removals since the last drain.
    pub fn take_removed(&mut self) -> Vec<Removed> {
        std::mem::take(&mut self.removed)
    }

    /// Discards pending removal reports (callers that don't track
    /// pairs or shadows).
    pub fn clear_removed(&mut self) {
        self.removed.clear();
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

    fn value_of(&self, slot: u32) -> Bits {
        let at = slot as usize * self.stride() + self.kw;
        Bits::from_limbs(&self.slab[at..at + self.vw], self.value_bits)
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

    /// [`CamTable::find`] for a caller's `Bits`, read the way `write`
    /// stores a key: cut or zero-extended to `key_bits`.
    fn probe(&self, key: &Bits) -> Option<(usize, u32)> {
        let key = at_width(key, self.key_bits);
        self.find(self.hash(key.limbs()), key.limbs())
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

    /// Frees the entry in `slot`, indexed at `pos`; returns it.
    fn remove_slot(&mut self, pos: usize, slot: u32, cause: Option<RemoveCause>) -> (Bits, Bits) {
        let at = self.stamp_at(slot);
        assert!(self.slab[at] != FREE, "occupied slot");
        let entry = (
            Bits::from_limbs(self.key_of(slot), self.key_bits),
            self.value_of(slot),
        );
        self.slab[at] = FREE;
        self.index_remove(pos);
        self.free.push(slot);
        match cause {
            Some(RemoveCause::Expired) => self.stats.expiries += 1,
            Some(RemoveCause::Evicted) => self.stats.evictions += 1,
            None => {}
        }
        entry
    }

    /// Removes the entry in `slot` involuntarily and reports it.
    fn expel(&mut self, pos: usize, slot: u32, cause: RemoveCause) {
        let (key, value) = self.remove_slot(pos, slot, Some(cause));
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
        self.now += 1;
        if self.ttl.is_some() {
            for _ in 0..TICK_RECLAIM {
                if self.reclaim_oldest_expired().is_none() {
                    break;
                }
            }
        }
    }

    /// Looks `key` up; a live hit is touched (re-stamped), an expired
    /// resident entry is reclaimed and reported as a miss.
    pub fn lookup(&mut self, key: &Bits) -> Option<Bits> {
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
        Some(self.value_of(slot))
    }

    /// The value of `key` if it is resident and live. No touch, no
    /// stats, no reclaim.
    pub fn peek(&self, key: &Bits) -> Option<Bits> {
        let (_, slot) = self.probe(key)?;
        let stamp = self.slab[self.stamp_at(slot)];
        assert!(stamp != FREE, "indexed");
        (!self.is_expired(stamp)).then(|| self.value_of(slot))
    }

    /// Re-stamps `key` if resident (pair-twin touch propagation).
    pub fn touch(&mut self, key: &Bits) {
        if let Some((_, slot)) = self.probe(key) {
            self.restamp(slot);
        }
    }

    /// Writes `key → value`: replaces in place on key match, else fills
    /// a free slot, else (at capacity) reclaims the oldest expired
    /// entry, else evicts round-robin.
    pub fn write(&mut self, key: Bits, value: Bits) -> WriteEffect {
        self.stats.writes += 1;
        let (key, value) = (
            at_width(&key, self.key_bits),
            at_width(&value, self.value_bits),
        );
        let (key, value) = (key.limbs(), value.limbs());
        let hash = self.hash(key);
        if let Some((_, slot)) = self.find(hash, key) {
            let old = self.value_of(slot);
            let at = slot as usize * self.stride() + self.kw;
            self.slab[at..at + self.vw].copy_from_slice(value);
            self.restamp(slot);
            return WriteEffect::Replaced(old);
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
        self.slab[at..at + self.kw].copy_from_slice(key);
        self.slab[at + self.kw..at + self.kw + self.vw].copy_from_slice(value);
        self.slab[at + self.kw + self.vw] = self.now;
        self.index_insert(hash, slot);
        if self.ttl.is_some() {
            self.exp_q.push_back((slot, self.now));
        }
        WriteEffect::Fresh
    }

    /// Removes `key` if resident (live or expired); returns the entry.
    /// Explicit deletes count in no statistic.
    pub fn delete(&mut self, key: &Bits) -> Option<(Bits, Bits)> {
        let (pos, slot) = self.probe(key)?;
        Some(self.remove_slot(pos, slot, None))
    }

    /// Removes `key` on behalf of a pair twin, charging `cause` to this
    /// table's stats. Does not report (no propagation loops).
    fn remove_for_pair(&mut self, key: &Bits, cause: RemoveCause) {
        if let Some((pos, slot)) = self.probe(key) {
            self.remove_slot(pos, slot, Some(cause));
        }
    }
}

/// Derives the partner table's key from one side's `(key, value)`.
pub type PartnerKeyFn = fn(&Bits, &Bits) -> Bits;

/// Two [`CamTable`]s whose entries exist in 1:1 correspondence; every
/// involuntary removal on one side atomically removes the partner, and
/// touches propagate (see the module docs).
#[derive(Debug)]
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

    fn propagate_a(&mut self) {
        for r in self.a.take_removed() {
            let pk = (self.a_to_b)(&r.key, &r.value);
            self.b.remove_for_pair(&pk, r.cause);
        }
    }

    fn propagate_b(&mut self) {
        for r in self.b.take_removed() {
            let pk = (self.b_to_a)(&r.key, &r.value);
            self.a.remove_for_pair(&pk, r.cause);
        }
    }

    /// Advances both sides' frame epochs; expired entries take their
    /// partners with them.
    pub fn tick_frame(&mut self) {
        self.a.tick_frame();
        self.propagate_a();
        self.b.tick_frame();
        self.propagate_b();
    }

    /// Looks up side A; a hit touches the B partner too.
    pub fn lookup_a(&mut self, key: &Bits) -> Option<Bits> {
        let r = self.a.lookup(key);
        if let Some(v) = &r {
            let pk = (self.a_to_b)(key, v);
            self.b.touch(&pk);
        }
        self.propagate_a();
        r
    }

    /// Looks up side B; a hit touches the A partner too.
    pub fn lookup_b(&mut self, key: &Bits) -> Option<Bits> {
        let r = self.b.lookup(key);
        if let Some(v) = &r {
            let pk = (self.b_to_a)(key, v);
            self.a.touch(&pk);
        }
        self.propagate_b();
        r
    }

    /// Writes into side A; an eviction takes the B partner with it.
    pub fn write_a(&mut self, key: Bits, value: Bits) {
        let effect = self.a.write(key.clone(), value.clone());
        match effect {
            WriteEffect::Replaced(old) if old != value => {
                // The mapping changed: the old value's partner is now
                // orphaned — drop it as displaced.
                let pk = (self.a_to_b)(&key, &old);
                self.b.remove_for_pair(&pk, RemoveCause::Evicted);
            }
            WriteEffect::Replaced(_) => {
                let pk = (self.a_to_b)(&key, &value);
                self.b.touch(&pk);
            }
            WriteEffect::Fresh => {}
        }
        self.propagate_a();
    }

    /// Writes into side B; an eviction takes the A partner with it.
    pub fn write_b(&mut self, key: Bits, value: Bits) {
        let effect = self.b.write(key.clone(), value.clone());
        match effect {
            WriteEffect::Replaced(old) if old != value => {
                let pk = (self.b_to_a)(&key, &old);
                self.a.remove_for_pair(&pk, RemoveCause::Evicted);
            }
            WriteEffect::Replaced(_) => {
                let pk = (self.b_to_a)(&key, &value);
                self.a.touch(&pk);
            }
            WriteEffect::Fresh => {}
        }
        self.propagate_b();
    }

    /// Deletes from side A, taking the B partner with it.
    pub fn delete_a(&mut self, key: &Bits) {
        if let Some((k, v)) = self.a.delete(key) {
            let pk = (self.a_to_b)(&k, &v);
            self.b.delete(&pk);
        }
    }

    /// Deletes from side B, taking the A partner with it.
    pub fn delete_b(&mut self, key: &Bits) {
        if let Some((k, v)) = self.b.delete(key) {
            let pk = (self.b_to_a)(&k, &v);
            self.a.delete(&pk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(v: u64, w: u16) -> Bits {
        Bits::from_u64(v, w)
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
        let removed = t.take_removed();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].key, b(1, 8));
        assert_eq!(removed[0].cause, RemoveCause::Evicted);
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
            p.write_a(b(k, 8), b(0x10 + k, 8));
            p.write_b(b(0x10 + k, 8), b(k, 8));
        }
        // k=3's write_a evicted a's k=1 → b's 0x11 partner must be gone.
        assert_eq!(p.a.occupancy(), 2);
        assert_eq!(p.b.occupancy(), 2);
        assert!(p.a.peek(&b(1, 8)).is_none());
        assert!(p.b.peek(&b(0x11, 8)).is_none(), "partner must die too");
        assert_eq!(p.b.stats.evictions, 1, "same-cause stat in sibling");

        // Touch on one side keeps the partner alive past its TTL.
        let mut p = mk();
        p.write_a(b(1, 8), b(0x11, 8));
        p.write_b(b(0x11, 8), b(1, 8));
        for _ in 0..20 {
            p.tick_frame();
            assert!(p.lookup_a(&b(1, 8)).is_some());
        }
        assert!(p.b.peek(&b(0x11, 8)).is_some(), "touch must propagate");

        // Expiry removes both sides.
        let mut p = mk();
        p.write_a(b(1, 8), b(0x11, 8));
        p.write_b(b(0x11, 8), b(1, 8));
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
            let (_, slot) = t.probe(&key(N + i)).expect("just written");
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
                    .take_removed()
                    .into_iter()
                    .map(|r| (r.key, r.value, r.cause))
                    .collect();
                prop_assert_eq!(reported, std::mem::take(&mut m.removed));
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
                        p.write_a(fk, fv);
                        p.write_b(rk, rv);
                    }
                    2 => prop_assert_eq!(p.lookup_a(&fk).is_some(), p.b.peek(&rk).is_some()),
                    3 => prop_assert_eq!(p.lookup_b(&rk).is_some(), p.a.peek(&fk).is_some()),
                    4 if f % 2 == 0 => p.delete_a(&fk),
                    4 => p.delete_b(&rk),
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
    }
}
