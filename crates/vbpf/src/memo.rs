//! Verdict memoization for pure classifiers.
//!
//! The common NVMe routing classifier (partition offset, QoS class pick,
//! opcode dispatch) is *pure*: its verdict and its mediated ctx writes
//! depend only on the ctx bytes it reads and on map contents
//! ([`crate::verifier::Analysis`]). For such programs, repeated
//! same-shape requests — the sequential-read fast path — can skip
//! execution entirely: the cache key is exactly the ctx bytes the
//! program reads, and the cached entry carries a *journal* of the ctx
//! writes the original execution performed, replayed verbatim on a hit.
//!
//! Why the journal is recorded at runtime rather than derived from the
//! static write set: a program may write ctx fields conditionally
//! (e.g. only translate the LBA for I/O opcodes), so replaying the
//! static write footprint could fabricate writes the program never made.
//! A pure program's execution is a deterministic function of (key bytes,
//! map state); the cache is keyed on the former and flushed whenever the
//! host touches a map ([`crate::interp::Vm::map_mut`] bumps a generation
//! counter), so the recorded journal is exactly what a re-execution
//! would do.
//!
//! The cache is a two-way table: each key hashes to two candidate
//! slots and eviction takes the least-recently-touched of the two (a
//! 2-way clock/LRU hybrid — bounded memory, O(1) lookup, no allocation
//! on the hit path). Its capacity is a *ceiling*, not an allocation: the
//! table starts at two slots and doubles only when an insert finds both
//! candidates held by other keys *and* the table is at least half full,
//! so it never exceeds four slots per live entry. A classifier that only
//! ever sees one request shape — a passthrough that reads no ctx bytes —
//! keeps a two-slot table however large the configured capacity, and
//! keys that collide on purpose cost evictions, not memory. An evicted
//! entry's journal buffer is reused by the entry that replaces it. All
//! bookkeeping is surfaced in [`MemoStats`].

use crate::interp::{load_le, store_le};

/// One recorded ctx write `(off, size, value)`; replayed on a cache hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CtxWrite {
    pub(crate) off: u16,
    pub(crate) size: u8,
    pub(crate) v: u64,
}

/// Largest supported key, in bytes of ctx read-set. Programs that read
/// more ctx than this are simply not memoized (the router ABI ctx is 48
/// bytes total, so real classifiers fit easily).
pub(crate) const MAX_KEY: usize = 64;

/// Table size before the first growth.
const INITIAL_SLOTS: usize = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A packed copy of the ctx bytes the program reads. Bytes past `len`
/// are always zero, so derived equality is correct.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Key {
    pub(crate) len: u8,
    pub(crate) bytes: [u8; MAX_KEY],
}

impl Key {
    /// Packs the ctx bytes covered by `reads` (sorted, coalesced ranges
    /// whose ends are all within `ctx` — guaranteed by the compiled
    /// tier's `min_ctx` entry check).
    #[inline]
    pub(crate) fn extract(reads: &[(usize, usize)], ctx: &[u8]) -> Key {
        let mut key = Key {
            len: 0,
            bytes: [0; MAX_KEY],
        };
        let mut at = 0usize;
        for &(s, e) in reads {
            let n = e - s;
            key.bytes[at..at + n].copy_from_slice(&ctx[s..e]);
            at += n;
        }
        key.len = at as u8;
        key
    }

    #[inline]
    fn hash(&self) -> u64 {
        // FNV-1a over the packed key, one 64-bit word per round. Bytes
        // past `len` are zero, so the trailing partial word hashes
        // deterministically.
        let mut h = FNV_OFFSET;
        let mut at = 0usize;
        while at < self.len as usize {
            h ^= u64::from_le_bytes(self.bytes[at..at + 8].try_into().unwrap());
            h = h.wrapping_mul(FNV_PRIME);
            at += 8;
        }
        h
    }

    /// The key's two candidate slots in a table of `mask + 1` slots.
    #[inline]
    fn probe(&self, mask: usize) -> (usize, usize) {
        let h = self.hash();
        (h as usize & mask, (h >> 32) as usize & mask)
    }
}

/// Counters for the memo cache, exposed via
/// [`crate::interp::Vm::memo_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache (execution skipped).
    pub hits: u64,
    /// Lookups that missed and fell through to the compiled tier.
    pub misses: u64,
    /// Entries displaced because both candidate slots were occupied.
    pub evictions: u64,
    /// Whole-cache flushes caused by external map updates.
    pub invalidations: u64,
}

struct Entry {
    key: Key,
    verdict: u64,
    writes: Vec<CtxWrite>,
    stamp: u64,
}

/// Per-Vm (and therefore, in the sharded router, per-shard) verdict
/// cache, grown on demand up to a power-of-two ceiling so probing masks
/// instead of dividing.
pub(crate) struct VerdictCache {
    slots: Vec<Option<Entry>>,
    mask: usize,
    /// Occupied slots.
    len: usize,
    /// Largest table size; growth stops here and inserts evict instead.
    ceiling: usize,
    /// Slot of the most recent hit/insert: a repeating request shape (the
    /// sequential-read fast path) matches here and skips hash + probe.
    last: usize,
    generation: u64,
    stamp: u64,
    pub(crate) stats: MemoStats,
}

fn empty_slots(n: usize) -> Vec<Option<Entry>> {
    (0..n).map(|_| None).collect()
}

impl VerdictCache {
    /// A cache of at most `capacity` slots, rounded up to a power of two
    /// (saturating at the largest one). Only [`INITIAL_SLOTS`] are
    /// allocated up front.
    pub(crate) fn new(capacity: usize) -> Self {
        let ceiling = capacity
            .max(1)
            .checked_next_power_of_two()
            .unwrap_or(1 << (usize::BITS - 1));
        let cap = ceiling.min(INITIAL_SLOTS);
        VerdictCache {
            slots: empty_slots(cap),
            mask: cap - 1,
            len: 0,
            ceiling,
            last: 0,
            generation: 0,
            stamp: 0,
            stats: MemoStats::default(),
        }
    }

    /// Current table size in slots.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether entries recorded under `generation` are still valid (the
    /// host has not touched a map since).
    #[inline]
    pub(crate) fn generation_current(&self, generation: u64) -> bool {
        self.generation == generation
    }

    /// Hot-path lookup: if the last-touched slot holds exactly the ctx
    /// bytes covered by the compiled tier's key plan (word-granular
    /// `(ctx_off, size, key_off)` chunks over the analysis read ranges),
    /// replays its journal into `ctx` and returns the verdict — no key
    /// materialization, no hash, no probe. A miss here records nothing;
    /// the caller falls through to the general [`VerdictCache::lookup`],
    /// which does the bookkeeping.
    #[inline]
    pub(crate) fn replay_last(&mut self, plan: &[(u16, u8, u16)], ctx: &mut [u8]) -> Option<u64> {
        let e = self.slots[self.last].as_ref()?;
        // Branchless accumulate-and-test over a few register-width
        // loads: short keys (8–16 bytes) make a memcmp libcall cost
        // more than the compare itself.
        let mut diff = 0u64;
        for &(off, size, at) in plan {
            diff |= load_le(ctx, off as usize, size as usize)
                ^ load_le(&e.key.bytes, at as usize, size as usize);
        }
        if diff != 0 {
            return None;
        }
        debug_assert_eq!(
            plan.iter().map(|&(_, s, _)| s as usize).sum::<usize>(),
            e.key.len as usize
        );
        // No LRU stamping here: the entry is already the freshest by
        // virtue of being `last`, and stamps only arbitrate eviction
        // between the two probe candidates — a stale stamp can at worst
        // cost one re-execution, never correctness.
        for w in &e.writes {
            store_le(ctx, w.off as usize, w.size as usize, w.v);
        }
        let verdict = e.verdict;
        self.stats.hits += 1;
        Some(verdict)
    }

    #[inline]
    fn matches(&self, idx: usize, key: &Key) -> bool {
        matches!(&self.slots[idx], Some(e) if e.key == *key)
    }

    /// Looks up `key`, first flushing the cache if the host has touched
    /// any map since entries were recorded. Returns the cached verdict
    /// and the write journal to replay.
    #[inline]
    pub(crate) fn lookup(&mut self, key: &Key, generation: u64) -> Option<(u64, &[CtxWrite])> {
        if generation != self.generation {
            self.generation = generation;
            if self.len > 0 {
                self.slots.iter_mut().for_each(|s| *s = None);
                self.len = 0;
                self.stats.invalidations += 1;
            }
            self.stats.misses += 1;
            return None;
        }
        let idx = if self.matches(self.last, key) {
            self.last
        } else {
            let (i1, i2) = key.probe(self.mask);
            if self.matches(i1, key) {
                i1
            } else if self.matches(i2, key) {
                i2
            } else {
                self.stats.misses += 1;
                return None;
            }
        };
        self.stats.hits += 1;
        self.stamp += 1;
        self.last = idx;
        let stamp = self.stamp;
        let e = self.slots[idx].as_mut().expect("matched slot");
        e.stamp = stamp;
        Some((e.verdict, &e.writes))
    }

    /// The slot `key` may take without evicting — a free candidate or
    /// the one already holding it — or both candidates if other keys
    /// hold them.
    fn vacancy(&self, key: &Key) -> Result<usize, (usize, usize)> {
        let (i1, i2) = key.probe(self.mask);
        if self.slots[i1].is_none() || self.matches(i1, key) {
            Ok(i1)
        } else if self.slots[i2].is_none() || self.matches(i2, key) {
            Ok(i2)
        } else {
            Err((i1, i2))
        }
    }

    /// Records a fresh `(key → verdict, journal)` entry. If both
    /// candidate slots hold other keys, a table that is at least half
    /// full and below its ceiling doubles first; if the candidates are
    /// still taken, the least recently touched one is evicted and its
    /// journal buffer reused.
    pub(crate) fn insert(&mut self, key: Key, verdict: u64, writes: &[CtxWrite]) {
        self.stamp += 1;
        let stamp = self.stamp;
        let mut slot = self.vacancy(&key);
        if slot.is_err() && 2 * self.len >= self.slots.len() && self.slots.len() < self.ceiling {
            self.grow();
            slot = self.vacancy(&key);
        }
        let idx = match slot {
            Ok(idx) => idx,
            Err((i1, i2)) => {
                self.stats.evictions += 1;
                let s1 = self.slots[i1].as_ref().expect("occupied").stamp;
                let s2 = self.slots[i2].as_ref().expect("occupied").stamp;
                if s1 <= s2 {
                    i1
                } else {
                    i2
                }
            }
        };
        self.last = idx;
        match &mut self.slots[idx] {
            Some(e) => {
                e.key = key;
                e.verdict = verdict;
                e.writes.clear();
                e.writes.extend_from_slice(writes);
                e.stamp = stamp;
            }
            free => {
                *free = Some(Entry {
                    key,
                    verdict,
                    writes: writes.to_vec(),
                    stamp,
                });
                self.len += 1;
            }
        }
    }

    /// Doubles the table and rehashes every entry into it. An entry whose
    /// two new candidates are both taken is dropped and counted as an
    /// eviction: losing a cached verdict only costs a re-execution.
    /// `last` may be left stale; the insert that asked for growth
    /// re-points it.
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, empty_slots(cap));
        self.mask = cap - 1;
        self.len = 0;
        for e in old.into_iter().flatten() {
            let (i1, i2) = e.key.probe(self.mask);
            let Some(idx) = [i1, i2].into_iter().find(|&i| self.slots[i].is_none()) else {
                self.stats.evictions += 1;
                continue;
            };
            self.slots[idx] = Some(e);
            self.len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(bytes: &[u8]) -> Key {
        Key::extract(&[(0, bytes.len())], bytes)
    }

    #[test]
    fn key_extraction_packs_ranges() {
        let ctx: Vec<u8> = (0u8..48).collect();
        let k = Key::extract(&[(4, 8), (16, 24)], &ctx);
        assert_eq!(k.len, 12);
        assert_eq!(
            &k.bytes[..12],
            &[4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23]
        );
        assert!(k.bytes[12..].iter().all(|&b| b == 0));
    }

    #[test]
    fn hit_returns_verdict_and_journal() {
        let mut c = VerdictCache::new(8);
        let w = [CtxWrite {
            off: 16,
            size: 8,
            v: 0x1000,
        }];
        c.insert(key(b"abcd"), 7, &w);
        let (v, writes) = c.lookup(&key(b"abcd"), 0).expect("hit");
        assert_eq!(v, 7);
        assert_eq!(writes, &w);
        assert_eq!(c.stats.hits, 1);
        assert!(c.lookup(&key(b"abce"), 0).is_none());
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn generation_change_flushes_everything() {
        let mut c = VerdictCache::new(8);
        c.insert(key(b"k1"), 1, &[]);
        assert!(c.lookup(&key(b"k1"), 0).is_some());
        assert!(c.lookup(&key(b"k1"), 1).is_none());
        assert_eq!(c.stats.invalidations, 1);
        // Same generation again: still gone, no double flush.
        assert!(c.lookup(&key(b"k1"), 1).is_none());
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn capacity_one_evicts_lru_of_probe_pair() {
        let mut c = VerdictCache::new(1);
        c.insert(key(b"a"), 1, &[]);
        c.insert(key(b"b"), 2, &[]);
        assert_eq!(c.stats.evictions, 1);
        assert!(c.lookup(&key(b"a"), 0).is_none());
        assert_eq!(c.lookup(&key(b"b"), 0).map(|(v, _)| v), Some(2));
    }

    fn nth_key(i: u64) -> Key {
        key(&i.to_le_bytes())
    }

    fn journal_for(i: u64) -> [CtxWrite; 2] {
        [
            CtxWrite {
                off: 8,
                size: 8,
                v: i * 3,
            },
            CtxWrite {
                off: 16,
                size: 4,
                v: i ^ 0x55,
            },
        ]
    }

    fn both_candidates_taken(c: &VerdictCache, k: &Key) -> bool {
        c.vacancy(k).is_err()
    }

    /// Which of two occupied slots was touched less recently.
    fn older(c: &VerdictCache, i1: usize, i2: usize) -> usize {
        let stamp = |i: usize| c.slots[i].as_ref().expect("occupied").stamp;
        if stamp(i1) <= stamp(i2) {
            i1
        } else {
            i2
        }
    }

    #[test]
    fn grows_only_when_both_candidates_are_taken_and_half_full() {
        let mut c = VerdictCache::new(1 << 20);
        assert_eq!(c.slots(), INITIAL_SLOTS);
        let (mut grew, mut evicted_below_ceiling) = (0, 0);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = nth_key(x);
            let before = c.slots();
            let full = both_candidates_taken(&c, &k);
            let half = 2 * c.len >= before;
            let evictions = c.stats.evictions;
            c.insert(k, i, &[]);
            if full && half {
                assert_eq!(c.slots(), 2 * before, "key {i}: one doubling");
                grew += 1;
            } else {
                assert_eq!(c.slots(), before, "key {i}: grew without cause");
                if full {
                    assert_eq!(c.stats.evictions, evictions + 1);
                    evicted_below_ceiling += 1;
                }
            }
            assert!(c.matches(c.last, &k), "key {i} not placed");
        }
        assert!(grew > 0, "never grew");
        assert!(
            evicted_below_ceiling > 0,
            "a sparse table never evicted instead of growing"
        );
    }

    #[test]
    fn growth_stops_at_the_ceiling_and_then_evicts_lru_of_probe_pair() {
        let mut c = VerdictCache::new(6); // rounds up to 8
        for i in 0..500 {
            let k = nth_key(i);
            let at_ceiling = c.slots() == 8;
            let evictions = c.stats.evictions;
            if at_ceiling && both_candidates_taken(&c, &k) {
                // Exactly the fixed-table rule: the older candidate goes,
                // the other one stays.
                let (i1, i2) = k.probe(c.mask);
                let victim = older(&c, i1, i2);
                let keep = if victim == i1 { i2 } else { i1 };
                let kept = c.slots[keep].as_ref().expect("occupied").key;
                c.insert(k, i, &[]);
                assert!(c.matches(victim, &k));
                assert!(keep == victim || c.matches(keep, &kept));
                assert_eq!(c.stats.evictions, evictions + 1);
            } else {
                c.insert(k, i, &[]);
                if at_ceiling {
                    assert_eq!(c.stats.evictions, evictions);
                }
            }
            assert!(c.slots() <= 8);
        }
        assert_eq!(c.slots(), 8);
        assert!(c.stats.evictions > 0);
    }

    #[test]
    fn entries_survive_rehash_with_verdict_and_journal() {
        let mut c = VerdictCache::new(1024);
        for i in 0..64 {
            c.insert(nth_key(i), i + 100, &journal_for(i));
        }
        assert!(c.slots() > INITIAL_SLOTS, "64 keys must grow the table");
        // Every entry a rehash or an insert did not drop still hits with
        // its own verdict and journal.
        let evictions = c.stats.evictions;
        let mut lost = 0;
        for i in 0..64 {
            match c.lookup(&nth_key(i), 0) {
                Some((v, writes)) => {
                    assert_eq!(v, i + 100);
                    assert_eq!(writes, &journal_for(i));
                }
                None => lost += 1,
            }
        }
        assert!(lost <= evictions, "{lost} lost, {evictions} evicted");
        assert!(lost < 16, "{lost} of 64 entries lost");
        // An insert that grows the table leaves `last` on the new entry.
        let plan = [(0u16, 8u8, 0u16)];
        let mut c = VerdictCache::new(1 << 16);
        let mut i = 0;
        loop {
            let before = c.slots();
            c.insert(nth_key(i), i + 100, &journal_for(i));
            if c.slots() > before {
                break;
            }
            i += 1;
        }
        let mut ctx = [0u8; 24];
        ctx[..8].copy_from_slice(&i.to_le_bytes());
        assert_eq!(c.replay_last(&plan, &mut ctx), Some(i + 100));
        assert_eq!(u64::from_le_bytes(ctx[8..16].try_into().unwrap()), i * 3);
        assert_eq!(
            u32::from_le_bytes(ctx[16..20].try_into().unwrap()),
            (i ^ 0x55) as u32
        );
    }

    #[test]
    fn generation_flush_after_growth_clears_everything() {
        let mut c = VerdictCache::new(256);
        for i in 0..40 {
            c.insert(nth_key(i), i, &journal_for(i));
        }
        let grown = c.slots();
        assert!(grown > INITIAL_SLOTS);
        assert!(c.lookup(&nth_key(0), 1).is_none());
        assert_eq!(c.stats.invalidations, 1);
        assert!(c.slots.iter().all(|s| s.is_none()));
        assert_eq!(c.len, 0);
        for i in 0..40 {
            assert!(c.lookup(&nth_key(i), 1).is_none(), "key {i} survived");
        }
        let mut ctx = [0u8; 24];
        assert_eq!(c.replay_last(&[(0, 8, 0)], &mut ctx), None);
        assert_eq!(c.slots(), grown, "a flush keeps the table it grew");
    }

    #[test]
    fn eviction_reuses_the_journal_buffer() {
        let mut c = VerdictCache::new(1);
        c.insert(nth_key(1), 1, &journal_for(1));
        let buf = c.slots[0].as_ref().unwrap().writes.as_ptr();
        c.insert(nth_key(2), 2, &journal_for(2)[..1]);
        assert_eq!(c.stats.evictions, 1);
        assert_eq!(c.slots[0].as_ref().unwrap().writes.as_ptr(), buf);
        let (v, writes) = c.lookup(&nth_key(2), 0).expect("hit");
        assert_eq!((v, writes), (2, &journal_for(2)[..1]));
    }

    #[test]
    fn colliding_and_random_keys_keep_the_table_within_4x_live_keys() {
        // Two-word keys whose first FNV round lands on the same state
        // share one full 64-bit hash, hence both candidates at every
        // table size. They may cost evictions, never doublings.
        let colliding = |i: u64| {
            let w2 = 0x1234_5678 ^ (FNV_OFFSET ^ i).wrapping_mul(FNV_PRIME);
            let mut b = [0u8; 16];
            b[..8].copy_from_slice(&i.to_le_bytes());
            b[8..].copy_from_slice(&w2.to_le_bytes());
            key(&b)
        };
        assert_eq!(colliding(1).hash(), colliding(2).hash());
        let mut c = VerdictCache::new(usize::MAX);
        for i in 0..1000 {
            c.insert(colliding(i), i, &[]);
            assert!(c.slots() <= 8, "{} slots for colliding keys", c.slots());
        }
        assert!(c.stats.evictions >= 998);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for distinct in 1001..=21_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.insert(nth_key(x), x, &[]);
            assert!(
                c.slots() <= 4 * distinct,
                "{} slots for {distinct} keys",
                c.slots()
            );
        }
        assert!(c.slots() >= 4096, "random keys stopped growing the table");
    }

    #[test]
    fn huge_capacity_saturates_instead_of_wrapping() {
        let top = 1usize << (usize::BITS - 1);
        for (cap, ceiling) in [(usize::MAX, top), (top + 1, top), (1 << 40, 1 << 40)] {
            let mut c = VerdictCache::new(cap);
            assert_eq!(c.ceiling, ceiling);
            assert_eq!(c.slots(), INITIAL_SLOTS);
            c.insert(nth_key(7), 7, &[]);
            assert_eq!(c.lookup(&nth_key(7), 0).map(|(v, _)| v), Some(7));
        }
    }
}
