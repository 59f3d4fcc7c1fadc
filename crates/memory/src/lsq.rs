//! The centralized load/store queue with **partial-address disambiguation**.
//!
//! In the baseline pipeline a load may access the cache only after the
//! addresses of all earlier stores are known. The paper's optimization
//! transmits the least-significant address bits on low-latency L-Wires
//! ahead of the full address; the LSQ compares those partial addresses and,
//! if the load matches no earlier store, lets the cache RAM access begin
//! before the full address arrives. A partial match that the full addresses
//! later disprove is a *false dependence* — the paper measures fewer than 9%
//! of loads suffering one with 8 LS bits.

use std::collections::VecDeque;

use heterowire_telemetry::{NullProbe, Probe};

/// Disambiguation state of a load at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadStatus {
    /// The load's own address (partial or full) has not arrived yet.
    WaitOwnAddress,
    /// Some earlier store's address has not arrived yet.
    WaitStoreAddress,
    /// Partial comparison passed: the cache RAM access may begin, but the
    /// full address is still in flight.
    PartialReady,
    /// Fully disambiguated and free of conflicts; `forward` is true when an
    /// earlier store to the same word supplies the data.
    FullReady {
        /// Data comes from an in-flight store rather than the cache.
        forward: bool,
    },
    /// The partial address matched an earlier store; the load must wait for
    /// full addresses to resolve the (possibly false) dependence.
    PartialConflict,
}

/// The older stores a load's status poll stopped at, one per scan.
///
/// Each is its scan's *frontier* store when that store is older than the
/// load: the oldest store still in the queue whose full (respectively
/// partial) address has not arrived by the poll cycle.
///
/// This is the wake-up contract for callers that re-poll a load only when
/// an input of its last status changed. Given that address stamps are
/// never later than the poll cycle, that arrivals are first-write-wins,
/// and that a store retires only after its full address arrived (entries
/// only ever leave from the front, in order), a load's status stays what
/// the last poll returned until one of these happens:
///
/// * the load's own partial or full address arrives;
/// * the store in `full` receives its full address;
/// * the store in `partial` receives its partial (or full) address;
/// * for [`LoadStatus::PartialConflict`] only, a store retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadBlockers {
    /// Seq of the store whose unknown full address blocks the load's
    /// full-address disambiguation.
    pub full: Option<u64>,
    /// Seq of the store whose unknown partial address blocks the load's
    /// partial-address disambiguation.
    pub partial: Option<u64>,
}

/// LSQ statistics, including the false-dependence counters of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LsqStats {
    /// Loads inserted.
    pub loads: u64,
    /// Stores inserted.
    pub stores: u64,
    /// Loads whose partial comparison matched an earlier store.
    pub partial_matches: u64,
    /// Partial matches that full addresses later disproved.
    pub false_dependences: u64,
    /// Loads forwarded from an earlier in-flight store.
    pub forwards: u64,
}

impl LsqStats {
    /// Fraction of loads that hit a false dependence (paper: < 9% at 8 LS
    /// bits).
    pub fn false_dependence_rate(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.false_dependences as f64 / self.loads as f64
        }
    }
}

/// Stable handle to an LSQ entry, returned by [`LoadStoreQueue::insert`].
///
/// It holds the entry's ordinal among the loads or among the stores, and
/// which of the two it is. Entries enter their ring at the back and leave
/// from the front, so a handle resolves with one subtraction. A handle
/// whose entry has left the queue simply resolves to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqRef(u64);

/// Stamp of an address that has not arrived.
const NEVER: u64 = u64::MAX;

/// A memory op's word address and its LS bits, each with the cycle it
/// arrived at the LSQ ([`NEVER`] until then).
#[derive(Debug, Clone, Copy)]
struct Addr {
    word: u64,
    full_at: u64,
    part: u64,
    part_at: u64,
}

impl Addr {
    const UNKNOWN: Addr = Addr {
        word: 0,
        full_at: NEVER,
        part: 0,
        part_at: NEVER,
    };

    /// The word, if it arrived by `cycle`.
    fn full(&self, cycle: u64) -> Option<u64> {
        (self.full_at <= cycle).then_some(self.word)
    }

    /// The LS bits, if they arrived by `cycle`.
    fn partial(&self, cycle: u64) -> Option<u64> {
        (self.part_at <= cycle).then_some(self.part)
    }

    /// First write wins; a repeat may only restate it, so an address once
    /// known stays known with the same bits.
    fn record_partial(&mut self, seq: u64, part: u64, cycle: u64) {
        debug_assert!(cycle != NEVER, "cycle {NEVER} is reserved");
        debug_assert!(
            self.part_at == NEVER || (self.part == part && self.part_at <= cycle),
            "partial address of {seq} changed after arrival"
        );
        if self.part_at == NEVER {
            (self.part, self.part_at) = (part, cycle);
        }
    }

    /// Also fills the partial bits if they were never sent separately.
    fn record_full(&mut self, seq: u64, word: u64, part: u64, cycle: u64) {
        debug_assert!(
            self.full_at == NEVER || (self.word == word && self.full_at <= cycle),
            "address of {seq} changed after arrival"
        );
        self.record_partial(seq, part, cycle);
        if self.full_at == NEVER {
            (self.word, self.full_at) = (word, cycle);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Store {
    seq: u64,
    addr: Addr,
}

#[derive(Debug, Clone, Copy)]
struct Load {
    seq: u64,
    /// Stores inserted before this load: the store ordinals below this
    /// are older than it.
    older: u64,
    addr: Addr,
    /// Set once a partial match has been counted, until the full addresses
    /// classify it (avoids double counting in the stats).
    partial_match_counted: bool,
}

/// The centralized load/store queue.
///
/// Entries are inserted in program order at dispatch; addresses arrive later
/// (partial bits possibly earlier than full addresses); loads query their
/// disambiguation status each cycle.
///
/// Loads and stores sit in two rings, each in insertion order. What blocks
/// a load does not depend on the load: the oldest store in the queue whose
/// full (or partial) address is unknown is the same for every younger
/// load. So each scan keeps that store's ordinal as a *frontier*, which a
/// poll advances past the stores whose address arrived by the poll cycle.
/// That is exact because a known address stays known and poll cycles never
/// decrease. A load is blocked on a scan exactly when the scan's frontier
/// is older than the load. Otherwise every older store's address is known,
/// and a walk back from the load to the first matching store decides
/// forwarding (full scan) or a partial conflict (partial scan).
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    stores: VecDeque<Store>,
    loads: VecDeque<Load>,
    /// Ordinal of the front store, i.e. stores retired so far.
    store_base: u64,
    /// Ordinal of the front load.
    load_base: u64,
    /// Store ordinal below which every present store's full address has
    /// arrived by the latest poll.
    full_frontier: u64,
    /// The same for partial addresses.
    partial_frontier: u64,
    ls_bits: u32,
    stats: LsqStats,
    /// Largest `retire_through` bound so far (retirement is in order).
    retired_through: u64,
    /// Cycle of the latest poll (the frontiers need polls in cycle order).
    last_poll: u64,
}

/// Byte address → word (8-byte) granule, the conflict-detection granularity.
fn word_of(addr: u64) -> u64 {
    addr >> 3
}

impl LoadStoreQueue {
    /// Creates an LSQ comparing `ls_bits` least-significant bits of the
    /// *word* address in the partial check (the paper's default is 8).
    ///
    /// # Panics
    ///
    /// Panics if `ls_bits` is 0 or exceeds 32.
    pub fn new(ls_bits: u32) -> Self {
        assert!((1..=32).contains(&ls_bits), "ls_bits must be in 1..=32");
        LoadStoreQueue {
            stores: VecDeque::new(),
            loads: VecDeque::new(),
            store_base: 0,
            load_base: 0,
            full_frontier: 0,
            partial_frontier: 0,
            ls_bits,
            stats: LsqStats::default(),
            retired_through: 0,
            last_poll: 0,
        }
    }

    fn partial_of(&self, addr: u64) -> u64 {
        word_of(addr) & ((1u64 << self.ls_bits) - 1)
    }

    /// Inserts a memory op at dispatch and returns a stable handle that
    /// resolves the entry in O(1). `seq` values must be strictly
    /// increasing.
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not exceed the youngest entry's.
    pub fn insert(&mut self, seq: u64, is_store: bool) -> LsqRef {
        let youngest = self
            .stores
            .back()
            .map(|s| s.seq)
            .max(self.loads.back().map(|l| l.seq));
        assert!(
            youngest.is_none_or(|y| seq > y),
            "LSQ inserts must be in program order"
        );
        let addr = Addr::UNKNOWN;
        if is_store {
            let ordinal = self.stats.stores;
            self.stats.stores += 1;
            self.stores.push_back(Store { seq, addr });
            LsqRef(ordinal << 1 | 1)
        } else {
            let ordinal = self.stats.loads;
            self.stats.loads += 1;
            self.loads.push_back(Load {
                seq,
                older: self.stats.stores,
                addr,
                partial_match_counted: false,
            });
            LsqRef(ordinal << 1)
        }
    }

    /// Resolves a handle to its entry's seq and addresses, or `None` once
    /// the entry has left the queue.
    fn addr_mut(&mut self, r: LsqRef) -> Option<(u64, &mut Addr)> {
        let ordinal = r.0 >> 1;
        if r.0 & 1 == 1 {
            let s = self
                .stores
                .get_mut(ordinal.checked_sub(self.store_base)? as usize)?;
            Some((s.seq, &mut s.addr))
        } else {
            let l = self
                .loads
                .get_mut(ordinal.checked_sub(self.load_base)? as usize)?;
            Some((l.seq, &mut l.addr))
        }
    }

    /// Records the arrival of the LS bits of the entry's address at
    /// `cycle`. A no-op once the entry has left the queue.
    pub fn arrive_partial_ref(&mut self, r: LsqRef, addr: u64, cycle: u64) {
        let p = self.partial_of(addr);
        if let Some((seq, a)) = self.addr_mut(r) {
            a.record_partial(seq, p, cycle);
        }
    }

    /// Records the arrival of the entry's full address at `cycle`. Also
    /// fills the partial bits if they were never sent separately. A no-op
    /// once the entry has left the queue.
    pub fn arrive_full_ref(&mut self, r: LsqRef, addr: u64, cycle: u64) {
        let p = self.partial_of(addr);
        if let Some((seq, a)) = self.addr_mut(r) {
            a.record_full(seq, word_of(addr), p, cycle);
        }
    }

    /// Disambiguation status of the handle's load as of `cycle`. An
    /// address counts from the cycle it was stamped with.
    ///
    /// With `use_partial` false the LSQ behaves like the baseline: loads
    /// wait for full addresses of all earlier stores.
    ///
    /// # Panics
    ///
    /// Panics if the handle's entry is not a load still in the queue. In
    /// debug builds, also if `cycle` is earlier than the previous poll's.
    pub fn load_status_ref(&mut self, r: LsqRef, cycle: u64, use_partial: bool) -> LoadStatus {
        self.load_status_and_blockers(r, cycle, use_partial, &mut NullProbe)
            .0
    }

    /// [`LoadStoreQueue::load_status_ref`] with telemetry that also reports
    /// the stores the answer waits on, so the caller can skip re-polling
    /// the load until one of the [`LoadBlockers`] inputs changes. It emits
    /// [`Probe::lsq_full_ready`] when a load fully disambiguates and
    /// [`Probe::lsq_partial_conflict`] when its partial address first
    /// matches an earlier store; with [`NullProbe`] both compile out.
    ///
    /// # Panics
    ///
    /// As [`LoadStoreQueue::load_status_ref`].
    pub fn load_status_and_blockers<P: Probe>(
        &mut self,
        r: LsqRef,
        cycle: u64,
        use_partial: bool,
        probe: &mut P,
    ) -> (LoadStatus, LoadBlockers) {
        assert!(r.0 & 1 == 0, "LSQ handle {r:?} names a store");
        let i = (r.0 >> 1)
            .checked_sub(self.load_base)
            .map(|i| i as usize)
            .filter(|&i| i < self.loads.len())
            .expect("load must be in the LSQ");
        self.load_status_at_probed(i, cycle, use_partial, probe)
    }

    #[inline(never)]
    fn load_status_at_probed<P: Probe>(
        &mut self,
        i: usize,
        cycle: u64,
        use_partial: bool,
        probe: &mut P,
    ) -> (LoadStatus, LoadBlockers) {
        debug_assert!(
            cycle >= self.last_poll,
            "LSQ polled at cycle {cycle} after a poll at cycle {}",
            self.last_poll
        );
        self.last_poll = cycle;
        let Load {
            seq, older, addr, ..
        } = self.loads[i];
        let mut blockers = LoadBlockers::default();

        // Full disambiguation first: once the load's own full address and
        // every older store's are known, the answer is definitive.
        let own_full = addr.full(cycle);
        if let Some(w) = own_full {
            blockers.full = self.blocker(true, older, cycle);
            if blockers.full.is_none() {
                let forward = self.older_store_matches(older, |a| a.word == w);
                // Classify a previously flagged partial conflict.
                if std::mem::take(&mut self.loads[i].partial_match_counted) && !forward {
                    self.stats.false_dependences += 1;
                }
                if forward {
                    self.stats.forwards += 1;
                }
                if P::ENABLED {
                    probe.lsq_full_ready(cycle, seq, forward);
                }
                return (LoadStatus::FullReady { forward }, blockers);
            }
        }

        if !use_partial {
            let status = if own_full.is_none() {
                LoadStatus::WaitOwnAddress
            } else {
                LoadStatus::WaitStoreAddress
            };
            return (status, blockers);
        }

        // Partial path.
        let Some(p) = addr.partial(cycle) else {
            return (LoadStatus::WaitOwnAddress, blockers);
        };
        blockers.partial = self.blocker(false, older, cycle);
        if blockers.partial.is_some() {
            return (LoadStatus::WaitStoreAddress, blockers);
        }
        if self.older_store_matches(older, |a| a.part == p) {
            let counted = &mut self.loads[i].partial_match_counted;
            if !*counted {
                *counted = true;
                self.stats.partial_matches += 1;
                if P::ENABLED {
                    probe.lsq_partial_conflict(cycle, seq);
                }
            }
            return (LoadStatus::PartialConflict, blockers);
        }
        (LoadStatus::PartialReady, blockers)
    }

    /// Advances the full (`full`) or partial frontier past the present
    /// stores whose address arrived by `cycle`, going no further than the
    /// `older` stores inserted before the polled load, and returns the seq
    /// of the store it stops at when that store is older than the load.
    fn blocker(&mut self, full: bool, older: u64, cycle: u64) -> Option<u64> {
        let base = self.store_base;
        let frontier = if full {
            &mut self.full_frontier
        } else {
            &mut self.partial_frontier
        };
        let mut f = (*frontier).max(base);
        while f < older {
            let a = &self.stores[(f - base) as usize].addr;
            if (if full { a.full_at } else { a.part_at }) > cycle {
                break;
            }
            f += 1;
        }
        *frontier = f;
        (f < older).then(|| self.stores[(f - base) as usize].seq)
    }

    /// Whether a present store among the `older` stores inserted before a
    /// load satisfies `hit`, walking back from the load to the first match.
    fn older_store_matches(&self, older: u64, hit: impl Fn(&Addr) -> bool) -> bool {
        let n = older.saturating_sub(self.store_base) as usize;
        self.stores.range(..n).rev().any(|s| hit(&s.addr))
    }

    /// Removes all entries with `seq <= bound` (commit). Retirement is in
    /// order, and a store retires only once its full address has arrived.
    pub fn retire_through(&mut self, bound: u64) {
        debug_assert!(
            bound >= self.retired_through,
            "retirement out of order: {bound} after {}",
            self.retired_through
        );
        self.retired_through = bound;
        while let Some(s) = self.stores.front().filter(|s| s.seq <= bound) {
            debug_assert!(
                s.addr.full_at != NEVER,
                "store {} retired before its full address arrived",
                s.seq
            );
            self.stores.pop_front();
            self.store_base += 1;
        }
        while self.loads.front().is_some_and(|l| l.seq <= bound) {
            self.loads.pop_front();
            self.load_base += 1;
        }
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.stores.len() + self.loads.len()
    }

    /// True if no entries are in flight.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty() && self.loads.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> LsqStats {
        self.stats
    }
}

impl Default for LoadStoreQueue {
    fn default() -> Self {
        Self::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_with_no_earlier_stores_is_ready_on_full_arrival() {
        let mut lsq = LoadStoreQueue::new(8);
        let l = lsq.insert(1, false);
        assert_eq!(lsq.load_status_ref(l, 0, true), LoadStatus::WaitOwnAddress);
        lsq.arrive_full_ref(l, 0x1000, 3);
        assert_eq!(lsq.load_status_ref(l, 2, true), LoadStatus::WaitOwnAddress);
        assert_eq!(
            lsq.load_status_ref(l, 3, true),
            LoadStatus::FullReady { forward: false }
        );
    }

    #[test]
    fn partial_mismatch_allows_early_prefetch() {
        let mut lsq = LoadStoreQueue::new(8);
        let s = lsq.insert(1, true); // store
        let l = lsq.insert(2, false); // load
        lsq.arrive_partial_ref(s, 0x1000, 1);
        lsq.arrive_partial_ref(l, 0x2008, 1);
        // Partials differ (word 0x200 vs 0x401 -> LS bits differ), so the
        // load may start its RAM access before any full address arrives.
        assert_eq!(lsq.load_status_ref(l, 1, true), LoadStatus::PartialReady);
        // Baseline mode still waits for the store's full address.
        assert_eq!(lsq.load_status_ref(l, 1, false), LoadStatus::WaitOwnAddress);
    }

    #[test]
    fn false_dependence_is_detected_and_counted() {
        let mut lsq = LoadStoreQueue::new(4);
        let s = lsq.insert(1, true);
        let l = lsq.insert(2, false);
        // Same 4 LS word bits, different full word: 0x1000>>3=0x200,
        // 0x1080>>3=0x210; (0x200 & 0xF) == (0x210 & 0xF) == 0.
        lsq.arrive_partial_ref(s, 0x1000, 1);
        lsq.arrive_partial_ref(l, 0x1080, 1);
        assert_eq!(lsq.load_status_ref(l, 1, true), LoadStatus::PartialConflict);
        lsq.arrive_full_ref(s, 0x1000, 4);
        lsq.arrive_full_ref(l, 0x1080, 4);
        assert_eq!(
            lsq.load_status_ref(l, 4, true),
            LoadStatus::FullReady { forward: false }
        );
        let stats = lsq.stats();
        assert_eq!(stats.partial_matches, 1);
        assert_eq!(stats.false_dependences, 1);
        assert!((stats.false_dependence_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn true_dependence_forwards() {
        let mut lsq = LoadStoreQueue::new(8);
        let s = lsq.insert(1, true);
        let l = lsq.insert(2, false);
        lsq.arrive_full_ref(s, 0x3000, 2);
        lsq.arrive_full_ref(l, 0x3000, 2);
        assert_eq!(
            lsq.load_status_ref(l, 2, true),
            LoadStatus::FullReady { forward: true }
        );
        assert_eq!(lsq.stats().forwards, 1);
        assert_eq!(lsq.stats().false_dependences, 0);
    }

    #[test]
    fn unknown_store_address_blocks() {
        let mut lsq = LoadStoreQueue::new(8);
        let s = lsq.insert(1, true);
        let l = lsq.insert(2, false);
        lsq.arrive_partial_ref(l, 0x4000, 1);
        lsq.arrive_full_ref(l, 0x4000, 1);
        // Store address entirely unknown: blocked in both modes.
        assert_eq!(
            lsq.load_status_ref(l, 1, true),
            LoadStatus::WaitStoreAddress
        );
        assert_eq!(
            lsq.load_status_ref(l, 1, false),
            LoadStatus::WaitStoreAddress
        );
        // Store partial arrives, differs -> partial path unblocks first.
        lsq.arrive_partial_ref(s, 0x5008, 2);
        assert_eq!(lsq.load_status_ref(l, 2, true), LoadStatus::PartialReady);
        assert_eq!(
            lsq.load_status_ref(l, 2, false),
            LoadStatus::WaitStoreAddress
        );
    }

    #[test]
    fn retire_drops_old_entries() {
        let mut lsq = LoadStoreQueue::new(8);
        let refs: Vec<LsqRef> = (1..=5).map(|s| lsq.insert(s, s % 2 == 0)).collect();
        lsq.arrive_full_ref(refs[1], 0x1000, 1);
        lsq.retire_through(3);
        assert_eq!(lsq.len(), 2);
    }

    #[test]
    fn later_stores_do_not_affect_loads() {
        let mut lsq = LoadStoreQueue::new(8);
        let l = lsq.insert(1, false); // load
        lsq.insert(2, true); // younger store
        lsq.arrive_full_ref(l, 0x6000, 1);
        assert_eq!(
            lsq.load_status_ref(l, 1, true),
            LoadStatus::FullReady { forward: false }
        );
    }

    #[test]
    fn partial_conflict_resolves_through_handles() {
        let mut lsq = LoadStoreQueue::new(8);
        let r1 = lsq.insert(10, true);
        let r2 = lsq.insert(11, false);
        lsq.arrive_partial_ref(r2, 0x2000, 1);
        assert_eq!(
            lsq.load_status_ref(r2, 1, true),
            LoadStatus::WaitStoreAddress
        );
        lsq.arrive_partial_ref(r1, 0x2000, 2);
        assert_eq!(
            lsq.load_status_ref(r2, 2, true),
            LoadStatus::PartialConflict
        );
        // Same LS bits, different words: a false dependence.
        lsq.arrive_full_ref(r1, 0x3000, 3);
        lsq.arrive_full_ref(r2, 0x2000, 3);
        assert_eq!(
            lsq.load_status_ref(r2, 3, true),
            LoadStatus::FullReady { forward: false }
        );
        assert_eq!(
            lsq.stats(),
            LsqStats {
                loads: 1,
                stores: 1,
                partial_matches: 1,
                false_dependences: 1,
                forwards: 0,
            }
        );
    }

    #[test]
    fn stale_handle_is_a_noop_arrival() {
        let mut lsq = LoadStoreQueue::new(8);
        let r = lsq.insert(1, true);
        let l = lsq.insert(2, false);
        lsq.arrive_full_ref(r, 0x2000, 0);
        lsq.retire_through(1);
        // The store has retired; its handle must resolve to nothing rather
        // than aliasing the load now at the front.
        lsq.arrive_full_ref(r, 0x1000, 5);
        assert_eq!(lsq.load_status_ref(l, 5, true), LoadStatus::WaitOwnAddress);
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_insert_panics() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.insert(5, false);
        lsq.insert(3, false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "after a poll at cycle 5")]
    fn polling_back_in_time_panics_in_debug() {
        // The frontiers only advance, so a poll may not go back in time.
        let mut lsq = LoadStoreQueue::new(8);
        let l = lsq.insert(1, false);
        lsq.load_status_ref(l, 5, true);
        lsq.load_status_ref(l, 4, true);
    }

    #[test]
    fn more_ls_bits_reduce_false_matches() {
        // Statistical check: random store/load pairs with distinct words;
        // the 4-bit LSQ must flag at least as many partial matches as the
        // 12-bit one.
        let count_matches = |bits: u32| {
            let mut lsq = LoadStoreQueue::new(bits);
            let mut seq = 0;
            let mut matches = 0;
            let mix = |x: u64| {
                // splitmix64-style avalanche so low bits are well mixed.
                let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for i in 0..2000u64 {
                let saddr = 0x1_0000 + (mix(i) % 65536) * 8;
                let laddr = 0x1_0000 + (mix(i + 1_000_000) % 65536) * 8;
                if saddr == laddr {
                    continue;
                }
                let s = lsq.insert(seq, true);
                let l = lsq.insert(seq + 1, false);
                lsq.arrive_partial_ref(s, saddr, 0);
                lsq.arrive_partial_ref(l, laddr, 0);
                if lsq.load_status_ref(l, 0, true) == LoadStatus::PartialConflict {
                    matches += 1;
                }
                lsq.arrive_full_ref(s, saddr, 0);
                lsq.retire_through(seq + 1);
                seq += 2;
            }
            matches
        };
        let few_bits = count_matches(4);
        let many_bits = count_matches(12);
        assert!(
            few_bits > many_bits,
            "4-bit {few_bits} vs 12-bit {many_bits}"
        );
    }
}
