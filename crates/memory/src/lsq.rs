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
/// This is the wake-up contract for callers that re-poll a load only when
/// an input of its last status changed. Given that address stamps are
/// never later than the poll cycle, that arrivals are first-write-wins,
/// that a store retires only after its full address arrived, and that
/// retirement is in order (no mid-queue [`LoadStoreQueue::remove`]), a
/// load's status stays what the last poll returned until one of these
/// happens:
///
/// * the load's own partial or full address arrives;
/// * the store in `full` receives its full address;
/// * the store in `partial` receives its partial (or full) address;
/// * for [`LoadStatus::PartialConflict`] only, a store retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadBlockers {
    /// Seq of the store whose unknown full address stopped the
    /// full-address scan.
    pub full: Option<u64>,
    /// Seq of the store whose unknown partial address stopped the
    /// partial-address scan.
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
/// Entries enter at the back and leave from the front, so a handle resolves
/// to its entry with one subtraction (no binary search); after a mid-queue
/// [`LoadStoreQueue::remove`] the resolution falls back to a search, so
/// handles stay valid either way. A handle whose entry has left the queue
/// simply resolves to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqRef(u64);

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    seq: u64,
    /// Global insertion index (consecutive while no mid-queue removal has
    /// punched a hole; see [`LsqRef`]).
    gid: u64,
    is_store: bool,
    /// Word-granular partial address and its arrival cycle.
    partial: Option<(u64, u64)>,
    /// Word-granular full address and its arrival cycle.
    full: Option<(u64, u64)>,
    /// Set once a load's partial match has been classified (avoid double
    /// counting in the stats).
    partial_match_counted: bool,
    /// Loads: resume point (a gid) of the incremental full-address scan —
    /// every older store below this gid has had its full address verified
    /// known (knownness is monotonic: stamps never unset and older entries
    /// never appear, so verified prefixes stay verified).
    full_pos: u64,
    /// Loads: the youngest older store whose full address matched, among
    /// the scanned prefix. Still forwarding only while it has not retired
    /// (retirement is strictly in order from the queue front).
    full_match: Option<u64>,
    /// Loads: resume point (a gid) of the incremental partial-address scan.
    part_pos: u64,
    /// Loads: the youngest older store whose partial address matched.
    part_match: Option<u64>,
}

/// The centralized load/store queue.
///
/// Entries are inserted in program order at dispatch; addresses arrive later
/// (partial bits possibly earlier than full addresses); loads query their
/// disambiguation status each cycle.
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    entries: VecDeque<LsqEntry>,
    ls_bits: u32,
    stats: LsqStats,
    /// Largest arrival stamp ever recorded — `next_event_cycle`'s O(1)
    /// fast path (stamps in the past can no longer change any status).
    latest_stamp: u64,
    /// Next global insertion index to hand out (see [`LsqRef`]).
    next_gid: u64,
    /// True while a mid-queue [`LoadStoreQueue::remove`] has left the
    /// present gids non-consecutive, disabling the O(1) gid arithmetic
    /// (cleared once the queue drains empty).
    holes: bool,
    /// Largest `retire_through` bound so far (retirement is in order).
    retired_through: u64,
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
            entries: VecDeque::new(),
            ls_bits,
            stats: LsqStats::default(),
            latest_stamp: 0,
            next_gid: 0,
            holes: false,
            retired_through: 0,
        }
    }

    fn partial_of(&self, addr: u64) -> u64 {
        word_of(addr) & ((1u64 << self.ls_bits) - 1)
    }

    /// Inserts a memory op at dispatch and returns a stable handle that
    /// resolves the entry in O(1) (callers may ignore it and keep using
    /// the seq-based methods). `seq` values must be strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if `seq` does not exceed the youngest entry's.
    pub fn insert(&mut self, seq: u64, is_store: bool) -> LsqRef {
        if let Some(back) = self.entries.back() {
            assert!(seq > back.seq, "LSQ inserts must be in program order");
        } else {
            // Any hole left by a mid-queue removal has drained away.
            self.holes = false;
        }
        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let gid = self.next_gid;
        self.next_gid += 1;
        self.entries.push_back(LsqEntry {
            seq,
            gid,
            is_store,
            partial: None,
            full: None,
            partial_match_counted: false,
            full_pos: 0,
            full_match: None,
            part_pos: 0,
            part_match: None,
        });
        LsqRef(gid)
    }

    fn find(&self, seq: u64) -> Option<usize> {
        // Entries are seq-sorted; binary search.
        self.entries.binary_search_by(|e| e.seq.cmp(&seq)).ok()
    }

    /// Resolves a handle to the entry's current index: one subtraction
    /// while gids are consecutive (the FIFO steady state), binary search
    /// on the (still sorted) gids after a mid-queue removal. `None` once
    /// the entry has left the queue.
    fn find_ref(&self, r: LsqRef) -> Option<usize> {
        let front_gid = self.entries.front()?.gid;
        let idx = r.0.checked_sub(front_gid)? as usize;
        if !self.holes {
            return (idx < self.entries.len()).then_some(idx);
        }
        self.entries.binary_search_by(|e| e.gid.cmp(&r.0)).ok()
    }

    /// Maps a resume-point gid to the index scanning should restart from:
    /// the entry itself if still present, index 0 if it (and therefore
    /// everything older) has retired.
    fn resume_index(&self, pos: u64) -> usize {
        let front_gid = self.entries.front().map_or(0, |e| e.gid);
        if !self.holes {
            return pos.saturating_sub(front_gid) as usize;
        }
        self.entries.partition_point(|e| e.gid < pos)
    }

    /// Records the arrival of the LS bits of `seq`'s address at `cycle`.
    pub fn arrive_partial(&mut self, seq: u64, addr: u64, cycle: u64) {
        let i = self.find(seq);
        self.arrive_partial_at(i, addr, cycle);
    }

    /// [`LoadStoreQueue::arrive_partial`] resolving the entry through its
    /// handle instead of a seq search. A no-op (beyond the stamp) once the
    /// entry has left the queue, exactly like an unknown seq.
    pub fn arrive_partial_ref(&mut self, r: LsqRef, addr: u64, cycle: u64) {
        let i = self.find_ref(r);
        self.arrive_partial_at(i, addr, cycle);
    }

    fn arrive_partial_at(&mut self, i: Option<usize>, addr: u64, cycle: u64) {
        let p = self.partial_of(addr);
        self.latest_stamp = self.latest_stamp.max(cycle);
        if let Some(i) = i {
            let e = &mut self.entries[i];
            // First write wins; a repeat may only restate it, so an
            // address once known stays known with the same bits.
            debug_assert!(
                e.partial.is_none_or(|(q, t)| q == p && t <= cycle),
                "partial address of {} changed after arrival",
                e.seq
            );
            e.partial.get_or_insert((p, cycle));
        }
    }

    /// Records the arrival of `seq`'s full address at `cycle`. Also fills
    /// the partial bits if they were never sent separately.
    pub fn arrive_full(&mut self, seq: u64, addr: u64, cycle: u64) {
        let i = self.find(seq);
        self.arrive_full_at(i, addr, cycle);
    }

    /// [`LoadStoreQueue::arrive_full`] resolving the entry through its
    /// handle instead of a seq search.
    pub fn arrive_full_ref(&mut self, r: LsqRef, addr: u64, cycle: u64) {
        let i = self.find_ref(r);
        self.arrive_full_at(i, addr, cycle);
    }

    fn arrive_full_at(&mut self, i: Option<usize>, addr: u64, cycle: u64) {
        let p = self.partial_of(addr);
        let w = word_of(addr);
        self.latest_stamp = self.latest_stamp.max(cycle);
        if let Some(i) = i {
            let e = &mut self.entries[i];
            debug_assert!(
                e.full.is_none_or(|(v, t)| v == w && t <= cycle)
                    && e.partial.is_none_or(|(q, t)| q == p && t <= cycle),
                "address of {} changed after arrival",
                e.seq
            );
            e.full.get_or_insert((w, cycle));
            e.partial.get_or_insert((p, cycle));
        }
    }

    /// Disambiguation status of the load `seq` as of `cycle`.
    ///
    /// With `use_partial` false the LSQ behaves like the baseline: loads
    /// wait for full addresses of all earlier stores.
    ///
    /// Each poll resumes the older-store scan where the previous one
    /// stopped (the first store with an unknown address), so the total
    /// scan work per load is linear in its older entries rather than
    /// linear per poll. A match found earlier forwards only while the
    /// matching store is still in the queue — retirement removes entries
    /// strictly from the front, so "youngest match is at or past the
    /// front" is exactly "some present older store matches".
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not a load in the queue.
    pub fn load_status(&mut self, seq: u64, cycle: u64, use_partial: bool) -> LoadStatus {
        self.load_status_probed(seq, cycle, use_partial, &mut NullProbe)
    }

    /// [`LoadStoreQueue::load_status`] with telemetry: emits
    /// [`Probe::lsq_full_ready`] when a load fully disambiguates and
    /// [`Probe::lsq_partial_conflict`] when its partial address first
    /// matches an earlier store. With [`NullProbe`] this monomorphizes to
    /// exactly `load_status`.
    pub fn load_status_probed<P: Probe>(
        &mut self,
        seq: u64,
        cycle: u64,
        use_partial: bool,
        probe: &mut P,
    ) -> LoadStatus {
        let idx = self.find(seq).expect("load must be in the LSQ");
        self.load_status_at_probed(idx, cycle, use_partial, probe).0
    }

    /// [`LoadStoreQueue::load_status`] resolving the load through its
    /// handle instead of a seq search.
    ///
    /// # Panics
    ///
    /// Panics if the handle's entry is not a load still in the queue.
    pub fn load_status_ref(&mut self, r: LsqRef, cycle: u64, use_partial: bool) -> LoadStatus {
        self.load_status_and_blockers(r, cycle, use_partial, &mut NullProbe)
            .0
    }

    /// [`LoadStoreQueue::load_status_ref`] with telemetry (see
    /// [`LoadStoreQueue::load_status_probed`]) that also reports the
    /// stores the answer waits on, so the caller can skip re-polling the
    /// load until one of the [`LoadBlockers`] inputs changes.
    ///
    /// # Panics
    ///
    /// Panics if the handle's entry is not a load still in the queue.
    pub fn load_status_and_blockers<P: Probe>(
        &mut self,
        r: LsqRef,
        cycle: u64,
        use_partial: bool,
        probe: &mut P,
    ) -> (LoadStatus, LoadBlockers) {
        let idx = self.find_ref(r).expect("load must be in the LSQ");
        self.load_status_at_probed(idx, cycle, use_partial, probe)
    }

    #[inline(never)]
    fn load_status_at_probed<P: Probe>(
        &mut self,
        idx: usize,
        cycle: u64,
        use_partial: bool,
        probe: &mut P,
    ) -> (LoadStatus, LoadBlockers) {
        let mut blockers = LoadBlockers::default();
        let seq = self.entries[idx].seq;
        assert!(!self.entries[idx].is_store, "entry {seq} is a store");

        let own_gid = self.entries[idx].gid;
        let own_full = self.entries[idx].full.filter(|&(_, t)| t <= cycle);
        let own_partial = self.entries[idx].partial.filter(|&(_, t)| t <= cycle);
        let front_seq = self.entries.front().expect("load present").seq;

        // Full disambiguation first: if every earlier store's full address
        // is known and the load's own full address is known, we can give a
        // definitive answer.
        if let Some((w, _)) = own_full {
            let mut pos = own_gid;
            let mut match_seq = self.entries[idx].full_match;
            let start = self.resume_index(self.entries[idx].full_pos);
            for e in self.entries.range(start..idx) {
                if !e.is_store {
                    continue;
                }
                match e.full.filter(|&(_, t)| t <= cycle) {
                    Some((sw, _)) => {
                        if sw == w {
                            match_seq = Some(e.seq);
                        }
                    }
                    None => {
                        blockers.full = Some(e.seq);
                        pos = e.gid;
                        break;
                    }
                }
            }
            let all_known = blockers.full.is_none();
            {
                let e = &mut self.entries[idx];
                e.full_pos = pos;
                e.full_match = match_seq;
            }
            if all_known {
                let forward = match_seq.is_some_and(|m| m >= front_seq);
                // Classify a previously flagged partial conflict.
                let e = &mut self.entries[idx];
                if e.partial_match_counted && !forward {
                    e.partial_match_counted = false;
                    self.stats.false_dependences += 1;
                } else if e.partial_match_counted && forward {
                    e.partial_match_counted = false;
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
        let Some((p, _)) = own_partial else {
            return (LoadStatus::WaitOwnAddress, blockers);
        };
        let mut pos = own_gid;
        let mut match_seq = self.entries[idx].part_match;
        let start = self.resume_index(self.entries[idx].part_pos);
        for e in self.entries.range(start..idx) {
            if !e.is_store {
                continue;
            }
            match e.partial.filter(|&(_, t)| t <= cycle) {
                Some((sp, _)) => {
                    if sp == p {
                        match_seq = Some(e.seq);
                    }
                }
                None => {
                    blockers.partial = Some(e.seq);
                    pos = e.gid;
                    break;
                }
            }
        }
        {
            let e = &mut self.entries[idx];
            e.part_pos = pos;
            e.part_match = match_seq;
        }
        if blockers.partial.is_some() {
            return (LoadStatus::WaitStoreAddress, blockers);
        }
        if match_seq.is_some_and(|m| m >= front_seq) {
            let e = &mut self.entries[idx];
            if !e.partial_match_counted {
                e.partial_match_counted = true;
                self.stats.partial_matches += 1;
                if P::ENABLED {
                    probe.lsq_partial_conflict(cycle, seq);
                }
            }
            return (LoadStatus::PartialConflict, blockers);
        }
        (LoadStatus::PartialReady, blockers)
    }

    /// The earliest future cycle at which a recorded address stamp becomes
    /// visible to `load_status`, or `None` (in O(1)) when every stamp is
    /// already in the past. A caller that records arrivals at their
    /// delivery cycle always gets `None`; the core asserts that, since a
    /// load re-polled only on [`LoadBlockers`] events would miss a stamp
    /// maturing later.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if self.latest_stamp <= now {
            return None;
        }
        self.entries
            .iter()
            .flat_map(|e| [e.partial, e.full])
            .flatten()
            .filter_map(|(_, t)| (t > now).then_some(t))
            .min()
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
        while let Some(front) = self.entries.front() {
            if front.seq <= bound {
                debug_assert!(
                    !front.is_store || front.full.is_some(),
                    "store {} retired before its full address arrived",
                    front.seq
                );
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// Removes a single entry (squash or early completion).
    ///
    /// Mid-queue removal invalidates the monotonicity assumption behind
    /// the incremental scan caches (a store may vanish from a range a
    /// load already scanned), so every load's cache is reset.
    pub fn remove(&mut self, seq: u64) {
        if let Some(i) = self.find(seq) {
            self.entries.remove(i);
            // Present gids may now be non-consecutive; handle and resume
            // lookups fall back to binary search until the queue drains.
            self.holes = true;
            for e in self.entries.iter_mut().filter(|e| !e.is_store) {
                e.full_pos = 0;
                e.full_match = None;
                e.part_pos = 0;
                e.part_match = None;
            }
        }
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
        lsq.insert(1, false);
        assert_eq!(lsq.load_status(1, 0, true), LoadStatus::WaitOwnAddress);
        lsq.arrive_full(1, 0x1000, 3);
        assert_eq!(lsq.load_status(1, 2, true), LoadStatus::WaitOwnAddress);
        assert_eq!(
            lsq.load_status(1, 3, true),
            LoadStatus::FullReady { forward: false }
        );
    }

    #[test]
    fn partial_mismatch_allows_early_prefetch() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.insert(1, true); // store
        lsq.insert(2, false); // load
        lsq.arrive_partial(1, 0x1000, 1);
        lsq.arrive_partial(2, 0x2008, 1);
        // Partials differ (word 0x200 vs 0x401 -> LS bits differ), so the
        // load may start its RAM access before any full address arrives.
        assert_eq!(lsq.load_status(2, 1, true), LoadStatus::PartialReady);
        // Baseline mode still waits for the store's full address.
        assert_eq!(lsq.load_status(2, 1, false), LoadStatus::WaitOwnAddress);
    }

    #[test]
    fn false_dependence_is_detected_and_counted() {
        let mut lsq = LoadStoreQueue::new(4);
        lsq.insert(1, true);
        lsq.insert(2, false);
        // Same 4 LS word bits, different full word: 0x1000>>3=0x200,
        // 0x1080>>3=0x210; (0x200 & 0xF) == (0x210 & 0xF) == 0.
        lsq.arrive_partial(1, 0x1000, 1);
        lsq.arrive_partial(2, 0x1080, 1);
        assert_eq!(lsq.load_status(2, 1, true), LoadStatus::PartialConflict);
        lsq.arrive_full(1, 0x1000, 4);
        lsq.arrive_full(2, 0x1080, 4);
        assert_eq!(
            lsq.load_status(2, 4, true),
            LoadStatus::FullReady { forward: false }
        );
        let s = lsq.stats();
        assert_eq!(s.partial_matches, 1);
        assert_eq!(s.false_dependences, 1);
        assert!((s.false_dependence_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn true_dependence_forwards() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.insert(1, true);
        lsq.insert(2, false);
        lsq.arrive_full(1, 0x3000, 2);
        lsq.arrive_full(2, 0x3000, 2);
        assert_eq!(
            lsq.load_status(2, 2, true),
            LoadStatus::FullReady { forward: true }
        );
        assert_eq!(lsq.stats().forwards, 1);
        assert_eq!(lsq.stats().false_dependences, 0);
    }

    #[test]
    fn unknown_store_address_blocks() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.insert(1, true);
        lsq.insert(2, false);
        lsq.arrive_partial(2, 0x4000, 1);
        lsq.arrive_full(2, 0x4000, 1);
        // Store address entirely unknown: blocked in both modes.
        assert_eq!(lsq.load_status(2, 1, true), LoadStatus::WaitStoreAddress);
        assert_eq!(lsq.load_status(2, 1, false), LoadStatus::WaitStoreAddress);
        // Store partial arrives, differs -> partial path unblocks first.
        lsq.arrive_partial(1, 0x5008, 2);
        assert_eq!(lsq.load_status(2, 2, true), LoadStatus::PartialReady);
        assert_eq!(lsq.load_status(2, 2, false), LoadStatus::WaitStoreAddress);
    }

    #[test]
    fn retire_drops_old_entries() {
        let mut lsq = LoadStoreQueue::new(8);
        for s in 1..=5 {
            lsq.insert(s, s % 2 == 0);
        }
        lsq.arrive_full(2, 0x1000, 1);
        lsq.retire_through(3);
        assert_eq!(lsq.len(), 2);
        lsq.remove(5);
        assert_eq!(lsq.len(), 1);
    }

    #[test]
    fn later_stores_do_not_affect_loads() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.insert(1, false); // load
        lsq.insert(2, true); // younger store
        lsq.arrive_full(1, 0x6000, 1);
        assert_eq!(
            lsq.load_status(1, 1, true),
            LoadStatus::FullReady { forward: false }
        );
    }

    #[test]
    fn ref_api_matches_seq_api() {
        // Drive two clones of the same scenario, one through the seq-based
        // calls and one through the handles; every status must agree.
        let mut by_seq = LoadStoreQueue::new(8);
        let mut by_ref = LoadStoreQueue::new(8);
        let r1 = by_ref.insert(10, true);
        let r2 = by_ref.insert(11, false);
        by_seq.insert(10, true);
        by_seq.insert(11, false);
        by_seq.arrive_partial(11, 0x2000, 1);
        by_ref.arrive_partial_ref(r2, 0x2000, 1);
        assert_eq!(
            by_seq.load_status(11, 1, true),
            by_ref.load_status_ref(r2, 1, true)
        );
        by_seq.arrive_partial(10, 0x2000, 2);
        by_ref.arrive_partial_ref(r1, 0x2000, 2);
        assert_eq!(
            by_ref.load_status_ref(r2, 2, true),
            LoadStatus::PartialConflict
        );
        assert_eq!(by_seq.load_status(11, 2, true), LoadStatus::PartialConflict);
        by_seq.arrive_full(10, 0x3000, 3);
        by_seq.arrive_full(11, 0x2000, 3);
        by_ref.arrive_full_ref(r1, 0x3000, 3);
        by_ref.arrive_full_ref(r2, 0x2000, 3);
        assert_eq!(
            by_seq.load_status(11, 3, true),
            by_ref.load_status_ref(r2, 3, true)
        );
        assert_eq!(by_seq.stats(), by_ref.stats());
    }

    #[test]
    fn stale_handle_is_a_noop_arrival() {
        let mut lsq = LoadStoreQueue::new(8);
        let r = lsq.insert(1, true);
        lsq.insert(2, false);
        lsq.arrive_full(1, 0x2000, 0);
        lsq.retire_through(1);
        // The store has retired; its handle must resolve to nothing rather
        // than aliasing the load now at the front.
        lsq.arrive_full_ref(r, 0x1000, 5);
        assert_eq!(lsq.load_status(2, 5, true), LoadStatus::WaitOwnAddress);
        // No entry was written, so no future stamp exists (identical to the
        // seq API's behavior on an unknown seq).
        assert_eq!(lsq.next_event_cycle(4), None);
    }

    #[test]
    fn handles_survive_mid_queue_removal() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.insert(1, true);
        lsq.insert(2, true);
        let r3 = lsq.insert(3, false);
        // Punch a hole: gids {0, 2} are no longer consecutive.
        lsq.remove(2);
        lsq.arrive_full(1, 0x1000, 1);
        lsq.arrive_full_ref(r3, 0x1000, 1);
        assert_eq!(
            lsq.load_status_ref(r3, 1, true),
            LoadStatus::FullReady { forward: true }
        );
        // Draining the queue re-arms the O(1) gid arithmetic.
        lsq.retire_through(3);
        let r4 = lsq.insert(4, false);
        lsq.arrive_full_ref(r4, 0x2000, 2);
        assert_eq!(
            lsq.load_status_ref(r4, 2, true),
            LoadStatus::FullReady { forward: false }
        );
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_insert_panics() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.insert(5, false);
        lsq.insert(3, false);
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
                lsq.insert(seq, true);
                lsq.insert(seq + 1, false);
                lsq.arrive_partial(seq, saddr, 0);
                lsq.arrive_partial(seq + 1, laddr, 0);
                if lsq.load_status(seq + 1, 0, true) == LoadStatus::PartialConflict {
                    matches += 1;
                }
                lsq.arrive_full(seq, saddr, 0);
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
