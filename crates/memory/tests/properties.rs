//! Randomized property-style tests over the memory subsystem invariants
//! (std-only, driven by the workspace RNG).

use std::collections::VecDeque;

use heterowire_rng::SmallRng;
use heterowire_telemetry::NullProbe;

use heterowire_memory::lsq::{LoadBlockers, LoadStatus, LoadStoreQueue, LsqRef, LsqStats};
use heterowire_memory::pipeline::{
    accelerated_hit_completion, baseline_hit_completion, CachePipelineParams,
};
use heterowire_memory::{Cache, MemoryHierarchy, Tlb};

const CASES: usize = 128;

/// Cache inclusion of the last access: the line just accessed always
/// probes as present.
#[test]
fn most_recent_line_is_resident() {
    let mut rng = SmallRng::seed_from_u64(0x3e3_0001);
    for _ in 0..16 {
        let n = rng.gen_range(1usize..200);
        let mut c = Cache::new(4 * 1024, 2, 64);
        for _ in 0..n {
            let a = rng.gen::<u32>() as u64;
            c.access(a);
            assert!(c.probe(a), "just-accessed {a:#x} missing");
        }
    }
}

/// A working set no larger than one way's capacity per set never misses
/// after the first pass, for any alignment.
#[test]
fn small_working_sets_fit() {
    let mut rng = SmallRng::seed_from_u64(0x3e3_0002);
    for _ in 0..32 {
        let base = rng.gen_range(0u64..(1 << 30)) & !63;
        let mut c = Cache::new(32 * 1024, 4, 64);
        let lines: Vec<u64> = (0..64).map(|i| base + i * 64).collect();
        for &a in &lines {
            c.access(a);
        }
        for &a in &lines {
            assert!(c.access(a), "{a:#x} missed on second pass");
        }
    }
}

/// LSQ soundness: `PartialReady` is only reported when the full addresses
/// actually have no conflict (no false *negatives* in the partial filter:
/// a partial mismatch must imply a word mismatch).
#[test]
fn partial_filter_is_sound() {
    let mut rng = SmallRng::seed_from_u64(0x3e3_0003);
    for _ in 0..CASES {
        let saddr = (rng.gen::<u32>() as u64) & !7;
        // Half the cases share low bits with the store so the conflict
        // path is exercised, not just the common no-match path.
        let laddr = if rng.gen_bool(0.5) {
            (rng.gen::<u32>() as u64) & !7
        } else {
            saddr ^ ((rng.gen_range(0u64..16)) << 20)
        };
        let bits = rng.gen_range(1u32..16);
        let mut lsq = LoadStoreQueue::new(bits);
        let store = lsq.insert(1, true);
        let load = lsq.insert(2, false);
        lsq.arrive_partial_ref(store, saddr, 0);
        lsq.arrive_partial_ref(load, laddr, 0);
        let early = lsq.load_status_ref(load, 0, true);
        lsq.arrive_full_ref(store, saddr, 1);
        lsq.arrive_full_ref(load, laddr, 1);
        let fin = lsq.load_status_ref(load, 1, true);
        match early {
            LoadStatus::PartialReady => {
                // Partial said "no conflict": the full check must agree.
                assert_eq!(fin, LoadStatus::FullReady { forward: false });
                assert_ne!(saddr >> 3, laddr >> 3);
            }
            LoadStatus::PartialConflict => {
                // Partial matched; a real conflict implies equal words.
                if saddr >> 3 == laddr >> 3 {
                    assert_eq!(fin, LoadStatus::FullReady { forward: true });
                }
            }
            other => panic!("unexpected early status {other:?}"),
        }
    }
}

/// Full-address disambiguation forwards exactly when the word matches.
#[test]
fn forwarding_matches_word_equality() {
    let mut rng = SmallRng::seed_from_u64(0x3e3_0004);
    for _ in 0..CASES {
        let saddr = rng.gen::<u32>() as u64;
        // Mix in exact word matches so the forwarding arm is hit often.
        let laddr = if rng.gen_bool(0.3) {
            (saddr & !7) | rng.gen_range(0u64..8)
        } else {
            rng.gen::<u32>() as u64
        };
        let mut lsq = LoadStoreQueue::new(8);
        let store = lsq.insert(1, true);
        let load = lsq.insert(2, false);
        lsq.arrive_full_ref(store, saddr, 0);
        lsq.arrive_full_ref(load, laddr, 0);
        let status = lsq.load_status_ref(load, 0, false);
        assert_eq!(
            status,
            LoadStatus::FullReady {
                forward: saddr >> 3 == laddr >> 3
            }
        );
    }
}

/// A naive LSQ model, the independent oracle for the streams below: the
/// present memory ops in program order with their address stamps, every
/// poll re-walking all older stores. It shares no code with
/// [`LoadStoreQueue`].
struct Model {
    ls_bits: u32,
    ops: VecDeque<ModelOp>,
    stats: LsqStats,
}

struct ModelOp {
    seq: u64,
    store: bool,
    word: u64,
    partial_at: Option<u64>,
    full_at: Option<u64>,
    /// Loads: a partial match was counted and not yet classified.
    counted: bool,
}

impl Model {
    fn insert(&mut self, seq: u64, store: bool, addr: u64) {
        if store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        self.ops.push_back(ModelOp {
            seq,
            store,
            word: addr >> 3,
            partial_at: None,
            full_at: None,
            counted: false,
        });
    }

    fn arrive(&mut self, seq: u64, full: bool, cycle: u64) {
        let op = self
            .ops
            .iter_mut()
            .find(|o| o.seq == seq)
            .expect("op present");
        op.partial_at.get_or_insert(cycle);
        if full {
            op.full_at.get_or_insert(cycle);
        }
    }

    fn retire_through(&mut self, bound: u64) {
        self.ops.retain(|o| o.seq > bound);
    }

    fn poll(&mut self, seq: u64, cycle: u64, use_partial: bool) -> (LoadStatus, LoadBlockers) {
        let i = self
            .ops
            .iter()
            .position(|o| o.seq == seq)
            .expect("load present");
        let known = |at: Option<u64>| at.is_some_and(|t| t <= cycle);
        let mask = (1u64 << self.ls_bits) - 1;
        let (word, own_partial, own_full) = {
            let l = &self.ops[i];
            (l.word, known(l.partial_at), known(l.full_at))
        };
        let older = || self.ops.iter().take(i).filter(|o| o.store);
        let first_unknown =
            |at: fn(&ModelOp) -> Option<u64>| older().find(|s| !known(at(s))).map(|s| s.seq);
        let mut blockers = LoadBlockers::default();
        if own_full {
            blockers.full = first_unknown(|s| s.full_at);
            if blockers.full.is_none() {
                let forward = older().any(|s| s.word == word);
                if std::mem::take(&mut self.ops[i].counted) && !forward {
                    self.stats.false_dependences += 1;
                }
                self.stats.forwards += u64::from(forward);
                return (LoadStatus::FullReady { forward }, blockers);
            }
        }
        if !use_partial || !own_partial {
            let status = if own_full {
                LoadStatus::WaitStoreAddress
            } else {
                LoadStatus::WaitOwnAddress
            };
            return (status, blockers);
        }
        blockers.partial = first_unknown(|s| s.partial_at);
        if blockers.partial.is_some() {
            return (LoadStatus::WaitStoreAddress, blockers);
        }
        if older().any(|s| s.word & mask == word & mask) {
            if !std::mem::replace(&mut self.ops[i].counted, true) {
                self.stats.partial_matches += 1;
            }
            return (LoadStatus::PartialConflict, blockers);
        }
        (LoadStatus::PartialReady, blockers)
    }
}

/// One memory op of a randomized LSQ stream.
struct StreamOp {
    seq: u64,
    store: bool,
    addr: u64,
    handle: LsqRef,
    /// The stamps the stream gave each half of the address.
    partial_at: Option<u64>,
    full_at: Option<u64>,
    /// Loads, once polled: the status and blockers of the last poll, and
    /// whether the wake rule has woken the load since.
    polled: Option<(LoadStatus, LoadBlockers)>,
    awake: bool,
    /// Loads: fully disambiguated (no longer polled).
    done: bool,
}

/// Runs randomized streams of inserts, partial and full address arrivals
/// (in either order) and in-order retirements through the queue and the
/// [`Model`], and checks every poll's status and blockers, and the final
/// statistics, against the model.
///
/// Without `future_stamps`, arrivals are stamped with the current cycle,
/// as in the core, and the queue polls a load only when the wake rule of
/// [`LoadBlockers`] wakes it; a load left asleep must return its cached
/// answer from a fresh poll on a clone. With `future_stamps`, an arrival
/// may be stamped up to two cycles ahead, which the wake rule does not
/// allow, so every load is polled every cycle instead.
fn check_streams_against_model(seed: u64, future_stamps: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut conflicts = 0;
    for case in 0..CASES {
        let ls_bits = 2 + (case % 7) as u32;
        let use_partial = case % 2 == 0;
        let mut lsq = LoadStoreQueue::new(ls_bits);
        let mut model = Model {
            ls_bits,
            ops: VecDeque::new(),
            stats: LsqStats::default(),
        };
        let mut ops: VecDeque<StreamOp> = VecDeque::new();
        let mut next_seq = 0;
        for cycle in 1..400u64 {
            // Dispatch: stores and loads over a few dozen words, some
            // loads reading an in-flight store's word.
            if ops.len() < 24 && rng.gen_bool(0.6) {
                let store = rng.gen_bool(0.4);
                let stored: Vec<u64> = ops.iter().filter(|o| o.store).map(|o| o.addr).collect();
                let addr = if !store && !stored.is_empty() && rng.gen_bool(0.3) {
                    stored[rng.gen_range(0..stored.len())]
                } else {
                    (rng.gen_range(0u64..48) << 3) | rng.gen_range(0u64..8)
                };
                let handle = lsq.insert(next_seq, store);
                model.insert(next_seq, store, addr);
                ops.push_back(StreamOp {
                    seq: next_seq,
                    store,
                    addr,
                    handle,
                    partial_at: None,
                    full_at: None,
                    polled: None,
                    awake: false,
                    done: false,
                });
                next_seq += 1;
            }
            // Address arrivals, partial or full first, never stamped
            // before the other half's stamp.
            for _ in 0..rng.gen_range(0usize..4) {
                if ops.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..ops.len());
                let o = &mut ops[i];
                let full = if o.partial_at.is_some() == o.full_at.is_some() {
                    rng.gen_bool(0.3)
                } else {
                    o.full_at.is_none()
                };
                if (full && o.full_at.is_some()) || (!full && o.partial_at.is_some()) {
                    continue;
                }
                let ahead = if future_stamps {
                    rng.gen_range(0u64..3)
                } else {
                    0
                };
                let at = (cycle + ahead).max(o.partial_at.max(o.full_at).unwrap_or(0));
                if full {
                    o.full_at = Some(at);
                    lsq.arrive_full_ref(o.handle, o.addr, at);
                } else {
                    o.partial_at = Some(at);
                    lsq.arrive_partial_ref(o.handle, o.addr, at);
                }
                model.arrive(o.seq, full, at);
                if !o.store {
                    o.awake = true;
                    continue;
                }
                let seq = o.seq;
                for l in ops.iter_mut() {
                    if let Some((_, b)) = l.polled {
                        if b.partial == Some(seq) || (full && b.full == Some(seq)) {
                            l.awake = true;
                        }
                    }
                }
            }
            // In-order retirement: stores whose full address has arrived,
            // loads once disambiguated.
            while ops.front().is_some_and(|o| {
                if o.store {
                    o.full_at.is_some_and(|t| t <= cycle)
                } else {
                    o.done
                }
            }) && rng.gen_bool(0.5)
            {
                let o = ops.pop_front().expect("front");
                lsq.retire_through(o.seq);
                model.retire_through(o.seq);
                if o.store {
                    for l in ops.iter_mut() {
                        if matches!(l.polled, Some((LoadStatus::PartialConflict, _))) {
                            l.awake = true;
                        }
                    }
                }
            }
            // Poll: loads the wake rule woke (every load with future
            // stamps) for real, sleeping ones on a clone.
            for o in ops.iter_mut() {
                let at_lsq = o.partial_at.is_some() || o.full_at.is_some();
                if o.store || o.done || !(at_lsq || future_stamps) {
                    continue;
                }
                let want = model.poll(o.seq, cycle, use_partial);
                let got = if o.awake || future_stamps {
                    let got =
                        lsq.load_status_and_blockers(o.handle, cycle, use_partial, &mut NullProbe);
                    o.polled = Some(got);
                    o.awake = false;
                    got
                } else {
                    let cached = o.polled.expect("polled before sleeping");
                    let fresh = lsq.clone().load_status_and_blockers(
                        o.handle,
                        cycle,
                        use_partial,
                        &mut NullProbe,
                    );
                    assert_eq!(
                        fresh, cached,
                        "case {case} cycle {cycle}: load {} slept through a change",
                        o.seq
                    );
                    cached
                };
                assert_eq!(got, want, "case {case} cycle {cycle}: load {}", o.seq);
                o.done = matches!(got.0, LoadStatus::FullReady { .. });
            }
        }
        assert_eq!(lsq.stats(), model.stats, "case {case}");
        conflicts += model.stats.partial_matches;
    }
    assert!(conflicts > 0, "no stream produced a partial conflict");
}

/// The wake rule of [`LoadBlockers`] is sound: every load it leaves asleep
/// would return its cached status and blockers, and every answer agrees
/// with the naive model polled for every load every cycle.
#[test]
fn wake_rule_never_sleeps_through_a_change() {
    check_streams_against_model(0x3e3_0008, false);
}

/// Addresses stamped ahead of the poll cycle, as the perf benchmark's
/// LSQ replay records them, count only from their stamp: every load polled
/// every cycle agrees with the naive model.
#[test]
fn future_stamps_count_from_their_cycle() {
    check_streams_against_model(0x3e3_0009, true);
}

/// The accelerated pipeline never loses more than the tag-compare cycle,
/// and wins at most the RAM latency.
#[test]
fn acceleration_is_bounded() {
    let mut rng = SmallRng::seed_from_u64(0x3e3_0005);
    for _ in 0..CASES {
        let head_start = rng.gen_range(0u64..32);
        let ms = rng.gen_range(0u64..1000);
        let p = CachePipelineParams::l1_table1();
        let ram_start = ms.saturating_sub(head_start);
        let fast = accelerated_hit_completion(&p, ram_start, ms);
        let slow = baseline_hit_completion(&p, ms);
        let benefit = slow as i64 - fast as i64;
        assert!(benefit >= -(p.tag_compare as i64));
        assert!(benefit <= p.ram_latency as i64);
    }
}

/// TLB reach: pages in a working set no larger than the TLB always hit
/// after warmup.
#[test]
fn tlb_reach() {
    let mut rng = SmallRng::seed_from_u64(0x3e3_0006);
    for _ in 0..32 {
        let base_page = rng.gen_range(0u64..(1 << 20));
        let mut tlb = Tlb::table1();
        let pages: Vec<u64> = (0..64).map(|i| (base_page + i) * 8192).collect();
        for &p in &pages {
            tlb.access(p);
        }
        for &p in &pages {
            assert!(tlb.access(p), "page {p:#x} missed after warmup");
        }
    }
}

/// Hierarchy latency sanity: completions never precede their inputs and
/// warm hits cost exactly the L1 latency.
#[test]
fn hierarchy_latency_bounds() {
    let mut rng = SmallRng::seed_from_u64(0x3e3_0007);
    for _ in 0..CASES {
        let addr = rng.gen::<u32>() as u64;
        let start = rng.gen_range(0u64..10_000);
        let mut m = MemoryHierarchy::default();
        m.load(addr, start, start, false); // install
        let done = m.load(addr, start + 500, start + 500, false);
        assert!(done >= start + 500);
        assert_eq!(done, start + 500 + 6, "warm hit must cost 6 cycles");
    }
}
