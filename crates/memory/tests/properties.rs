//! Randomized property-style tests over the memory subsystem invariants
//! (std-only, driven by the workspace RNG).

use heterowire_rng::SmallRng;
use heterowire_telemetry::NullProbe;

use heterowire_memory::lsq::{LoadBlockers, LoadStatus, LoadStoreQueue, LsqRef};
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
        lsq.insert(1, true);
        lsq.insert(2, false);
        lsq.arrive_partial(1, saddr, 0);
        lsq.arrive_partial(2, laddr, 0);
        let early = lsq.load_status(2, 0, true);
        lsq.arrive_full(1, saddr, 1);
        lsq.arrive_full(2, laddr, 1);
        let fin = lsq.load_status(2, 1, true);
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
        lsq.insert(1, true);
        lsq.insert(2, false);
        lsq.arrive_full(1, saddr, 0);
        lsq.arrive_full(2, laddr, 0);
        let status = lsq.load_status(2, 0, false);
        assert_eq!(
            status,
            LoadStatus::FullReady {
                forward: saddr >> 3 == laddr >> 3
            }
        );
    }
}

/// One memory op of a randomized LSQ stream.
struct StreamOp {
    seq: u64,
    store: bool,
    addr: u64,
    handle: LsqRef,
    partial_sent: bool,
    full_sent: bool,
    /// Loads, once their first address arrived: the status and blockers of
    /// the last poll, and whether the wake rule has woken the load since.
    polled: Option<(LoadStatus, LoadBlockers)>,
    awake: bool,
    /// Loads: fully disambiguated (no longer polled).
    done: bool,
}

/// The wake rule of [`LoadBlockers`] is sound: on randomized streams of
/// inserts, partial and full address arrivals (in either order) and
/// in-order retirements, every load the rule leaves asleep would return
/// its cached status and blockers from a fresh poll on a clone. An
/// oracle queue fed the same stream and polled for every load every
/// cycle agrees on each status and ends with identical statistics.
#[test]
fn wake_rule_never_sleeps_through_a_change() {
    let mut rng = SmallRng::seed_from_u64(0x3e3_0008);
    let mut conflicts = 0;
    for case in 0..CASES {
        let ls_bits = 2 + (case % 7) as u32;
        let use_partial = case % 2 == 0;
        let mut lsq = LoadStoreQueue::new(ls_bits);
        let mut oracle = LoadStoreQueue::new(ls_bits);
        let mut ops: std::collections::VecDeque<StreamOp> = Default::default();
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
                oracle.insert(next_seq, store);
                ops.push_back(StreamOp {
                    seq: next_seq,
                    store,
                    addr,
                    handle,
                    partial_sent: false,
                    full_sent: false,
                    polled: None,
                    awake: false,
                    done: false,
                });
                next_seq += 1;
            }
            // Address arrivals, at this cycle, partial or full first.
            for _ in 0..rng.gen_range(0usize..4) {
                if ops.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..ops.len());
                let full = if ops[i].partial_sent == ops[i].full_sent {
                    rng.gen_bool(0.3)
                } else {
                    !ops[i].full_sent
                };
                if (full && ops[i].full_sent) || (!full && ops[i].partial_sent) {
                    continue;
                }
                let (seq, addr, handle) = (ops[i].seq, ops[i].addr, ops[i].handle);
                if full {
                    ops[i].full_sent = true;
                    lsq.arrive_full_ref(handle, addr, cycle);
                    oracle.arrive_full(seq, addr, cycle);
                } else {
                    ops[i].partial_sent = true;
                    lsq.arrive_partial_ref(handle, addr, cycle);
                    oracle.arrive_partial(seq, addr, cycle);
                }
                if !ops[i].store {
                    ops[i].awake = true;
                    continue;
                }
                for o in ops.iter_mut() {
                    if let Some((_, b)) = o.polled {
                        if b.partial == Some(seq) || (full && b.full == Some(seq)) {
                            o.awake = true;
                        }
                    }
                }
            }
            // In-order retirement: stores with their full address, loads
            // once disambiguated.
            while ops
                .front()
                .is_some_and(|o| if o.store { o.full_sent } else { o.done })
                && rng.gen_bool(0.5)
            {
                let o = ops.pop_front().expect("front");
                lsq.retire_through(o.seq);
                oracle.retire_through(o.seq);
                if o.store {
                    for l in ops.iter_mut() {
                        if matches!(l.polled, Some((LoadStatus::PartialConflict, _))) {
                            l.awake = true;
                        }
                    }
                }
            }
            // Poll: woken loads for real, sleeping ones on a clone.
            for o in ops.iter_mut() {
                if o.store || o.done || !(o.partial_sent || o.full_sent) {
                    continue;
                }
                let want = oracle.load_status(o.seq, cycle, use_partial);
                let got = if o.awake {
                    let (status, blockers) =
                        lsq.load_status_and_blockers(o.handle, cycle, use_partial, &mut NullProbe);
                    o.polled = Some((status, blockers));
                    o.awake = false;
                    status
                } else {
                    let (cached, cached_blockers) = o.polled.expect("polled before sleeping");
                    let fresh = lsq.clone().load_status_and_blockers(
                        o.handle,
                        cycle,
                        use_partial,
                        &mut NullProbe,
                    );
                    assert_eq!(
                        fresh,
                        (cached, cached_blockers),
                        "case {case} cycle {cycle}: load {} slept through a change",
                        o.seq
                    );
                    cached
                };
                assert_eq!(got, want, "case {case} cycle {cycle}: load {}", o.seq);
                o.done = matches!(got, LoadStatus::FullReady { .. });
            }
        }
        assert_eq!(lsq.stats(), oracle.stats(), "case {case}");
        conflicts += lsq.stats().partial_matches;
    }
    assert!(conflicts > 0, "no stream produced a partial conflict");
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
