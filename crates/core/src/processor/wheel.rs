//! Event-time data structures: the completion wheel, the ready queues and
//! deferred sends.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use heterowire_interconnect::Transfer;

use super::{Action, FU_KINDS, MAX_CLUSTERS};

/// A send scheduled for a future cycle (e.g. cache data that becomes
/// available when the RAM access finishes).
///
/// Lives in a min-heap ordered by `(at, dseq)`. `at` is clamped to
/// `push_cycle + 1` at insertion: the reference Vec scan ran before any
/// same-cycle push, so an entry nominally due at or before its push cycle
/// fired on the *next* cycle — the clamp makes the heap's firing cycles
/// identical. `dseq` is a monotone insertion counter so same-cycle entries
/// fire in push order (the network assigns transfer ids in send order, and
/// ids break arbitration ties).
#[derive(Debug, Clone, Copy)]
pub(super) struct DeferredSend {
    pub(super) at: u64,
    pub(super) dseq: u64,
    pub(super) transfer: Transfer,
    pub(super) action: Action,
}

impl PartialEq for DeferredSend {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.dseq == other.dseq
    }
}

impl Eq for DeferredSend {}

impl PartialOrd for DeferredSend {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeferredSend {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.dseq).cmp(&(other.at, other.dseq))
    }
}

/// Ring size of the completion wheel; a power of two strictly greater
/// than the longest FU latency (20-cycle integer divide).
const WHEEL_BUCKETS: usize = 64;

/// Calendar queue of execution-completion events: issuing schedules
/// `(done_cycle, seq)` into the bucket `done_cycle % WHEEL_BUCKETS`, and
/// each executed cycle drains exactly its own bucket. Because every
/// completion lies within `WHEEL_BUCKETS` cycles of its issue and buckets
/// are drained before they can wrap, a bucket only ever holds entries for
/// one cycle.
#[derive(Debug)]
pub(super) struct CompletionWheel {
    buckets: Vec<Vec<u32>>,
    /// Entries currently scheduled across all buckets.
    scheduled: usize,
    /// Exact earliest scheduled completion cycle (`u64::MAX` when empty).
    earliest: u64,
}

impl CompletionWheel {
    pub(super) fn new() -> Self {
        CompletionWheel {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            scheduled: 0,
            earliest: u64::MAX,
        }
    }

    pub(super) fn schedule(&mut self, now: u64, done: u64, seq: u64) {
        debug_assert!(
            done > now && done - now < WHEEL_BUCKETS as u64,
            "completion {done} outside wheel horizon at cycle {now}"
        );
        debug_assert!(seq < u64::from(u32::MAX));
        self.buckets[done as usize & (WHEEL_BUCKETS - 1)].push(seq as u32);
        self.scheduled += 1;
        self.earliest = self.earliest.min(done);
    }

    /// Drains the instructions completing exactly at `cycle` into `out`
    /// in ascending seq order (the reference scan finishes instructions in
    /// ROB = seq order).
    pub(super) fn pop_due(&mut self, cycle: u64, out: &mut Vec<u64>) {
        out.clear();
        if self.earliest > cycle {
            return;
        }
        let bucket = &mut self.buckets[cycle as usize & (WHEEL_BUCKETS - 1)];
        self.scheduled -= bucket.len();
        out.extend(bucket.drain(..).map(u64::from));
        out.sort_unstable();
        if self.scheduled == 0 {
            self.earliest = u64::MAX;
        } else {
            // The next event sits within one ring revolution of `cycle`.
            let mut c = cycle + 1;
            while self.buckets[c as usize & (WHEEL_BUCKETS - 1)].is_empty() {
                c += 1;
            }
            self.earliest = c;
        }
    }

    /// The earliest scheduled completion cycle, if any.
    pub(super) fn next_due(&self) -> Option<u64> {
        (self.scheduled > 0).then_some(self.earliest)
    }
}

/// Words in the non-empty mask: one bit per ready queue at the cluster cap.
const READY_WORDS: usize = (MAX_CLUSTERS * FU_KINDS).div_ceil(64);

/// Min-heaps of known-ready waiting instructions, one per (cluster, FU
/// kind) and indexed `cluster * FU_KINDS + kind`, plus a bitmask of the
/// non-empty ones. Issue and the idle-cycle skipper visit only the set
/// bits, in ascending index order — the order of a scan over all queues.
#[derive(Debug)]
pub(super) struct ReadyQueues {
    heaps: Vec<BinaryHeap<Reverse<u64>>>,
    /// Bit `i` is set exactly while `heaps[i]` is non-empty.
    nonempty: [u64; READY_WORDS],
}

impl ReadyQueues {
    pub(super) fn new(queues: usize) -> Self {
        assert!(queues <= READY_WORDS * 64, "{queues} ready queues");
        ReadyQueues {
            heaps: (0..queues).map(|_| BinaryHeap::new()).collect(),
            nonempty: [0; READY_WORDS],
        }
    }

    pub(super) fn push(&mut self, queue: usize, seq: u64) {
        self.heaps[queue].push(Reverse(seq));
        self.nonempty[queue / 64] |= 1 << (queue % 64);
    }

    /// Pops the oldest instruction of `queue`.
    pub(super) fn pop(&mut self, queue: usize) -> Option<u64> {
        let Reverse(seq) = self.heaps[queue].pop()?;
        if self.heaps[queue].is_empty() {
            self.nonempty[queue / 64] &= !(1 << (queue % 64));
        }
        Some(seq)
    }

    /// The non-empty queues as of this call, in ascending index order.
    /// The iterator owns a copy of the mask, so the queues may be popped
    /// while it runs.
    pub(super) fn nonempty(&self) -> impl Iterator<Item = usize> {
        let words = self.nonempty;
        (0..READY_WORDS).flat_map(move |w| {
            let mut bits = words[w];
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }

    /// Instructions across all queues.
    pub(super) fn len(&self) -> usize {
        self.heaps.iter().map(BinaryHeap::len).sum()
    }
}
