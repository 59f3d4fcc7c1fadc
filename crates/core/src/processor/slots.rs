//! The pooled value records: a physical-register file (DESIGN.md §13).
//!
//! Every in-flight value carries a [`ValueInfo`] plus per-cluster state:
//! arrival cycles, intrusive waiter-list heads, and the ordered subscriber
//! list. They live in one struct-of-arrays table of **rows**, whose width
//! (**stride**) is the machine's cluster count, read off the `Topology`
//! once at `Processor` construction: `slot(row, cluster) =
//! table[row * stride + cluster]`.
//!
//! Rows are recycled through a free list, like physical registers. Dispatch
//! allocates a row for each destination-writing op and records the row its
//! destination register mapped to before; committing the op frees that
//! previous row. Every consumer of the old value read it through rename
//! before the overwriter did, so its seq is below the overwriter's, and
//! in-order commit has retired it (and with it every copy it waited for)
//! by then. Live rows are thus bounded by one per architectural register
//! plus one per ROB entry — `rob_size + 64` at any window length — and the
//! table is reserved at that size up front, so the dispatch hot path never
//! allocates.
//!
//! This is deliberately *not* an inline-vs-spill enum per value (an
//! earlier cut of the widening was, and the per-access tag dispatch plus
//! the fatter `ValueInfo` cost ~5% wall-clock on the ≤16-cluster fast
//! path). A flat table is branch-free on every access, keeps `ValueInfo`
//! small, and on narrow machines shrinks the per-value footprint below
//! the old fixed `[_; 16]` arrays (stride 4 on the paper's crossbar).

use super::{ValueInfo, MAX_CLUSTERS, NOT_SENT, NO_WAITER};

/// Row-indexed per-value records and per-cluster slot tables, recycled
/// through a free list.
#[derive(Debug, Clone)]
pub(super) struct ValuePool {
    /// Row width: the machine's cluster count.
    stride: usize,
    /// One record per row ever allocated (the high-water mark).
    info: Vec<ValueInfo>,
    /// Cycle a copy arrives per remote cluster ([`NOT_SENT`] /
    /// [`super::IN_FLIGHT`] sentinels).
    arrivals: Vec<u64>,
    /// Per-cluster heads of the intrusive waiter lists ([`NO_WAITER`] =
    /// empty; see `rob.rs` for the node encoding).
    waiters: Vec<u32>,
    /// Remote clusters awaiting a copy once the value completes,
    /// insertion-ordered — copies must be sent in subscription order
    /// because the network assigns transfer ids (and breaks arbitration
    /// ties) in send order.
    subscribers: Vec<u8>,
    /// Live prefix length of each subscriber row.
    subs_len: Vec<u8>,
    /// Released rows, reused last-in first-out.
    free: Vec<u32>,
}

impl ValuePool {
    /// An empty pool for a `clusters`-wide machine, reserving `rows` rows
    /// (the live-row bound) so allocation never grows the tables.
    pub(super) fn new(clusters: usize, rows: usize) -> Self {
        debug_assert!(clusters <= MAX_CLUSTERS);
        ValuePool {
            stride: clusters,
            info: Vec::with_capacity(rows),
            arrivals: Vec::with_capacity(rows * clusters),
            waiters: Vec::with_capacity(rows * clusters),
            subscribers: Vec::with_capacity(rows * clusters),
            subs_len: Vec::with_capacity(rows),
            free: Vec::with_capacity(rows),
        }
    }

    /// Takes a row for a freshly dispatched value: a released one if any
    /// (its arrivals reset to [`NOT_SENT`]), else a new sentinel-filled one.
    pub(super) fn alloc(&mut self, value: ValueInfo) -> u32 {
        if let Some(row) = self.free.pop() {
            let base = row as usize * self.stride;
            self.arrivals[base..base + self.stride].fill(NOT_SENT);
            self.info[row as usize] = value;
            return row;
        }
        let row = self.info.len() as u32;
        self.info.push(value);
        let slots = self.arrivals.len() + self.stride;
        self.arrivals.resize(slots, NOT_SENT);
        self.waiters.resize(slots, NO_WAITER);
        self.subscribers.resize(slots, 0);
        self.subs_len.push(0);
        row
    }

    /// Returns `row` to the pool. By the freeing rule every consumer has
    /// committed, so nothing may still wait on or subscribe to it.
    pub(super) fn release(&mut self, row: u32) {
        debug_assert!(
            self.waiters[self.idx(row, 0)..][..self.stride]
                .iter()
                .all(|&w| w == NO_WAITER),
            "released value row {row} still has waiters"
        );
        debug_assert_eq!(self.subs_len[row as usize], 0, "row {row} has subscribers");
        self.free.push(row);
    }

    /// Rows ever allocated: the most values live at once.
    #[cfg(test)]
    pub(super) fn high_water(&self) -> usize {
        self.info.len()
    }

    /// The record in `row`.
    #[inline]
    pub(super) fn info(&self, row: u32) -> &ValueInfo {
        &self.info[row as usize]
    }

    /// The record in `row`, mutably.
    #[inline]
    pub(super) fn info_mut(&mut self, row: u32) -> &mut ValueInfo {
        &mut self.info[row as usize]
    }

    #[inline]
    fn idx(&self, row: u32, cluster: usize) -> usize {
        debug_assert!((row as usize) < self.info.len());
        debug_assert!(cluster < self.stride);
        row as usize * self.stride + cluster
    }

    /// The arrival slot for `row`'s value in `cluster`.
    #[inline]
    pub(super) fn arrival(&self, row: u32, cluster: usize) -> u64 {
        self.arrivals[self.idx(row, cluster)]
    }

    /// Sets the arrival slot for `row`'s value in `cluster`.
    #[inline]
    pub(super) fn set_arrival(&mut self, row: u32, cluster: usize, cycle: u64) {
        let i = self.idx(row, cluster);
        self.arrivals[i] = cycle;
    }

    /// Swaps `node` into the waiter-list head for (`row`, `cluster`) and
    /// returns the previous head.
    #[inline]
    pub(super) fn replace_waiter(&mut self, row: u32, cluster: usize, node: u32) -> u32 {
        let i = self.idx(row, cluster);
        std::mem::replace(&mut self.waiters[i], node)
    }

    /// Appends `cluster` to `row`'s subscriber list unless already
    /// subscribed.
    pub(super) fn push_subscriber_unique(&mut self, row: u32, cluster: usize) {
        let base = self.idx(row, 0);
        let subs = &mut self.subscribers[base..base + self.stride];
        let n = self.subs_len[row as usize] as usize;
        if subs[..n].contains(&(cluster as u8)) {
            return;
        }
        subs[n] = cluster as u8;
        self.subs_len[row as usize] = n as u8 + 1;
    }

    /// Empties `row`'s subscriber list, returning the subscribed clusters
    /// in subscription order (the publish path iterates them while
    /// sending, which needs `&mut self`).
    pub(super) fn take_subscribers(&mut self, row: u32) -> TakenSubscribers {
        let len = std::mem::take(&mut self.subs_len[row as usize]);
        let base = self.idx(row, 0);
        let mut clusters = [0u8; MAX_CLUSTERS];
        clusters[..len as usize].copy_from_slice(&self.subscribers[base..base + len as usize]);
        TakenSubscribers { clusters, len }
    }
}

/// An owned, drained subscriber list (at most one slot per cluster, so an
/// inline [`MAX_CLUSTERS`]-wide buffer always suffices — no allocation).
pub(super) struct TakenSubscribers {
    clusters: [u8; MAX_CLUSTERS],
    len: u8,
}

impl TakenSubscribers {
    /// The drained clusters, in subscription order.
    pub(super) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.clusters[..self.len as usize]
            .iter()
            .map(|&c| c as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(cluster: usize) -> ValueInfo {
        ValueInfo::new(cluster, false, 0, 0)
    }

    #[test]
    fn rows_are_stride_wide_and_sentinel_filled() {
        for stride in [4, 16, 64] {
            let mut pool = ValuePool::new(stride, 2);
            let a = pool.alloc(value(0));
            let b = pool.alloc(value(1));
            assert_ne!(a, b);
            for c in 0..stride {
                assert_eq!(pool.arrival(b, c), NOT_SENT);
                assert_eq!(pool.replace_waiter(b, c, 7), NO_WAITER);
            }
            pool.set_arrival(b, stride - 1, 42);
            assert_eq!(pool.arrival(b, stride - 1), 42);
            // Row `a` is untouched by row `b`'s writes.
            assert_eq!(pool.arrival(a, stride - 1), NOT_SENT);
        }
    }

    #[test]
    fn recycled_rows_come_back_sentinel_filled() {
        for stride in [4, 16, 64] {
            let mut pool = ValuePool::new(stride, 2);
            let a = pool.alloc(value(0));
            pool.alloc(value(1));
            // Dirty row `a` the way a value's life does: copies sent and
            // arrived, a waiter linked and woken, subscribers taken.
            pool.set_arrival(a, stride - 1, 42);
            pool.set_arrival(a, 0, 7);
            assert_eq!(pool.replace_waiter(a, 1, 5), NO_WAITER);
            assert_eq!(pool.replace_waiter(a, 1, NO_WAITER), 5);
            pool.push_subscriber_unique(a, 2);
            assert_eq!(pool.take_subscribers(a).iter().count(), 1);
            pool.info_mut(a).critical_subs.insert(2);

            pool.release(a);
            let c = pool.alloc(value(3));
            assert_eq!(c, a, "a released row is reused before growing");
            assert_eq!(pool.high_water(), 2);
            assert_eq!(pool.info(c).cluster, 3);
            assert!(pool.info(c).critical_subs.is_empty());
            for cl in 0..stride {
                assert_eq!(pool.arrival(c, cl), NOT_SENT);
                assert_eq!(pool.replace_waiter(c, cl, NO_WAITER), NO_WAITER);
            }
            assert_eq!(pool.take_subscribers(c).iter().count(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "still has waiters")]
    #[cfg(debug_assertions)]
    fn releasing_a_row_with_waiters_is_caught() {
        let mut pool = ValuePool::new(4, 1);
        let row = pool.alloc(value(0));
        pool.replace_waiter(row, 3, 9);
        pool.release(row);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn slots_are_bounded_by_the_cluster_count() {
        let mut pool = ValuePool::new(4, 1);
        let row = pool.alloc(value(0));
        let _ = pool.arrival(row, 4);
    }

    #[test]
    fn subscribers_keep_insertion_order_at_any_width() {
        for stride in [4, 16, 64] {
            let mut pool = ValuePool::new(stride, 1);
            let row = pool.alloc(value(0));
            for c in [3, 1, 3, 0, 1] {
                pool.push_subscriber_unique(row, c);
            }
            let taken = pool.take_subscribers(row);
            assert_eq!(taken.iter().collect::<Vec<_>>(), vec![3, 1, 0]);
            // Taking drains the list.
            assert_eq!(pool.take_subscribers(row).iter().count(), 0);
            // A recycled row starts a fresh list, still in order.
            pool.release(row);
            let row = pool.alloc(value(0));
            let last = stride - 1;
            for c in [last, 2, last] {
                pool.push_subscriber_unique(row, c);
            }
            let taken = pool.take_subscribers(row);
            assert_eq!(taken.iter().collect::<Vec<_>>(), vec![last, 2]);
        }
    }
}
