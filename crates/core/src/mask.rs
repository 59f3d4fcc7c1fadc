//! A u64-backed cluster set.
//!
//! Replaces the old `critical_subs: u16` bitmask on the per-value state:
//! one bit per cluster, so the simulator-wide cluster cap is the mask
//! width ([`ClusterMask::CAPACITY`] = 64, mirrored by
//! `heterowire_interconnect::MAX_SIM_CLUSTERS`). Plain value semantics —
//! `Copy`, no allocation — so it rides inside `ValueInfo` at the same
//! cost as the integer it replaces, and the steering occupancy index
//! intersects sets of clusters in one word operation.

use std::ops::{BitAnd, Not};

/// A set of cluster indices, one bit each, capacity 64.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterMask(u64);

impl ClusterMask {
    /// The set with no clusters.
    pub const EMPTY: Self = ClusterMask(0);
    /// Largest representable cluster count (bit width of the backing u64).
    pub const CAPACITY: usize = u64::BITS as usize;

    /// The clusters `0..n`.
    #[inline]
    pub fn below(n: usize) -> Self {
        debug_assert!(n <= Self::CAPACITY);
        ClusterMask(u64::MAX.checked_shl(n as u32).map_or(u64::MAX, |m| !m))
    }

    /// Adds `cluster` to the set.
    #[inline]
    pub fn insert(&mut self, cluster: usize) {
        debug_assert!(cluster < Self::CAPACITY);
        self.0 |= 1 << cluster;
    }

    /// Removes `cluster` from the set.
    #[inline]
    pub fn remove(&mut self, cluster: usize) {
        debug_assert!(cluster < Self::CAPACITY);
        self.0 &= !(1 << cluster);
    }

    /// Adds `cluster` to the set if `member`, else removes it.
    #[inline]
    pub fn set(&mut self, cluster: usize, member: bool) {
        debug_assert!(cluster < Self::CAPACITY);
        self.0 = self.0 & !(1 << cluster) | (member as u64) << cluster;
    }

    /// Whether `cluster` is in the set.
    #[inline]
    pub fn contains(self, cluster: usize) -> bool {
        debug_assert!(cluster < Self::CAPACITY);
        self.0 >> cluster & 1 == 1
    }

    /// Number of clusters in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest-indexed member, if any.
    #[inline]
    pub fn first(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0.trailing_zeros() as usize)
    }

    /// The member clusters in ascending index order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(c)
        })
    }
}

impl BitAnd for ClusterMask {
    type Output = Self;

    #[inline]
    fn bitand(self, other: Self) -> Self {
        ClusterMask(self.0 & other.0)
    }
}

/// The complement over all [`ClusterMask::CAPACITY`] indices; intersect it
/// with a set of real clusters before reading members.
impl Not for ClusterMask {
    type Output = Self;

    #[inline]
    fn not(self) -> Self {
        ClusterMask(!self.0)
    }
}

impl std::fmt::Debug for ClusterMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for ClusterMask {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut m = ClusterMask::EMPTY;
        for c in iter {
            m.insert(c);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_round_trip() {
        let mut m = ClusterMask::EMPTY;
        assert!(m.is_empty());
        for c in [0, 15, 16, 63] {
            assert!(!m.contains(c));
            m.insert(c);
            assert!(m.contains(c));
        }
        assert_eq!(m.len(), 4);
        m.remove(16);
        assert!(!m.contains(16));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 15, 63]);
    }

    #[test]
    fn set_algebra_reaches_bit_63() {
        assert_eq!(ClusterMask::below(0), ClusterMask::EMPTY);
        assert_eq!(
            ClusterMask::below(4).iter().collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        let all = ClusterMask::below(64);
        assert_eq!(all.len(), 64);
        assert_eq!(all.first(), Some(0));
        let mut m = ClusterMask::EMPTY;
        assert_eq!(m.first(), None);
        m.set(63, true);
        m.set(7, true);
        m.set(7, false);
        assert_eq!(m.first(), Some(63));
        assert_eq!(all & !m, ClusterMask::below(63));
        assert_eq!((all & m).iter().collect::<Vec<_>>(), [63]);
    }

    #[test]
    fn from_iter_dedups_and_orders() {
        let m: ClusterMask = [5, 2, 5, 40].into_iter().collect();
        assert_eq!(m.len(), 3);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 5, 40]);
        assert_eq!(format!("{m:?}"), "{2, 5, 40}");
    }
}
