//! The dynamic instruction steering heuristic (paper §4).
//!
//! While dispatching, each cluster is scored: weights for producing the
//! instruction's input operands (extra weight for the operand predicted
//! critical), weight proportional to free issue-queue entries, and — for
//! loads — weight for proximity to the centralized data cache. The
//! instruction goes to the highest-scoring cluster; if that cluster has no
//! free resources, to the nearest cluster that has them.
//!
//! [`Steering`] owns the clusters' issue-queue and register occupancy and
//! indexes it in [`ClusterMask`]s, so a decision never scores every
//! cluster. A cluster that produces none of the instruction's operands
//! scores only its free-slot term (plus, for a load, the cache bonus), and
//! that term depends only on its free-entry level. Levels with equal terms
//! form a *score group*; per issue queue, each cluster's bit sits in the
//! group of its level. The best non-producer is then the lowest index in
//! the first non-empty group, and the at most two producers are scored
//! directly. A decision costs O(score groups + producers) word
//! operations, and dispatch, issue and commit move a bit in O(1).

use heterowire_interconnect::Topology;
use heterowire_isa::RegClass;

use crate::mask::ClusterMask;

/// Tunable weights of the steering heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteeringWeights {
    /// Per input operand produced by the cluster.
    pub dependence: i64,
    /// Extra weight when the cluster produces the critical (last-arriving)
    /// operand.
    pub critical: i64,
    /// Per free issue-queue slot, up to [`SteeringWeights::free_cap`].
    pub free_slot: i64,
    /// Cap on the free-slot bonus.
    pub free_cap: i64,
    /// Bonus for cache-adjacent clusters when steering a load.
    pub cache_proximity: i64,
}

impl Default for SteeringWeights {
    fn default() -> Self {
        SteeringWeights {
            dependence: 4,
            critical: 3,
            free_slot: 1,
            free_cap: 8,
            cache_proximity: 2,
        }
    }
}

/// A dispatching instruction's producer, as seen by the steering logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProducerInfo {
    /// Cluster holding (or about to produce) the operand.
    pub cluster: usize,
    /// True if this operand is predicted to arrive last (critical path).
    pub critical: bool,
}

/// What a dispatching instruction occupies until it issues and commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// The issue queue it waits in: `Fp` for floating-point operations,
    /// `Int` for everything else, loads and stores included.
    pub queue: RegClass,
    /// The class of the physical register it writes, held until commit
    /// (`None` when it writes no register).
    pub dest: Option<RegClass>,
}

/// One issue queue (int or fp) across the clusters.
#[derive(Debug, Clone)]
struct QueueIndex {
    /// Entries in use, per cluster.
    used: Vec<usize>,
    /// Per score group, best first: the clusters whose free-entry level
    /// falls in it. Each cluster is in exactly one group.
    groups: Vec<ClusterMask>,
    /// Clusters with a free entry.
    room: ClusterMask,
}

/// One register class across the clusters.
#[derive(Debug, Clone)]
struct RegIndex {
    /// Registers in use, per cluster.
    used: Vec<usize>,
    /// Clusters with a free register.
    room: ClusterMask,
}

/// The steering engine: the §4 heuristic over an occupancy index.
#[derive(Debug, Clone)]
pub struct Steering {
    weights: SteeringWeights,
    iq_per_cluster: usize,
    regs_per_cluster: usize,
    /// Every cluster of the topology.
    clusters: ClusterMask,
    /// Clusters adjacent to the centralized data cache.
    cache_adjacent: ClusterMask,
    /// Per cluster, the clusters of its quad.
    quad: Vec<ClusterMask>,
    /// Score group of each free-entry level `0..=iq_per_cluster`.
    level_group: Vec<usize>,
    /// Free-slot term of each score group, strictly descending.
    group_score: Vec<i64>,
    /// Indexed by [`RegClass`]: the int and fp issue queues.
    queues: [QueueIndex; 2],
    /// Indexed by [`RegClass`]: the int and fp register files.
    regs: [RegIndex; 2],
}

impl Steering {
    /// Creates a steering engine for `topology` with the given weights and
    /// per-cluster capacities (entries per issue queue, registers per
    /// class), every queue and register file empty.
    pub fn new(
        topology: Topology,
        weights: SteeringWeights,
        iq_per_cluster: usize,
        regs_per_cluster: usize,
    ) -> Self {
        let n = topology.clusters();
        let mut quads = vec![ClusterMask::EMPTY; topology.quads()];
        for c in 0..n {
            quads[topology.quad_of(c)].insert(c);
        }
        let mut steering = Steering {
            weights,
            iq_per_cluster,
            regs_per_cluster,
            clusters: ClusterMask::below(n),
            cache_adjacent: (0..n).filter(|&c| topology.cache_adjacent(c)).collect(),
            quad: (0..n).map(|c| quads[topology.quad_of(c)]).collect(),
            level_group: Vec::new(),
            group_score: Vec::new(),
            queues: std::array::from_fn(|_| QueueIndex {
                used: vec![0; n],
                groups: Vec::new(),
                room: ClusterMask::EMPTY,
            }),
            regs: std::array::from_fn(|_| RegIndex {
                used: vec![0; n],
                room: ClusterMask::EMPTY,
            }),
        };
        steering.set_weights(weights);
        steering
    }

    /// Replaces the weights, regrouping the live occupancy in place: the
    /// score groups are recomputed and every mask is rebuilt from the
    /// counts.
    pub fn set_weights(&mut self, weights: SteeringWeights) {
        self.weights = weights;
        let term = |free: usize| (free as i64).min(weights.free_cap) * weights.free_slot;
        let mut scores: Vec<i64> = (0..=self.iq_per_cluster).map(term).collect();
        scores.sort_unstable_by(|a, b| b.cmp(a));
        scores.dedup();
        self.level_group = (0..=self.iq_per_cluster)
            .map(|free| {
                scores
                    .iter()
                    .position(|&s| s == term(free))
                    .expect("every level's term is listed")
            })
            .collect();
        self.group_score = scores;
        for q in &mut self.queues {
            q.groups = vec![ClusterMask::EMPTY; self.group_score.len()];
            for (c, &used) in q.used.iter().enumerate() {
                q.groups[self.level_group[self.iq_per_cluster - used]].insert(c);
                q.room.set(c, used < self.iq_per_cluster);
            }
        }
        for r in &mut self.regs {
            for (c, &used) in r.used.iter().enumerate() {
                r.room.set(c, used < self.regs_per_cluster);
            }
        }
    }

    /// Issue-queue entries in use on `cluster`, both queues together.
    pub fn iq_used(&self, cluster: usize) -> usize {
        self.queues.iter().map(|q| q.used[cluster]).sum()
    }

    /// Records an instruction dispatched to `cluster`: it takes an entry
    /// in its issue queue and, if it writes one, a register.
    pub fn dispatch(&mut self, cluster: usize, demand: Demand) {
        let used = self.queues[demand.queue as usize].used[cluster];
        debug_assert!(used < self.iq_per_cluster, "cluster {cluster}: full queue");
        self.set_iq_used(demand.queue, cluster, used + 1);
        if let Some(class) = demand.dest {
            let r = &mut self.regs[class as usize];
            debug_assert!(r.used[cluster] < self.regs_per_cluster, "cluster {cluster}");
            r.used[cluster] += 1;
            r.room.set(cluster, r.used[cluster] < self.regs_per_cluster);
        }
    }

    /// Records an instruction issuing on `cluster`, freeing its entry in
    /// `queue`.
    pub fn issue(&mut self, cluster: usize, queue: RegClass) {
        let used = self.queues[queue as usize].used[cluster];
        debug_assert!(
            used > 0,
            "cluster {cluster}: issue from an empty {queue:?} queue"
        );
        self.set_iq_used(queue, cluster, used - 1);
    }

    /// Records an instruction committing on `cluster`, freeing the
    /// register of class `dest` it wrote.
    pub fn commit(&mut self, cluster: usize, dest: RegClass) {
        let r = &mut self.regs[dest as usize];
        debug_assert!(
            r.used[cluster] > 0,
            "cluster {cluster}: no {dest:?} register held"
        );
        r.used[cluster] -= 1;
        r.room.insert(cluster);
    }

    /// Moves `cluster`'s bit in `queue` to the group of its new level.
    fn set_iq_used(&mut self, queue: RegClass, cluster: usize, used: usize) {
        let q = &mut self.queues[queue as usize];
        let from = self.level_group[self.iq_per_cluster - q.used[cluster]];
        let to = self.level_group[self.iq_per_cluster - used];
        if from != to {
            q.groups[from].remove(cluster);
            q.groups[to].insert(cluster);
        }
        q.used[cluster] = used;
        q.room.set(cluster, used < self.iq_per_cluster);
    }

    /// Scores cluster `c` for an instruction: its producers, its free
    /// issue-queue slots and, for a load next to the cache, proximity.
    fn score(
        &self,
        c: usize,
        free_iq: usize,
        load_near_cache: bool,
        producers: &[ProducerInfo],
    ) -> i64 {
        let w = &self.weights;
        let mut score = (free_iq as i64).min(w.free_cap) * w.free_slot;
        for p in producers {
            if p.cluster == c {
                score += w.dependence;
                if p.critical {
                    score += w.critical;
                }
            }
        }
        if load_near_cache {
            score += w.cache_proximity;
        }
        score
    }

    /// Chooses the cluster for an instruction, or `None` if no cluster has
    /// a free entry in its queue and, when it writes one, a free register
    /// (dispatch must stall).
    ///
    /// The ideal cluster is the best-scoring one. If it lacks resources,
    /// the fallback is the best cluster with resources in the ideal's
    /// quad, else the best with resources anywhere. Ties go to the lower
    /// index.
    pub fn choose(
        &self,
        is_load: bool,
        producers: &[ProducerInfo],
        demand: Demand,
    ) -> Option<usize> {
        let queue = &self.queues[demand.queue as usize];
        let mut allowed = queue.room;
        if let Some(class) = demand.dest {
            allowed = allowed & self.regs[class as usize].room;
        }
        if allowed.is_empty() {
            return None;
        }
        let search = Search {
            steering: self,
            queue,
            is_load,
            producers,
            others: !producers.iter().map(|p| p.cluster).collect::<ClusterMask>(),
        };
        let ideal = search.best(self.clusters).expect("at least one cluster");
        if allowed.contains(ideal) {
            return Some(ideal);
        }
        search
            .best(allowed & self.quad[ideal])
            .or_else(|| search.best(allowed))
    }
}

/// One decision's scoring context over the index.
struct Search<'a> {
    steering: &'a Steering,
    queue: &'a QueueIndex,
    is_load: bool,
    producers: &'a [ProducerInfo],
    /// Complement of the producer clusters.
    others: ClusterMask,
}

impl Search<'_> {
    /// The best-scoring cluster of `within`, ties to the lower index.
    fn best(&self, within: ClusterMask) -> Option<usize> {
        let s = self.steering;
        let others = within & self.others;
        let mut best = if self.is_load {
            let near = self
                .top(others & s.cache_adjacent)
                .map(|(score, c)| (score + s.weights.cache_proximity, c));
            let far = self.top(others & !s.cache_adjacent);
            far.map_or(near, |f| better(near, f))
        } else {
            self.top(others)
        };
        for p in self.producers {
            let c = p.cluster;
            if within.contains(c) {
                let free = s.iq_per_cluster - self.queue.used[c];
                let near = self.is_load && s.cache_adjacent.contains(c);
                best = better(best, (s.score(c, free, near, self.producers), c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// The lowest index in the best non-empty score group of `within`,
    /// with the group's free-slot term.
    fn top(&self, within: ClusterMask) -> Option<(i64, usize)> {
        if within.is_empty() {
            return None;
        }
        self.queue
            .groups
            .iter()
            .zip(&self.steering.group_score)
            .find_map(|(&group, &score)| (group & within).first().map(|c| (score, c)))
    }
}

/// The better of a running best and a candidate `(score, cluster)`: the
/// higher score, ties to the lower index.
fn better(best: Option<(i64, usize)>, candidate: (i64, usize)) -> Option<(i64, usize)> {
    match best {
        Some(b) if b.0 > candidate.0 || (b.0 == candidate.0 && b.1 < candidate.1) => best,
        _ => Some(candidate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IQ: usize = 15;
    const REGS: usize = 32;
    const INT_OP: Demand = Demand {
        queue: RegClass::Int,
        dest: Some(RegClass::Int),
    };

    /// A default-weighted index over `topology`, loaded through dispatch,
    /// issue and commit until cluster `c` has `free_iq[c]` free int-queue
    /// entries and `free_regs[c]` free int registers.
    fn loaded(topology: Topology, free_iq: &[usize], free_regs: &[usize]) -> Steering {
        let mut s = Steering::new(topology, SteeringWeights::default(), IQ, REGS);
        for c in 0..topology.clusters() {
            for _ in free_regs[c]..REGS {
                s.dispatch(c, INT_OP);
                s.issue(c, RegClass::Int);
            }
            for _ in free_iq[c]..IQ {
                let no_dest = Demand {
                    dest: None,
                    ..INT_OP
                };
                s.dispatch(c, no_dest);
            }
        }
        s
    }

    fn uniform(topology: Topology, free: usize) -> Steering {
        let n = topology.clusters();
        loaded(topology, &vec![free; n], &vec![free; n])
    }

    fn producer(cluster: usize, critical: bool) -> ProducerInfo {
        ProducerInfo { cluster, critical }
    }

    #[test]
    fn follows_the_producer() {
        let s = uniform(Topology::crossbar4(), 10);
        assert_eq!(s.choose(false, &[producer(2, false)], INT_OP), Some(2));
    }

    #[test]
    fn critical_producer_beats_non_critical() {
        let s = uniform(Topology::crossbar4(), 10);
        let got = s.choose(false, &[producer(1, false), producer(3, true)], INT_OP);
        assert_eq!(got, Some(3));
    }

    #[test]
    fn load_balance_wins_without_dependences() {
        let s = loaded(Topology::crossbar4(), &[1, 1, 10, 1], &[1; 4]);
        assert_eq!(s.choose(false, &[], INT_OP), Some(2));
    }

    #[test]
    fn full_ideal_cluster_falls_back() {
        // The producer cluster's queue is full.
        let s = loaded(Topology::crossbar4(), &[5, 5, 0, 5], &[5; 4]);
        let got = s.choose(false, &[producer(2, true)], INT_OP);
        assert!(got.is_some());
        assert_ne!(got, Some(2));
    }

    #[test]
    fn no_resources_anywhere_stalls() {
        let s = uniform(Topology::crossbar4(), 0);
        assert_eq!(s.choose(false, &[], INT_OP), None);
    }

    #[test]
    fn loads_prefer_cache_quad_in_hier16() {
        // All else equal, a load should land in quad 0 (cache-adjacent).
        let s = uniform(Topology::hier16(), 5);
        let got = s.choose(true, &[], INT_OP).unwrap();
        assert!(got < 4, "load steered to cluster {got}");
    }

    #[test]
    fn fallback_prefers_same_quad() {
        // Producer in cluster 5 (quad 1), but it is full.
        let mut free_iq = [3; 16];
        free_iq[5] = 0;
        let s = loaded(Topology::hier16(), &free_iq, &[3; 16]);
        let got = s.choose(false, &[producer(5, true)], INT_OP).unwrap();
        assert_eq!(got / 4, 1, "fallback should stay in quad 1, got {got}");
    }

    #[test]
    fn register_exhaustion_also_blocks() {
        let s = loaded(Topology::crossbar4(), &[5; 4], &[0; 4]);
        assert_eq!(s.choose(false, &[], INT_OP), None);
        // An op that writes no register still fits.
        let no_dest = Demand {
            dest: None,
            ..INT_OP
        };
        assert!(s.choose(false, &[], no_dest).is_some());
        // Nor does the int file's exhaustion block an fp result.
        let fp_dest = Demand {
            dest: Some(RegClass::Fp),
            ..INT_OP
        };
        assert!(s.choose(false, &[], fp_dest).is_some());
    }

    #[test]
    fn occupancy_round_trips_to_empty() {
        let mut s = uniform(Topology::hier16(), 3);
        assert_eq!(s.iq_used(7), IQ - 3);
        for c in 0..16 {
            for _ in 0..IQ - 3 {
                s.issue(c, RegClass::Int);
            }
            for _ in 0..REGS - 3 {
                s.commit(c, RegClass::Int);
            }
        }
        let fresh = Steering::new(Topology::hier16(), SteeringWeights::default(), IQ, REGS);
        for q in 0..2 {
            assert_eq!(s.queues[q].used, fresh.queues[q].used);
            assert_eq!(s.queues[q].groups, fresh.queues[q].groups);
            assert_eq!(s.queues[q].room, fresh.queues[q].room);
            assert_eq!(s.regs[q].room, fresh.regs[q].room);
        }
    }

    #[test]
    fn default_weights_group_levels_eight_and_up() {
        let s = Steering::new(Topology::crossbar4(), SteeringWeights::default(), IQ, REGS);
        assert_eq!(s.group_score, [8, 7, 6, 5, 4, 3, 2, 1, 0]);
        assert!(s.level_group[8..].iter().all(|&g| g == 0));
        assert_eq!(s.level_group[..8], [8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "issue from an empty")]
    fn issuing_from_an_empty_queue_is_an_accounting_bug() {
        let mut s = uniform(Topology::crossbar4(), IQ);
        s.issue(0, RegClass::Fp);
    }
}
