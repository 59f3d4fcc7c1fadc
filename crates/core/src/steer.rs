//! The dynamic instruction steering heuristic (paper §4).
//!
//! While dispatching, each cluster is scored: weights for producing the
//! instruction's input operands (extra weight for the operand predicted
//! critical), weight proportional to free issue-queue entries, and — for
//! loads — weight for proximity to the centralized data cache. The
//! instruction goes to the highest-scoring cluster; if that cluster has no
//! free resources, to the nearest cluster that has them.

use heterowire_interconnect::Topology;

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

/// Per-cluster resource availability at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterView {
    /// Free issue-queue entries in the relevant (int/fp) queue.
    pub free_iq: usize,
    /// Free physical registers in the relevant file (usize::MAX when the
    /// op needs no destination).
    pub free_regs: usize,
}

impl ClusterView {
    /// True if the cluster can accept the instruction.
    pub fn has_resources(&self) -> bool {
        self.free_iq > 0 && self.free_regs > 0
    }
}

/// Where a cluster sits, tabulated once per topology.
#[derive(Debug, Clone, Copy)]
struct Site {
    /// The cluster's quad; quads are contiguous runs of cluster indices.
    quad: usize,
    /// True if the cluster is adjacent to the centralized data cache.
    cache_adjacent: bool,
}

/// The steering engine.
#[derive(Debug, Clone)]
pub struct Steering {
    weights: SteeringWeights,
    /// One entry per cluster of the topology.
    sites: Vec<Site>,
}

impl Steering {
    /// Creates a steering engine for `topology` with the given weights.
    pub fn new(topology: Topology, weights: SteeringWeights) -> Self {
        let sites: Vec<Site> = (0..topology.clusters())
            .map(|c| Site {
                quad: topology.quad_of(c),
                cache_adjacent: topology.cache_adjacent(c),
            })
            .collect();
        debug_assert!(
            sites.windows(2).all(|w| w[0].quad <= w[1].quad),
            "quads must be contiguous cluster ranges"
        );
        Steering { weights, sites }
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
    /// free resources (dispatch must stall).
    ///
    /// # Panics
    ///
    /// Panics if `clusters` does not match the topology.
    pub fn choose(
        &self,
        is_load: bool,
        producers: &[ProducerInfo],
        clusters: &[ClusterView],
    ) -> Option<usize> {
        assert_eq!(
            clusters.len(),
            self.sites.len(),
            "cluster view must cover the topology"
        );
        self.choose_with(is_load, producers, |c| clusters[c])
    }

    /// [`Steering::choose`] reading each cluster's resources through
    /// `view`, which is called once per cluster in index order — one pass,
    /// with nothing buffered, so dispatch hands over its live state.
    ///
    /// The pass keeps running bests as `(score, cluster)`, replaced only
    /// by a strictly higher score, so ties go to the lower index. The
    /// ideal cluster is the best overall. If it lacks resources, the
    /// fallback is the best cluster with resources in the ideal's quad,
    /// else the best with resources anywhere. Quads are contiguous, so the
    /// best of the ideal's quad is the running best of the quad being
    /// scanned whenever the ideal lies in it, and frozen once the scan
    /// leaves it.
    pub fn choose_with(
        &self,
        is_load: bool,
        producers: &[ProducerInfo],
        mut view: impl FnMut(usize) -> ClusterView,
    ) -> Option<usize> {
        let better = |best: Option<(i64, usize)>, s: i64| best.is_none_or(|(b, _)| s > b);
        let mut ideal: Option<(i64, usize)> = None;
        let mut ideal_ok = false;
        let mut ideal_quad = usize::MAX;
        let mut quad = usize::MAX;
        let mut quad_best = None;
        let mut ideal_quad_best = None;
        let mut any_best = None;
        for (c, site) in self.sites.iter().enumerate() {
            let v = view(c);
            let s = self.score(c, v.free_iq, is_load && site.cache_adjacent, producers);
            if site.quad != quad {
                quad = site.quad;
                quad_best = None;
            }
            let ok = v.has_resources();
            if ok && better(quad_best, s) {
                quad_best = Some((s, c));
            }
            if ok && better(any_best, s) {
                any_best = Some((s, c));
            }
            if better(ideal, s) {
                ideal = Some((s, c));
                ideal_ok = ok;
                ideal_quad = quad;
            }
            if ideal_quad == quad {
                ideal_quad_best = quad_best;
            }
        }
        let (_, ideal) = ideal.expect("at least one cluster");
        if ideal_ok {
            return Some(ideal);
        }
        ideal_quad_best.or(any_best).map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: usize, free: usize) -> Vec<ClusterView> {
        vec![
            ClusterView {
                free_iq: free,
                free_regs: free,
            };
            n
        ]
    }

    fn steering4() -> Steering {
        Steering::new(Topology::crossbar4(), SteeringWeights::default())
    }

    #[test]
    fn follows_the_producer() {
        let s = steering4();
        let got = s.choose(
            false,
            &[ProducerInfo {
                cluster: 2,
                critical: false,
            }],
            &views(4, 10),
        );
        assert_eq!(got, Some(2));
    }

    #[test]
    fn critical_producer_beats_non_critical() {
        let s = steering4();
        let got = s.choose(
            false,
            &[
                ProducerInfo {
                    cluster: 1,
                    critical: false,
                },
                ProducerInfo {
                    cluster: 3,
                    critical: true,
                },
            ],
            &views(4, 10),
        );
        assert_eq!(got, Some(3));
    }

    #[test]
    fn load_balance_wins_without_dependences() {
        let s = steering4();
        let mut v = views(4, 1);
        v[2].free_iq = 10;
        let got = s.choose(false, &[], &v);
        assert_eq!(got, Some(2));
    }

    #[test]
    fn full_ideal_cluster_falls_back() {
        let s = steering4();
        let mut v = views(4, 5);
        v[2].free_iq = 0; // producer cluster is full
        let got = s.choose(
            false,
            &[ProducerInfo {
                cluster: 2,
                critical: true,
            }],
            &v,
        );
        assert!(got.is_some());
        assert_ne!(got, Some(2));
    }

    #[test]
    fn no_resources_anywhere_stalls() {
        let s = steering4();
        let got = s.choose(false, &[], &views(4, 0));
        assert_eq!(got, None);
    }

    #[test]
    fn loads_prefer_cache_quad_in_hier16() {
        let s = Steering::new(Topology::hier16(), SteeringWeights::default());
        // All else equal, a load should land in quad 0 (cache-adjacent).
        let got = s.choose(true, &[], &views(16, 5)).unwrap();
        assert!(got < 4, "load steered to cluster {got}");
    }

    #[test]
    fn fallback_prefers_same_quad() {
        let s = Steering::new(Topology::hier16(), SteeringWeights::default());
        let mut v = views(16, 3);
        // Producer in cluster 5 (quad 1), but it is full.
        v[5].free_iq = 0;
        let got = s
            .choose(
                false,
                &[ProducerInfo {
                    cluster: 5,
                    critical: true,
                }],
                &v,
            )
            .unwrap();
        assert_eq!(got / 4, 1, "fallback should stay in quad 1, got {got}");
    }

    #[test]
    fn register_exhaustion_also_blocks() {
        let s = steering4();
        let mut v = views(4, 5);
        for c in &mut v {
            c.free_regs = 0;
        }
        assert_eq!(s.choose(false, &[], &v), None);
    }
}
