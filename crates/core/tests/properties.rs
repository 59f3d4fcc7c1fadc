//! Randomized property-style tests over the core: steering, the narrow
//! predictor, the energy model and short simulator invariants (std-only).

use heterowire_rng::SmallRng;

use heterowire_core::steer::{Demand, ProducerInfo};
use heterowire_core::{
    relative_report, EnergyParams, InterconnectModel, NarrowPredictor, Processor, ProcessorConfig,
    Steering, SteeringWeights,
};
use heterowire_interconnect::Topology;
use heterowire_isa::RegClass;
use heterowire_trace::{spec2000, TraceGenerator};

const CASES: usize = 256;

/// Per-cluster capacities of the steering tests: a small register file,
/// so register exhaustion (which leaves the ideal's score intact) is
/// common, and an issue queue deep enough that default weights put levels
/// 8–10 in one score group.
const IQ: usize = 10;
const REGS: usize = 6;

/// A cluster's free resources for one instruction, as the oracle sees
/// them.
#[derive(Debug, Clone, Copy)]
struct ClusterView {
    /// Free entries in the instruction's issue queue.
    free_iq: usize,
    /// Free registers of its destination class (`usize::MAX` when it
    /// writes none).
    free_regs: usize,
}

impl ClusterView {
    fn has_resources(&self) -> bool {
        self.free_iq > 0 && self.free_regs > 0
    }
}

/// Occupancy counts kept apart from the index, driven through the same
/// dispatch, issue and commit events.
struct Shadow {
    /// Entries in use per cluster, int and fp queue.
    iq: [Vec<usize>; 2],
    /// Registers in use per cluster, int and fp file.
    regs: [Vec<usize>; 2],
    /// Dispatched, not issued: `(cluster, queue)`.
    waiting: Vec<(usize, RegClass)>,
    /// Dispatched with a destination, not committed: `(cluster, class)`.
    holding: Vec<(usize, RegClass)>,
}

impl Shadow {
    fn new(n: usize) -> Self {
        Shadow {
            iq: [vec![0; n], vec![0; n]],
            regs: [vec![0; n], vec![0; n]],
            waiting: Vec::new(),
            holding: Vec::new(),
        }
    }

    /// Every cluster's resources for an instruction with `demand`.
    fn views(&self, demand: Demand) -> Vec<ClusterView> {
        (0..self.iq[0].len())
            .map(|c| ClusterView {
                free_iq: IQ - self.iq[demand.queue as usize][c],
                free_regs: demand
                    .dest
                    .map_or(usize::MAX, |r| REGS - self.regs[r as usize][c]),
            })
            .collect()
    }

    /// Dispatches to `cluster` on both the shadow and `steering`.
    fn dispatch(&mut self, steering: &mut Steering, cluster: usize, demand: Demand) {
        steering.dispatch(cluster, demand);
        self.iq[demand.queue as usize][cluster] += 1;
        self.waiting.push((cluster, demand.queue));
        if let Some(r) = demand.dest {
            self.regs[r as usize][cluster] += 1;
            self.holding.push((cluster, r));
        }
    }

    /// Issues the `i`-th waiting instruction.
    fn issue_at(&mut self, steering: &mut Steering, i: usize) {
        let (c, q) = self.waiting.swap_remove(i);
        steering.issue(c, q);
        self.iq[q as usize][c] -= 1;
    }

    /// Issues a random waiting instruction, if any.
    fn issue(&mut self, steering: &mut Steering, rng: &mut SmallRng) {
        if !self.waiting.is_empty() {
            self.issue_at(steering, rng.gen_range(0..self.waiting.len()));
        }
    }

    /// Commits a random register-holding instruction, if any.
    fn commit(&mut self, steering: &mut Steering, rng: &mut SmallRng) {
        if !self.holding.is_empty() {
            let (c, r) = self
                .holding
                .swap_remove(rng.gen_range(0..self.holding.len()));
            steering.commit(c, r);
            self.regs[r as usize][c] -= 1;
        }
    }
}

/// A random instruction for steering on `n` clusters: `(is_load, demand,
/// producers)`. Int and fp queues; int, fp or no destination; FP loads
/// wait in the int queue but write an fp register. Producers may repeat a
/// cluster, as when both operands come from one.
fn random_op(rng: &mut SmallRng, n: usize) -> (bool, Demand, Vec<ProducerInfo>) {
    use RegClass::{Fp, Int};
    let (is_load, queue, dest) = match rng.gen_range(0usize..6) {
        0 => (false, Int, Some(Int)),
        1 => (false, Fp, Some(Fp)),
        2 => (true, Int, Some(Int)),
        3 => (true, Int, Some(Fp)),
        4 => (false, Int, None),
        _ => (false, Fp, None),
    };
    let producers = (0..rng.gen_range(0usize..3))
        .map(|_| ProducerInfo {
            cluster: rng.gen_range(0..n),
            critical: rng.gen_bool(0.5),
        })
        .collect();
    (is_load, Demand { queue, dest }, producers)
}

/// The weight sets the steering tests cover: the defaults, a free-slot
/// term that is flat, one that penalises free slots, a cap above the
/// queue depth (one score group per level), a cache bonus equal to a
/// producer's (an adjacent non-producer ties a non-adjacent producer),
/// and a critical weight that scores a critical producer below its own
/// score group.
fn weight_sets() -> [SteeringWeights; 6] {
    let base = SteeringWeights::default();
    [
        base,
        SteeringWeights {
            free_slot: 0,
            ..base
        },
        SteeringWeights {
            free_slot: -2,
            ..base
        },
        SteeringWeights {
            free_cap: IQ as i64 + 5,
            ..base
        },
        SteeringWeights {
            cache_proximity: base.dependence,
            ..base
        },
        SteeringWeights {
            critical: -(base.dependence + 3),
            ..base
        },
    ]
}

/// Steering never returns a resource-less cluster, and returns None
/// exactly when no cluster has resources.
#[test]
fn steering_respects_resources() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0001);
    let topology = Topology::crossbar4();
    for _ in 0..CASES {
        let mut s = Steering::new(topology, SteeringWeights::default(), IQ, REGS);
        let mut shadow = Shadow::new(4);
        // Load each cluster to random free levels in 0..4.
        let int_op = Demand {
            queue: RegClass::Int,
            dest: Some(RegClass::Int),
        };
        let no_dest = Demand {
            dest: None,
            ..int_op
        };
        for c in 0..4 {
            for _ in rng.gen_range(0usize..4)..REGS {
                shadow.dispatch(&mut s, c, int_op);
                shadow.issue_at(&mut s, shadow.waiting.len() - 1);
            }
            for _ in rng.gen_range(0usize..4)..IQ {
                shadow.dispatch(&mut s, c, no_dest);
            }
        }
        let producers: Vec<ProducerInfo> = if rng.gen_bool(0.5) {
            vec![ProducerInfo {
                cluster: rng.gen_range(0usize..4),
                critical: true,
            }]
        } else {
            Vec::new()
        };
        let is_load = rng.gen_bool(0.5);
        let views = shadow.views(int_op);
        match s.choose(is_load, &producers, int_op) {
            Some(c) => assert!(views[c].has_resources()),
            None => assert!(views.iter().all(|v| !v.has_resources())),
        }
    }
}

/// The §4 steering heuristic written as three plain passes over the
/// clusters — score every cluster, take the best, fall back to the best
/// resourced cluster preferring the ideal's quad — with the topology
/// answering quad and cache adjacency per call. The oracle for the
/// production occupancy index. Returns `(ideal, choice)`.
fn three_pass_choose(
    topology: Topology,
    w: SteeringWeights,
    is_load: bool,
    producers: &[ProducerInfo],
    views: &[ClusterView],
) -> (usize, Option<usize>) {
    let scores: Vec<i64> = (0..views.len())
        .map(|c| {
            let mut score = 0;
            for p in producers.iter().filter(|p| p.cluster == c) {
                score += w.dependence + if p.critical { w.critical } else { 0 };
            }
            score += (views[c].free_iq as i64).min(w.free_cap) * w.free_slot;
            if is_load && topology.cache_adjacent(c) {
                score += w.cache_proximity;
            }
            score
        })
        .collect();
    let ideal = (0..views.len())
        .max_by_key(|&c| (scores[c], std::cmp::Reverse(c)))
        .expect("at least one cluster");
    if views[ideal].has_resources() {
        return (ideal, Some(ideal));
    }
    let quad = topology.quad_of(ideal);
    let fallback = (0..views.len())
        .filter(|&c| views[c].has_resources())
        .max_by_key(|&c| (topology.quad_of(c) == quad, scores[c], std::cmp::Reverse(c)));
    (ideal, fallback)
}

/// Production steering picks exactly the three-pass oracle's cluster while
/// its occupancy index is driven through random dispatch, issue and commit
/// sequences, from the paper's shapes to 64 clusters (bit 63 and the
/// all-ones mask), under every weight set of [`weight_sets`]. Phases that
/// fill and drain the machine make the ideal run out of registers or
/// queue entries, so the same-quad and any-quad fallbacks and whole-machine
/// stalls all occur.
#[test]
fn steering_matches_three_pass_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0006);
    for topology in [
        Topology::crossbar4(),
        Topology::hier16(),
        Topology::hier_ring(16, 4),
        Topology::crossbar(64),
    ] {
        let n = topology.clusters();
        let (mut fallbacks, mut other_quad, mut stalls) = (0, 0, 0);
        for w in weight_sets() {
            let mut s = Steering::new(topology, w, IQ, REGS);
            let mut shadow = Shadow::new(n);
            for p_dispatch in [0.95, 0.5, 0.1, 0.95, 0.5] {
                for _ in 0..16 * n {
                    let (is_load, demand, producers) = random_op(&mut rng, n);
                    let views = shadow.views(demand);
                    let (ideal, want) = three_pass_choose(topology, w, is_load, &producers, &views);
                    match want {
                        Some(c) if c != ideal => {
                            fallbacks += 1;
                            if topology.quad_of(c) != topology.quad_of(ideal) {
                                other_quad += 1;
                            }
                        }
                        None => stalls += 1,
                        _ => {}
                    }
                    let got = s.choose(is_load, &producers, demand);
                    assert_eq!(
                        got, want,
                        "{topology:?} {w:?}: load {is_load}, {demand:?}, producers {producers:?}, views {views:?}"
                    );
                    if rng.gen_bool(p_dispatch) {
                        if let Some(c) = got {
                            shadow.dispatch(&mut s, c, demand);
                        }
                    } else if rng.gen_bool(0.5) {
                        shadow.issue(&mut s, &mut rng);
                    } else {
                        shadow.commit(&mut s, &mut rng);
                    }
                }
            }
        }
        assert!(fallbacks > CASES / 4, "{topology:?}: {fallbacks} fallbacks");
        assert!(
            topology.quads() == 1 || other_quad > 0,
            "{topology:?}: no fallback left the ideal's quad"
        );
        assert!(stalls > 0, "{topology:?}: no stall case");
    }
}

/// Re-weighting a loaded index regroups its live occupancy: after
/// `set_weights`, every choice is the oracle's under the new weights.
#[test]
fn reweighting_a_loaded_index_matches_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0007);
    for topology in [Topology::hier16(), Topology::crossbar(64)] {
        let n = topology.clusters();
        let mut s = Steering::new(topology, SteeringWeights::default(), IQ, REGS);
        let mut shadow = Shadow::new(n);
        for w in weight_sets().into_iter().rev() {
            // Load under the current weights, then switch.
            for _ in 0..4 * n {
                let (is_load, demand, producers) = random_op(&mut rng, n);
                if rng.gen_bool(0.8) {
                    if let Some(c) = s.choose(is_load, &producers, demand) {
                        shadow.dispatch(&mut s, c, demand);
                    }
                } else {
                    shadow.issue(&mut s, &mut rng);
                }
            }
            s.set_weights(w);
            for _ in 0..CASES {
                let (is_load, demand, producers) = random_op(&mut rng, n);
                let views = shadow.views(demand);
                let (_, want) = three_pass_choose(topology, w, is_load, &producers, &views);
                assert_eq!(
                    s.choose(is_load, &producers, demand),
                    want,
                    "{topology:?} {w:?}"
                );
            }
        }
    }
}

/// The narrow predictor only predicts narrow after three consecutive
/// narrow outcomes, and any wide outcome resets it.
#[test]
fn narrow_counter_semantics() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0002);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..50);
        let mut p = NarrowPredictor::new(1024);
        let pc = 0x40;
        let mut streak = 0u32;
        for _ in 0..len {
            let narrow = rng.gen_bool(0.5);
            assert_eq!(p.predict(pc), streak >= 3, "streak {streak}");
            p.update(pc, narrow);
            streak = if narrow { streak + 1 } else { 0 };
        }
    }
}

/// Energy model identities: a model identical to the baseline scores
/// exactly 100 everywhere, for any interconnect fraction.
#[test]
fn energy_identity() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0003);
    let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
    let trace = TraceGenerator::new(spec2000().swap_remove(0), 3);
    let r = Processor::simulate(cfg, trace, 2_000, 200);
    for _ in 0..32 {
        let f = rng.gen_range(0.01f64..0.5);
        let params = EnergyParams {
            ic_fraction: f,
            leakage_share: 0.3,
        };
        let rel = relative_report(&r, &r, params);
        assert!((rel.rel_processor_energy - 100.0).abs() < 1e-9);
        assert!((rel.rel_ed2 - 100.0).abs() < 1e-9);
    }
}

/// Slower cycles with identical interconnect energy always increase ED²
/// (the D² term dominates the leakage credit).
#[test]
fn ed2_punishes_slowdowns() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0004);
    let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
    let trace = TraceGenerator::new(spec2000().swap_remove(5), 3);
    let base = Processor::simulate(cfg, trace, 2_000, 200);
    for _ in 0..32 {
        let slowdown = rng.gen_range(1.01f64..2.0);
        let mut slow = base;
        slow.cycles = (base.cycles as f64 * slowdown) as u64;
        let rel = relative_report(&slow, &base, EnergyParams::ten_percent());
        assert!(rel.rel_ed2 > 100.0, "{}", rel.rel_ed2);
    }
}

/// The simulator commits exactly the requested window for any small window
/// size and any benchmark.
#[test]
fn exact_window_commit() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0005);
    for _ in 0..8 {
        let bench = rng.gen_range(0usize..23);
        let window = rng.gen_range(500u64..2_000);
        let profile = spec2000().swap_remove(bench);
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let trace = TraceGenerator::new(profile, 9);
        let r = Processor::simulate(cfg, trace, window, 100);
        assert_eq!(r.instructions, window);
        assert!(r.cycles > 0);
    }
}
