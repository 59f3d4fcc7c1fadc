//! Randomized property-style tests over the core: steering, the narrow
//! predictor, the energy model and short simulator invariants (std-only).

use heterowire_rng::SmallRng;

use heterowire_core::steer::{ClusterView, ProducerInfo};
use heterowire_core::{
    relative_report, EnergyParams, InterconnectModel, NarrowPredictor, Processor, ProcessorConfig,
    Steering, SteeringWeights,
};
use heterowire_interconnect::Topology;
use heterowire_trace::{spec2000, TraceGenerator};

const CASES: usize = 256;

/// Steering never returns a resource-less cluster, and returns None
/// exactly when no cluster has resources.
#[test]
fn steering_respects_resources() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0001);
    let s = Steering::new(Topology::crossbar4(), SteeringWeights::default());
    for _ in 0..CASES {
        let views: Vec<ClusterView> = (0..4)
            .map(|_| ClusterView {
                free_iq: rng.gen_range(0usize..4),
                free_regs: rng.gen_range(0usize..4),
            })
            .collect();
        let producers: Vec<ProducerInfo> = if rng.gen_bool(0.5) {
            vec![ProducerInfo {
                cluster: rng.gen_range(0usize..4),
                critical: true,
            }]
        } else {
            Vec::new()
        };
        let is_load = rng.gen_bool(0.5);
        match s.choose(is_load, &producers, &views) {
            Some(c) => assert!(views[c].has_resources()),
            None => assert!(views.iter().all(|v| !v.has_resources())),
        }
    }
}

/// The §4 steering heuristic written as three plain passes over the
/// clusters — score every cluster, take the best, fall back to the best
/// resourced cluster preferring the ideal's quad — with the topology
/// answering quad and cache adjacency per call. The oracle for the
/// production one-pass chooser. Returns `(ideal, choice)`.
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

/// Production steering picks exactly the three-pass oracle's cluster on
/// randomized cluster state, from the paper's shapes to 64 clusters:
/// loads, critical producers, and ideal clusters stripped of resources so
/// the same-quad and any-quad fallbacks both run.
#[test]
fn steering_matches_three_pass_oracle() {
    let mut rng = SmallRng::seed_from_u64(0xc04e_0006);
    let w = SteeringWeights::default();
    for topology in [
        Topology::crossbar4(),
        Topology::hier16(),
        Topology::hier_ring(16, 4),
        Topology::crossbar(64),
    ] {
        let s = Steering::new(topology, w);
        let n = topology.clusters();
        let (mut fallbacks, mut other_quad, mut stalls) = (0, 0, 0);
        for case in 0..4 * CASES {
            // Sparse resources in some cases, so whole quads (or the
            // whole machine) run dry.
            let empty = [0.1, 0.5, 0.9, 1.0][case % 4];
            let mut views: Vec<ClusterView> = (0..n)
                .map(|_| ClusterView {
                    free_iq: if rng.gen_bool(empty) {
                        0
                    } else {
                        rng.gen_range(1usize..12)
                    },
                    free_regs: if rng.gen_bool(0.2) {
                        usize::MAX
                    } else {
                        rng.gen_range(0usize..6)
                    },
                })
                .collect();
            let producers: Vec<ProducerInfo> = (0..rng.gen_range(0usize..3))
                .map(|_| ProducerInfo {
                    cluster: rng.gen_range(0..n),
                    critical: rng.gen_bool(0.5),
                })
                .collect();
            let is_load = rng.gen_bool(0.4);
            if rng.gen_bool(0.5) {
                // Out of registers: same score, so still the ideal.
                let (ideal, _) = three_pass_choose(topology, w, is_load, &producers, &views);
                views[ideal].free_regs = 0;
            }
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
            assert_eq!(
                s.choose(is_load, &producers, &views),
                want,
                "{topology:?}: load {is_load}, producers {producers:?}, views {views:?}"
            );
        }
        assert!(fallbacks > CASES / 4, "{topology:?}: {fallbacks} fallbacks");
        assert!(
            topology.quads() == 1 || other_quad > 0,
            "{topology:?}: no fallback left the ideal's quad"
        );
        assert!(stalls > 0, "{topology:?}: no stall case");
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
