//! End-to-end integration tests: the full stack (trace generator →
//! front-end → clusters → heterogeneous network → LSQ/caches → energy
//! model) on real configurations.

use heterowire_bench::{Cell, RunScale, SEED};
use heterowire_core::{
    relative_report, EnergyParams, InterconnectModel, Processor, ProcessorConfig, SimResults,
};
use heterowire_interconnect::Topology;
use heterowire_trace::{by_name, spec2000, BenchmarkProfile, TraceGenerator};
use heterowire_wires::WireClass;

const SCALE: RunScale = RunScale {
    window: 10_000,
    warmup: 3_000,
};

/// One benchmark under `cfg`, through the harness's run path.
fn run(cfg: ProcessorConfig, profile: BenchmarkProfile, scale: RunScale) -> SimResults {
    Cell::from_config(cfg)
        .run(profile, scale)
        .expect("the run completes")
}

#[test]
fn every_benchmark_runs_on_the_baseline() {
    for p in spec2000() {
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let r = run(
            cfg,
            p,
            RunScale {
                window: 3_000,
                warmup: 500,
            },
        );
        assert_eq!(r.instructions, 3_000, "{}", p.name);
        assert!(r.ipc() > 0.02, "{} IPC {}", p.name, r.ipc());
        assert!(r.ipc() < 8.0, "{} IPC {}", p.name, r.ipc());
    }
}

#[test]
fn every_model_runs_on_both_topologies() {
    let p = by_name("vpr").expect("vpr exists");
    for topology in [Topology::crossbar4(), Topology::hier16()] {
        for model in InterconnectModel::ALL {
            let cfg = ProcessorConfig::for_model(model, topology);
            let r = run(
                cfg,
                p,
                RunScale {
                    window: 2_000,
                    warmup: 500,
                },
            );
            assert!(r.ipc() > 0.0, "{model} on {topology:?}");
            assert!(r.net.total_transfers() > 0, "{model} moved no data");
        }
    }
}

#[test]
fn heterogeneous_traffic_goes_where_the_policy_says() {
    // Model X carries all planes; check the paper's policy outcomes:
    // L-wires carry only small messages, PW carries the store/ready
    // traffic, B the rest.
    let cfg = ProcessorConfig::for_model(InterconnectModel::X, Topology::crossbar4());
    let r = run(cfg, by_name("gcc").expect("gcc"), SCALE);
    let l_share = r.net.class_share(WireClass::L);
    let pw_share = r.net.class_share(WireClass::Pw);
    let b_share = r.net.class_share(WireClass::B);
    assert!(l_share > 0.10, "L share {l_share}");
    assert!(pw_share > 0.10, "PW share {pw_share}");
    assert!(b_share > 0.10, "B share {b_share}");
    assert!((l_share + pw_share + b_share - 1.0).abs() < 1e-9);
}

#[test]
fn energy_model_tracks_wire_choices() {
    // Model II (PW only) must burn less interconnect dynamic energy than
    // Model I on the same workload, at roughly the Table-2 ratio.
    let p = by_name("twolf").expect("twolf");
    let base = run(
        ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4()),
        p,
        SCALE,
    );
    let pw = run(
        ProcessorConfig::for_model(InterconnectModel::II, Topology::crossbar4()),
        p,
        SCALE,
    );
    let rel = relative_report(&pw, &base, EnergyParams::ten_percent());
    // All traffic moves from B (0.58) to PW (0.30): ~52%.
    assert!(
        (45.0..=60.0).contains(&rel.rel_ic_dynamic),
        "IC dynamic {}",
        rel.rel_ic_dynamic
    );
    // The IPC cost of the slower wires must show up, but stay modest.
    assert!(rel.ipc < base.ipc());
    assert!(rel.ipc > base.ipc() * 0.85);
}

#[test]
fn deadlock_free_across_seeds() {
    // The pipeline must drain for arbitrary seeds (different dependence
    // webs and address streams).
    let p = by_name("mcf").expect("mcf");
    for seed in [1, 2, 3] {
        let cfg = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
        let trace = TraceGenerator::new(p, seed);
        let r = Processor::simulate(cfg, trace, 2_000, 0);
        assert_eq!(r.instructions, 2_000, "seed {seed}");
    }
}

#[test]
fn sixteen_clusters_deliver_more_ilp_on_fp() {
    // §5.3: moving from 4 to 16 clusters helps high-ILP programs.
    let p = by_name("swim").expect("swim");
    let c4 = run(
        ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4()),
        p,
        SCALE,
    );
    let c16 = run(
        ProcessorConfig::for_model(InterconnectModel::I, Topology::hier16()),
        p,
        SCALE,
    );
    assert!(
        c16.ipc() > c4.ipc(),
        "16 clusters should beat 4 on swim: {} vs {}",
        c16.ipc(),
        c4.ipc()
    );
}

#[test]
fn warmup_is_excluded_from_measurements() {
    let p = by_name("gzip").expect("gzip");
    let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
    let with_warmup = run(
        cfg.clone(),
        p,
        RunScale {
            window: 5_000,
            warmup: 5_000,
        },
    );
    let without = run(
        cfg,
        p,
        RunScale {
            window: 5_000,
            warmup: 0,
        },
    );
    assert_eq!(with_warmup.instructions, 5_000);
    // Cold caches and predictors make the no-warmup window slower.
    assert!(with_warmup.ipc() >= without.ipc() * 0.95);
}

#[test]
fn seed_of_record_is_stable() {
    // The committed experiment seed must keep producing the same cycles
    // (regression guard for the deterministic pipeline).
    let p = by_name("eon").expect("eon");
    let cfg = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
    let a = Processor::simulate(cfg.clone(), TraceGenerator::new(p, SEED), 3_000, 500);
    let b = Processor::simulate(cfg, TraceGenerator::new(p, SEED), 3_000, 500);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.net.transfers, b.net.transfers);
}
