//! Determinism and reproducibility: identical inputs must give identical
//! simulations, and different inputs must actually differ.

use heterowire_bench::{completed, sweep, Cell, RunScale};
use heterowire_core::{InterconnectModel, Processor, ProcessorConfig};
use heterowire_interconnect::Topology;
use heterowire_trace::{by_name, spec2000, TraceGenerator};

fn run(model: InterconnectModel, bench: &str, seed: u64) -> (u64, [u64; 4], f64) {
    let cfg = ProcessorConfig::for_model(model, Topology::crossbar4());
    let trace = TraceGenerator::new(by_name(bench).expect("benchmark"), seed);
    let r = Processor::simulate(cfg, trace, 5_000, 1_000);
    (r.cycles, r.net.transfers, r.net.dynamic_energy)
}

#[test]
fn identical_runs_are_bit_identical() {
    for model in [InterconnectModel::I, InterconnectModel::X] {
        let a = run(model, "gap", 17);
        let b = run(model, "gap", 17);
        assert_eq!(a, b, "{model} diverged between runs");
    }
}

#[test]
fn different_seeds_change_the_trace_but_not_the_story() {
    let a = run(InterconnectModel::I, "gap", 1);
    let b = run(InterconnectModel::I, "gap", 2);
    assert_ne!(a.0, b.0, "different seeds should perturb cycle counts");
    // ... but not wildly: same program character.
    let ratio = a.0 as f64 / b.0 as f64;
    assert!((0.7..1.3).contains(&ratio), "seeds changed IPC by {ratio}");
}

#[test]
fn different_benchmarks_differ() {
    let a = run(InterconnectModel::I, "mcf", 9);
    let b = run(InterconnectModel::I, "eon", 9);
    assert!(a.0 > b.0, "mcf must be much slower than eon");
}

#[test]
fn trace_streams_are_reproducible_across_construction() {
    for p in spec2000().into_iter().take(5) {
        let x: Vec<_> = TraceGenerator::new(p, 77).take(500).collect();
        let y: Vec<_> = TraceGenerator::new(p, 77).take(500).collect();
        assert_eq!(x, y);
    }
}

#[test]
fn window_extension_is_prefix_stable() {
    // Taking a longer window must not change the prefix of the stream.
    let p = by_name("apsi").expect("apsi");
    let short: Vec<_> = TraceGenerator::new(p, 4).take(1_000).collect();
    let long: Vec<_> = TraceGenerator::new(p, 4).take(2_000).collect();
    assert_eq!(short[..], long[..1_000]);
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    // The flattened work-queue executor must change wall-clock only: every
    // per-benchmark SimResults (a plain Copy/PartialEq struct) must equal
    // the one-worker sweep, which runs every job inline in order, bit for
    // bit. Workers forced above 1 so the queue is genuinely drained
    // concurrently even on single-core hosts. The 32-cluster crossbar keeps
    // every model checked on a fabric past 16 clusters, where the value
    // slot rows and cluster masks are wide.
    let scale = RunScale {
        window: 1_500,
        warmup: 300,
    };
    for topology in [Topology::crossbar4(), Topology::crossbar(32)] {
        let cells: Vec<Cell> = InterconnectModel::ALL
            .iter()
            .map(|&m| Cell::from_config(ProcessorConfig::for_model(m, topology)))
            .collect();
        let serial = completed(sweep(&cells, scale, 1));
        let parallel = completed(sweep(&cells, scale, 4));
        assert_eq!(serial.len(), parallel.len());
        let shape = topology.spec_string();
        for (model, (s, p)) in InterconnectModel::ALL
            .iter()
            .zip(serial.iter().zip(&parallel))
        {
            assert_eq!(
                s.names, p.names,
                "{shape} {model}: benchmark order diverged"
            );
            assert_eq!(
                s.runs, p.runs,
                "{shape} {model}: results diverged under parallelism"
            );
        }
    }
}

#[test]
fn window_length_stability() {
    // DESIGN.md §4: shorter windows with warmup preserve relative ordering.
    // Per-benchmark IPC is NOT flat across window lengths: the synthetic
    // streams ramp up as dependence webs and cache state warm, so a window
    // and its 3x extension differ by up to ~1.4x (gzip measures 0.73 at
    // 12k vs 36k). The durable property is that the ramp is bounded and the
    // slowest program stays slowest, so that is what we assert.
    let ipc = |bench: &str, window: u64| {
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let trace = TraceGenerator::new(by_name(bench).expect("benchmark"), 11);
        Processor::simulate(cfg, trace, window, window / 3).ipc()
    };
    for bench in ["gzip", "swim", "mcf"] {
        let short = ipc(bench, 12_000);
        let long = ipc(bench, 36_000);
        let ratio = short / long;
        assert!(
            (0.6..=1.67).contains(&ratio),
            "{bench}: short {short} vs long {long}"
        );
    }
    assert!(ipc("mcf", 36_000) < ipc("gzip", 36_000));
}
