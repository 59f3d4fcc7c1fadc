//! Tests pinning the paper's qualitative claims — the *shape* of every
//! reported result (who wins, in which direction, and the microarchitecture
//! statistics the paper quotes). Magnitudes are asserted loosely; see
//! EXPERIMENTS.md for measured-vs-paper values.

use heterowire_bench::{completed, executor, sweep, Cell, RunScale, SuiteResults};
use heterowire_core::{InterconnectModel, ProcessorConfig, SimResults};
use heterowire_interconnect::Topology;
use heterowire_trace::{by_name, spec2000, BenchmarkProfile, TraceGenerator, TraceStats};

const SCALE: RunScale = RunScale {
    window: 12_000,
    warmup: 4_000,
};

/// One benchmark under `cfg`, through the harness's run path.
fn run(cfg: ProcessorConfig, profile: BenchmarkProfile, scale: RunScale) -> SimResults {
    Cell::from_config(cfg)
        .run(profile, scale)
        .expect("the run completes")
}

/// The 23-benchmark suite under `cfg`.
fn suite_of(cfg: ProcessorConfig, scale: RunScale) -> SuiteResults {
    let cells = [Cell::from_config(cfg)];
    completed(sweep(&cells, scale, executor::default_workers())).remove(0)
}

fn suite_mean(model: InterconnectModel, topology: Topology, latency_scale: f64) -> f64 {
    let mut cfg = ProcessorConfig::for_model(model, topology);
    cfg.latency_scale = latency_scale;
    suite_of(cfg, SCALE).mean_ipc()
}

#[test]
fn doubling_latency_degrades_performance() {
    // §1: "performance degrades by 12% when the inter-cluster latency is
    // doubled" — direction and a non-trivial magnitude.
    let base = suite_mean(InterconnectModel::I, Topology::crossbar4(), 1.0);
    let slow = suite_mean(InterconnectModel::I, Topology::crossbar4(), 2.0);
    let delta = slow / base - 1.0;
    assert!(delta < -0.015, "2x latency cost only {:.1}%", delta * 100.0);
}

#[test]
fn l_wires_help_and_help_more_when_wire_constrained() {
    // §5.3: +L-Wires helps at base latency; helps more at 2x latency.
    let base = suite_mean(InterconnectModel::I, Topology::crossbar4(), 1.0);
    let l = suite_mean(InterconnectModel::VII, Topology::crossbar4(), 1.0);
    let base2 = suite_mean(InterconnectModel::I, Topology::crossbar4(), 2.0);
    let l2 = suite_mean(InterconnectModel::VII, Topology::crossbar4(), 2.0);
    let gain = l / base - 1.0;
    let gain2 = l2 / base2 - 1.0;
    assert!(gain > 0.0, "L-Wires hurt at 1x: {:.2}%", gain * 100.0);
    assert!(
        gain2 > gain,
        "wire-constrained gain {:.2}% should beat base gain {:.2}%",
        gain2 * 100.0,
        gain * 100.0
    );
}

#[test]
fn sixteen_clusters_improve_single_thread_ipc() {
    // §5.3: 4 -> 16 clusters buys ~17% IPC on SPEC2000.
    let c4 = suite_mean(InterconnectModel::I, Topology::crossbar4(), 1.0);
    let c16 = suite_mean(InterconnectModel::I, Topology::hier16(), 1.0);
    assert!(
        c16 > c4 * 1.05,
        "16 clusters should clearly beat 4: {c16:.3} vs {c4:.3}"
    );
}

#[test]
fn pw_only_interconnect_degrades_ipc_but_saves_energy() {
    // Table 3, Model II vs Model I: slower but much cheaper dynamically.
    let p = by_name("crafty").expect("crafty");
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
    assert!(pw.ipc() < base.ipc());
    assert!(pw.net.dynamic_energy < base.net.dynamic_energy * 0.6);
}

#[test]
fn false_dependence_rate_stays_under_paper_bound() {
    // §4: "false dependences were encountered for fewer than 9% of all
    // loads when employing eight LS bits".
    let cfg = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
    let suite = suite_of(cfg, SCALE);
    let (fd, loads) = suite.runs.iter().fold((0u64, 0u64), |(f, l), r| {
        (f + r.lsq.false_dependences, l + r.lsq.loads)
    });
    let rate = fd as f64 / loads as f64;
    assert!(rate < 0.09, "false dependence rate {rate}");
    assert!(fd > 0, "the partial comparison should see some conflicts");
}

#[test]
fn narrow_predictor_matches_paper_quality() {
    // §4: 8K 2-bit counters identify ~95% of narrow results with ~2% of
    // predicted-narrow values actually wide.
    let cfg = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
    let suite = suite_of(
        cfg,
        RunScale {
            window: 30_000,
            warmup: 10_000,
        },
    );
    let coverage =
        suite.runs.iter().map(|r| r.narrow_coverage).sum::<f64>() / suite.runs.len() as f64;
    let false_rate =
        suite.runs.iter().map(|r| r.narrow_false_rate).sum::<f64>() / suite.runs.len() as f64;
    assert!(coverage > 0.80, "coverage {coverage}");
    assert!(false_rate < 0.10, "false narrow rate {false_rate}");
}

#[test]
fn narrow_share_of_register_traffic_is_paper_like() {
    // §5.3: "Only 14% of all register traffic ... are integers between 0
    // and 1023."
    let mut narrow = 0u64;
    let mut int_results = 0u64;
    for p in spec2000() {
        let stats = TraceStats::from_ops(TraceGenerator::new(p, 3).take(20_000));
        narrow += stats.narrow_results;
        int_results += stats.int_results;
    }
    let share = narrow as f64 / int_results as f64;
    assert!((0.08..=0.25).contains(&share), "narrow share {share}");
}

#[test]
fn memory_fraction_justifies_double_width_cache_links() {
    // §4: "more than one third of all instructions are loads or stores".
    let mut mem = 0u64;
    let mut total = 0u64;
    for p in spec2000() {
        let stats = TraceStats::from_ops(TraceGenerator::new(p, 5).take(10_000));
        mem += stats.loads + stats.stores;
        total += stats.total;
    }
    assert!(mem as f64 / total as f64 > 1.0 / 3.0);
}

#[test]
fn mcf_is_the_slowest_program() {
    // Figure 3's most prominent feature: mcf's memory-bound IPC floor.
    let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
    let suite = suite_of(cfg, SCALE);
    let mcf_idx = suite.names.iter().position(|n| *n == "mcf").expect("mcf");
    let mcf_ipc = suite.runs[mcf_idx].ipc();
    for (i, r) in suite.runs.iter().enumerate() {
        if i != mcf_idx {
            assert!(
                r.ipc() > mcf_ipc,
                "{} ({}) should beat mcf ({})",
                suite.names[i],
                r.ipc(),
                mcf_ipc
            );
        }
    }
}
