//! Integration tests for the paper-discussed extensions (frequent-value
//! compaction, L2 critical-word-first, transmission-line L-Wires) running
//! in the full pipeline.

use heterowire_bench::{Cell, RunScale};
use heterowire_core::{Extensions, InterconnectModel, ProcessorConfig, SimResults};
use heterowire_interconnect::Topology;
use heterowire_trace::by_name;
use heterowire_wires::WireClass;

const SCALE: RunScale = RunScale {
    window: 10_000,
    warmup: 3_000,
};

/// One benchmark under `cfg`, through the harness's run path.
fn run(cfg: ProcessorConfig, bench: &str) -> SimResults {
    Cell::from_config(cfg)
        .run(by_name(bench).expect("benchmark"), SCALE)
        .expect("the run completes")
}

fn run_with(ext: Extensions, latency_scale: f64, bench: &str) -> SimResults {
    let mut cfg = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
    cfg.extensions = ext;
    cfg.latency_scale = latency_scale;
    run(cfg, bench)
}

#[test]
fn extensions_are_off_by_default() {
    let cfg = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
    assert_eq!(cfg.extensions, Extensions::default());
    assert!(!cfg.extensions.frequent_value);
    assert!(!cfg.extensions.l2_critical_word);
    assert!(!cfg.extensions.transmission_lines);
}

#[test]
fn all_extensions_compose() {
    let all = Extensions {
        frequent_value: true,
        l2_critical_word: true,
        transmission_lines: true,
    };
    let base = run_with(Extensions::default(), 2.0, "mcf");
    let ext = run_with(all, 2.0, "mcf");
    assert!(
        ext.ipc() >= base.ipc(),
        "all extensions together should not lose: {} vs {}",
        ext.ipc(),
        base.ipc()
    );
}

#[test]
fn transmission_lines_cut_l_plane_energy() {
    let base = run_with(Extensions::default(), 1.0, "gcc");
    let tl = run_with(
        Extensions {
            transmission_lines: true,
            ..Extensions::default()
        },
        1.0,
        "gcc",
    );
    // Same traffic pattern, cheaper L bits.
    assert!(tl.net.dynamic_energy < base.net.dynamic_energy);
    // The saving is bounded by the L plane's share of energy.
    assert!(tl.net.dynamic_energy > base.net.dynamic_energy * 0.5);
}

#[test]
fn critical_word_first_requires_l_wires() {
    // On Model I (no L plane) the CWF flag must be inert.
    let mut with = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
    with.extensions.l2_critical_word = true;
    let without = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
    let a = run(with, "mcf");
    let b = run(without, "mcf");
    assert_eq!(
        a.cycles, b.cycles,
        "CWF without L-Wires must change nothing"
    );
}

#[test]
fn frequent_value_never_reduces_l_traffic() {
    let base = run_with(Extensions::default(), 1.0, "twolf");
    let fvc = run_with(
        Extensions {
            frequent_value: true,
            ..Extensions::default()
        },
        1.0,
        "twolf",
    );
    let l = WireClass::ALL
        .iter()
        .position(|&c| c == WireClass::L)
        .unwrap();
    assert!(fvc.net.transfers[l] >= base.net.transfers[l]);
}
