//! Records one (model, benchmark) run with the telemetry subsystem and
//! exports the artifacts:
//!
//! * `trace.json` — Chrome/Perfetto trace (pipeline lifecycles as async
//!   slices, per-link utilization counters, steering-overflow episodes);
//!   load it at <https://ui.perfetto.dev> or `chrome://tracing`;
//! * `utilization.csv` — per-window × per-link × per-wire-class busy
//!   lane-cycles.
//!
//! The same run also executes with the probe disabled; the binary exits
//! non-zero if the recorded run's `SimResults` diverge from the disabled
//! run (recording must be observation, never perturbation).
//!
//! ```text
//! telemetry [--model VII] [--bench gzip] [--topology <preset|spec|file>]
//!           [--window 64] [--out-dir results]
//! ```

use std::path::PathBuf;

use heterowire_bench::{or_exit, write_artifact, Args, RunScale, SEED};
use heterowire_core::{Processor, ProcessorConfig, RecordingConfig, RecordingProbe};
use heterowire_telemetry::{chrome_trace, utilization_csv};
use heterowire_trace::{by_name, TraceGenerator};
use heterowire_wires::WireClass;

/// Parses a `--window` token: a positive number of cycles.
fn parse_window(token: &str) -> Result<u64, String> {
    match token.parse() {
        Ok(cycles) if cycles > 0 => Ok(cycles),
        _ => Err(format!(
            "--window {token:?}: expected a positive number of cycles"
        )),
    }
}

fn main() {
    let args = or_exit(Args::from_env(
        &["--model", "--bench", "--topology", "--window", "--out-dir"],
        0,
    ));
    let model = or_exit(args.model_or("VII"));
    let bench_name = or_exit(args.value("--bench")).unwrap_or("gzip");
    let topo_spec = or_exit(args.topology_or("crossbar4"));
    let window = or_exit(
        args.value("--window")
            .and_then(|token| token.map_or(Ok(64), parse_window)),
    );
    let out_dir = or_exit(args.path("--out-dir")).unwrap_or_else(|| PathBuf::from("results"));
    let topology = topo_spec.topology();
    let profile =
        or_exit(by_name(bench_name).ok_or_else(|| format!("unknown benchmark {bench_name:?}")));

    // Warmup 0 so the recorded network counters reconcile exactly with the
    // end-of-run NetStats.
    let scale = RunScale::from_env();
    let cfg = ProcessorConfig::for_model_spec(&model, topology);

    eprintln!(
        "recording {} / {} on {}, {} instructions, window {window} ...",
        model.label(),
        profile.name,
        topo_spec.name(),
        scale.window
    );
    let baseline =
        Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED)).run(scale.window, 0);

    let labels = Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED))
        .network()
        .link_labels();
    let probe_cfg = RecordingConfig::new(window, labels, topology.clusters());
    let mut recorded = Processor::with_probe(
        cfg,
        TraceGenerator::new(profile, SEED),
        RecordingProbe::new(probe_cfg),
    );
    let results = recorded.run(scale.window, 0);
    let pending = recorded.network().pending_len() as u64;
    recorded.probe_mut().finish();
    let probe = recorded.probe();

    if results != baseline {
        eprintln!(
            "FAIL: recorded run diverged from the probe-disabled run\n\
             disabled: {baseline:?}\nrecorded: {results:?}"
        );
        std::process::exit(1);
    }

    // The probe's network counters must reconcile with NetStats.
    for (i, c) in WireClass::ALL.iter().enumerate() {
        assert_eq!(
            probe.injected[i],
            results.net.transfers[i],
            "injected {} transfers disagree with NetStats",
            c.label()
        );
    }
    let injected: u64 = probe.injected.iter().sum();
    let departed: u64 = probe.departed.iter().sum();
    assert_eq!(
        injected - departed,
        pending,
        "transfers still queued at end of run"
    );

    write_artifact(&out_dir.join("trace.json"), &chrome_trace(probe));
    write_artifact(&out_dir.join("utilization.csv"), &utilization_csv(probe));

    println!(
        "recorded {} cycles: {} dispatches, {} commits, {} transfers \
         ({} lane-cycles busy), {} overflow episodes, {} lifecycle entries",
        results.cycles,
        probe.counts.dispatches,
        probe.counts.commits,
        injected,
        probe.total_busy(),
        probe.episodes().len(),
        probe.lifecycles().len(),
    );
    println!(
        "probe-disabled and recorded runs are bit-identical (ipc {:.4})",
        results.ipc()
    );
}
