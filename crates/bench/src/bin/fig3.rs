//! Regenerates **Figure 3** of the paper: per-benchmark IPC for the
//! baseline 4-cluster processor (one metal layer: 72 B-Wires per cluster
//! link, 144 to the cache) versus the same processor with an added L-Wire
//! layer (18 L-Wires per cluster link) running all three L-Wire
//! optimizations — partial-address cache pipeline, narrow operands and
//! branch-mispredict signals (paper §5.3).
//!
//! `--model <token>` swaps the enhanced machine for any other model (a
//! preset or `custom:<spec>`); the baseline stays the figure's 72 B-Wire
//! single layer.

use heterowire_bench::{
    completed, executor, or_exit, suite_metric_rows, sweep, Args, Cell, RunScale,
};
use heterowire_core::{ModelSpec, Optimizations, ProcessorConfig};

fn main() {
    let scale = RunScale::from_env();
    let args = or_exit(Args::from_env(
        &["--model", "--topology", "--csv", "--json"],
        0,
    ));
    // Figure 3 uses a single metal layer: 72 B-Wires per cluster link (the
    // cache link has twice that), versus the same plus an L-Wire layer of
    // 18 wires per cluster link (paper §5.3). Both machines share one
    // topology so the comparison isolates the wire mix.
    let base_spec = ModelSpec::parse("custom:b72").expect("valid spec");
    let enhanced = or_exit(args.model_or("custom:b72+l18"));
    let topology = or_exit(args.topology_or("crossbar4")).topology();
    let paths = or_exit(args.artifacts());

    let mut base_cfg = ProcessorConfig::for_model_spec(&base_spec, topology);
    base_cfg.opts = Optimizations::none();
    let cells = [
        Cell::from_config(base_cfg),
        Cell::from_config(ProcessorConfig::for_model_spec(&enhanced, topology)),
    ];

    eprintln!(
        "running baseline (72 B-Wires) and enhanced ({}) suites ...",
        enhanced.description()
    );
    let suites = completed(sweep(&cells, scale, executor::default_workers()));
    let (base, lwire) = (&suites[0], &suites[1]);
    paths.emit(&suite_metric_rows(&[("baseline", base), ("lwire", lwire)]));

    println!(
        "Figure 3: IPC, {}-cluster partitioned architecture",
        topology.clusters()
    );
    println!(
        "{:<10} {:>10} {:>14} {:>8}",
        "benchmark", "baseline", "enhanced", "delta"
    );
    for i in 0..base.names.len() {
        let b = base.runs[i].ipc();
        let l = lwire.runs[i].ipc();
        println!(
            "{:<10} {:>10.3} {:>14.3} {:>+7.1}%",
            base.names[i],
            b,
            l,
            (l / b - 1.0) * 100.0
        );
    }
    let bam = base.mean_ipc();
    let lam = lwire.mean_ipc();
    println!(
        "{:<10} {:>10.3} {:>14.3} {:>+7.1}%",
        "AM",
        bam,
        lam,
        (lam / bam - 1.0) * 100.0
    );
    println!(
        "\npaper: +4.2% AM IPC from the three L-Wire optimizations \
         (cache pipeline, narrow operands, branch signal contributing equally)"
    );
}
