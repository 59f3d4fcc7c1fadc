//! Regenerates the scalar claims of §1 and §5.3:
//!
//! 1. doubling the inter-cluster latency degrades 4-cluster performance by
//!    ~12%;
//! 2. with doubled (wire-constrained) latencies, adding an L-Wire plane
//!    buys ~7.1% instead of ~4.2%;
//! 3. moving a single thread from 4 to 16 clusters buys ~17% IPC;
//! 4. on the 16-cluster system the L-Wire plane buys ~7.4%;
//! 5. fewer than 9% of loads hit a false partial-address dependence with 8
//!    LS bits;
//! 6. the 8K-counter narrow predictor identifies ~95% of narrow results
//!    with ~2% of predicted-narrow values actually wide;
//! 7. ~14% of register traffic is narrow (integers in 0..=1023).
//!
//! `--model <token>` (a preset or `custom:<spec>`) swaps the enhanced
//! machine (default Model VII) in claims 2/4/5/6; `--topology <token>`
//! swaps the base topology in claims 1/2/5/6 (claims 3/4 keep the paper's
//! fixed 4-vs-16-cluster contrast); `--csv` / `--json` write every claim
//! as machine-readable metric rows.

use heterowire_bench::{
    completed, executor, format_metric_csv, format_metric_json, or_exit, sweep, Args, Cell,
    MetricRow, RunScale,
};
use heterowire_core::{InterconnectModel, ProcessorConfig};
use heterowire_interconnect::Topology;
use heterowire_trace::spec2000;

fn main() {
    let scale = RunScale::from_env();
    let args = or_exit(Args::from_env(
        &["--model", "--topology", "--csv", "--json"],
        0,
    ));
    let enhanced = or_exit(args.model_or("VII"));
    // The base topology for the latency and predictor claims; the
    // 4-vs-16-cluster scaling contrast (claims 3/4) stays pinned to the
    // paper's crossbar4 -> hier16 pair regardless.
    let base_topology = or_exit(args.topology_or("crossbar4")).topology();
    let paths = or_exit(args.artifacts());
    let mut metrics = Vec::new();
    let claim = |metrics: &mut Vec<MetricRow>, label: &str, metric: &str, value: f64| {
        metrics.push(MetricRow::new("sensitivity", label, metric, value));
    };

    let base_cfg = ProcessorConfig::for_model(InterconnectModel::I, base_topology);
    let mut slow_cfg = base_cfg.clone();
    slow_cfg.latency_scale = 2.0;
    let mut slow_l_cfg = ProcessorConfig::for_model_spec(&enhanced, base_topology);
    slow_l_cfg.latency_scale = 2.0;
    let mut cells = vec![
        Cell::from_config(base_cfg),
        Cell::from_config(slow_cfg),
        Cell::from_config(slow_l_cfg),
        Cell::from_config(ProcessorConfig::for_model(
            InterconnectModel::I,
            Topology::hier16(),
        )),
        Cell::from_config(ProcessorConfig::for_model_spec(
            &enhanced,
            Topology::hier16(),
        )),
        Cell::from_config(ProcessorConfig::for_model_spec(&enhanced, base_topology)),
    ];
    // The 4-cluster baseline of the scaling contrast is the base suite
    // unless --topology moved the base elsewhere.
    if base_topology != Topology::crossbar4() {
        cells.push(Cell::from_config(ProcessorConfig::for_model(
            InterconnectModel::I,
            Topology::crossbar4(),
        )));
    }
    eprintln!(
        "running {} suites (baseline, 2x latency, {} variants, 16 clusters) ...",
        cells.len(),
        enhanced.label()
    );
    let suites = completed(sweep(&cells, scale, executor::default_workers()));
    let (base, slow, slow_l) = (&suites[0], &suites[1], &suites[2]);
    let (c16, c16_l, lwire) = (&suites[3], &suites[4], &suites[5]);
    let c4 = suites.get(6).unwrap_or(base);

    // --- 1: latency doubling on the baseline. ---
    let d1 = (slow.mean_ipc() / base.mean_ipc() - 1.0) * 100.0;
    println!(
        "1. doubling inter-cluster latency: IPC {:.3} -> {:.3} ({d1:+.1}%; paper: -12%)",
        base.mean_ipc(),
        slow.mean_ipc(),
    );
    claim(&mut metrics, "2x-latency", "ipc_delta_pct", d1);

    // --- 2: the enhanced model under doubled latency. ---
    let d2 = (slow_l.mean_ipc() / slow.mean_ipc() - 1.0) * 100.0;
    println!(
        "2. +{} at 2x latency: IPC {:.3} -> {:.3} ({d2:+.1}%; paper: +7.1%)",
        enhanced.label(),
        slow.mean_ipc(),
        slow_l.mean_ipc(),
    );
    claim(&mut metrics, "enhanced-at-2x", "ipc_delta_pct", d2);

    // --- 3: 4 -> 16 clusters (pinned to the paper's pair). ---
    let d3 = (c16.mean_ipc() / c4.mean_ipc() - 1.0) * 100.0;
    println!(
        "3. 4 -> 16 clusters: IPC {:.3} -> {:.3} ({d3:+.1}%; paper: +17%)",
        c4.mean_ipc(),
        c16.mean_ipc(),
    );
    claim(&mut metrics, "16-clusters", "ipc_delta_pct", d3);

    // --- 4: the enhanced model on 16 clusters. ---
    let d4 = (c16_l.mean_ipc() / c16.mean_ipc() - 1.0) * 100.0;
    println!(
        "4. +{} on 16 clusters: IPC {:.3} -> {:.3} ({d4:+.1}%; paper: +7.4%)",
        enhanced.label(),
        c16.mean_ipc(),
        c16_l.mean_ipc(),
    );
    claim(&mut metrics, "enhanced-on-16", "ipc_delta_pct", d4);

    // --- 5 & 6: LSQ false dependences, narrow predictor (4-cluster run).
    let (fd, loads) = lwire.runs.iter().fold((0, 0), |(fd, ld), r| {
        (fd + r.lsq.false_dependences, ld + r.lsq.loads)
    });
    let fd_pct = fd as f64 / loads as f64 * 100.0;
    println!("5. false partial-address dependences @8 LS bits: {fd_pct:.1}% of loads (paper: <9%)");
    claim(&mut metrics, "lsq", "false_dep_pct", fd_pct);
    let cov = lwire.runs.iter().map(|r| r.narrow_coverage).sum::<f64>() / lwire.runs.len() as f64;
    let fnr = lwire.runs.iter().map(|r| r.narrow_false_rate).sum::<f64>() / lwire.runs.len() as f64;
    println!(
        "6. narrow predictor: {:.1}% coverage, {:.1}% false-narrow (paper: 95% / 2%)",
        cov * 100.0,
        fnr * 100.0
    );
    claim(
        &mut metrics,
        "narrow-predictor",
        "coverage_pct",
        cov * 100.0,
    );
    claim(
        &mut metrics,
        "narrow-predictor",
        "false_narrow_pct",
        fnr * 100.0,
    );

    // --- 7: narrow share of register traffic (trace property). ---
    let mut narrow = 0u64;
    let mut int_results = 0u64;
    for p in spec2000() {
        let stats = heterowire_trace::TraceStats::from_ops(
            heterowire_trace::TraceGenerator::new(p, heterowire_bench::SEED).take(50_000),
        );
        narrow += stats.narrow_results;
        int_results += stats.int_results;
    }
    let narrow_pct = narrow as f64 / int_results as f64 * 100.0;
    println!("7. narrow share of integer register traffic: {narrow_pct:.1}% (paper: 14%)");
    claim(&mut metrics, "trace", "narrow_share_pct", narrow_pct);

    paths.emit(
        || format_metric_csv(&metrics),
        || format_metric_json(&metrics),
    );
}
