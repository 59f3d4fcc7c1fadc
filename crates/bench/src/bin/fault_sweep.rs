//! Wire-fault sweep: races steering policies across a fault-rate grid and
//! records IPC / ED² degradation curves against the fault-free baseline.
//!
//! ```text
//! cargo run --release -p heterowire-bench --bin fault_sweep -- \
//!     --model X --topology crossbar4 --policy paper,spray \
//!     --faults l@1e-4 --faults l@1e-3 --faults lane:L1@stuck \
//!     --csv fault_sweep.csv --json fault_sweep.json
//! ```
//!
//! Defaults: Model X on the 4-cluster crossbar, all five policies, and a
//! transient L-Wire error-rate ladder (`l@1e-4` … `l@3e-2`). Every sweep
//! starts with a fault-free `none` scenario — the baseline all degradation
//! percentages are measured against. Scenarios with stuck lanes run on the
//! degraded link (the lanes are retired before construction, so policies
//! steer against the surviving capacity); a scenario that strands
//! full-size transfers without a legal plane is refused up front with
//! exit status 2. A run that stops committing (a retry storm on a
//! saturated rate) becomes a `failed` row carrying the watchdog's stall
//! diagnostics on stderr, and the sweep exits 1 after writing artifacts.
//! Same grid + same seed ⇒ bit-identical artifacts (CI diffs two runs).

use heterowire_bench::{executor, or_exit, sweep, Args, Cell, MetricRow, PolicyKind, RunScale};
use heterowire_core::{EnergyParams, FaultSpec};

/// The default transient error-rate ladder swept when no `--faults` flag
/// is given (per-bit, per-hop L-Wire rates).
const DEFAULT_GRID: [&str; 4] = ["l@1e-4", "l@1e-3", "l@1e-2", "l@3e-2"];

fn main() {
    let scale = RunScale::from_env();
    let args = or_exit(Args::from_env(
        &[
            "--model",
            "--topology",
            "--policy",
            "--faults",
            "--csv",
            "--json",
        ],
        0,
    ));
    let topo = or_exit(args.topology_or("crossbar4"));
    let model = or_exit(args.model_or("X"));
    let mut policies = or_exit(args.policies());
    if policies.is_empty() {
        policies = PolicyKind::ALL.to_vec();
    }
    let mut grid = or_exit(args.faults());
    if grid.is_empty() {
        grid = DEFAULT_GRID
            .iter()
            .map(|t| FaultSpec::parse(t).expect("default grid token parses"))
            .collect();
    }
    let paths = or_exit(args.artifacts());

    // Scenario 0 is always the fault-free baseline.
    let mut scenarios: Vec<(String, Option<FaultSpec>)> = vec![("none".to_string(), None)];
    scenarios.extend(grid.into_iter().map(|s| (s.to_string(), Some(s))));
    let mut cells = Vec::with_capacity(scenarios.len() * policies.len());
    for (_, spec) in &scenarios {
        for &pk in &policies {
            cells.push(or_exit(Cell::new(
                &model,
                topo.topology(),
                pk,
                spec.as_ref(),
            )));
        }
    }
    eprintln!(
        "sweeping {} fault scenario(s) x {} policies x 23 benchmarks on {} / {} ...",
        scenarios.len(),
        policies.len(),
        model.name(),
        topo.name(),
    );
    // A cell fails as a whole when any of its benchmarks stalls or panics.
    let suites = sweep(&cells, scale, executor::default_workers());

    let mut rows: Vec<MetricRow> = Vec::new();
    let mut failed = 0usize;
    println!(
        "Fault sweep, model {} on {} ({} clusters)",
        model.label(),
        topo.name(),
        topo.topology().clusters()
    );
    println!("(drops are % vs the fault-free `none` scenario, per policy)\n");
    println!(
        "{:<26} {:<12} {:>7} {:>8} {:>9} {:>8} {:>8} {:>9}",
        "Scenario", "Policy", "IPC", "dIPC%", "ED2(10%)", "faults", "retx", "escal"
    );
    for (si, (scenario, _)) in scenarios.iter().enumerate() {
        for (pi, &pk) in policies.iter().enumerate() {
            let section = scenario.as_str();
            let label = pk.name();
            match &suites[si * policies.len() + pi] {
                Ok(suite) => {
                    let ipc = suite.mean_ipc();
                    let faults_detected: u64 =
                        suite.runs.iter().map(|r| r.net.faults_detected).sum();
                    let retransmits: u64 = suite.runs.iter().map(|r| r.net.retransmits).sum();
                    let escalations: u64 = suite.runs.iter().map(|r| r.net.escalations).sum();
                    let retry_cycles: u64 = suite.runs.iter().map(|r| r.net.retry_cycles).sum();
                    rows.push(MetricRow::new(section, label, "am_ipc", ipc));
                    rows.push(MetricRow::new(
                        section,
                        label,
                        "faults_detected",
                        faults_detected as f64,
                    ));
                    rows.push(MetricRow::new(
                        section,
                        label,
                        "retransmits",
                        retransmits as f64,
                    ));
                    rows.push(MetricRow::new(
                        section,
                        label,
                        "escalations",
                        escalations as f64,
                    ));
                    rows.push(MetricRow::new(
                        section,
                        label,
                        "retry_cycles",
                        retry_cycles as f64,
                    ));
                    // Degradation curves vs the fault-free baseline of the
                    // same policy (only meaningful when it completed).
                    let (mut dipc, mut ed2_10) = (f64::NAN, f64::NAN);
                    if let Ok(base) = &suites[pi] {
                        dipc = 100.0 * (1.0 - ipc / base.mean_ipc());
                        let rel = |params| suite.relative_to(base, params).rel_ed2;
                        ed2_10 = rel(EnergyParams::ten_percent());
                        rows.push(MetricRow::new(section, label, "ipc_drop_pct", dipc));
                        rows.push(MetricRow::new(section, label, "ed2_10_pct", ed2_10));
                        rows.push(MetricRow::new(
                            section,
                            label,
                            "ed2_20_pct",
                            rel(EnergyParams::twenty_percent()),
                        ));
                    }
                    rows.push(MetricRow::new(section, label, "failed", 0.0));
                    println!(
                        "{:<26} {:<12} {:>7.4} {:>8.3} {:>9.2} {:>8} {:>8} {:>9}",
                        scenario,
                        label,
                        ipc,
                        dipc,
                        ed2_10,
                        faults_detected,
                        retransmits,
                        escalations
                    );
                }
                Err(msg) => {
                    failed += 1;
                    eprintln!("FAILED {scenario} / {label}: {msg}");
                    rows.push(MetricRow::new(section, label, "failed", 1.0));
                    println!(
                        "{:<26} {:<12} {:>7} {:>8} {:>9} {:>8} {:>8} {:>9}",
                        scenario, label, "FAILED", "-", "-", "-", "-", "-"
                    );
                }
            }
        }
    }
    println!();
    paths.emit(&rows);
    if failed > 0 {
        eprintln!("{failed} sweep cell(s) failed");
        std::process::exit(1);
    }
}
