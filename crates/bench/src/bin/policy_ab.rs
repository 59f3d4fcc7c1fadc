//! Multi-policy A/B harness: races named steering policies over the same
//! (model × benchmark) grid and reports a per-policy comparison — IPC,
//! traffic mix per wire class, interconnect dynamic energy, and ED²
//! relative to the first policy in the race.
//!
//! ```text
//! cargo run --release -p heterowire-bench --bin policy_ab -- \
//!     --model X --policy paper,spray,criticality,pwfirst,oracle \
//!     --topology hier16 --csv policy_ab.csv --json policy_ab.json
//! ```
//!
//! Defaults: Model X (the paper's full heterogeneous link), all five
//! policies, the 4-cluster crossbar. Repeated `--topology` flags (each a
//! preset, compact spec like `ring:6x4`, or spec file) race the grid on
//! every listed topology; repeated `--model` flags sweep more models (the
//! first policy listed is the ED² baseline within each model);
//! `HETEROWIRE_SCALE=quick` downscales the runs. A policy whose defining
//! wire class is entirely absent from a requested model (e.g. `pwfirst`
//! on `custom:b144`) is refused up front with exit status 2.

use heterowire_bench::{
    completed, executor, format_metric_csv, format_metric_json, format_policy_table, or_exit,
    parse_topology_token, policy_metric_rows, sweep, Args, Cell, PolicyKind, RunScale,
};
use heterowire_core::ModelSpec;

fn main() {
    let scale = RunScale::from_env();
    let args = or_exit(Args::from_env(
        &["--model", "--topology", "--policy", "--csv", "--json"],
        0,
    ));
    let mut topologies = or_exit(args.topologies());
    if topologies.is_empty() {
        topologies.push(parse_topology_token("crossbar4").expect("preset crossbar4 parses"));
    }
    let mut models = or_exit(args.models());
    if models.is_empty() {
        models.push(ModelSpec::parse("X").expect("preset X parses"));
    }
    let mut policies = or_exit(args.policies());
    if policies.is_empty() {
        policies = PolicyKind::ALL.to_vec();
    }
    let paths = or_exit(args.artifacts());

    // One cell per (topology, model, policy), in that nesting order.
    let mut cells = Vec::new();
    for topo_spec in &topologies {
        for spec in &models {
            for &pk in &policies {
                cells.push(or_exit(Cell::new(spec, topo_spec.topology(), pk, None)));
            }
        }
    }
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    let topo_names: Vec<String> = topologies.iter().map(|t| t.name()).collect();
    let model_names: Vec<String> = models.iter().map(|s| s.name()).collect();
    eprintln!(
        "racing {} on {} / {} x 23 benchmarks ...",
        names.join(", "),
        topo_names.join(", "),
        model_names.join(", ")
    );
    let suites = completed(sweep(&cells, scale, executor::default_workers()));

    let mut rows = Vec::new();
    let mut grid = suites.chunks(policies.len());
    for topo_spec in &topologies {
        println!(
            "Steering-policy A/B comparison, {} ({} clusters)",
            topo_spec.name(),
            topo_spec.topology().clusters()
        );
        println!("(ED2 is % of the first listed policy, at 10%/20% interconnect fractions)\n");
        for spec in &models {
            let model_suites = grid.next().expect("one chunk per (topology, model)");
            println!("{}", format_policy_table(spec, &policies, model_suites));
            let mut model_rows = policy_metric_rows(spec, &policies, model_suites);
            // In a multi-topology race the section key carries the
            // topology so rows stay distinguishable in the artifacts.
            if topologies.len() > 1 {
                for r in &mut model_rows {
                    r.section = format!("{}/{}", topo_spec.name(), r.section);
                }
            }
            rows.extend(model_rows);
        }
    }
    paths.emit(|| format_metric_csv(&rows), || format_metric_json(&rows));
}
