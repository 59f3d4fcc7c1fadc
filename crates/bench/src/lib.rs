//! # heterowire-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! HPCA-11 2005 wire-management paper from the `heterowire` simulator:
//!
//! | Binary         | Regenerates |
//! |----------------|-------------|
//! | `table2`       | Table 2 (wire parameters, derived from physics) |
//! | `fig3`         | Figure 3 (per-benchmark IPC, baseline vs +L-Wires) |
//! | `table3`       | Table 3 (Models I–X on 4 clusters) |
//! | `table4`       | Table 4 (Models I–X on 16 clusters) |
//! | `sensitivity`  | §1/§5.3 scalar claims (2x latency, 4→16 clusters, predictor and LSQ rates) |
//! | `ablation`     | design-choice sweeps (LS bits, balancer, narrow threshold, per-optimization, extensions) |
//! | `policy_ab`    | steering-policy race over (topology × model × policy) |
//! | `fault_sweep`  | steering policies across a wire-fault grid, against a fault-free baseline |
//! | `telemetry`    | one recorded run: Chrome trace and per-link wire-class utilization |
//! | `sweep_timing` | wall-clock of the quick model sweep, one worker vs the executor pool |
//!
//! The library is the harness's three layers, shared by the binaries, the
//! integration tests and the timing benches:
//!
//! 1. a [`Cell`] is one grid column — a configuration, a steering policy
//!    and an optional fault scenario — and [`Cell::run`] is the only path
//!    from the harness into the simulator;
//! 2. [`sweep`] runs cells × the 23 SPEC2000 profiles as one job list on
//!    the bounded work-queue in [`executor`], one [`SuiteResults`] per cell;
//! 3. each binary is a presentation over that: it declares its flags to
//!    [`Args`], builds cells, sweeps them and formats the suites.
//!
//! Wall-clock measurement lives in [`timing`].

pub mod executor;
pub mod timing;

use std::path::PathBuf;
use std::sync::Arc;

use heterowire_core::{
    mean_report, relative_report, CriticalityPolicy, EnergyParams, FaultSpec, InjectedFaults,
    ModelSpec, NullFaultModel, NullProbe, Optimizations, OraclePolicy, PaperPolicy, Processor,
    ProcessorConfig, PwFirstPolicy, RelativeReport, SimResults, SprayPolicy, StallReport,
    TransferPolicy,
};
use heterowire_interconnect::{Topology, TopologySpec};
use heterowire_telemetry::json::JsonWriter;
use heterowire_trace::{spec2000, BenchmarkProfile, TraceGenerator};
use heterowire_wires::classes::Table2Row;
use heterowire_wires::WireClass;

/// Default committed-instruction window per benchmark.
pub const DEFAULT_WINDOW: u64 = 100_000;
/// Default warmup (excluded from statistics).
pub const DEFAULT_WARMUP: u64 = 30_000;
/// Experiment seed (fixed for reproducibility).
pub const SEED: u64 = 0x5EED_2005;

/// Which workload scale to run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Measured instructions per benchmark.
    pub window: u64,
    /// Warmup instructions per benchmark.
    pub warmup: u64,
}

impl RunScale {
    /// The full scale used for reported numbers.
    pub fn full() -> Self {
        RunScale {
            window: DEFAULT_WINDOW,
            warmup: DEFAULT_WARMUP,
        }
    }

    /// A fast scale for smoke tests and Criterion timing.
    pub fn quick() -> Self {
        RunScale {
            window: 10_000,
            warmup: 3_000,
        }
    }

    /// Maps a `HETEROWIRE_SCALE` value to a scale: `"quick"` and `"full"`
    /// select the matching preset, unset/empty defaults to full, and
    /// anything else is an error (a typo must not silently run the
    /// hour-long full scale).
    pub fn from_env_value(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("") | Some("full") => Ok(Self::full()),
            Some("quick") => Ok(Self::quick()),
            Some(other) => Err(format!(
                "unknown HETEROWIRE_SCALE value {other:?}; expected \"quick\" or \"full\""
            )),
        }
    }

    /// Reads `HETEROWIRE_SCALE=quick|full` from the environment (default
    /// full) so CI can downscale the harness. Exits with status 2 naming
    /// the value on anything else, like every other malformed input.
    pub fn from_env() -> Self {
        let value = std::env::var("HETEROWIRE_SCALE").ok();
        or_exit(Self::from_env_value(value.as_deref()))
    }
}

/// A named steering policy the harness can race. Each kind maps to one
/// [`TransferPolicy`] implementation; [`Cell::run`] does the
/// monomorphized dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's wire management
    /// ([`PaperPolicy`]) — the default the
    /// whole repo runs, and the harness's usual baseline.
    Paper,
    /// Round-robin full-width spraying ([`SprayPolicy`]).
    Spray,
    /// Criticality-first L-Wire steering with wide-value splitting
    /// ([`CriticalityPolicy`]).
    Criticality,
    /// Bandwidth-aware PW-default inversion ([`PwFirstPolicy`]).
    PwFirst,
    /// Width + consumer-distance oracle upper bound ([`OraclePolicy`]).
    Oracle,
}

impl PolicyKind {
    /// Every racer, in the order the harness runs them by default.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Paper,
        PolicyKind::Spray,
        PolicyKind::Criticality,
        PolicyKind::PwFirst,
        PolicyKind::Oracle,
    ];

    /// The command-line token naming this policy.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Paper => "paper",
            PolicyKind::Spray => "spray",
            PolicyKind::Criticality => "criticality",
            PolicyKind::PwFirst => "pwfirst",
            PolicyKind::Oracle => "oracle",
        }
    }

    /// Parses one `--policy` token.
    pub fn parse(token: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == token)
            .ok_or_else(|| {
                let known: Vec<_> = Self::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown policy {token:?}; expected one of {}",
                    known.join(", ")
                )
            })
    }

    /// The wire class without which this policy is meaningless (not merely
    /// degraded): criticality steering is *about* L-Wires, the PW-first
    /// inversion is *about* PW-Wires. `None` means the policy runs on any
    /// link (clamping to available planes where needed).
    pub fn required_class(self) -> Option<WireClass> {
        match self {
            PolicyKind::Criticality => Some(WireClass::L),
            PolicyKind::PwFirst => Some(WireClass::Pw),
            PolicyKind::Paper | PolicyKind::Spray | PolicyKind::Oracle => None,
        }
    }

    /// Refuses models that lack this policy's [`required_class`] entirely
    /// (the lane-starved `custom:` spec guard: the policies themselves
    /// degrade gracefully, but racing e.g. `pwfirst` on a B-only link
    /// measures nothing).
    ///
    /// [`required_class`]: PolicyKind::required_class
    pub fn check_supported(self, spec: &ModelSpec) -> Result<(), String> {
        if let Some(class) = self.required_class() {
            if spec.link().lanes(class) == 0 {
                return Err(format!(
                    "policy {:?} needs a {class} plane, which model {} lacks entirely",
                    self.name(),
                    spec.label(),
                ));
            }
        }
        Ok(())
    }
}

/// Resolves one `--topology` token: a preset name (`crossbar4`, `hier16`),
/// a compact spec (`xbar:8`, `ring:6x4[@hop<n>][@xbar<n>]`), or the path
/// of a key=value spec file. Tokens containing `:` are always treated as
/// specs; anything else that names an existing file is read as a spec
/// file.
pub fn parse_topology_token(token: &str) -> Result<TopologySpec, String> {
    let is_preset = heterowire_interconnect::TopologyPreset::ALL
        .iter()
        .any(|p| p.name() == token);
    let spec = if is_preset || token.contains(':') {
        TopologySpec::parse(token).map_err(|e| format!("--topology {token:?}: {e}"))?
    } else {
        let path = std::path::Path::new(token);
        if !path.is_file() {
            return Err(format!(
                "unknown topology {token:?}: not a preset (crossbar4, hier16), a spec \
                 (xbar:8, ring:6x4[@hop<n>][@xbar<n>]) or an existing spec file"
            ));
        }
        let contents = std::fs::read_to_string(path)
            .map_err(|e| format!("--topology: cannot read spec file {token:?}: {e}"))?;
        TopologySpec::parse_file(&contents)
            .map_err(|e| format!("--topology spec file {token:?}: {e}"))?
    };
    // Capacity (cluster cap, ring-quad bound) is the spec parser's job:
    // it runs the shared checker, whose message names the cap and the
    // offending count, so sweeps exit 2 with the same wording every
    // other layer uses.
    debug_assert!(spec.topology().clusters() <= heterowire_core::MAX_CLUSTERS);
    Ok(spec)
}

/// One column of an experiment grid: a processor configuration, the
/// steering policy racing on it and the transient half of a fault
/// scenario (its stuck lanes are already retired from the
/// configuration's link). [`sweep`] runs a cell once per benchmark.
#[derive(Debug, Clone)]
pub struct Cell {
    config: Arc<ProcessorConfig>,
    policy: PolicyKind,
    /// The scenario's seeded bit-error injector, when it has any rates.
    injector: Option<InjectedFaults>,
}

impl Cell {
    /// The cell for `model` on `topology` under `policy` and an optional
    /// fault scenario. The policy is checked against the nominal model
    /// (see [`PolicyKind::check_supported`]) before the scenario's stuck
    /// lanes are retired from the link; the optimization set is then
    /// recomputed for the surviving planes, so the policy and the load
    /// balancer see the degraded fabric. A scenario that leaves no legal
    /// plane is refused with a message naming the scenario.
    pub fn new(
        model: &ModelSpec,
        topology: Topology,
        policy: PolicyKind,
        faults: Option<&FaultSpec>,
    ) -> Result<Self, String> {
        policy.check_supported(model)?;
        let mut config = ProcessorConfig::for_model_spec(model, topology);
        if let Some(spec) = faults.filter(|s| !s.stuck_lanes().is_empty()) {
            config.link = spec
                .apply_to_link(&config.link)
                .map_err(|e| format!("{spec}: {e}"))?;
            config.opts = Optimizations::for_link(&config.link);
        }
        Ok(Cell {
            config: Arc::new(config),
            policy,
            injector: faults
                .filter(|s| s.has_transient())
                .map(FaultSpec::injector),
        })
    }

    /// A fault-free paper-policy cell over a hand-built configuration
    /// (ablations, sensitivity studies, Figure 3's single-layer baseline).
    pub fn from_config(config: ProcessorConfig) -> Self {
        Cell {
            config: Arc::new(config),
            policy: PolicyKind::Paper,
            injector: None,
        }
    }

    /// The configuration this cell simulates.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// Runs one benchmark profile under this cell. A run that stops
    /// committing (a retry storm under a saturated fault rate) returns the
    /// watchdog's stall report instead of panicking: that is a failed row,
    /// not a dead sweep.
    pub fn run(
        &self,
        profile: BenchmarkProfile,
        scale: RunScale,
    ) -> Result<SimResults, Box<StallReport>> {
        let config = &self.config;
        match self.policy {
            PolicyKind::Paper => self.run_with(PaperPolicy::new(config), profile, scale),
            PolicyKind::Spray => self.run_with(SprayPolicy::new(&config.link), profile, scale),
            PolicyKind::Criticality => {
                self.run_with(CriticalityPolicy::new(config), profile, scale)
            }
            PolicyKind::PwFirst => self.run_with(PwFirstPolicy::new(config), profile, scale),
            PolicyKind::Oracle => self.run_with(OraclePolicy::new(config), profile, scale),
        }
    }

    fn run_with<T: TransferPolicy>(
        &self,
        policy: T,
        profile: BenchmarkProfile,
        scale: RunScale,
    ) -> Result<SimResults, Box<StallReport>> {
        let config = Arc::clone(&self.config);
        let trace = TraceGenerator::new(profile, SEED);
        match self.injector {
            None => Processor::with_faults_shared(config, trace, NullProbe, policy, NullFaultModel)
                .try_run(scale.window, scale.warmup),
            Some(inj) => Processor::with_faults_shared(config, trace, NullProbe, policy, inj)
                .try_run(scale.window, scale.warmup),
        }
    }
}

/// Per-benchmark results of one cell over the whole suite.
#[derive(Debug, Clone)]
pub struct SuiteResults {
    /// Benchmark names, in suite order.
    pub names: Vec<&'static str>,
    /// One result per benchmark.
    pub runs: Vec<SimResults>,
}

impl SuiteResults {
    /// Arithmetic-mean IPC (the paper's aggregate).
    pub fn mean_ipc(&self) -> f64 {
        heterowire_core::mean_ipc(&self.runs)
    }

    /// The mean of the per-benchmark reports of this suite relative to
    /// `baseline`, benchmark by benchmark (the paper's normalisation).
    pub fn relative_to(&self, baseline: &SuiteResults, params: EnergyParams) -> RelativeReport {
        let reports: Vec<_> = self
            .runs
            .iter()
            .zip(&baseline.runs)
            .map(|(m, b)| relative_report(m, b, params))
            .collect();
        mean_report(&reports)
    }
}

/// Runs every (cell × SPEC2000 benchmark) job as one list on a pool of
/// `workers` threads (`1` runs them inline, in order) and returns one
/// suite per cell, in cell order. Runs are independent and
/// deterministic, so the worker count changes nothing but wall-clock
/// time. A cell with a benchmark that stalls or panics comes back as an
/// error naming the first such benchmark; every other cell completes.
pub fn sweep(cells: &[Cell], scale: RunScale, workers: usize) -> Vec<Result<SuiteResults, String>> {
    let profiles = spec2000();
    let names: Vec<&'static str> = profiles.iter().map(|p| p.name).collect();
    let jobs: Vec<(&Cell, BenchmarkProfile)> = cells
        .iter()
        .flat_map(|cell| profiles.iter().map(move |&p| (cell, p)))
        .collect();
    let outcomes =
        executor::run_indexed_catching(jobs, workers, |(cell, profile)| cell.run(profile, scale));
    outcomes
        .chunks(names.len())
        .map(|chunk| {
            let runs = chunk
                .iter()
                .zip(&names)
                .map(|(outcome, name)| match outcome {
                    Ok(Ok(r)) => Ok(*r),
                    Ok(Err(stall)) => Err(format!("{name}: {stall}")),
                    Err(panic) => Err(format!("{name}: {panic}")),
                })
                .collect::<Result<_, _>>()?;
            Ok(SuiteResults {
                names: names.clone(),
                runs,
            })
        })
        .collect()
}

/// The suites of a sweep whose cells must all complete: without fault
/// injection a stall or a panic is a simulator bug, so this panics with
/// the first failure.
pub fn completed(outcomes: Vec<Result<SuiteResults, String>>) -> Vec<SuiteResults> {
    outcomes
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// Fraction (in percent) of a suite's transfers carried on `class`.
pub fn suite_class_share(suite: &SuiteResults, class: WireClass) -> f64 {
    let idx = WireClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class in ALL");
    let total: u64 = suite.runs.iter().map(|r| r.net.total_transfers()).sum();
    if total == 0 {
        return 0.0;
    }
    let on_class: u64 = suite.runs.iter().map(|r| r.net.transfers[idx]).sum();
    100.0 * on_class as f64 / total as f64
}

/// Builds the per-policy [`MetricRow`] comparison for one model of a
/// policy race: IPC, traffic mix per wire class, interconnect energy and
/// ED² (relative to the race's *first* policy, mirroring the model-sweep
/// convention that the first entry is the baseline). `section` is the
/// model name, `label` the policy name.
pub fn policy_metric_rows(
    model: &ModelSpec,
    policies: &[PolicyKind],
    suites: &[SuiteResults],
) -> Vec<MetricRow> {
    assert_eq!(suites.len(), policies.len());
    let section = model.name();
    let baseline = &suites[0];
    let mut rows = Vec::new();
    for (&pk, suite) in policies.iter().zip(suites) {
        let at_10 = suite.relative_to(baseline, EnergyParams::ten_percent());
        let at_20 = suite.relative_to(baseline, EnergyParams::twenty_percent());
        let ic_dyn: f64 = suite.runs.iter().map(|r| r.net.dynamic_energy).sum();
        let label = pk.name();
        rows.push(MetricRow::new(&section, label, "am_ipc", suite.mean_ipc()));
        for (metric, class) in [
            ("traffic_b_pct", WireClass::B),
            ("traffic_pw_pct", WireClass::Pw),
            ("traffic_l_pct", WireClass::L),
        ] {
            rows.push(MetricRow::new(
                &section,
                label,
                metric,
                suite_class_share(suite, class),
            ));
        }
        rows.push(MetricRow::new(&section, label, "ic_dyn_energy", ic_dyn));
        rows.push(MetricRow::new(&section, label, "ed2_10_pct", at_10.rel_ed2));
        rows.push(MetricRow::new(&section, label, "ed2_20_pct", at_20.rel_ed2));
    }
    rows
}

/// Formats one model's policy race as an aligned text table.
pub fn format_policy_table(
    model: &ModelSpec,
    policies: &[PolicyKind],
    suites: &[SuiteResults],
) -> String {
    assert_eq!(suites.len(), policies.len());
    let baseline = &suites[0];
    let mut out = format!(
        "model {} ({}), ED2 relative to policy {:?}\n{:<12} {:>6} {:>6} {:>6} {:>6} {:>10} {:>9} {:>9}\n",
        model.label(),
        model.description(),
        policies[0].name(),
        "Policy",
        "IPC",
        "B%",
        "PW%",
        "L%",
        "IC-dyn",
        "ED2(10%)",
        "ED2(20%)"
    );
    for (&pk, suite) in policies.iter().zip(suites) {
        out.push_str(&format!(
            "{:<12} {:>6.3} {:>6.1} {:>6.1} {:>6.1} {:>10.0} {:>9.1} {:>9.1}\n",
            pk.name(),
            suite.mean_ipc(),
            suite_class_share(suite, WireClass::B),
            suite_class_share(suite, WireClass::Pw),
            suite_class_share(suite, WireClass::L),
            suite.runs.iter().map(|r| r.net.dynamic_energy).sum::<f64>(),
            suite
                .relative_to(baseline, EnergyParams::ten_percent())
                .rel_ed2,
            suite
                .relative_to(baseline, EnergyParams::twenty_percent())
                .rel_ed2,
        ));
    }
    out
}

/// One row of the regenerated Table 3/4.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Which interconnect model (a preset or a custom spec).
    pub model: ModelSpec,
    /// Link description string.
    pub description: String,
    /// Relative metal area.
    pub metal_area: f64,
    /// Suite mean report at 10% interconnect fraction.
    pub at_10: RelativeReport,
    /// Suite mean report at 20% interconnect fraction.
    pub at_20: RelativeReport,
}

/// Builds Table-3/4-style rows from per-model suite results, one per
/// model in order; `suites[0]` (the first model) is the baseline every
/// row is normalised against.
pub fn model_rows(models: &[ModelSpec], suites: &[SuiteResults]) -> Vec<ModelRow> {
    assert_eq!(suites.len(), models.len());
    let baseline = &suites[0];
    models
        .iter()
        .zip(suites)
        .map(|(model, suite)| ModelRow {
            model: model.clone(),
            description: model.description(),
            metal_area: model.relative_metal_area(),
            at_10: suite.relative_to(baseline, EnergyParams::ten_percent()),
            at_20: suite.relative_to(baseline, EnergyParams::twenty_percent()),
        })
        .collect()
}
/// Formats a model sweep as an aligned text table (Table-3 layout).
pub fn format_model_table(rows: &[ModelRow], include_10: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<40} {:>5} {:>6} {:>7} {:>7} {:>7} {:>9} {:>9}\n",
        "Model",
        "Link composition",
        "Area",
        "IPC",
        "IC-dyn",
        "IC-lkg",
        "Energy",
        "ED2(10%)",
        "ED2(20%)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<40} {:>5.1} {:>6.3} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>9.1}\n",
            r.model.label(),
            r.description,
            r.metal_area,
            r.at_10.ipc,
            r.at_10.rel_ic_dynamic,
            r.at_10.rel_ic_leakage,
            if include_10 {
                r.at_10.rel_processor_energy
            } else {
                r.at_20.rel_processor_energy
            },
            r.at_10.rel_ed2,
            r.at_20.rel_ed2,
        ));
    }
    out
}

/// Quotes a CSV field per RFC 4180: fields containing a comma, quote or
/// newline are wrapped in double quotes with internal quotes doubled;
/// plain fields pass through unchanged.
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Formats a model sweep as CSV (machine-readable companion to
/// [`format_model_table`]); pass the path via `--csv <file>` on the
/// `table3`/`table4` binaries.
pub fn format_model_csv(rows: &[ModelRow]) -> String {
    let mut out = String::from(
        "model,link,metal_area,ipc,ic_dynamic_pct,ic_leakage_pct,\
         energy10_pct,ed2_10_pct,energy20_pct,ed2_20_pct\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{:.4},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}\n",
            r.model.name(),
            csv_field(&r.description),
            r.metal_area,
            r.at_10.ipc,
            r.at_10.rel_ic_dynamic,
            r.at_10.rel_ic_leakage,
            r.at_10.rel_processor_energy,
            r.at_10.rel_ed2,
            r.at_20.rel_processor_energy,
            r.at_20.rel_ed2,
        ));
    }
    out
}

/// Formats labelled per-benchmark suites as CSV: one block per suite (a
/// header and one row per benchmark), blocks separated by a blank line.
pub fn format_suite_csv(suites: &[(&str, &SuiteResults)]) -> String {
    let block = |suite: &SuiteResults| {
        let mut out = String::from(
            "benchmark,instructions,cycles,ipc,transfers_per_inst,\
             ic_dynamic_energy,l1_misses,l2_misses,mispredict_rate,\
             false_dep_rate,narrow_coverage\n",
        );
        for (name, r) in suite.names.iter().zip(&suite.runs) {
            out.push_str(&format!(
                "{},{},{},{:.4},{:.3},{:.1},{},{},{:.4},{:.4},{:.4}\n",
                name,
                r.instructions,
                r.cycles,
                r.ipc(),
                r.transfers_per_inst(),
                r.net.dynamic_energy,
                r.mem.l1_misses,
                r.mem.l2_misses,
                r.fetch.mispredict_rate(),
                r.lsq.false_dependence_rate(),
                r.narrow_coverage,
            ));
        }
        out
    };
    suites
        .iter()
        .map(|(_, suite)| block(suite))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Formats a model sweep as one JSON document (the `--json` companion to
/// [`format_model_csv`]), hand-rolled through the telemetry writer so the
/// offline container needs no serde.
pub fn format_model_json(rows: &[ModelRow]) -> String {
    fn report(w: &mut JsonWriter, r: &RelativeReport) {
        w.begin_object();
        w.key("ipc").f64(r.ipc);
        w.key("ic_dynamic_pct").f64(r.rel_ic_dynamic);
        w.key("ic_leakage_pct").f64(r.rel_ic_leakage);
        w.key("energy_pct").f64(r.rel_processor_energy);
        w.key("ed2_pct").f64(r.rel_ed2);
        w.end_object();
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("rows").begin_array();
    for r in rows {
        w.begin_object();
        w.key("model").string(&r.model.name());
        w.key("link").string(&r.description);
        w.key("metal_area").f64(r.metal_area);
        w.key("at_10");
        report(&mut w, &r.at_10);
        w.key("at_20");
        report(&mut w, &r.at_20);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Formats labelled per-benchmark suites as one JSON document: every run
/// embeds the full [`SimResults::to_json`] record.
pub fn format_suite_json(suites: &[(&str, &SuiteResults)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("suites").begin_array();
    for (label, suite) in suites {
        w.begin_object();
        w.key("label").string(label);
        w.key("mean_ipc").f64(suite.mean_ipc());
        w.key("runs").begin_array();
        for (name, r) in suite.names.iter().zip(&suite.runs) {
            w.begin_object();
            w.key("benchmark").string(name);
            w.key("results").raw(&r.to_json());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Formats the Table-2 wire-parameter rows as CSV.
pub fn format_table2_csv(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "class,relative_delay,derived_delay,relative_dynamic,\
         derived_dynamic,relative_leakage,crossbar_latency,ring_hop_latency\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.3},{},{:.3},{},{},{}\n",
            r.class.label(),
            r.relative_delay,
            r.derived_delay,
            r.relative_dynamic,
            r.derived_dynamic,
            r.relative_leakage,
            r.crossbar_latency,
            r.ring_hop_latency,
        ));
    }
    out
}

/// Formats the Table-2 wire-parameter rows as JSON.
pub fn format_table2_json(rows: &[Table2Row]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("rows").begin_array();
    for r in rows {
        w.begin_object();
        w.key("class").string(r.class.label());
        w.key("relative_delay").f64(r.relative_delay);
        w.key("derived_delay").f64(r.derived_delay);
        w.key("relative_dynamic").f64(r.relative_dynamic);
        w.key("derived_dynamic").f64(r.derived_dynamic);
        w.key("relative_leakage").f64(r.relative_leakage);
        w.key("crossbar_latency").u64(r.crossbar_latency as u64);
        w.key("ring_hop_latency").u64(r.ring_hop_latency as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}
/// One labelled scalar from an ablation or sensitivity study: the
/// machine-readable shape behind those binaries' `--csv` / `--json`
/// output. `section` names the study (e.g. `ls-bits`), `label` the swept
/// point (e.g. `8`), `metric` the measured quantity (e.g. `am_ipc`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Which study produced the value.
    pub section: String,
    /// Which swept point within the study.
    pub label: String,
    /// Which quantity was measured.
    pub metric: String,
    /// The measured value.
    pub value: f64,
}

impl MetricRow {
    /// Builds one row (stringifying the borrowed name parts).
    pub fn new(section: &str, label: &str, metric: &str, value: f64) -> Self {
        MetricRow {
            section: section.to_string(),
            label: label.to_string(),
            metric: metric.to_string(),
            value,
        }
    }
}

/// Formats study metrics as CSV (one row per scalar).
pub fn format_metric_csv(rows: &[MetricRow]) -> String {
    let mut out = String::from("section,label,metric,value\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{}\n",
            csv_field(&r.section),
            csv_field(&r.label),
            csv_field(&r.metric),
            r.value,
        ));
    }
    out
}

/// Formats study metrics as one JSON document.
pub fn format_metric_json(rows: &[MetricRow]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("metrics").begin_array();
    for r in rows {
        w.begin_object();
        w.key("section").string(&r.section);
        w.key("label").string(&r.label);
        w.key("metric").string(&r.metric);
        w.key("value").f64(r.value);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// A harness binary's command line, collected against the flags the
/// binary declares. Every declared flag takes one value (`--flag value`)
/// and may be repeated; the typed accessors decide whether a repeat is
/// legal. An undeclared flag or a surplus bare token is refused, naming
/// the token, so a typo (`--modle X`) can never fall back to a default
/// sweep.
#[derive(Debug, Default)]
pub struct Args {
    /// `(flag, value)` pairs in command-line order.
    flags: Vec<(String, String)>,
    /// Bare (non-flag) tokens in command-line order.
    positionals: Vec<String>,
}

impl Args {
    /// Collects `args` (without the program name) against the declared
    /// value-taking `flags`, accepting at most `positionals` bare tokens.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        flags: &[&str],
        positionals: usize,
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if flags.contains(&arg.as_str()) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                out.flags.push((arg, value));
            } else if arg.starts_with('-') {
                return Err(format!(
                    "unknown flag {arg:?}; this binary takes {}",
                    flags.join(", ")
                ));
            } else if out.positionals.len() < positionals {
                out.positionals.push(arg);
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(out)
    }

    /// [`Args::parse`] over the process's own command line.
    pub fn from_env(flags: &[&str], positionals: usize) -> Result<Self, String> {
        Self::parse(std::env::args().skip(1), flags, positionals)
    }

    fn values(&self, flag: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The value of a flag that may be given at most once.
    pub fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.values(flag)[..] {
            [] => Ok(None),
            [value] => Ok(Some(value)),
            _ => Err(format!("{flag} given more than once")),
        }
    }

    /// The first bare token, if any.
    pub fn positional(&self) -> Option<&str> {
        self.positionals.first().map(String::as_str)
    }

    /// Every `--model` token (a Roman-numeral preset such as `VII`, or a
    /// composition such as `custom:b144+pw288+l36`; see
    /// [`ModelSpec::parse`]), in order; empty when none is given. In a
    /// sweep the first model is the normalisation baseline.
    pub fn models(&self) -> Result<Vec<ModelSpec>, String> {
        self.values("--model")
            .into_iter()
            .map(|token| ModelSpec::parse(token).map_err(|e| format!("--model {token:?}: {e}")))
            .collect()
    }

    /// The one `--model` of a binary that studies a single model, or
    /// `default` (a preset or `custom:` token) when none is given.
    pub fn model_or(&self, default: &str) -> Result<ModelSpec, String> {
        let mut models = self.models()?;
        match models.len() {
            0 => Ok(ModelSpec::parse(default).expect("default model token is valid")),
            1 => Ok(models.remove(0)),
            _ => Err("this binary takes at most one --model".to_string()),
        }
    }

    /// Every `--topology` token (see [`parse_topology_token`]), in order;
    /// empty when none is given.
    pub fn topologies(&self) -> Result<Vec<TopologySpec>, String> {
        self.values("--topology")
            .into_iter()
            .map(parse_topology_token)
            .collect()
    }

    /// The one `--topology` of a single-topology binary, or `default`
    /// when none is given.
    pub fn topology_or(&self, default: &str) -> Result<TopologySpec, String> {
        match self.topologies()?.as_slice() {
            [] => Ok(parse_topology_token(default).expect("default topology token is valid")),
            [one] => Ok(*one),
            _ => Err("--topology given more than once".to_string()),
        }
    }

    /// The comma-separated values of every `--policy` flag, in order
    /// (`--policy paper,spray --policy oracle` ==
    /// `--policy paper,spray,oracle`); empty when none is given. An
    /// unknown name or a duplicate is an error.
    pub fn policies(&self) -> Result<Vec<PolicyKind>, String> {
        let mut policies = Vec::new();
        for token in self
            .values("--policy")
            .into_iter()
            .flat_map(|v| v.split(','))
        {
            let p = PolicyKind::parse(token)?;
            if policies.contains(&p) {
                return Err(format!("policy {token:?} given more than once"));
            }
            policies.push(p);
        }
        Ok(policies)
    }

    /// Every `--faults` scenario, in order; empty when none is given.
    /// Exact duplicates (by canonical name) are an error.
    pub fn faults(&self) -> Result<Vec<FaultSpec>, String> {
        let mut specs: Vec<FaultSpec> = Vec::new();
        for token in self.values("--faults") {
            let spec = FaultSpec::parse(token).map_err(|e| format!("--faults {token:?}: {e}"))?;
            if specs.iter().any(|s| s.name() == spec.name()) {
                return Err(format!("duplicate --faults {token:?}"));
            }
            specs.push(spec);
        }
        Ok(specs)
    }

    /// The path given to a single-valued path flag such as `--out-dir`.
    pub fn path(&self, flag: &str) -> Result<Option<PathBuf>, String> {
        Ok(self.value(flag)?.map(PathBuf::from))
    }

    /// The `--csv` / `--json` artifact destinations.
    pub fn artifacts(&self) -> Result<ArtifactPaths, String> {
        Ok(ArtifactPaths {
            csv: self.path("--csv")?,
            json: self.path("--json")?,
        })
    }
}

/// Unwraps a command-line result, or prints the error and exits with
/// status 2 — the binaries' convention for every malformed input.
pub fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The machine-readable outputs a harness binary was asked for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArtifactPaths {
    /// `--csv <path>` destination, if requested.
    pub csv: Option<PathBuf>,
    /// `--json <path>` destination, if requested.
    pub json: Option<PathBuf>,
}

impl ArtifactPaths {
    /// Writes the requested artifacts, rendering each only when asked for.
    pub fn emit(&self, csv: impl FnOnce() -> String, json: impl FnOnce() -> String) {
        if let Some(path) = &self.csv {
            write_artifact(path, &csv());
        }
        if let Some(path) = &self.json {
            write_artifact(path, &json());
        }
    }
}

/// Writes one artifact file, logging the destination (the binaries' shared
/// write-and-announce convention). A filesystem refusal (missing
/// permission, read-only mount, bad path) exits with status 2 naming the
/// path, matching the binaries' malformed-flag convention — results are
/// the whole point of a sweep, so a silent or cryptic loss is not
/// acceptable.
pub fn write_artifact(path: &std::path::Path, contents: &str) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create artifact directory {}: {e}", parent.display());
            std::process::exit(2);
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write artifact {}: {e}", path.display());
        std::process::exit(2);
    }
    eprintln!("wrote {}", path.display());
}

/// The whole shared spine of the `table3`/`table4` binaries: read the
/// scale from the environment, resolve a `--topology` override against
/// `default_topology` (a preset, spec or spec-file token), collect any
/// repeated `--model` overrides (default: the paper's Models I–X; the
/// first model given is the normalisation baseline), sweep them, and
/// write any `--csv` / `--json` artifacts requested on the command line.
/// Returns the resolved topology alongside the rows so callers can label
/// their output.
pub fn model_sweep_main(default_topology: &str) -> (TopologySpec, Vec<ModelRow>) {
    let scale = RunScale::from_env();
    let args = or_exit(Args::from_env(
        &["--model", "--topology", "--csv", "--json"],
        0,
    ));
    let spec = or_exit(args.topology_or(default_topology));
    let mut models = or_exit(args.models());
    if models.is_empty() {
        models = ModelSpec::paper_presets();
    }
    let paths = or_exit(args.artifacts());
    let names: Vec<String> = models.iter().map(|s| s.name()).collect();
    eprintln!(
        "sweeping {} on {} ({} clusters) x 23 benchmarks ...",
        names.join(", "),
        spec.name(),
        spec.topology().clusters()
    );
    let cells: Vec<Cell> = models
        .iter()
        .map(|m| Cell::from_config(ProcessorConfig::for_model_spec(m, spec.topology())))
        .collect();
    let suites = completed(sweep(&cells, scale, executor::default_workers()));
    let rows = model_rows(&models, &suites);
    paths.emit(|| format_model_csv(&rows), || format_model_json(&rows));
    (spec, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterowire_core::InterconnectModel;
    use heterowire_wires::classes::table2;

    /// Splits one CSV line into fields, honouring RFC-4180 quoting.
    fn parse_csv_line(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if in_quotes && chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields.push(std::mem::take(&mut field)),
                _ => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    /// Parses a flag list against the declared flags.
    fn args(v: &[&str], flags: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()), flags, 0)
    }

    /// Cells for `models` on the 4-cluster crossbar.
    fn crossbar4_cells(models: &[ModelSpec]) -> Vec<Cell> {
        models
            .iter()
            .map(|m| Cell::from_config(ProcessorConfig::for_model_spec(m, Topology::crossbar4())))
            .collect()
    }

    /// Table-3 rows for the paper's Models I–X at `scale`.
    fn paper_rows(scale: RunScale) -> Vec<ModelRow> {
        let models = ModelSpec::paper_presets();
        let suites = sweep(&crossbar4_cells(&models), scale, 4);
        model_rows(&models, &completed(suites))
    }

    /// Model I's suite on the 4-cluster crossbar at `scale`.
    fn model_i_suite(scale: RunScale) -> SuiteResults {
        let cell = Cell::from_config(ProcessorConfig::for_model(
            InterconnectModel::I,
            Topology::crossbar4(),
        ));
        completed(sweep(&[cell], scale, executor::default_workers())).remove(0)
    }

    #[test]
    fn csv_has_one_row_per_model_and_consistent_fields() {
        let rows = paper_rows(RunScale {
            window: 1_000,
            warmup: 200,
        });
        let csv = format_model_csv(&rows);
        assert_eq!(csv.lines().count(), 11, "header + 10 models");
        assert!(csv.starts_with("model,"));
        assert!(csv.contains("\nI,"));
        assert!(csv.contains("\nX,"));
        let header = parse_csv_line(csv.lines().next().unwrap());
        for (line, row) in csv.lines().skip(1).zip(&rows) {
            let fields = parse_csv_line(line);
            assert_eq!(
                fields.len(),
                header.len(),
                "row has as many fields as the header: {line}"
            );
            assert_eq!(fields[0], row.model.name());
            // The description round-trips through quoting even though it
            // contains commas (e.g. "72 B-Wires, 144 L-Wires").
            assert_eq!(fields[1], row.description);
        }
    }

    #[test]
    fn csv_field_escapes_specials() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn suite_csv_has_one_row_per_benchmark() {
        let suite = model_i_suite(RunScale {
            window: 1_000,
            warmup: 200,
        });
        let csv = format_suite_csv(&[("base", &suite)]);
        assert_eq!(csv.lines().count(), 24, "header + 23 benchmarks");
        assert!(csv.contains("gzip,"));
        assert!(csv.contains("mcf,"));
        // Several suites are blank-line-separated blocks.
        let two = format_suite_csv(&[("a", &suite), ("b", &suite)]);
        assert_eq!(two, format!("{csv}\n{csv}"));
    }

    #[test]
    fn quick_suite_runs() {
        let suite = model_i_suite(RunScale {
            window: 2_000,
            warmup: 500,
        });
        assert_eq!(suite.runs.len(), 23);
        assert!(suite.mean_ipc() > 0.0);
    }

    #[test]
    fn scale_from_env_value() {
        // Value-based so the test is immune to whatever HETEROWIRE_SCALE
        // the ambient environment carries (e.g. quick-scale CI).
        assert_eq!(RunScale::from_env_value(None), Ok(RunScale::full()));
        assert_eq!(RunScale::from_env_value(Some("")), Ok(RunScale::full()));
        assert_eq!(RunScale::from_env_value(Some("full")), Ok(RunScale::full()));
        assert_eq!(
            RunScale::from_env_value(Some("quick")),
            Ok(RunScale::quick())
        );
        assert!(RunScale::from_env_value(Some("fast")).is_err());
        assert!(RunScale::from_env_value(Some("QUICK")).is_err());
    }

    #[test]
    fn model_json_round_trips() {
        let rows = paper_rows(RunScale {
            window: 1_000,
            warmup: 200,
        });
        let doc = heterowire_telemetry::json::parse(&format_model_json(&rows))
            .expect("model JSON parses");
        let out = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(out.len(), 10);
        for (obj, row) in out.iter().zip(&rows) {
            // Descriptions contain commas and survive JSON escaping.
            assert_eq!(obj.get("link").unwrap().as_str(), Some(&*row.description));
            assert_eq!(
                obj.get("at_10").unwrap().get("ipc").unwrap().as_num(),
                Some(row.at_10.ipc)
            );
        }
    }

    #[test]
    fn suite_json_embeds_full_results() {
        let suite = model_i_suite(RunScale {
            window: 1_000,
            warmup: 200,
        });
        let doc = heterowire_telemetry::json::parse(&format_suite_json(&[("base", &suite)]))
            .expect("suite JSON parses");
        let suites = doc.get("suites").unwrap().as_arr().unwrap();
        assert_eq!(suites.len(), 1);
        let runs = suites[0].get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 23);
        let first = &runs[0];
        assert_eq!(
            first.get("benchmark").unwrap().as_str(),
            Some(suite.names[0])
        );
        assert_eq!(
            first
                .get("results")
                .unwrap()
                .get("instructions")
                .unwrap()
                .as_num(),
            Some(suite.runs[0].instructions as f64)
        );
    }

    #[test]
    fn table2_json_and_csv_agree() {
        let rows = table2();
        let csv = format_table2_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        let doc = heterowire_telemetry::json::parse(&format_table2_json(&rows)).expect("parses");
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), rows.len());
    }

    #[test]
    fn artifact_paths_parsing() {
        let flags = ["--csv", "--json"];
        let none = args(&[], &flags).unwrap().artifacts();
        assert_eq!(none, Ok(ArtifactPaths::default()));
        let both = args(&["--csv", "a.csv", "--json", "a.json"], &flags)
            .unwrap()
            .artifacts()
            .unwrap();
        assert_eq!(both.csv, Some(PathBuf::from("a.csv")));
        assert_eq!(both.json, Some(PathBuf::from("a.json")));
        assert!(args(&["--json"], &flags).is_err());
        assert!(args(&["--csv", "a", "--csv", "b"], &flags)
            .unwrap()
            .artifacts()
            .is_err());
    }

    #[test]
    fn csv_path_parsing() {
        let flags = ["--csv"];
        assert_eq!(args(&[], &flags).unwrap().path("--csv"), Ok(None));
        assert_eq!(
            args(&["--csv", "out.csv"], &flags).unwrap().path("--csv"),
            Ok(Some(PathBuf::from("out.csv")))
        );
        // `--csv` as the last argument is an error, not a silent None.
        let err = args(&["--csv"], &flags).unwrap_err();
        assert!(err.contains("--csv requires a value"), "{err}");
    }

    #[test]
    fn args_refuse_undeclared_tokens() {
        let flags = ["--model", "--csv"];
        // A typo names itself and the flags the binary does take.
        let err = args(&["--modle", "X"], &flags).unwrap_err();
        assert!(err.contains("\"--modle\""), "{err}");
        assert!(err.contains("--model, --csv"), "{err}");
        let err = args(&["X"], &flags).unwrap_err();
        assert!(err.contains("unexpected argument \"X\""), "{err}");
        // Declared bare tokens are kept in order, flags around them.
        let two = |v: &[&str]| Args::parse(v.iter().map(|s| s.to_string()), &flags, 1);
        let got = two(&["--model", "X", "opts", "--csv", "o.csv"]).unwrap();
        assert_eq!(got.positional(), Some("opts"));
        assert_eq!(got.value("--csv"), Ok(Some("o.csv")));
        assert!(two(&["opts", "ext"]).is_err());
        // A declared flag's value is taken as given, even when it looks
        // like a flag.
        assert_eq!(
            args(&["--csv", "--model"], &flags).unwrap().value("--csv"),
            Ok(Some("--model"))
        );
    }

    #[test]
    fn model_set_from_args() {
        let flags = ["--model"];
        assert!(args(&[], &flags).unwrap().models().unwrap().is_empty());
        let set = args(
            &["--model", "X", "--model", "custom:b144+pw288+l36"],
            &flags,
        )
        .unwrap()
        .models()
        .unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set[0].name(), "X");
        assert_eq!(set[1].name(), "custom:b144+pw288+l36");
        // Both tokens name the same link.
        assert_eq!(set[0].link(), set[1].link());
        // Malformed flags are errors, not silent defaults.
        assert!(args(&["--model"], &flags).is_err());
        let models = |v: &[&str]| args(v, &flags).unwrap().models();
        assert!(models(&["--model", "XI"]).is_err());
        assert!(models(&["--model", "custom:l36"]).is_err());
        // Single-model binaries default, or take exactly one.
        let one = |v: &[&str]| args(v, &flags).unwrap().model_or("VII");
        assert_eq!(one(&[]).unwrap().name(), "VII");
        assert_eq!(one(&["--model", "X"]).unwrap().name(), "X");
        assert!(one(&["--model", "X", "--model", "I"])
            .unwrap_err()
            .contains("at most one --model"));
    }

    #[test]
    fn custom_spec_sweep_matches_preset() {
        // `custom:b144` is the same machine as Model I; a two-model sweep
        // of the pair must produce identical runs.
        let models = [
            ModelSpec::parse("I").unwrap(),
            ModelSpec::parse("custom:b144").unwrap(),
        ];
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let suites = completed(sweep(&crossbar4_cells(&models), scale, 4));
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].runs, suites[1].runs, "bit-identical results");
        let rows = model_rows(&models, &suites);
        assert_eq!(rows[0].at_10.ipc, rows[1].at_10.ipc);
        assert_eq!(rows[1].model.name(), "custom:b144");
    }

    #[test]
    fn metric_rows_round_trip_csv_and_json() {
        let rows = vec![
            MetricRow::new("ls-bits", "8", "false_dep_pct", 7.25),
            MetricRow::new("balance", "paper (both)", "am_ipc", 2.5),
        ];
        let csv = format_metric_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("ls-bits,8,false_dep_pct,7.25"));
        let doc = heterowire_telemetry::json::parse(&format_metric_json(&rows)).expect("parses");
        let arr = doc.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("label").unwrap().as_str(), Some("paper (both)"));
        assert_eq!(arr[0].get("value").unwrap().as_num(), Some(7.25));
    }

    #[test]
    fn topology_from_args_parsing() {
        let flags = ["--topology"];
        let topology = |v: &[&str]| args(v, &flags).unwrap().topology_or("crossbar4");
        assert_eq!(topology(&[]).unwrap().name(), "crossbar4");
        // Presets and their equivalent compact specs resolve identically.
        let resolve = |token: &str| topology(&["--topology", token]).unwrap();
        assert_eq!(resolve("hier16").topology(), Topology::hier16());
        assert_eq!(resolve("crossbar4").topology(), Topology::crossbar4());
        assert_eq!(resolve("ring:4x4").topology(), Topology::hier16());
        assert_eq!(resolve("xbar:8").topology().clusters(), 8);
        // The preset form keeps its preset identity; the spec form does not.
        assert_eq!(resolve("hier16").name(), "hier16");
        assert_eq!(resolve("ring:4x4").name(), "ring:4x4");
        // Malformed tokens fail loudly with the shared parser's message.
        assert!(topology(&["--topology", "mesh"])
            .unwrap_err()
            .contains("unknown topology"));
        assert!(topology(&["--topology", "ring:2x4"])
            .unwrap_err()
            .contains("quads"));
        assert!(args(&["--topology"], &flags).is_err());
        assert!(topology(&["--topology", "hier16", "--topology", "hier16"]).is_err());
    }

    #[test]
    fn topology_set_collects_repeated_flags() {
        let flags = ["--topology"];
        let topologies = |v: &[&str]| args(v, &flags).unwrap().topologies();
        assert!(topologies(&[]).unwrap().is_empty());
        let set = topologies(&["--topology", "crossbar4", "--topology", "ring:6x2"])
            .expect("two topologies");
        assert_eq!(set.len(), 2);
        assert_eq!(set[0].name(), "crossbar4");
        assert_eq!(set[1].name(), "ring:6x2");
        assert_eq!(set[1].topology().clusters(), 12);
        // Shapes past the processor's old inline capacity now parse (the
        // per-value structures spill); the simulator-wide cap still
        // refuses at parse time, not by a panic mid-sweep, with the
        // shared checker's message (cap + offending count).
        let wide = topologies(&["--topology", "ring:6x4"]).unwrap();
        assert_eq!(wide[0].topology().clusters(), 24);
        let err = topologies(&["--topology", "xbar:65"]).unwrap_err();
        assert!(err.contains("65 clusters"), "{err}");
        assert!(err.contains("at most 64"), "{err}");
    }

    #[test]
    fn topology_token_resolves_spec_files() {
        let dir = std::env::temp_dir().join(format!("hw-topo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.topo");
        std::fs::write(
            &path,
            "# asymmetric ring\nshape = ring\nquads = 6\nper_quad = 2\nhop_len = 3\n",
        )
        .unwrap();
        let spec = parse_topology_token(path.to_str().unwrap()).unwrap();
        assert_eq!(spec, TopologySpec::parse("ring:6x2@hop3").unwrap());
        // A malformed file reports the file-level error, prefixed with the path.
        std::fs::write(&path, "shape = torus\n").unwrap();
        let err = parse_topology_token(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("spec file") && err.contains("torus"), "{err}");
        // A missing file that is not a preset or spec names all three forms.
        let err = parse_topology_token("no-such-file.topo").unwrap_err();
        assert!(err.contains("spec file"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policies_from_args_parsing() {
        let flags = ["--policy"];
        let policies = |v: &[&str]| args(v, &flags).unwrap().policies();
        assert!(policies(&[]).unwrap().is_empty());
        let got = policies(&["--policy", "paper,oracle"]).expect("two policies");
        assert_eq!(got, vec![PolicyKind::Paper, PolicyKind::Oracle]);
        // Repeated flags accumulate.
        let got = policies(&["--policy", "spray", "--policy", "pwfirst"]).unwrap();
        assert_eq!(got, vec![PolicyKind::Spray, PolicyKind::PwFirst]);
        // Malformed forms are errors, not silent defaults.
        assert!(args(&["--policy"], &flags).is_err());
        assert!(policies(&["--policy", "greedy"]).is_err());
        assert!(policies(&["--policy", "paper,paper"]).is_err());
    }

    #[test]
    fn policy_support_check_names_the_missing_plane() {
        let b_only = ModelSpec::parse("custom:b144").unwrap();
        let x = ModelSpec::parse("X").unwrap();
        for pk in PolicyKind::ALL {
            assert!(pk.check_supported(&x).is_ok(), "{} on X", pk.name());
        }
        assert!(PolicyKind::Paper.check_supported(&b_only).is_ok());
        assert!(PolicyKind::Oracle.check_supported(&b_only).is_ok());
        let err = PolicyKind::Criticality
            .check_supported(&b_only)
            .unwrap_err();
        assert!(
            err.contains("criticality") && err.contains("L-Wires"),
            "{err}"
        );
        let err = PolicyKind::PwFirst.check_supported(&b_only).unwrap_err();
        assert!(err.contains("pwfirst") && err.contains("PW-Wires"), "{err}");
        // A cell refuses the same pairing with the same message.
        let topology = Topology::crossbar4();
        let err = Cell::new(&b_only, topology, PolicyKind::PwFirst, None).unwrap_err();
        assert!(err.contains("pwfirst") && err.contains("PW-Wires"), "{err}");
        // Support is judged on the nominal model: retiring both of Model
        // X's L lanes does not refuse criticality steering.
        let no_l = FaultSpec::parse("lane:L0@stuck+lane:L1@stuck").unwrap();
        let cell = Cell::new(&x, topology, PolicyKind::Criticality, Some(&no_l))
            .expect("X has an L plane before its lanes are retired");
        assert_eq!(cell.config().link.lanes(WireClass::L), 0);
    }

    #[test]
    fn policy_race_rows_cover_the_grid() {
        let model = ModelSpec::parse("X").unwrap();
        let policies = [PolicyKind::Paper, PolicyKind::Oracle];
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let cells: Vec<Cell> = policies
            .iter()
            .map(|&pk| Cell::new(&model, Topology::crossbar4(), pk, None).unwrap())
            .collect();
        let suites = completed(sweep(&cells, scale, 4));
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].runs.len(), 23);
        // The paper lane is the exact default-processor path.
        let config = ProcessorConfig::for_model_spec(&model, Topology::crossbar4());
        let direct: Vec<SimResults> = spec2000()
            .into_iter()
            .map(|p| {
                Processor::new(config.clone(), TraceGenerator::new(p, SEED))
                    .run(scale.window, scale.warmup)
            })
            .collect();
        assert_eq!(suites[0].runs, direct, "bit-identical paper row");
        let rows = policy_metric_rows(&model, &policies, &suites);
        assert_eq!(rows.len(), 2 * 7, "7 metrics per policy");
        assert!(rows
            .iter()
            .all(|r| r.section == "X" && (r.label == "paper" || r.label == "oracle")));
        // Traffic shares per policy sum to ~100% (W is never used by the
        // default processor; every transfer lands on B/PW/L).
        for label in ["paper", "oracle"] {
            let share: f64 = rows
                .iter()
                .filter(|r| r.label == label && r.metric.starts_with("traffic_"))
                .map(|r| r.value)
                .sum();
            assert!((share - 100.0).abs() < 1e-6, "{label}: {share}");
        }
        // The baseline policy's ED2 is 100% of itself by construction.
        let base_ed2 = rows
            .iter()
            .find(|r| r.label == "paper" && r.metric == "ed2_10_pct")
            .unwrap();
        assert!((base_ed2.value - 100.0).abs() < 1e-9);
        let table = format_policy_table(&model, &policies, &suites);
        assert!(table.contains("paper") && table.contains("oracle"));
    }

    #[test]
    fn suite_executor_matches_serial() {
        let cells = crossbar4_cells(&[InterconnectModel::IV.spec()]);
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let serial = completed(sweep(&cells, scale, 1)).remove(0);
        let parallel = completed(sweep(&cells, scale, 4)).remove(0);
        assert_eq!(serial.names, parallel.names);
        assert_eq!(serial.runs, parallel.runs, "bit-identical results");
    }
}
