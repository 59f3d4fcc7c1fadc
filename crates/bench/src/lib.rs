//! # heterowire-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! HPCA-11 2005 wire-management paper from the `heterowire` simulator:
//!
//! | Binary        | Regenerates |
//! |---------------|-------------|
//! | `table2`      | Table 2 (wire parameters, derived from physics) |
//! | `fig3`        | Figure 3 (per-benchmark IPC, baseline vs +L-Wires) |
//! | `table3`      | Table 3 (Models I–X on 4 clusters) |
//! | `table4`      | Table 4 (Models I–X on 16 clusters) |
//! | `sensitivity` | §1/§5.3 scalar claims (2x latency, 4→16 clusters, predictor and LSQ rates) |
//! | `ablation`    | design-choice sweeps (LS bits, balancer, narrow threshold, per-optimization) |
//!
//! The library part hosts the shared experiment-running machinery so the
//! binaries, the integration tests and the timing benches all run the
//! exact same code. Suite and sweep runs are parallelised by the bounded
//! work-queue in [`executor`]; wall-clock measurement lives in [`timing`].

pub mod executor;
pub mod timing;

use std::sync::Arc;

use heterowire_core::{
    mean_report, relative_report, CriticalityPolicy, EnergyParams, FaultSpec, ModelSpec, NullProbe,
    Optimizations, OraclePolicy, PaperPolicy, Processor, ProcessorConfig, PwFirstPolicy,
    RelativeReport, SimResults, SprayPolicy, StallReport,
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
        Self::from_env_value(value.as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }
}

/// The ordered set of interconnect models a sweep covers. The first entry
/// is the normalisation baseline every row is reported against; the
/// default set is the paper's Models I–X (baseline Model I).
///
/// Every harness binary accepts repeated `--model <token>` flags, where a
/// token is a Roman-numeral preset (`VII`) or a data-driven composition
/// (`custom:b144+pw288+l36`); see [`ModelSpec::parse`].
#[derive(Debug, Clone)]
pub struct ModelSet {
    specs: Vec<ModelSpec>,
}

impl ModelSet {
    /// The paper's Models I–X in table order (Model I is the baseline).
    pub fn paper() -> Self {
        ModelSet {
            specs: ModelSpec::paper_presets(),
        }
    }

    /// Builds a set from explicit specs; the first is the baseline.
    pub fn new(specs: Vec<ModelSpec>) -> Result<Self, String> {
        if specs.is_empty() {
            return Err("a model set needs at least one model".to_string());
        }
        Ok(ModelSet { specs })
    }

    /// The specs, in sweep order.
    pub fn specs(&self) -> &[ModelSpec] {
        &self.specs
    }

    /// Number of models in the set (never zero).
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Always false — kept for clippy's `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Collects every `--model <token>` pair from an argument list.
    /// Returns `None` when no `--model` flag is present (caller picks its
    /// default); a flag without a value or an unparseable token is an
    /// error.
    pub fn from_args(args: &[String]) -> Result<Option<Self>, String> {
        let mut specs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--model" {
                let token = args
                    .get(i + 1)
                    .ok_or_else(|| "--model requires a value".to_string())?;
                specs.push(ModelSpec::parse(token).map_err(|e| format!("--model {token:?}: {e}"))?);
                i += 2;
            } else {
                i += 1;
            }
        }
        if specs.is_empty() {
            return Ok(None);
        }
        Self::new(specs).map(Some)
    }

    /// [`ModelSet::from_args`] over `std::env::args`, defaulting to the
    /// paper set; exits with status 2 on a malformed `--model`.
    pub fn from_args_or_paper() -> Self {
        let args: Vec<String> = std::env::args().collect();
        match Self::from_args(&args) {
            Ok(set) => set.unwrap_or_else(Self::paper),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
}

/// Parses a single `--model` override from `std::env::args` for binaries
/// that study one model rather than sweeping a set; `default` (a preset
/// name or `custom:<spec>` token) applies when no flag is given. Exits
/// with status 2 on a malformed token or on more than one `--model`.
pub fn model_override_or(default: &str) -> ModelSpec {
    let args: Vec<String> = std::env::args().collect();
    match ModelSet::from_args(&args) {
        Ok(None) => ModelSpec::parse(default).expect("default model token is valid"),
        Ok(Some(set)) if set.len() == 1 => set.specs()[0].clone(),
        Ok(Some(_)) => {
            eprintln!("this binary takes at most one --model");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Runs one benchmark profile under one processor configuration.
pub fn run_one(config: ProcessorConfig, profile: BenchmarkProfile, scale: RunScale) -> SimResults {
    run_one_shared(Arc::new(config), profile, scale)
}

/// [`run_one`] over a shared configuration — sweep harnesses running one
/// config across many benchmarks share a single allocation instead of
/// cloning the whole `ProcessorConfig` per job.
pub fn run_one_shared(
    config: Arc<ProcessorConfig>,
    profile: BenchmarkProfile,
    scale: RunScale,
) -> SimResults {
    let trace = TraceGenerator::new(profile, SEED);
    Processor::with_shared_config(config, trace).run(scale.window, scale.warmup)
}

/// A named steering policy the multi-policy A/B harness (`policy_ab`) can
/// race. Each kind maps to one [`TransferPolicy`] implementation;
/// [`run_one_policy`] does the monomorphized dispatch.
///
/// [`TransferPolicy`]: heterowire_core::TransferPolicy
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

/// Collects the comma-separated values of every `--policy` flag from an
/// argument list (`--policy paper,spray --policy oracle` ==
/// `--policy paper,spray,oracle`). Returns `None` when no flag is present
/// (caller picks its default); a flag without a value, an unknown name or
/// a duplicate is an error.
pub fn policies_from_args(args: &[String]) -> Result<Option<Vec<PolicyKind>>, String> {
    let mut policies: Vec<PolicyKind> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--policy" {
            let value = args
                .get(i + 1)
                .ok_or_else(|| "--policy requires a value".to_string())?;
            for token in value.split(',') {
                let p = PolicyKind::parse(token)?;
                if policies.contains(&p) {
                    return Err(format!("policy {token:?} given more than once"));
                }
                policies.push(p);
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(if policies.is_empty() {
        None
    } else {
        Some(policies)
    })
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

/// The ordered set of topologies a race covers, mirroring [`ModelSet`]:
/// every harness binary accepts repeated `--topology <token>` flags (see
/// [`parse_topology_token`] for the token forms); single-topology binaries
/// use [`topology_override_or`] instead.
#[derive(Debug, Clone)]
pub struct TopologySet {
    specs: Vec<TopologySpec>,
}

impl TopologySet {
    /// Builds a set from explicit specs.
    pub fn new(specs: Vec<TopologySpec>) -> Result<Self, String> {
        if specs.is_empty() {
            return Err("a topology set needs at least one topology".to_string());
        }
        Ok(TopologySet { specs })
    }

    /// The specs, in sweep order.
    pub fn specs(&self) -> &[TopologySpec] {
        &self.specs
    }

    /// Number of topologies in the set (never zero).
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Always false — kept for clippy's `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Collects every `--topology <token>` pair from an argument list.
    /// Returns `None` when no flag is present (caller picks its default);
    /// a flag without a value or an unparseable token is an error.
    pub fn from_args(args: &[String]) -> Result<Option<Self>, String> {
        let mut specs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--topology" {
                let token = args
                    .get(i + 1)
                    .ok_or_else(|| "--topology requires a value".to_string())?;
                specs.push(parse_topology_token(token)?);
                i += 2;
            } else {
                i += 1;
            }
        }
        if specs.is_empty() {
            return Ok(None);
        }
        Self::new(specs).map(Some)
    }

    /// [`TopologySet::from_args`] over `std::env::args`, defaulting to the
    /// single topology named by `default`; exits with status 2 on a
    /// malformed `--topology`.
    pub fn from_args_or(default: &str) -> Self {
        let args: Vec<String> = std::env::args().collect();
        match Self::from_args(&args) {
            Ok(Some(set)) => set,
            Ok(None) => {
                let spec = parse_topology_token(default).expect("default topology token is valid");
                TopologySet { specs: vec![spec] }
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
}

/// Parses an optional single `--topology` flag (preset, spec or spec-file
/// token). `Ok(None)` when the flag is absent; `Err` on a malformed token
/// or a repeated flag.
pub fn topology_from_args(args: &[String]) -> Result<Option<TopologySpec>, String> {
    match TopologySet::from_args(args)? {
        None => Ok(None),
        Some(set) if set.len() == 1 => Ok(Some(set.specs()[0])),
        Some(_) => Err("--topology given more than once".to_string()),
    }
}

/// Parses a single `--topology` override from `std::env::args` for
/// binaries that study one topology rather than racing a set; `default`
/// applies when no flag is given. Exits with status 2 on a malformed token
/// or on more than one `--topology`.
pub fn topology_override_or(default: &str) -> TopologySpec {
    let args: Vec<String> = std::env::args().collect();
    match topology_from_args(&args) {
        Ok(None) => parse_topology_token(default).expect("default topology token is valid"),
        Ok(Some(spec)) => spec,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// Runs one benchmark profile under one configuration with the named
/// steering policy. `PolicyKind::Paper` takes the exact default-processor
/// construction path, so its results are bit-identical to
/// [`run_one_shared`].
pub fn run_one_policy(
    config: Arc<ProcessorConfig>,
    profile: BenchmarkProfile,
    scale: RunScale,
    policy: PolicyKind,
) -> SimResults {
    let trace = TraceGenerator::new(profile, SEED);
    match policy {
        PolicyKind::Paper => {
            Processor::with_shared_config(config, trace).run(scale.window, scale.warmup)
        }
        PolicyKind::Spray => {
            let p = SprayPolicy::new(&config.link);
            Processor::with_policy_shared(config, trace, NullProbe, p)
                .run(scale.window, scale.warmup)
        }
        PolicyKind::Criticality => {
            let p = CriticalityPolicy::new(&config);
            Processor::with_policy_shared(config, trace, NullProbe, p)
                .run(scale.window, scale.warmup)
        }
        PolicyKind::PwFirst => {
            let p = PwFirstPolicy::new(&config);
            Processor::with_policy_shared(config, trace, NullProbe, p)
                .run(scale.window, scale.warmup)
        }
        PolicyKind::Oracle => {
            let p = OraclePolicy::new(&config);
            Processor::with_policy_shared(config, trace, NullProbe, p)
                .run(scale.window, scale.warmup)
        }
    }
}

/// Builds the processor configuration for a model on a topology with a
/// fault scenario's stuck lanes already retired from the link — the
/// optimization set is recomputed for the surviving planes, so steering
/// policies and the load balancer see the degraded fabric, not the
/// nominal one. `None` (or a spec with no stuck lanes) reproduces
/// [`ProcessorConfig::for_model_spec`] exactly.
pub fn degraded_config(
    model: &ModelSpec,
    topology: Topology,
    faults: Option<&FaultSpec>,
) -> Result<ProcessorConfig, String> {
    let mut config = ProcessorConfig::for_model_spec(model, topology);
    if let Some(spec) = faults.filter(|s| !s.stuck_lanes().is_empty()) {
        let link = spec
            .apply_to_link(&config.link)
            .map_err(|e| e.to_string())?;
        config.opts = Optimizations::for_link(&link);
        config.link = link;
    }
    Ok(config)
}

/// [`run_one_policy`] under a fault scenario: transient rates drive the
/// seeded injector inside the network, and the watchdog's stall report
/// comes back as a structured error instead of a panic (a saturated rate
/// can livelock the fabric legitimately — that is a failed row, not a
/// dead sweep). `config` must already carry the scenario's degraded link
/// (see [`degraded_config`]). With `faults` absent or transient-free the
/// run takes the exact fault-free construction path, so results are
/// bit-identical to [`run_one_policy`].
pub fn run_one_policy_faults(
    config: Arc<ProcessorConfig>,
    profile: BenchmarkProfile,
    scale: RunScale,
    policy: PolicyKind,
    faults: Option<&FaultSpec>,
) -> Result<SimResults, Box<StallReport>> {
    let trace = TraceGenerator::new(profile, SEED);
    let Some(spec) = faults.filter(|s| s.has_transient()) else {
        return Ok(run_one_policy(config, profile, scale, policy));
    };
    let inj = spec.injector();
    match policy {
        PolicyKind::Paper => {
            let p = PaperPolicy::new(&config);
            Processor::with_faults_shared(config, trace, NullProbe, p, inj)
                .try_run(scale.window, scale.warmup)
        }
        PolicyKind::Spray => {
            let p = SprayPolicy::new(&config.link);
            Processor::with_faults_shared(config, trace, NullProbe, p, inj)
                .try_run(scale.window, scale.warmup)
        }
        PolicyKind::Criticality => {
            let p = CriticalityPolicy::new(&config);
            Processor::with_faults_shared(config, trace, NullProbe, p, inj)
                .try_run(scale.window, scale.warmup)
        }
        PolicyKind::PwFirst => {
            let p = PwFirstPolicy::new(&config);
            Processor::with_faults_shared(config, trace, NullProbe, p, inj)
                .try_run(scale.window, scale.warmup)
        }
        PolicyKind::Oracle => {
            let p = OraclePolicy::new(&config);
            Processor::with_faults_shared(config, trace, NullProbe, p, inj)
                .try_run(scale.window, scale.warmup)
        }
    }
}

/// Collects every repeated `--faults <spec>` flag in CLI order. Malformed
/// tokens and exact duplicates (by canonical name) are errors; binaries
/// report them and exit 2, matching the `--model` convention.
pub fn fault_specs_from_args(args: &[String]) -> Result<Vec<FaultSpec>, String> {
    let mut specs: Vec<FaultSpec> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--faults" {
            let token = args
                .get(i + 1)
                .ok_or("--faults needs a fault spec (e.g. --faults l@2e-4)")?;
            let spec = FaultSpec::parse(token).map_err(|e| format!("--faults {token:?}: {e}"))?;
            if specs.iter().any(|s| s.name() == spec.name()) {
                return Err(format!("duplicate --faults {token:?}"));
            }
            specs.push(spec);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(specs)
}

/// Runs every (model × policy × benchmark) triple of a policy race as one
/// flattened job list on the shared executor. Returns suites indexed
/// `[model][policy]` in the given orders.
pub fn policy_sweep_runs(
    models: &ModelSet,
    policies: &[PolicyKind],
    topology: Topology,
    scale: RunScale,
    workers: usize,
) -> Vec<Vec<SuiteResults>> {
    assert!(
        !policies.is_empty(),
        "a policy race needs at least one policy"
    );
    let profiles = spec2000();
    let names: Vec<&'static str> = profiles.iter().map(|p| p.name).collect();
    let configs: Vec<Arc<ProcessorConfig>> = models
        .specs()
        .iter()
        .map(|spec| Arc::new(ProcessorConfig::for_model_spec(spec, topology)))
        .collect();
    let mut jobs: Vec<(usize, PolicyKind, BenchmarkProfile)> =
        Vec::with_capacity(configs.len() * policies.len() * profiles.len());
    for mi in 0..configs.len() {
        for &pk in policies {
            for &p in &profiles {
                jobs.push((mi, pk, p));
            }
        }
    }
    let results = executor::run_indexed(jobs, workers, |(mi, pk, profile)| {
        run_one_policy(configs[mi].clone(), profile, scale, pk)
    });
    results
        .chunks(names.len())
        .map(|runs| SuiteResults {
            names: names.clone(),
            runs: runs.to_vec(),
        })
        .collect::<Vec<_>>()
        .chunks(policies.len())
        .map(|s| s.to_vec())
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
        let reports = |params: EnergyParams| -> RelativeReport {
            let rs: Vec<_> = suite
                .runs
                .iter()
                .zip(&baseline.runs)
                .map(|(m, b)| relative_report(m, b, params))
                .collect();
            mean_report(&rs)
        };
        let at_10 = reports(EnergyParams::ten_percent());
        let at_20 = reports(EnergyParams::twenty_percent());
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
        let rel = |params: EnergyParams| {
            let rs: Vec<_> = suite
                .runs
                .iter()
                .zip(&baseline.runs)
                .map(|(m, b)| relative_report(m, b, params))
                .collect();
            mean_report(&rs).rel_ed2
        };
        out.push_str(&format!(
            "{:<12} {:>6.3} {:>6.1} {:>6.1} {:>6.1} {:>10.0} {:>9.1} {:>9.1}\n",
            pk.name(),
            suite.mean_ipc(),
            suite_class_share(suite, WireClass::B),
            suite_class_share(suite, WireClass::Pw),
            suite_class_share(suite, WireClass::L),
            suite.runs.iter().map(|r| r.net.dynamic_energy).sum::<f64>(),
            rel(EnergyParams::ten_percent()),
            rel(EnergyParams::twenty_percent()),
        ));
    }
    out
}

/// Per-benchmark results of one model over the whole suite.
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
}

/// Runs the full 23-benchmark suite under a configuration on the shared
/// work-queue executor, sized to the host's hardware threads. Runs are
/// independent and deterministic, so parallelism changes nothing but
/// wall-clock time.
pub fn run_suite(config: &ProcessorConfig, scale: RunScale) -> SuiteResults {
    run_suite_on(config, scale, executor::default_workers())
}

/// [`run_suite`] with an explicit worker count (`1` = serial).
pub fn run_suite_on(config: &ProcessorConfig, scale: RunScale, workers: usize) -> SuiteResults {
    let profiles = spec2000();
    let names: Vec<&'static str> = profiles.iter().map(|p| p.name).collect();
    let shared = Arc::new(config.clone());
    let runs = executor::run_indexed(profiles, workers, |p| {
        run_one_shared(shared.clone(), p, scale)
    });
    SuiteResults { names, runs }
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

/// Runs every (model × benchmark) pair of a model sweep as one flattened
/// job list on the shared executor, returning one [`SuiteResults`] per
/// model in set order. The first model runs exactly once; its runs double
/// as the baseline for every row.
pub fn sweep_runs_set(
    models: &ModelSet,
    topology: Topology,
    scale: RunScale,
    workers: usize,
) -> Vec<SuiteResults> {
    let profiles = spec2000();
    let names: Vec<&'static str> = profiles.iter().map(|p| p.name).collect();
    // One shared config per model; jobs carry an index into it plus a
    // by-value (`Copy`) profile — nothing is cloned per job.
    let configs: Vec<Arc<ProcessorConfig>> = models
        .specs()
        .iter()
        .map(|spec| Arc::new(ProcessorConfig::for_model_spec(spec, topology)))
        .collect();
    let jobs: Vec<(usize, BenchmarkProfile)> = (0..configs.len())
        .flat_map(|mi| profiles.iter().map(move |&p| (mi, p)))
        .collect();
    let results = executor::run_indexed(jobs, workers, |(mi, profile)| {
        run_one_shared(configs[mi].clone(), profile, scale)
    });
    results
        .chunks(names.len())
        .map(|runs| SuiteResults {
            names: names.clone(),
            runs: runs.to_vec(),
        })
        .collect()
}

/// [`sweep_runs_set`] over the paper's Models I–X.
pub fn sweep_runs(topology: Topology, scale: RunScale, workers: usize) -> Vec<SuiteResults> {
    sweep_runs_set(&ModelSet::paper(), topology, scale, workers)
}

/// Serial reference for [`sweep_runs_set`]: the seed's original shape — a
/// plain nested loop over models and benchmarks on the calling thread.
/// Kept so the determinism test can assert the parallel path is
/// bit-identical.
pub fn sweep_runs_serial_set(
    models: &ModelSet,
    topology: Topology,
    scale: RunScale,
) -> Vec<SuiteResults> {
    let profiles = spec2000();
    let names: Vec<&'static str> = profiles.iter().map(|p| p.name).collect();
    models
        .specs()
        .iter()
        .map(|spec| {
            let runs = profiles
                .iter()
                .map(|&p| run_one(ProcessorConfig::for_model_spec(spec, topology), p, scale))
                .collect();
            SuiteResults {
                names: names.clone(),
                runs,
            }
        })
        .collect()
}

/// [`sweep_runs_serial_set`] over the paper's Models I–X.
pub fn sweep_runs_serial(topology: Topology, scale: RunScale) -> Vec<SuiteResults> {
    sweep_runs_serial_set(&ModelSet::paper(), topology, scale)
}

/// Builds Table-3/4-style rows from per-model suite results; `suites[0]`
/// (the set's first model) is the baseline every row is normalised
/// against.
pub fn rows_from_runs_set(models: &ModelSet, suites: &[SuiteResults]) -> Vec<ModelRow> {
    assert_eq!(suites.len(), models.len());
    let baseline = &suites[0];
    models
        .specs()
        .iter()
        .zip(suites)
        .map(|(model, suite)| {
            let reports_10: Vec<_> = suite
                .runs
                .iter()
                .zip(&baseline.runs)
                .map(|(m, b)| relative_report(m, b, EnergyParams::ten_percent()))
                .collect();
            let reports_20: Vec<_> = suite
                .runs
                .iter()
                .zip(&baseline.runs)
                .map(|(m, b)| relative_report(m, b, EnergyParams::twenty_percent()))
                .collect();
            ModelRow {
                model: model.clone(),
                description: model.description(),
                metal_area: model.relative_metal_area(),
                at_10: mean_report(&reports_10),
                at_20: mean_report(&reports_20),
            }
        })
        .collect()
}

/// [`rows_from_runs_set`] over the paper's Models I–X (the suites must be
/// a full I–X sweep in table order).
pub fn rows_from_runs(suites: &[SuiteResults]) -> Vec<ModelRow> {
    rows_from_runs_set(&ModelSet::paper(), suites)
}

/// Regenerates a Table-3/4-style model sweep on the given topology.
/// Returns one row per model in the set, each relative to the set's first
/// model. All (model × benchmark) runs execute on one executor pool sized
/// to the host's hardware threads.
pub fn model_sweep_set(models: &ModelSet, topology: Topology, scale: RunScale) -> Vec<ModelRow> {
    rows_from_runs_set(
        models,
        &sweep_runs_set(models, topology, scale, executor::default_workers()),
    )
}

/// [`model_sweep_set`] over the paper's Models I–X.
pub fn model_sweep(topology: Topology, scale: RunScale) -> Vec<ModelRow> {
    model_sweep_set(&ModelSet::paper(), topology, scale)
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

/// Formats per-benchmark suite results as CSV (one row per benchmark).
pub fn format_suite_csv(suite: &SuiteResults) -> String {
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

/// Parses an optional `--<flag> <path>` argument pair from an argument
/// list. A flag without a following path is an error rather than a silent
/// `None` (the caller asked for an artifact and would not get one).
pub fn flag_path_from(args: &[String], flag: &str) -> Result<Option<std::path::PathBuf>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(p) => Ok(Some(std::path::PathBuf::from(p))),
            None => Err(format!("{flag} requires a path argument")),
        },
    }
}

/// [`flag_path_from`] for the original `--csv` flag (kept for callers that
/// only emit CSV).
pub fn csv_path_from(args: &[String]) -> Result<Option<std::path::PathBuf>, String> {
    flag_path_from(args, "--csv")
}

/// [`csv_path_from`] over `std::env::args`; exits with status 2 on a
/// malformed `--csv` (same convention as `sweep_timing`'s flag handling).
pub fn csv_path_from_args() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    match csv_path_from(&args) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// The machine-readable outputs a harness binary was asked for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArtifactPaths {
    /// `--csv <path>` destination, if requested.
    pub csv: Option<std::path::PathBuf>,
    /// `--json <path>` destination, if requested.
    pub json: Option<std::path::PathBuf>,
}

/// Parses the `--csv` / `--json` artifact flags shared by the harness
/// binaries.
pub fn artifact_paths_from(args: &[String]) -> Result<ArtifactPaths, String> {
    Ok(ArtifactPaths {
        csv: flag_path_from(args, "--csv")?,
        json: flag_path_from(args, "--json")?,
    })
}

/// [`artifact_paths_from`] over `std::env::args`; exits with status 2 on a
/// malformed flag.
pub fn artifact_paths_from_args() -> ArtifactPaths {
    let args: Vec<String> = std::env::args().collect();
    match artifact_paths_from(&args) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
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

/// Emits the requested `--csv` / `--json` artifacts for a model sweep.
pub fn emit_model_artifacts(rows: &[ModelRow], paths: &ArtifactPaths) {
    if let Some(path) = &paths.csv {
        write_artifact(path, &format_model_csv(rows));
    }
    if let Some(path) = &paths.json {
        write_artifact(path, &format_model_json(rows));
    }
}

/// Emits the requested `--csv` / `--json` artifacts for labelled
/// per-benchmark suites. The CSV keeps the historical shape — one
/// [`format_suite_csv`] block per suite, blank-line separated.
pub fn emit_suite_artifacts(suites: &[(&str, &SuiteResults)], paths: &ArtifactPaths) {
    if let Some(path) = &paths.csv {
        let csv = suites
            .iter()
            .map(|(_, s)| format_suite_csv(s))
            .collect::<Vec<_>>()
            .join("\n");
        write_artifact(path, &csv);
    }
    if let Some(path) = &paths.json {
        write_artifact(path, &format_suite_json(suites));
    }
}

/// Emits the requested `--csv` / `--json` artifacts for (a subset of) the
/// Table-2 wire-parameter rows.
pub fn emit_table2_artifacts(rows: &[Table2Row], paths: &ArtifactPaths) {
    if let Some(path) = &paths.csv {
        write_artifact(path, &format_table2_csv(rows));
    }
    if let Some(path) = &paths.json {
        write_artifact(path, &format_table2_json(rows));
    }
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

/// Emits the requested `--csv` / `--json` artifacts for study metrics
/// (the shared back end of the `ablation` and `sensitivity` binaries).
pub fn emit_metric_artifacts(rows: &[MetricRow], paths: &ArtifactPaths) {
    if let Some(path) = &paths.csv {
        write_artifact(path, &format_metric_csv(rows));
    }
    if let Some(path) = &paths.json {
        write_artifact(path, &format_metric_json(rows));
    }
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
    let spec = topology_override_or(default_topology);
    let models = ModelSet::from_args_or_paper();
    let names: Vec<String> = models.specs().iter().map(|s| s.name()).collect();
    eprintln!(
        "sweeping {} on {} ({} clusters) x 23 benchmarks ...",
        names.join(", "),
        spec.name(),
        spec.topology().clusters()
    );
    let rows = model_sweep_set(&models, spec.topology(), scale);
    emit_model_artifacts(&rows, &artifact_paths_from_args());
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

    #[test]
    fn csv_has_one_row_per_model_and_consistent_fields() {
        let rows = model_sweep(
            Topology::crossbar4(),
            RunScale {
                window: 1_000,
                warmup: 200,
            },
        );
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
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let suite = run_suite(
            &cfg,
            RunScale {
                window: 1_000,
                warmup: 200,
            },
        );
        let csv = format_suite_csv(&suite);
        assert_eq!(csv.lines().count(), 24, "header + 23 benchmarks");
        assert!(csv.contains("gzip,"));
        assert!(csv.contains("mcf,"));
    }

    #[test]
    fn quick_suite_runs() {
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let scale = RunScale {
            window: 2_000,
            warmup: 500,
        };
        let suite = run_suite(&cfg, scale);
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
        let rows = model_sweep(
            Topology::crossbar4(),
            RunScale {
                window: 1_000,
                warmup: 200,
            },
        );
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
        let cfg = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let suite = run_suite(
            &cfg,
            RunScale {
                window: 1_000,
                warmup: 200,
            },
        );
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
        let to_args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert_eq!(
            artifact_paths_from(&to_args(&["t"])),
            Ok(ArtifactPaths::default())
        );
        let both =
            artifact_paths_from(&to_args(&["t", "--csv", "a.csv", "--json", "a.json"])).unwrap();
        assert_eq!(both.csv, Some(std::path::PathBuf::from("a.csv")));
        assert_eq!(both.json, Some(std::path::PathBuf::from("a.json")));
        assert!(artifact_paths_from(&to_args(&["t", "--json"])).is_err());
    }

    #[test]
    fn csv_path_parsing() {
        let to_args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert_eq!(csv_path_from(&to_args(&["table3"])), Ok(None));
        assert_eq!(
            csv_path_from(&to_args(&["table3", "--csv", "out.csv"])),
            Ok(Some(std::path::PathBuf::from("out.csv")))
        );
        // `--csv` as the last argument is an error, not a silent None.
        assert!(csv_path_from(&to_args(&["table3", "--csv"])).is_err());
    }

    #[test]
    fn model_set_from_args() {
        let to_args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(ModelSet::from_args(&to_args(&["table3"]))
            .unwrap()
            .is_none());
        let set = ModelSet::from_args(&to_args(&[
            "table3",
            "--model",
            "X",
            "--model",
            "custom:b144+pw288+l36",
        ]))
        .unwrap()
        .expect("two models");
        assert_eq!(set.len(), 2);
        assert_eq!(set.specs()[0].name(), "X");
        assert_eq!(set.specs()[1].name(), "custom:b144+pw288+l36");
        // Both tokens name the same link.
        assert_eq!(set.specs()[0].link(), set.specs()[1].link());
        // Malformed flags are errors, not silent defaults.
        assert!(ModelSet::from_args(&to_args(&["t", "--model"])).is_err());
        assert!(ModelSet::from_args(&to_args(&["t", "--model", "XI"])).is_err());
        assert!(ModelSet::from_args(&to_args(&["t", "--model", "custom:l36"])).is_err());
    }

    #[test]
    fn custom_spec_sweep_matches_preset() {
        // `custom:b144` is the same machine as Model I; a two-model sweep
        // of the pair must produce identical runs.
        let set = ModelSet::new(vec![
            ModelSpec::parse("I").unwrap(),
            ModelSpec::parse("custom:b144").unwrap(),
        ])
        .unwrap();
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let suites = sweep_runs_set(&set, Topology::crossbar4(), scale, 4);
        assert_eq!(suites.len(), 2);
        assert_eq!(suites[0].runs, suites[1].runs, "bit-identical results");
        let rows = rows_from_runs_set(&set, &suites);
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
        let to_args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(topology_from_args(&to_args(&["policy_ab"]))
            .unwrap()
            .is_none());
        // Presets and their equivalent compact specs resolve identically.
        let resolve = |token: &str| {
            topology_from_args(&to_args(&["t", "--topology", token]))
                .unwrap()
                .expect("flag present")
        };
        assert_eq!(resolve("hier16").topology(), Topology::hier16());
        assert_eq!(resolve("crossbar4").topology(), Topology::crossbar4());
        assert_eq!(resolve("ring:4x4").topology(), Topology::hier16());
        assert_eq!(resolve("xbar:8").topology().clusters(), 8);
        // The preset form keeps its preset identity; the spec form does not.
        assert_eq!(resolve("hier16").name(), "hier16");
        assert_eq!(resolve("ring:4x4").name(), "ring:4x4");
        // Malformed tokens fail loudly with the shared parser's message.
        assert!(topology_from_args(&to_args(&["t", "--topology", "mesh"]))
            .unwrap_err()
            .contains("unknown topology"));
        assert!(
            topology_from_args(&to_args(&["t", "--topology", "ring:2x4"]))
                .unwrap_err()
                .contains("quads")
        );
        assert!(topology_from_args(&to_args(&["t", "--topology"])).is_err());
        assert!(topology_from_args(&to_args(&[
            "t",
            "--topology",
            "hier16",
            "--topology",
            "hier16"
        ]))
        .is_err());
    }

    #[test]
    fn topology_set_collects_repeated_flags() {
        let to_args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(TopologySet::from_args(&to_args(&["t"])).unwrap().is_none());
        let set = TopologySet::from_args(&to_args(&[
            "t",
            "--topology",
            "crossbar4",
            "--topology",
            "ring:6x2",
        ]))
        .unwrap()
        .expect("two topologies");
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.specs()[0].name(), "crossbar4");
        assert_eq!(set.specs()[1].name(), "ring:6x2");
        assert_eq!(set.specs()[1].topology().clusters(), 12);
        assert!(TopologySet::new(Vec::new()).is_err());
        // Shapes past the processor's old inline capacity now parse (the
        // per-value structures spill); the simulator-wide cap still
        // refuses at parse time, not by a panic mid-sweep, with the
        // shared checker's message (cap + offending count).
        let wide = TopologySet::from_args(&to_args(&["t", "--topology", "ring:6x4"]))
            .unwrap()
            .expect("one topology");
        assert_eq!(wide.specs()[0].topology().clusters(), 24);
        let err = TopologySet::from_args(&to_args(&["t", "--topology", "xbar:65"])).unwrap_err();
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
        let to_args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert!(policies_from_args(&to_args(&["policy_ab"]))
            .unwrap()
            .is_none());
        let got = policies_from_args(&to_args(&["t", "--policy", "paper,oracle"]))
            .unwrap()
            .expect("two policies");
        assert_eq!(got, vec![PolicyKind::Paper, PolicyKind::Oracle]);
        // Repeated flags accumulate.
        let got = policies_from_args(&to_args(&["t", "--policy", "spray", "--policy", "pwfirst"]))
            .unwrap()
            .unwrap();
        assert_eq!(got, vec![PolicyKind::Spray, PolicyKind::PwFirst]);
        // Malformed forms are errors, not silent defaults.
        assert!(policies_from_args(&to_args(&["t", "--policy"])).is_err());
        assert!(policies_from_args(&to_args(&["t", "--policy", "greedy"])).is_err());
        assert!(policies_from_args(&to_args(&["t", "--policy", "paper,paper"])).is_err());
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
    }

    #[test]
    fn policy_race_rows_cover_the_grid() {
        let models = ModelSet::new(vec![ModelSpec::parse("X").unwrap()]).unwrap();
        let policies = [PolicyKind::Paper, PolicyKind::Oracle];
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let suites = policy_sweep_runs(&models, &policies, Topology::crossbar4(), scale, 4);
        assert_eq!(suites.len(), 1);
        assert_eq!(suites[0].len(), 2);
        assert_eq!(suites[0][0].runs.len(), 23);
        // The paper lane is the exact default path.
        let direct = run_suite_on(
            &ProcessorConfig::for_model_spec(&models.specs()[0], Topology::crossbar4()),
            scale,
            4,
        );
        assert_eq!(suites[0][0].runs, direct.runs, "bit-identical paper row");
        let rows = policy_metric_rows(&models.specs()[0], &policies, &suites[0]);
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
        let table = format_policy_table(&models.specs()[0], &policies, &suites[0]);
        assert!(table.contains("paper") && table.contains("oracle"));
    }

    #[test]
    fn suite_executor_matches_serial() {
        let cfg = ProcessorConfig::for_model(InterconnectModel::IV, Topology::crossbar4());
        let scale = RunScale {
            window: 800,
            warmup: 200,
        };
        let serial = run_suite_on(&cfg, scale, 1);
        let parallel = run_suite_on(&cfg, scale, 4);
        assert_eq!(serial.names, parallel.names);
        assert_eq!(serial.runs, parallel.runs, "bit-identical results");
    }
}
