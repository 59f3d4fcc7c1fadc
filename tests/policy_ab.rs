//! Contract tests for the steering-policy contenders and the `policy_ab`
//! A/B harness:
//!
//! * each new policy is deterministic and kernel-agnostic — the
//!   event-driven kernel matches the cycle-driven reference bit for bit,
//!   and two identical runs agree, on both topologies;
//! * the harness's `paper` lane is the exact default-processor path, so
//!   its rows are bit-identical to the existing Model-X baseline sweep;
//! * every [`PolicyKind`] runs its own policy: with and without injected
//!   faults, a harness cell equals a processor built directly with that
//!   kind's policy;
//! * the oracle's grid IPC bounds the paper policy from above (it cheats;
//!   losing to a realizable policy would mean the bound is broken).

use heterowire_bench::{completed, sweep, Cell, PolicyKind, RunScale, SEED};
use heterowire_core::{
    CriticalityPolicy, FaultSpec, InterconnectModel, ModelSpec, NullFaultModel, NullProbe,
    OraclePolicy, PaperPolicy, Processor, ProcessorConfig, PwFirstPolicy, SimResults, SprayPolicy,
};
use heterowire_interconnect::Topology;
use heterowire_trace::{spec2000, BenchmarkProfile, TraceGenerator};
use std::sync::Arc;

/// A debug-build-friendly scale: big enough to exercise replays, splits
/// and balancer overflows, small enough to run 3 policies x 2 kernels x 2
/// topologies without dominating the suite.
fn small() -> RunScale {
    RunScale {
        window: 2_000,
        warmup: 500,
    }
}

fn run_policy_both_kernels(
    policy: PolicyKind,
    topology: Topology,
    profile: BenchmarkProfile,
    scale: RunScale,
) -> (SimResults, SimResults) {
    let cfg = Arc::new(ProcessorConfig::for_model(InterconnectModel::X, topology));
    let trace = || TraceGenerator::new(profile, SEED);
    macro_rules! both {
        ($ctor:expr) => {{
            let event = Processor::with_policy_shared(cfg.clone(), trace(), NullProbe, $ctor)
                .run(scale.window, scale.warmup);
            let reference = Processor::with_policy_shared(cfg.clone(), trace(), NullProbe, $ctor)
                .run_reference(scale.window, scale.warmup);
            (event, reference)
        }};
    }
    match policy {
        PolicyKind::Criticality => both!(CriticalityPolicy::new(&cfg)),
        PolicyKind::PwFirst => both!(PwFirstPolicy::new(&cfg)),
        PolicyKind::Oracle => both!(OraclePolicy::new(&cfg)),
        _ => unreachable!("only the new contenders need the identity sweep"),
    }
}

#[test]
fn new_policies_are_kernel_agnostic_and_deterministic() {
    let profiles = spec2000();
    let contenders = [
        PolicyKind::Criticality,
        PolicyKind::PwFirst,
        PolicyKind::Oracle,
    ];
    for (i, &policy) in contenders.iter().enumerate() {
        for (j, topology) in [Topology::crossbar4(), Topology::hier16()]
            .into_iter()
            .enumerate()
        {
            // Rotate benchmarks so the contenders see varied traffic.
            let profile = profiles[(i * 7 + j * 11) % profiles.len()];
            let (event, reference) = run_policy_both_kernels(policy, topology, profile, small());
            assert_eq!(
                event,
                reference,
                "{} kernels diverge on {topology:?} ({})",
                policy.name(),
                profile.name
            );
            let (again, _) = run_policy_both_kernels(policy, topology, profile, small());
            assert_eq!(
                event,
                again,
                "{} is not run-to-run deterministic on {topology:?} ({})",
                policy.name(),
                profile.name
            );
        }
    }
}

#[test]
fn harness_paper_row_is_bit_identical_to_the_model_x_baseline() {
    let scale = RunScale::quick();
    let model = ModelSpec::parse("X").unwrap();
    let cells: Vec<Cell> = [PolicyKind::Paper, PolicyKind::Oracle]
        .into_iter()
        .map(|pk| Cell::new(&model, Topology::crossbar4(), pk, None).unwrap())
        .collect();
    let suites = completed(sweep(&cells, scale, 4));
    let config = ProcessorConfig::for_model(InterconnectModel::X, Topology::crossbar4());
    let baseline: Vec<SimResults> = spec2000()
        .into_iter()
        .map(|p| {
            Processor::new(config.clone(), TraceGenerator::new(p, SEED))
                .run(scale.window, scale.warmup)
        })
        .collect();
    assert_eq!(
        suites[0].runs, baseline,
        "the harness's paper lane must be the exact default-processor path"
    );

    // The oracle cheats (actual widths, known consumer distance, no
    // replays); the realizable paper policy must not beat it on the grid.
    let paper_ipc = suites[0].mean_ipc();
    let oracle_ipc = suites[1].mean_ipc();
    assert!(
        oracle_ipc >= paper_ipc,
        "oracle IPC {oracle_ipc} fell below paper IPC {paper_ipc}"
    );
}

/// Builds `kind`'s policy by hand — the mapping under test, written out
/// independently of the harness — and runs it through
/// `Processor::with_faults_shared`.
fn direct_run(
    kind: PolicyKind,
    cfg: &Arc<ProcessorConfig>,
    faults: Option<&FaultSpec>,
    profile: BenchmarkProfile,
    scale: RunScale,
) -> SimResults {
    macro_rules! run {
        ($policy:expr) => {{
            let trace = TraceGenerator::new(profile, SEED);
            let (window, warmup) = (scale.window, scale.warmup);
            match faults {
                None => Processor::with_faults_shared(
                    cfg.clone(),
                    trace,
                    NullProbe,
                    $policy,
                    NullFaultModel,
                )
                .run(window, warmup),
                Some(spec) => Processor::with_faults_shared(
                    cfg.clone(),
                    trace,
                    NullProbe,
                    $policy,
                    spec.injector(),
                )
                .run(window, warmup),
            }
        }};
    }
    match kind {
        PolicyKind::Paper => run!(PaperPolicy::new(cfg)),
        PolicyKind::Spray => run!(SprayPolicy::new(&cfg.link)),
        PolicyKind::Criticality => run!(CriticalityPolicy::new(cfg)),
        PolicyKind::PwFirst => run!(PwFirstPolicy::new(cfg)),
        PolicyKind::Oracle => run!(OraclePolicy::new(cfg)),
    }
}

#[test]
fn every_policy_kind_runs_its_own_policy() {
    let model = ModelSpec::parse("X").unwrap();
    let topology = Topology::crossbar4();
    let cfg = Arc::new(ProcessorConfig::for_model_spec(&model, topology));
    let profile = spec2000()[3];
    let transient = FaultSpec::parse("l@1e-3+b@1e-4+seed:7").unwrap();
    for faults in [None, Some(&transient)] {
        let direct: Vec<SimResults> = PolicyKind::ALL
            .iter()
            .map(|&pk| direct_run(pk, &cfg, faults, profile, small()))
            .collect();
        for (&pk, want) in PolicyKind::ALL.iter().zip(&direct) {
            let cell = Cell::new(&model, topology, pk, faults).unwrap();
            let got = cell.run(profile, small()).expect("no stall");
            assert_eq!(got, *want, "{} with faults {faults:?}", pk.name());
        }
        // The check has teeth only if no two policies coincide here:
        // otherwise swapping their arms would go unnoticed.
        for i in 0..direct.len() {
            for j in i + 1..direct.len() {
                assert_ne!(
                    direct[i],
                    direct[j],
                    "{} and {} are indistinguishable on {}",
                    PolicyKind::ALL[i].name(),
                    PolicyKind::ALL[j].name(),
                    profile.name
                );
            }
        }
        if faults.is_some() {
            assert!(
                direct.iter().all(|r| r.net.faults_detected > 0),
                "the transient scenario never fired"
            );
        }
    }
}
