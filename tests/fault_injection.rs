//! Contract tests for the wire-fault injection and recovery subsystem:
//!
//! * a seeded [`FaultSpec`] is bit-reproducible — two runs with the same
//!   spec give identical `SimResults` AND identical fault-event probe
//!   sequences, on the 4-cluster crossbar and a generated 16-cluster ring;
//! * a zero-rate injector (faults *armed* but never firing) is
//!   bit-identical to the fault-free baseline, so the enabled fault path
//!   is behaviour-neutral until a fault actually fires;
//! * permanently stuck lanes retire capacity from the live link and the
//!   policies steer against what survives; retiring the last full-width
//!   plane is refused up front;
//! * a guaranteed retry storm (B-only link, B error rate 1.0) trips the
//!   forward-progress watchdog, which returns a structured [`StallReport`]
//!   through `try_run` and mirrors it through the telemetry probe;
//! * the `fault_sweep` binary exits 2 on malformed fault grammar.

use heterowire_bench::{Cell, PolicyKind, RunScale, SEED};
use heterowire_core::{
    FaultSpec, InterconnectModel, ModelSpec, NullProbe, PaperPolicy, Probe, Processor,
    ProcessorConfig, SimResults, StallReport,
};
use heterowire_interconnect::{Topology, TopologySpec};
use heterowire_trace::{by_name, TraceGenerator};
use heterowire_wires::WireClass;
use std::sync::Arc;

/// Records every fault-protocol probe event with its full payload, plus
/// any watchdog stall report.
#[derive(Debug, Default, Clone, PartialEq)]
struct FaultProbe {
    /// `(cycle, id, class, attempt, is_retransmit)` in emission order.
    events: Vec<(u64, u64, WireClass, u32, bool)>,
    stalls: Vec<String>,
}

impl Probe for FaultProbe {
    fn fault_detected(&mut self, cycle: u64, id: u64, class: WireClass, attempt: u32) {
        self.events.push((cycle, id, class, attempt, false));
    }

    fn retransmit(&mut self, cycle: u64, id: u64, class: WireClass, attempt: u32) {
        self.events.push((cycle, id, class, attempt, true));
    }

    fn stall(&mut self, report: &StallReport) {
        self.stalls.push(report.to_string());
    }
}

fn fault_run(topology: Topology, spec: &str, bench: &str) -> (SimResults, FaultProbe) {
    let cfg = Arc::new(ProcessorConfig::for_model(InterconnectModel::X, topology));
    let trace = TraceGenerator::new(by_name(bench).expect("benchmark"), SEED);
    let inj = FaultSpec::parse(spec).expect("valid spec").injector();
    let policy = PaperPolicy::new(&cfg);
    let mut p = Processor::with_faults_shared(cfg, trace, FaultProbe::default(), policy, inj);
    // Zero warmup: probe events span the whole run, so the warmup-window
    // subtraction would break the probe-count == stats-count asserts.
    let r = p.run(4_000, 0);
    (r, p.probe().clone())
}

#[test]
fn seeded_fault_runs_are_bit_reproducible() {
    // Same spec + same seed, twice: SimResults (a Copy/PartialEq struct,
    // so f64s compare exactly) and the full fault-event sequence must be
    // identical. The ring exercises multi-hop corruption probabilities.
    for (topology, bench) in [
        (Topology::crossbar4(), "gzip"),
        (
            TopologySpec::parse("ring:4x4")
                .expect("valid shape")
                .topology(),
            "swim",
        ),
    ] {
        let spec = "l@2e-3+pw@2e-4+seed:1234";
        let (r1, p1) = fault_run(topology, spec, bench);
        let (r2, p2) = fault_run(topology, spec, bench);
        assert_eq!(r1, r2, "{topology:?}: SimResults diverged between runs");
        assert_eq!(
            p1.events, p2.events,
            "{topology:?}: fault-event sequences diverged"
        );
        assert!(
            r1.net.faults_detected > 0,
            "{topology:?}: the rate never fired — nothing was proved"
        );
        assert_eq!(
            p1.events.iter().filter(|e| !e.4).count() as u64,
            r1.net.faults_detected,
            "every detection must emit exactly one probe event"
        );
        assert_eq!(
            p1.events.iter().filter(|e| e.4).count() as u64,
            r1.net.retransmits,
            "every retransmission must emit exactly one probe event"
        );

        // A different fault seed must actually perturb the run.
        let (r3, _) = fault_run(topology, "l@2e-3+pw@2e-4+seed:1235", bench);
        assert_ne!(
            r1.net.faults_detected, r3.net.faults_detected,
            "{topology:?}: different fault seeds drew identical corruption"
        );
    }
}

#[test]
fn zero_rate_injector_matches_the_fault_free_baseline() {
    // `l@0` arms the whole fault path (InjectedFaults monomorphization,
    // per-delivery corruption checks, dseq-sorted drains) without ever
    // corrupting: results must be bit-identical to the default
    // NullFaultModel processor, retry counters all zero.
    let cfg = Arc::new(ProcessorConfig::for_model(
        InterconnectModel::X,
        Topology::crossbar4(),
    ));
    let trace = || TraceGenerator::new(by_name("gcc").expect("benchmark"), SEED);
    let baseline =
        Processor::with_policy_shared(cfg.clone(), trace(), NullProbe, PaperPolicy::new(&cfg))
            .run(4_000, 800);
    let inj = FaultSpec::parse("l@0+seed:9")
        .expect("valid spec")
        .injector();
    let armed =
        Processor::with_faults_shared(cfg.clone(), trace(), NullProbe, PaperPolicy::new(&cfg), inj)
            .run(4_000, 800);
    assert_eq!(baseline, armed, "an idle injector changed the simulation");
    assert_eq!(armed.net.faults_detected, 0);
    assert_eq!(armed.net.retransmits, 0);
    assert_eq!(armed.net.escalations, 0);
    assert_eq!(armed.net.retry_cycles, 0);
}

#[test]
fn try_run_matches_run_when_no_stall_occurs() {
    let cfg = Arc::new(ProcessorConfig::for_model(
        InterconnectModel::X,
        Topology::crossbar4(),
    ));
    let trace = || TraceGenerator::new(by_name("gap").expect("benchmark"), SEED);
    let ran =
        Processor::with_policy_shared(cfg.clone(), trace(), NullProbe, PaperPolicy::new(&cfg))
            .run(2_000, 400);
    let tried =
        Processor::with_policy_shared(cfg.clone(), trace(), NullProbe, PaperPolicy::new(&cfg))
            .try_run(2_000, 400)
            .expect("no stall in a healthy run");
    assert_eq!(ran, tried);
}

#[test]
fn retry_storm_trips_the_watchdog_with_a_structured_report() {
    // Model I has only B-Wires, and `b@1` corrupts every B transfer on
    // every attempt; escalation targets B, so the first operand transfer
    // retries forever and commit stops. The watchdog must surface a
    // structured report (not a bare panic string) through try_run and the
    // probe, with the retry storm visible in its counters.
    let cfg = Arc::new(ProcessorConfig::for_model(
        InterconnectModel::I,
        Topology::crossbar4(),
    ));
    let trace = TraceGenerator::new(by_name("gzip").expect("benchmark"), SEED);
    let inj = FaultSpec::parse("b@1+seed:5")
        .expect("valid spec")
        .injector();
    let policy = PaperPolicy::new(&cfg);
    let mut p = Processor::with_faults_shared(cfg, trace, FaultProbe::default(), policy, inj);
    let report = p
        .try_run(2_000, 400)
        .expect_err("a total B corruption rate cannot make progress");

    assert!(report.cycle > 0);
    assert!(
        report.retransmits > 0,
        "the stall was not a retry storm: {report}"
    );
    assert_eq!(
        report.escalations, 0,
        "a B-only link has no plane to escalate to"
    );
    assert!(report.faults_detected >= report.retransmits);
    let oldest = report
        .oldest_blocked
        .expect("a retry storm leaves a transfer at the arbitration head");
    assert_eq!(oldest.class, WireClass::B);
    assert!(oldest.attempt > 0, "the blocked transfer never retried");
    assert!(report.link.contains("B-Wires"), "link was {}", report.link);
    let text = report.to_string();
    assert!(
        text.contains("pipeline deadlock at cycle"),
        "Display lost the historical prefix: {text}"
    );

    // The probe saw the same report, once, before the abort.
    assert_eq!(p.probe().stalls.len(), 1);
    assert_eq!(p.probe().stalls[0], text);
}

#[test]
fn stuck_lanes_retire_capacity_and_policies_steer_around_them() {
    let model = ModelSpec::parse("X").expect("model X");
    let topology = Topology::crossbar4();
    let scale = RunScale {
        window: 2_000,
        warmup: 400,
    };

    // Retiring both L lanes removes the L plane: the run still completes,
    // with every would-be L transfer carried by the surviving planes.
    let spec = FaultSpec::parse("lane:L0@stuck+lane:L1@stuck").expect("valid spec");
    let degraded = Cell::new(&model, topology, PolicyKind::Paper, Some(&spec))
        .expect("a B+PW link is still legal");
    assert_eq!(degraded.config().link.lanes(WireClass::L), 0);
    assert_eq!(degraded.config().link.lanes(WireClass::B), 2);
    let healthy = Cell::new(&model, topology, PolicyKind::Paper, None).expect("baseline");
    let profile = by_name("gzip").expect("benchmark");
    let degraded_run = degraded
        .run(profile, scale)
        .expect("a degraded link must still make progress");
    let healthy_run = healthy.run(profile, scale).expect("baseline run");
    let l = WireClass::L as usize;
    assert_eq!(
        degraded_run.net.transfers[l], 0,
        "transfers rode a retired plane"
    );
    assert!(
        healthy_run.net.transfers[l] > 0,
        "the healthy link never used L — the comparison is vacuous"
    );
    assert!(degraded_run.instructions > 0 && degraded_run.cycles > 0);

    // Retiring every full-width lane leaves register values no legal
    // plane: refused up front, not deadlocked at runtime.
    let model_i = ModelSpec::parse("I").expect("model I");
    let fatal = FaultSpec::parse("lane:B0@stuck+lane:B1@stuck").expect("valid spec");
    let err = Cell::new(&model_i, topology, PolicyKind::Paper, Some(&fatal))
        .expect_err("a link with no full-width plane must be refused");
    assert!(
        err.contains("full-width") || err.contains("no legal plane"),
        "unhelpful refusal message: {err}"
    );
}

#[test]
fn fault_sweep_rejects_malformed_grammar_with_exit_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
        .args(["--faults", "l@two-in-ten-thousand"])
        .output()
        .expect("spawn fault_sweep");
    assert_eq!(out.status.code(), Some(2), "malformed spec must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("l@two-in-ten-thousand"),
        "diagnostic must name the bad token: {stderr}"
    );

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
        .args(["--faults", "lane:L9@stuck"])
        .output()
        .expect("spawn fault_sweep");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an out-of-range lane must be refused up front"
    );
}

#[test]
fn unknown_run_scale_exits_2_naming_the_value() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
        .env("HETEROWIRE_SCALE", "bogus")
        .output()
        .expect("spawn fault_sweep");
    assert_eq!(out.status.code(), Some(2), "a bad scale must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("\"bogus\"") && stderr.contains("expected \"quick\" or \"full\""),
        "diagnostic must name the value and the choices: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}
