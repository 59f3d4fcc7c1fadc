//! The event-driven kernel (completion wheel, wakeup-driven issue,
//! idle-cycle skipping) must be **bit-identical** to the seed's
//! cycle-driven reference loop: same cycle counts, same network statistics
//! down to the last bit-hop and queue cycle, same predictor and LSQ rates.
//!
//! Every interconnect model runs on both the 4-cluster crossbar and the
//! 16-cluster crossbar-of-rings at quick scale; benchmarks rotate across
//! models so the suite's workload variety (FP-heavy, memory-bound,
//! branchy) is covered without running the full 230-run sweep twice in a
//! debug build.

use heterowire_bench::{RunScale, SEED};
use heterowire_core::{
    FaultSpec, InterconnectModel, NullProbe, PaperPolicy, Processor, ProcessorConfig,
    RecordingConfig, RecordingProbe,
};
use heterowire_interconnect::Topology;
use heterowire_trace::{by_name, spec2000, TraceGenerator};

fn assert_kernels_match(topology: Topology, scale: RunScale) {
    let profiles = spec2000();
    for (i, &model) in InterconnectModel::ALL.iter().enumerate() {
        let profile = profiles[(i * 7) % profiles.len()];
        let cfg = ProcessorConfig::for_model(model, topology);
        let event = Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED))
            .run(scale.window, scale.warmup);
        let reference = Processor::new(cfg, TraceGenerator::new(profile, SEED))
            .run_reference(scale.window, scale.warmup);
        assert_eq!(
            event, reference,
            "kernels diverge for model {:?} on {topology:?} ({})",
            model, profile.name
        );
    }
}

#[test]
fn event_kernel_matches_reference_on_crossbar4() {
    assert_kernels_match(Topology::crossbar4(), RunScale::quick());
}

#[test]
fn event_kernel_matches_reference_on_hier16_ring() {
    assert_kernels_match(Topology::hier16(), RunScale::quick());
}

/// The widened (spill-path) per-value structures must not change the
/// kernels' agreement: past the 16-cluster inline capacity, every model
/// still runs bit-identically on both kernels. `ring:16x4` is the
/// 64-cluster headline shape, exercising the full `ClusterMask` width and
/// the longest inline routes.
#[test]
fn event_kernel_matches_reference_on_wide_ring16x4() {
    assert_kernels_match(Topology::hier_ring(16, 4), RunScale::quick());
}

/// Narrow partial addresses make partial conflicts frequent, and a load
/// in partial conflict is woken by nothing but a store retirement. With
/// 2 and 4 LS bits on both paper shapes, the event kernel's wake rule
/// must still match the reference kernel, which polls every waiting load
/// every cycle.
#[test]
fn event_kernel_matches_reference_with_narrow_ls_bits() {
    let scale = RunScale::quick();
    for topology in [Topology::crossbar4(), Topology::hier16()] {
        for ls_bits in [2, 4] {
            for bench in ["gcc", "mcf"] {
                let mut cfg = ProcessorConfig::for_model(InterconnectModel::X, topology);
                cfg.ls_bits = ls_bits;
                let trace = || TraceGenerator::new(by_name(bench).expect("benchmark"), SEED);
                let event = Processor::new(cfg.clone(), trace()).run(scale.window, scale.warmup);
                let reference =
                    Processor::new(cfg, trace()).run_reference(scale.window, scale.warmup);
                assert_eq!(
                    event, reference,
                    "kernels diverge at {ls_bits} LS bits on {topology:?} ({bench})"
                );
                assert!(
                    event.lsq.partial_matches > 0,
                    "{ls_bits} LS bits on {topology:?} ({bench}): no partial conflict"
                );
            }
        }
    }
}

/// Transient faults retransmit corrupted transfers, so address arrivals
/// reach the LSQ out of order (a full address before its partial bits,
/// a younger store's before an older one's). Model X under
/// `l@1e-3+b@1e-5` on hier16 must still run identically on both kernels.
#[test]
fn event_kernel_matches_reference_under_faults() {
    let scale = RunScale::quick();
    let cfg = ProcessorConfig::for_model(InterconnectModel::X, Topology::hier16());
    for bench in ["gcc", "swim", "vortex"] {
        let run = |reference: bool| {
            let trace = TraceGenerator::new(by_name(bench).expect("benchmark"), SEED);
            let faults = FaultSpec::parse("l@1e-3+b@1e-5+seed:7")
                .expect("valid spec")
                .injector();
            let mut p = Processor::with_faults(
                cfg.clone(),
                trace,
                NullProbe,
                PaperPolicy::new(&cfg),
                faults,
            );
            if reference {
                p.run_reference(scale.window, scale.warmup)
            } else {
                p.run(scale.window, scale.warmup)
            }
        };
        let event = run(false);
        assert_eq!(event, run(true), "kernels diverge under faults ({bench})");
        assert!(event.net.retransmits > 0, "{bench}: no fault fired");
    }
}

/// Recording must be pure observation: a run with a live [`RecordingProbe`]
/// produces `SimResults` bit-identical to the probe-disabled run.
#[test]
fn recording_probe_does_not_perturb_results() {
    let scale = RunScale::quick();
    let profiles = spec2000();
    for (i, topology) in [Topology::crossbar4(), Topology::hier16()]
        .into_iter()
        .enumerate()
    {
        // Model X exercises all three wire planes, so every probe site
        // (L-Wire steering, PW criteria, overflow balancing) fires.
        let profile = profiles[(i * 11) % profiles.len()];
        let cfg = ProcessorConfig::for_model(InterconnectModel::X, topology);
        let disabled = Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED))
            .run(scale.window, scale.warmup);
        let labels = Processor::new(cfg.clone(), TraceGenerator::new(profile, SEED))
            .network()
            .link_labels();
        let probe = RecordingProbe::new(RecordingConfig::new(64, labels, topology.clusters()));
        let mut recorded = Processor::with_probe(cfg, TraceGenerator::new(profile, SEED), probe);
        let results = recorded.run(scale.window, scale.warmup);
        assert_eq!(
            results, disabled,
            "RecordingProbe perturbed the simulation on {topology:?} ({})",
            profile.name
        );
        recorded.probe_mut().finish();
        assert!(
            recorded.probe().counts.commits > 0,
            "the probe actually recorded something"
        );
    }
}
