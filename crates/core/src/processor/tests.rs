//! Processor-level tests: aggregate behaviour, the paper-discussed
//! extensions, individual wire-management mechanisms, and transfer-policy
//! A/B swaps.

use super::*;
use crate::config::{Extensions, InterconnectModel};
use heterowire_trace::profile;

fn run_model(model: InterconnectModel, bench: &str, n: u64) -> SimResults {
    let config = ProcessorConfig::for_model(model, Topology::crossbar4());
    let trace = TraceGenerator::new(profile::by_name(bench).unwrap(), 99);
    Processor::simulate(config, trace, n, n / 10)
}

#[test]
fn baseline_ipc_is_plausible() {
    let r = run_model(InterconnectModel::I, "gzip", 20_000);
    let ipc = r.ipc();
    assert!((0.3..=6.0).contains(&ipc), "gzip IPC {ipc}");
    assert!(r.instructions == 20_000);
}

#[test]
fn simulation_is_deterministic() {
    let a = run_model(InterconnectModel::VII, "vpr", 10_000);
    let b = run_model(InterconnectModel::VII, "vpr", 10_000);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.net.transfers, b.net.transfers);
}

#[test]
fn reweighting_mid_run_keeps_the_occupancy() {
    // Mid-run the issue queues and register files are occupied; setting
    // the weights already in force must regroup that occupancy, not
    // forget it, so the second leg runs exactly as without the call.
    let run = |reweight: bool| {
        let config = ProcessorConfig::for_model(InterconnectModel::X, Topology::hier16());
        let trace = TraceGenerator::new(profile::by_name("art").unwrap(), 5);
        let mut p = Processor::new(config, trace);
        p.run(3_000, 0);
        if reweight {
            p.set_steering_weights(SteeringWeights::default());
        }
        p.run(6_000, 0)
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn l_wires_do_not_hurt_performance() {
    // Model VII = Model I's B-wires + an L plane with all three L
    // optimizations; across a few benchmarks the mean IPC must not drop.
    let mut base = 0.0;
    let mut lwire = 0.0;
    for b in ["gzip", "mcf", "swim"] {
        base += run_model(InterconnectModel::I, b, 10_000).ipc();
        lwire += run_model(InterconnectModel::VII, b, 10_000).ipc();
    }
    assert!(
        lwire >= base * 0.99,
        "L-wires should help: base {base}, with L {lwire}"
    );
}

#[test]
fn pw_only_interconnect_is_slower() {
    let base = run_model(InterconnectModel::I, "gcc", 10_000).ipc();
    let pw = run_model(InterconnectModel::II, "gcc", 10_000).ipc();
    assert!(pw <= base, "PW-only must not beat B-wires: {pw} vs {base}");
}

#[test]
fn doubled_latency_degrades_performance() {
    let mut fast = ProcessorConfig::baseline4();
    let mut slow = ProcessorConfig::baseline4();
    slow.latency_scale = 2.0;
    let trace = || TraceGenerator::new(profile::by_name("vortex").unwrap(), 7);
    let f = Processor::simulate(fast.clone(), trace(), 10_000, 1_000);
    let s = Processor::simulate(slow.clone(), trace(), 10_000, 1_000);
    assert!(
        s.ipc() < f.ipc(),
        "doubling wire latency must cost IPC: {} vs {}",
        s.ipc(),
        f.ipc()
    );
    // keep clippy quiet about mut
    fast.latency_scale = 1.0;
}

#[test]
fn traffic_flows_on_the_network() {
    let r = run_model(InterconnectModel::I, "gzip", 10_000);
    assert!(r.net.total_transfers() > 1_000, "{:?}", r.net.transfers);
    let tpi = r.transfers_per_inst();
    assert!((0.1..=3.0).contains(&tpi), "transfers/inst {tpi}");
}

#[test]
fn model_x_uses_all_three_planes() {
    let r = run_model(InterconnectModel::X, "gcc", 10_000);
    for (i, class) in WireClass::ALL.iter().enumerate() {
        if *class == WireClass::W {
            continue;
        }
        assert!(
            r.net.transfers[i] > 0,
            "{class} plane unused: {:?}",
            r.net.transfers
        );
    }
}

#[test]
fn hier16_runs_and_exceeds_4cluster_ilp_on_fp() {
    let c4 = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
    let c16 = ProcessorConfig::for_model(InterconnectModel::I, Topology::hier16());
    let t = || TraceGenerator::new(profile::by_name("swim").unwrap(), 5);
    let r4 = Processor::simulate(c4, t(), 10_000, 1_000);
    let r16 = Processor::simulate(c16, t(), 10_000, 1_000);
    assert!(r16.ipc() > 0.0);
    // 16 clusters offer more FUs/registers; high-ILP FP codes gain.
    assert!(
        r16.ipc() > r4.ipc() * 0.9,
        "16-cluster should be competitive: {} vs {}",
        r16.ipc(),
        r4.ipc()
    );
}

#[test]
fn false_dependence_rate_is_low_with_8_ls_bits() {
    let r = run_model(InterconnectModel::VII, "gcc", 20_000);
    let rate = r.lsq.false_dependence_rate();
    assert!(rate < 0.09, "paper: <9% false deps, got {rate}");
}

mod extension_tests {
    use super::*;

    fn run_ext(ext: Extensions, latency_scale: f64, bench: &str) -> SimResults {
        let mut config = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
        config.extensions = ext;
        config.latency_scale = latency_scale;
        let trace = TraceGenerator::new(profile::by_name(bench).unwrap(), 31);
        Processor::simulate(config, trace, 10_000, 3_000)
    }

    #[test]
    fn critical_word_first_helps_memory_bound_code() {
        let base = run_ext(Extensions::default(), 1.0, "mcf");
        let cwf = run_ext(
            Extensions {
                l2_critical_word: true,
                ..Extensions::default()
            },
            1.0,
            "mcf",
        );
        assert!(
            cwf.ipc() >= base.ipc(),
            "CWF should not hurt: {} vs {}",
            cwf.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn frequent_value_compaction_moves_traffic_to_l_wires() {
        let base = run_ext(Extensions::default(), 1.0, "gcc");
        let fvc = run_ext(
            Extensions {
                frequent_value: true,
                ..Extensions::default()
            },
            1.0,
            "gcc",
        );
        let l = WireClass::ALL
            .iter()
            .position(|&c| c == WireClass::L)
            .unwrap();
        assert!(
            fvc.net.transfers[l] >= base.net.transfers[l],
            "FVC should add L traffic: {:?} vs {:?}",
            fvc.net.transfers,
            base.net.transfers
        );
        assert!(fvc.ipc() >= base.ipc() * 0.99);
    }

    #[test]
    fn transmission_lines_resist_latency_scaling() {
        // At 2x wire-constrained latency, TL L-wires keep their 1-cycle
        // crossbar latency, so the TL machine must be at least as fast.
        let rc = run_ext(Extensions::default(), 2.0, "gzip");
        let tl = run_ext(
            Extensions {
                transmission_lines: true,
                ..Extensions::default()
            },
            2.0,
            "gzip",
        );
        assert!(
            tl.ipc() >= rc.ipc(),
            "TL L-wires should not be slower: {} vs {}",
            tl.ipc(),
            rc.ipc()
        );
        // ... and their dynamic energy must be lower (1/3 per L bit-hop).
        assert!(tl.net.dynamic_energy < rc.net.dynamic_energy);
    }
}

mod mechanism_tests {
    //! Tests pinning individual wire-management mechanisms inside the full
    //! pipeline (beyond the aggregate behaviour covered above).

    use super::*;

    fn run(model: InterconnectModel, bench: &str, n: u64) -> SimResults {
        let config = ProcessorConfig::for_model(model, Topology::crossbar4());
        let trace = TraceGenerator::new(profile::by_name(bench).unwrap(), 77);
        Processor::simulate(config, trace, n, n / 4)
    }

    #[test]
    fn store_data_rides_pw_wires_in_model_v() {
        // Model V has B + PW: the PW plane must carry the store-data and
        // ready-at-dispatch traffic (paper: 36% of transfers).
        let r = run(InterconnectModel::V, "vortex", 10_000);
        let pw_share = r.net.class_share(WireClass::Pw);
        assert!(
            (0.10..=0.70).contains(&pw_share),
            "PW share {pw_share} out of plausible range"
        );
    }

    #[test]
    fn model_i_has_no_l_or_pw_traffic() {
        let r = run(InterconnectModel::I, "gap", 5_000);
        assert_eq!(r.net.transfers[0], 0, "W plane never used");
        assert_eq!(r.net.transfers[1], 0, "no PW plane in Model I");
        assert_eq!(r.net.transfers[3], 0, "no L plane in Model I");
        assert!(r.net.transfers[2] > 0);
    }

    #[test]
    fn partial_addresses_reach_the_lsq_only_with_l_wires() {
        let base = run(InterconnectModel::I, "parser", 8_000);
        let l = run(InterconnectModel::VII, "parser", 8_000);
        assert_eq!(base.lsq.partial_matches, 0, "baseline sends no partials");
        assert!(
            l.lsq.partial_matches > 0,
            "the L-Wire pipeline must exercise partial comparisons"
        );
    }

    #[test]
    fn forwards_happen_through_the_lsq() {
        // Store-to-load forwarding must occur on workloads with memory
        // reuse.
        let mut total = 0;
        for b in ["gcc", "vortex", "crafty"] {
            let r = run(InterconnectModel::I, b, 10_000);
            total += r.lsq.forwards;
        }
        assert!(total > 0, "no store-to-load forwarding observed");
    }

    #[test]
    fn mispredict_penalty_includes_refill() {
        let r = run(InterconnectModel::I, "twolf", 10_000);
        // The floor is resolution + signal + 12-cycle refill.
        assert!(
            r.fetch.mean_mispredict_penalty() >= 12.0,
            "penalty {}",
            r.fetch.mean_mispredict_penalty()
        );
    }

    #[test]
    fn sixteen_cluster_ring_traffic_exists() {
        let config = ProcessorConfig::for_model(InterconnectModel::I, Topology::hier16());
        let trace = TraceGenerator::new(profile::by_name("swim").unwrap(), 77);
        let r = Processor::simulate(config, trace, 8_000, 2_000);
        assert!(r.net.total_transfers() > 0);
        // Leakage weight of the 16-cluster net exceeds the 4-cluster one
        // (more links).
        let c4 = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let r4 = Processor::simulate(
            c4,
            TraceGenerator::new(profile::by_name("swim").unwrap(), 77),
            2_000,
            500,
        );
        assert!(r.leakage_weight > r4.leakage_weight);
    }

    #[test]
    fn rob_never_exceeds_capacity() {
        // Indirectly: a tiny ROB must slow the machine down, proving the
        // cap binds.
        let mut small = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        small.rob_size = 16;
        let big = ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        let t = || TraceGenerator::new(profile::by_name("swim").unwrap(), 5);
        let rs = Processor::simulate(small, t(), 5_000, 1_000);
        let rb = Processor::simulate(big, t(), 5_000, 1_000);
        assert!(
            rs.ipc() < rb.ipc(),
            "16-entry ROB ({}) should lose to 480 ({})",
            rs.ipc(),
            rb.ipc()
        );
    }

    #[test]
    fn value_pool_is_bounded_by_rob_and_registers() {
        // Rows are recycled at the overwriter's commit, so the pool's
        // high-water mark is a property of the machine, not of how many
        // instructions ran: at most one row per ROB entry plus one per
        // architectural register. art's cache misses fill the ROB within
        // the first few thousand instructions, so the mark is reached
        // early and a 4x longer window must not move it.
        for topology in [
            Topology::crossbar4(),
            Topology::hier16(),
            Topology::hier_ring(16, 4),
        ] {
            let high_water = |window: u64| {
                let config = ProcessorConfig::for_model(InterconnectModel::X, topology);
                let trace = TraceGenerator::new(profile::by_name("art").unwrap(), 7);
                let mut p = Processor::new(config, trace);
                p.run(window, 500);
                (p.values.high_water(), p.config.rob_size + ARCH_REGS)
            };
            let (short, bound) = high_water(5_000);
            let (long, _) = high_water(20_000);
            assert!(short <= bound, "{topology:?}: {short} rows > {bound}");
            assert_eq!(short, long, "{topology:?}: pool grew with the window");
        }
    }

    #[test]
    fn action_table_is_bounded_by_transfers_in_flight() {
        // Delivery actions are keyed by the network slot a transfer holds
        // from send to delivery, so the table follows the transfers in
        // flight, not the transfers sent. Measured on gcc (seed 7): 27-35
        // entries on crossbar4 and 35-63 on hier16 and ring:16x4 over
        // 5k-20k windows that send 6k-25k transfers; five benchmarks on
        // the same shapes peak at 84.
        const BOUND: usize = 256;
        for topology in [
            Topology::crossbar4(),
            Topology::hier16(),
            Topology::hier_ring(16, 4),
        ] {
            for window in [5_000, 20_000] {
                let config = ProcessorConfig::for_model(InterconnectModel::X, topology);
                let trace = TraceGenerator::new(profile::by_name("gcc").unwrap(), 7);
                let mut p = Processor::new(config, trace);
                let sent = p.run(window, 500).net.total_transfers() as usize;
                let len = p.actions.len();
                assert!(len <= BOUND, "{topology:?} {window}: {len} actions");
                assert!(
                    len * 20 < sent,
                    "{topology:?} {window}: {len} actions for {sent} transfers"
                );
            }
        }
    }

    #[test]
    fn narrower_dispatch_hurts() {
        let mut narrow_cfg =
            ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4());
        narrow_cfg.dispatch_width = 2;
        let t = || TraceGenerator::new(profile::by_name("apsi").unwrap(), 5);
        let narrow = Processor::simulate(narrow_cfg, t(), 5_000, 1_000);
        let wide = Processor::simulate(
            ProcessorConfig::for_model(InterconnectModel::I, Topology::crossbar4()),
            t(),
            5_000,
            1_000,
        );
        assert!(narrow.ipc() <= wide.ipc());
    }

    #[test]
    fn oracle_narrow_mode_never_sends_false_narrow() {
        let mut cfg = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
        cfg.opts.narrow_predictor = false; // oracle width knowledge
        let trace = TraceGenerator::new(profile::by_name("bzip2").unwrap(), 8);
        let r = Processor::simulate(cfg, trace, 8_000, 2_000);
        assert_eq!(r.narrow_false_rate, 0.0, "oracle mode mispredicted width");
        assert!(r.net.transfers[3] > 0, "oracle mode still uses L wires");
    }
}

mod policy_ab_tests {
    //! The policy layer must be swappable without touching the kernel:
    //! the same pipeline runs an alternative [`SprayPolicy`] end to end.

    use super::*;

    fn spray_processor(
        model: InterconnectModel,
        bench: &str,
        seed: u64,
    ) -> Processor<NullProbe, SprayPolicy> {
        let config = ProcessorConfig::for_model(model, Topology::crossbar4());
        let trace = TraceGenerator::new(profile::by_name(bench).unwrap(), seed);
        let spray = SprayPolicy::new(&config.link);
        Processor::with_policy(config, trace, NullProbe, spray)
    }

    #[test]
    fn spray_policy_runs_the_full_pipeline_without_l_traffic() {
        let spray = spray_processor(InterconnectModel::X, "gzip", 42).run(5_000, 500);
        assert!(spray.ipc() > 0.0);
        assert_eq!(spray.net.transfers[3], 0, "spray never uses L-Wires");
        assert!(
            spray.net.transfers[1] > 0 && spray.net.transfers[2] > 0,
            "spray round-robins both full-width planes: {:?}",
            spray.net.transfers
        );
        // The paper policy on the same machine does exploit the L plane.
        let config = ProcessorConfig::for_model(InterconnectModel::X, Topology::crossbar4());
        let trace = TraceGenerator::new(profile::by_name("gzip").unwrap(), 42);
        let paper = Processor::new(config, trace).run(5_000, 500);
        assert!(paper.net.transfers[3] > 0);
    }

    #[test]
    fn spray_policy_is_kernel_identical() {
        // A custom policy must be bit-identical across both scheduling
        // kernels, exactly like the paper policy.
        let a = spray_processor(InterconnectModel::V, "gcc", 11).run(5_000, 500);
        let b = spray_processor(InterconnectModel::V, "gcc", 11).run_reference(5_000, 500);
        assert_eq!(a, b);
    }
}
