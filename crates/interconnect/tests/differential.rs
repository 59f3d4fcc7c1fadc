//! Randomized differential tests: the indexed O(events) [`Network`] must be
//! bit-identical to the retained scan-based [`ReferenceNetwork`] under
//! randomized bursty and starvation-shaped traffic on both topologies —
//! same [`NetStats`] (including the f64 energy accumulator, so grant order
//! matters), same delivery sets in the same order, same probe event
//! sequences at the same cycles, and same next-event answers every cycle.
//! Along the way a [`SlotLedger`] holds the indexed engine's slots to
//! their lifetime: from send to the drain after the clean delivery.

use std::collections::{HashMap, HashSet};

use heterowire_interconnect::{
    Delivery, FaultSpec, MessageKind, NetConfig, NetStats, Network, Node, ReferenceNetwork, Sent,
    Topology, TopologySpec, Transfer, TransferId,
};
use heterowire_rng::SmallRng;
use heterowire_telemetry::Probe;
use heterowire_wires::{LinkComposition, WireClass, WirePlane};

/// Every probe hook the network fires, with its full payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Enqueue(u64, u64, WireClass),
    Depart(u64, u64, WireClass, u64),
    LinkBusy(u64, usize, WireClass),
    Deliver(u64, u64, WireClass),
    FaultDetected(u64, u64, WireClass, u32),
    Retransmit(u64, u64, WireClass, u32),
}

#[derive(Debug, Default)]
struct RecProbe {
    events: Vec<Event>,
}

impl Probe for RecProbe {
    fn enqueue(&mut self, cycle: u64, id: u64, class: WireClass) {
        self.events.push(Event::Enqueue(cycle, id, class));
    }

    fn depart(&mut self, cycle: u64, id: u64, class: WireClass, queued: u64) {
        self.events.push(Event::Depart(cycle, id, class, queued));
    }

    fn link_busy(&mut self, cycle: u64, link: usize, class: WireClass) {
        self.events.push(Event::LinkBusy(cycle, link, class));
    }

    fn deliver(&mut self, cycle: u64, id: u64, class: WireClass) {
        self.events.push(Event::Deliver(cycle, id, class));
    }

    fn fault_detected(&mut self, cycle: u64, id: u64, class: WireClass, attempt: u32) {
        self.events
            .push(Event::FaultDetected(cycle, id, class, attempt));
    }

    fn retransmit(&mut self, cycle: u64, id: u64, class: WireClass, attempt: u32) {
        self.events
            .push(Event::Retransmit(cycle, id, class, attempt));
    }
}

/// The indexed engine's slot handout, checked against the lifetime rule:
/// a transfer holds its slot from `send` until its clean delivery, keeps
/// it across retransmissions, and the slot is free again only once the
/// next drain begins.
#[derive(Debug, Default)]
struct SlotLedger {
    /// Id holding each live slot: queued, in flight or retrying.
    live: HashMap<u32, TransferId>,
    /// Slots delivered by the latest drain, not yet free.
    just_delivered: HashSet<u32>,
}

impl SlotLedger {
    fn sent(&mut self, sent: Sent) {
        assert!(
            !self.just_delivered.contains(&sent.slot),
            "{:?} got slot {}, delivered in the latest drain",
            sent.id,
            sent.slot
        );
        if let Some(holder) = self.live.insert(sent.slot, sent.id) {
            panic!(
                "{:?} got slot {}, still held by {holder:?}",
                sent.id, sent.slot
            );
        }
    }

    fn drained(&mut self, out: &[Delivery]) {
        self.just_delivered.clear();
        for d in out {
            assert_eq!(
                self.live.remove(&d.slot),
                Some(d.id),
                "{:?} delivered in slot {}, not the one its send got",
                d.id,
                d.slot
            );
            self.just_delivered.insert(d.slot);
        }
    }

    fn assert_drained(&self) {
        assert!(
            self.live.is_empty(),
            "{} slots live after the final drain",
            self.live.len()
        );
    }
}

/// The part of each delivery the reference engine also reports.
fn ids_and_transfers(out: &[Delivery]) -> Vec<(TransferId, Transfer)> {
    out.iter().map(|d| (d.id, d.transfer)).collect()
}

fn full_link() -> LinkComposition {
    // The paper's Model X link: all three heterogeneous planes.
    LinkComposition::new(vec![
        WirePlane::new(WireClass::B, 144),
        WirePlane::new(WireClass::Pw, 288),
        WirePlane::new(WireClass::L, 36),
    ])
    .unwrap()
}

fn random_node(rng: &mut SmallRng, clusters: usize) -> Node {
    // The cache shows up often enough to exercise the widened links.
    if rng.gen_bool(0.2) {
        Node::Cache
    } else {
        Node::Cluster(rng.gen_range(0..clusters))
    }
}

fn random_transfer(rng: &mut SmallRng, clusters: usize, hot: bool) -> Transfer {
    let (src, dst) = if hot {
        // Starvation shape: hammer one route so its lanes saturate and
        // younger transfers bypass blocked older ones for many cycles.
        (Node::Cluster(0), Node::Cluster(1 % clusters))
    } else {
        let src = random_node(rng, clusters);
        loop {
            let dst = random_node(rng, clusters);
            if dst != src {
                break (src, dst);
            }
        }
    };
    let class = match rng.gen_range(0..3u32) {
        0 => WireClass::B,
        1 => WireClass::Pw,
        _ => WireClass::L,
    };
    let kind = if class == WireClass::L {
        match rng.gen_range(0..4u32) {
            0 => MessageKind::NarrowValue,
            1 => MessageKind::PartialAddress,
            2 => MessageKind::BranchMispredict,
            _ => MessageKind::SplitValue,
        }
    } else {
        match rng.gen_range(0..4u32) {
            0 => MessageKind::RegisterValue,
            1 => MessageKind::FullAddress,
            2 => MessageKind::StoreData,
            _ => MessageKind::CacheData,
        }
    };
    Transfer {
        src,
        dst,
        class,
        kind,
    }
}

/// Drives both engines with one identical randomized stream and asserts
/// bit-identical behaviour at every observation point.
fn differential_run(topology: Topology, seed: u64, cycles: u64) -> NetStats {
    differential_run_with(
        topology,
        seed,
        cycles,
        heterowire_interconnect::NullFaultModel,
    )
}

/// [`differential_run`] with a shared fault model: both engines must also
/// agree on every corruption draw, NACK latency, retransmission and
/// escalation.
fn differential_run_with<F: heterowire_interconnect::FaultModel + Clone>(
    topology: Topology,
    seed: u64,
    cycles: u64,
    faults: F,
) -> NetStats {
    let clusters = topology.clusters();
    let mut new_net = Network::with_faults(NetConfig::new(topology, full_link()), faults.clone());
    let mut old_net = ReferenceNetwork::with_faults(NetConfig::new(topology, full_link()), faults);
    let mut new_probe = RecProbe::default();
    let mut old_probe = RecProbe::default();
    let mut new_out = Vec::new();
    let mut old_out = Vec::new();
    let mut slots = SlotLedger::default();
    let mut rng = SmallRng::seed_from_u64(seed);

    for cycle in 0..cycles {
        // Bursts: usually nothing, sometimes a pile-up in one cycle.
        let burst = if rng.gen_bool(0.3) {
            0
        } else if rng.gen_bool(0.85) {
            rng.gen_range(1..4usize)
        } else {
            rng.gen_range(8..25usize)
        };
        let hot_phase = (cycle / 64) % 3 == 1;
        for _ in 0..burst {
            let hot = hot_phase && rng.gen_bool(0.7);
            let t = random_transfer(&mut rng, clusters, hot);
            let sent = new_net.send_probed(t, cycle, &mut new_probe);
            let id_old = old_net.send_probed(t, cycle, &mut old_probe);
            assert_eq!(sent.id, id_old, "ids must be assigned identically");
            slots.sent(sent);
        }
        new_net.tick_probed(cycle + 1, &mut new_probe);
        old_net.tick_probed(cycle + 1, &mut old_probe);
        // Drain at irregular intervals so wheel drains span several due
        // cycles at once (the kernel skips idle cycles the same way).
        if rng.gen_bool(0.6) {
            new_net.take_delivered_into_probed(cycle + 1, &mut new_out, &mut new_probe);
            old_net.take_delivered_into_probed(cycle + 1, &mut old_out, &mut old_probe);
            assert_eq!(
                ids_and_transfers(&new_out),
                old_out,
                "delivery sets diverged at {cycle}"
            );
            slots.drained(&new_out);
        }
        assert_eq!(
            new_net.next_event_cycle(cycle + 1),
            old_net.next_event_cycle(cycle + 1),
            "next-event answers diverged at {cycle}"
        );
        assert_eq!(new_net.pending_len(), old_net.pending_len());
        assert_eq!(new_net.inflight_len(), old_net.inflight_len());
    }
    // Run both engines dry in rounds: tick until the backlog has departed,
    // then drain once far past the wheel's horizon, so the drain's span
    // wraps every bucket and, with faults on, corrupted copies re-queue
    // inside that batch. Re-queued copies take another round.
    let mut cycle = cycles;
    while new_net.inflight_len() > 0 {
        while new_net.pending_len() > 0 {
            cycle += 1;
            new_net.tick_probed(cycle, &mut new_probe);
            old_net.tick_probed(cycle, &mut old_probe);
            assert_eq!(new_net.pending_len(), old_net.pending_len());
        }
        cycle += 10_000;
        new_net.take_delivered_into_probed(cycle, &mut new_out, &mut new_probe);
        old_net.take_delivered_into_probed(cycle, &mut old_out, &mut old_probe);
        assert_eq!(
            ids_and_transfers(&new_out),
            old_out,
            "delivery sets diverged in the drain at {cycle}"
        );
        slots.drained(&new_out);
        assert_eq!(new_net.inflight_len(), old_net.inflight_len());
    }
    slots.assert_drained();

    assert_eq!(new_probe.events.len(), old_probe.events.len());
    for (i, (a, b)) in new_probe
        .events
        .iter()
        .zip(old_probe.events.iter())
        .enumerate()
    {
        assert_eq!(a, b, "probe event {i} diverged");
    }
    let (new_stats, old_stats) = (new_net.stats(), old_net.stats());
    assert_eq!(new_stats, old_stats, "NetStats diverged (incl. f64 energy)");
    assert_eq!(
        new_stats.dynamic_energy.to_bits(),
        old_stats.dynamic_energy.to_bits(),
        "energy must accrue in the same order, bit for bit"
    );
    new_stats
}

#[test]
fn crossbar4_differential_random_bursts() {
    let mut delivered = 0;
    for seed in 0..6 {
        delivered += differential_run(Topology::crossbar4(), 0x5EED_2005 + seed, 700).delivered;
    }
    assert!(delivered > 1_000, "traffic was too light to prove anything");
}

#[test]
fn hier16_differential_random_bursts() {
    let mut delivered = 0;
    for seed in 0..6 {
        delivered += differential_run(Topology::hier16(), 0xCAFE + seed, 700).delivered;
    }
    assert!(delivered > 1_000, "traffic was too light to prove anything");
}

#[test]
fn fault_injection_differential_random_bursts() {
    // Same injector on both engines: every corruption draw, NACK delay,
    // requeue order and B-escalation must agree bit for bit, and the
    // recorded fault/retransmit probe sequences must be identical. The
    // rate is high enough that retries and escalations both fire.
    let spec = FaultSpec::parse("l@2e-3+pw@5e-4+seed:99+retry:1").expect("valid spec");
    for (topology, seed) in [
        (Topology::crossbar4(), 0xFA17u64),
        (Topology::hier16(), 0xFA18),
    ] {
        let mut stats = NetStats::default();
        for s in 0..3 {
            let run = differential_run_with(topology, seed + s, 700, spec.injector());
            stats.faults_detected += run.faults_detected;
            stats.retransmits += run.retransmits;
            stats.escalations += run.escalations;
        }
        assert!(
            stats.faults_detected > 50,
            "{topology:?}: only {} faults fired — rate too low to prove parity",
            stats.faults_detected
        );
        assert!(
            stats.escalations > 0,
            "{topology:?}: retry:1 with sustained corruption must escalate"
        );
    }
}

#[test]
fn generated_topologies_differential_random_bursts() {
    // Spec-generated shapes off the two presets the indexed engine was
    // tuned on: the 2-cluster degenerate crossbar, a wide flat crossbar,
    // an asymmetric odd ring (no tie-break direction ever fires), a ring
    // with non-default hop segments, the 8-quad ring, and shapes past the
    // old 16-cluster processor cap: a 32-cluster flat crossbar, a
    // 48-cluster long-hop ring, and the capacity-edge 16-quad ring whose
    // longest route fills the inline arrays (ring:16x4, 64 clusters).
    let shapes = [
        ("xbar:2", 0xD1F0u64),
        ("xbar:8", 0xD1F1),
        ("ring:5x2", 0xD1F2),
        ("ring:3x6@hop3", 0xD1F3),
        ("ring:8x4", 0xD1F4),
        ("xbar:32", 0xD1F5),
        ("ring:12x4@hop3", 0xD1F6),
        ("ring:16x4", 0xD1F7),
    ];
    for (spec, seed) in shapes {
        let topology = TopologySpec::parse(spec)
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
            .topology();
        let mut delivered = 0;
        for s in 0..2 {
            delivered += differential_run(topology, seed + s, 500).delivered;
        }
        assert!(
            delivered > 200,
            "{spec}: traffic was too light ({delivered})"
        );
    }
}

#[test]
fn transmission_line_and_scaled_latency_differential() {
    // The sensitivity-study configs change per-class latency arithmetic;
    // the cached route table must reproduce them exactly.
    for (scale, tl) in [(2.0, false), (1.0, true), (2.0, true)] {
        for topology in [Topology::crossbar4(), Topology::hier16()] {
            let mut cfg_new = NetConfig::new(topology, full_link());
            cfg_new.latency_scale = scale;
            cfg_new.transmission_line_l = tl;
            let cfg_old = cfg_new.clone();
            let mut new_net = Network::new(cfg_new);
            let mut old_net = ReferenceNetwork::new(cfg_old);
            let mut rng = SmallRng::seed_from_u64(9);
            let clusters = topology.clusters();
            let mut new_out = Vec::new();
            let mut old_out = Vec::new();
            let mut slots = SlotLedger::default();
            for cycle in 0..400 {
                for _ in 0..rng.gen_range(0..3usize) {
                    let t = random_transfer(&mut rng, clusters, false);
                    slots.sent(new_net.send(t, cycle));
                    old_net.send(t, cycle);
                }
                new_net.tick(cycle + 1);
                old_net.tick(cycle + 1);
                new_net.take_delivered_into(cycle + 1, &mut new_out);
                old_net.take_delivered_into(cycle + 1, &mut old_out);
                assert_eq!(
                    ids_and_transfers(&new_out),
                    old_out,
                    "scale={scale} tl={tl}"
                );
                slots.drained(&new_out);
            }
            assert_eq!(new_net.stats(), old_net.stats());
        }
    }
}

#[test]
fn starvation_pressure_holds_oldest_first_order() {
    // Continuous saturation of one route: the oldest pending transfer must
    // always depart first even while younger traffic bypasses the queue.
    for topology in [Topology::crossbar4(), Topology::hier16()] {
        let mut new_net = Network::new(NetConfig::new(topology, full_link()));
        let mut old_net = ReferenceNetwork::new(NetConfig::new(topology, full_link()));
        let mut new_out = Vec::new();
        let mut old_out = Vec::new();
        let mut slots = SlotLedger::default();
        let mut rng = SmallRng::seed_from_u64(77);
        for cycle in 0..600 {
            // Three same-route B transfers per cycle into two B lanes:
            // the backlog grows without bound while L traffic interleaves.
            for _ in 0..3 {
                let t = Transfer {
                    src: Node::Cluster(0),
                    dst: Node::Cluster(1),
                    class: WireClass::B,
                    kind: MessageKind::RegisterValue,
                };
                slots.sent(new_net.send(t, cycle));
                old_net.send(t, cycle);
            }
            if rng.gen_bool(0.5) {
                let t = Transfer {
                    src: Node::Cluster(0),
                    dst: Node::Cluster(2 % topology.clusters()),
                    class: WireClass::L,
                    kind: MessageKind::NarrowValue,
                };
                slots.sent(new_net.send(t, cycle));
                old_net.send(t, cycle);
            }
            new_net.tick(cycle + 1);
            old_net.tick(cycle + 1);
            new_net.take_delivered_into(cycle + 1, &mut new_out);
            old_net.take_delivered_into(cycle + 1, &mut old_out);
            assert_eq!(
                ids_and_transfers(&new_out),
                old_out,
                "diverged at cycle {cycle}"
            );
            slots.drained(&new_out);
            assert_eq!(new_net.pending_len(), old_net.pending_len());
        }
        assert_eq!(new_net.stats(), old_net.stats());
        assert!(
            new_net.stats().queue_cycles > 10_000,
            "starvation pressure did not materialize"
        );
    }
}
