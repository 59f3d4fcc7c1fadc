//! Head-to-head timing of the indexed O(events) network engine against the
//! retained scan-based reference engine (`ReferenceNetwork`), on traffic
//! shapes that bracket what the model sweep produces: light steady traffic
//! (pending stays tiny, ticks dominate), a deep contended backlog (the
//! arbitration loop dominates), and a sparse long-latency stream (delivery
//! bookkeeping dominates). Both engines run the identical send stream, so
//! any wall-clock gap is pure engine constant, not host noise across
//! binaries.

use heterowire_bench::timing::bench;
use heterowire_interconnect::{
    MessageKind, NetConfig, Network, Node, ReferenceNetwork, Topology, Transfer,
};
use heterowire_rng::SmallRng;
use heterowire_wires::{LinkComposition, WireClass, WirePlane};

fn full_link() -> LinkComposition {
    LinkComposition::new(vec![
        WirePlane::new(WireClass::B, 144),
        WirePlane::new(WireClass::Pw, 288),
        WirePlane::new(WireClass::L, 36),
    ])
    .unwrap()
}

fn transfer(rng: &mut SmallRng, clusters: usize) -> Transfer {
    let node = |rng: &mut SmallRng| {
        if rng.gen_bool(0.2) {
            Node::Cache
        } else {
            Node::Cluster(rng.gen_range(0..clusters))
        }
    };
    let src = node(rng);
    let mut dst = node(rng);
    while dst == src {
        dst = node(rng);
    }
    let (class, kind) = match rng.gen_range(0..4u32) {
        0 => (WireClass::B, MessageKind::FullAddress),
        1 => (WireClass::Pw, MessageKind::FullAddress),
        2 => (WireClass::L, MessageKind::PartialAddress),
        _ => (WireClass::L, MessageKind::SplitValue),
    };
    Transfer {
        src,
        dst,
        class,
        kind,
    }
}

/// Drives one engine over `cycles` cycles with `sends_per_cycle` expected
/// random sends per cycle (Bernoulli per slot, so pending depth varies),
/// ticking and draining every cycle like the processor kernel does.
macro_rules! drive {
    ($net:expr, $seed:expr, $cycles:expr, $send_slots:expr, $p_send:expr) => {{
        let mut rng = SmallRng::seed_from_u64($seed);
        // Each engine infers its own delivery record type.
        let mut buf = Vec::new();
        let mut delivered = 0usize;
        for cycle in 1..=$cycles {
            for _ in 0..$send_slots {
                if rng.gen_bool($p_send) {
                    let t = transfer(&mut rng, 4);
                    $net.send(t, cycle - 1);
                }
            }
            if $net.pending_len() > 0 {
                $net.tick(cycle);
            }
            $net.take_delivered_into(cycle, &mut buf);
            delivered += buf.len();
            std::hint::black_box($net.next_event_cycle(cycle));
        }
        delivered
    }};
}

fn main() {
    let config = || NetConfig::new(Topology::crossbar4(), full_link());
    let samples = [
        // Sweep-shaped: ~0.4 sends/cycle, pending rarely exceeds a handful.
        bench("net/indexed_light_200k_cycles", 10, || {
            let mut net = Network::new(config());
            drive!(net, 7, 200_000u64, 2, 0.2)
        }),
        bench("net/reference_light_200k_cycles", 10, || {
            let mut net = ReferenceNetwork::new(config());
            drive!(net, 7, 200_000u64, 2, 0.2)
        }),
        // Contended: 6 expected sends/cycle keeps a deep backlog queued.
        bench("net/indexed_contended_20k_cycles", 10, || {
            let mut net = Network::new(config());
            drive!(net, 11, 20_000u64, 8, 0.75)
        }),
        bench("net/reference_contended_20k_cycles", 10, || {
            let mut net = ReferenceNetwork::new(config());
            drive!(net, 11, 20_000u64, 8, 0.75)
        }),
        // Sparse: one send every ~50 cycles; delivery/idle bookkeeping only.
        bench("net/indexed_sparse_1m_cycles", 10, || {
            let mut net = Network::new(config());
            drive!(net, 13, 1_000_000u64, 1, 0.02)
        }),
        bench("net/reference_sparse_1m_cycles", 10, || {
            let mut net = ReferenceNetwork::new(config());
            drive!(net, 13, 1_000_000u64, 1, 0.02)
        }),
    ];
    for s in &samples {
        println!("{}", s.report());
    }
}
