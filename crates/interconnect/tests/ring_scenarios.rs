//! Scenario tests for the 16-cluster hierarchical topology: ring
//! contention, direction choice and cache placement (paper Figure 2(b)).

use heterowire_interconnect::{
    Delivery, MessageKind, NetConfig, Network, Node, Topology, Transfer,
};
use heterowire_wires::{LinkComposition, WireClass, WirePlane};

/// Test-local stand-in for the removed allocating `take_delivered`
/// convenience (production code reuses a buffer via `take_delivered_into`).
fn take_delivered(net: &mut Network, cycle: u64) -> Vec<Delivery> {
    let mut out = Vec::new();
    net.take_delivered_into(cycle, &mut out);
    out
}

fn hier_net() -> Network {
    let link = LinkComposition::new(vec![WirePlane::new(WireClass::B, 72)]).unwrap();
    Network::new(NetConfig::new(Topology::hier16(), link))
}

fn send(net: &mut Network, src: usize, dst: usize, cycle: u64) {
    net.send(
        Transfer {
            src: Node::Cluster(src),
            dst: Node::Cluster(dst),
            class: WireClass::B,
            kind: MessageKind::RegisterValue,
        },
        cycle,
    );
}

#[test]
fn intra_quad_is_fast_cross_quad_is_slow() {
    let mut net = hier_net();
    send(&mut net, 4, 5, 0); // same quad (quad 1)
    send(&mut net, 6, 9, 0); // quad 1 -> quad 2, one ring hop
    let mut delivered_at = Vec::new();
    for c in 1..=12 {
        net.tick(c);
        for _ in take_delivered(&mut net, c) {
            delivered_at.push(c);
        }
    }
    // Intra-quad: crossbar 2 cycles after departing at 1 -> cycle 3.
    // Cross-quad: 2 + 1 hop x 4 = 6 after departing at 1 -> cycle 7.
    assert_eq!(delivered_at, vec![3, 7]);
}

#[test]
fn opposite_quads_use_either_direction() {
    // Quad 0 <-> quad 2 is two hops both ways; both transfers route and
    // deliver at the same latency.
    let mut net = hier_net();
    send(&mut net, 0, 8, 0);
    send(&mut net, 8, 0, 0);
    net.tick(1);
    // 2 + 2*4 = 10 -> delivered at 11.
    assert_eq!(take_delivered(&mut net, 11).len(), 2);
}

#[test]
fn ring_segment_contention_serialises() {
    // Two same-cycle transfers that share the quad0 -> quad1 ring segment
    // with only one B lane: the second must wait a cycle.
    let mut net = hier_net();
    send(&mut net, 0, 4, 0);
    send(&mut net, 1, 5, 0);
    for c in 1..20 {
        net.tick(c);
        take_delivered(&mut net, c);
    }
    assert_eq!(net.stats().queue_cycles, 1, "one transfer should queue");
}

#[test]
fn distinct_ring_directions_do_not_contend() {
    // Quad 0 -> 1 (clockwise) and quad 0 -> 3 (counter-clockwise) use
    // different directed segments.
    let mut net = hier_net();
    send(&mut net, 0, 4, 0); // q0 -> q1
    send(&mut net, 1, 12, 0); // q0 -> q3
    for c in 1..20 {
        net.tick(c);
        take_delivered(&mut net, c);
    }
    assert_eq!(net.stats().queue_cycles, 0);
}

#[test]
fn cache_traffic_from_remote_quads_crosses_the_ring() {
    let mut net = hier_net();
    // Quad 2 cluster -> cache (at quad 0): 2 ring hops.
    net.send(
        Transfer {
            src: Node::Cluster(10),
            dst: Node::Cache,
            class: WireClass::B,
            kind: MessageKind::FullAddress,
        },
        0,
    );
    net.tick(1);
    assert!(take_delivered(&mut net, 10).is_empty());
    assert_eq!(take_delivered(&mut net, 11).len(), 1);
}

#[test]
fn l_wires_halve_ring_hop_cost() {
    let link = LinkComposition::new(vec![
        WirePlane::new(WireClass::B, 72),
        WirePlane::new(WireClass::L, 18),
    ])
    .unwrap();
    let mut net = Network::new(NetConfig::new(Topology::hier16(), link));
    net.send(
        Transfer {
            src: Node::Cluster(0),
            dst: Node::Cluster(8),
            class: WireClass::L,
            kind: MessageKind::NarrowValue,
        },
        0,
    );
    net.tick(1);
    // L: crossbar 1 + 2 hops x 2 = 5 -> delivered at 6 (B would be 11).
    assert_eq!(take_delivered(&mut net, 6).len(), 1);
}

#[test]
fn energy_hops_scale_with_distance() {
    let mut near = hier_net();
    send(&mut near, 4, 5, 0);
    near.tick(1);
    let mut far = hier_net();
    send(&mut far, 0, 8, 0);
    far.tick(1);
    // Same bits, 1 vs 3 energy hops.
    assert!((far.stats().dynamic_energy / near.stats().dynamic_energy - 3.0).abs() < 1e-9);
}
