#![warn(missing_docs)]
//! # heterowire-interconnect
//!
//! The heterogeneous inter-cluster interconnect of the `heterowire`
//! processor: network topologies ([`topology`] — parametric crossbars and
//! hierarchical crossbar-of-rings shapes, with Figure 2's 4-cluster
//! crossbar and 16-cluster hierarchy as presets), the spec layer that
//! parses, validates and generates them from compact strings or key=value
//! files ([`topo`]), typed
//! messages with wire-class eligibility ([`message`]), the indexed
//! arbitration/buffering/energy engine ([`network`]) with its retained
//! scan-based equivalence reference ([`mod@reference`]), the dynamic
//! wire-selection policy ([`policy`]) implementing the paper's three
//! steering criteria plus the L-Wire fast paths, and deterministic
//! wire-fault injection with NACK/retransmission and lane retirement
//! ([`fault`]).
//!
//! ```
//! use heterowire_interconnect::{
//!     message::{MessageKind, Transfer},
//!     network::{NetConfig, Network},
//!     topology::{Node, Topology},
//! };
//! use heterowire_wires::{LinkComposition, WireClass, WirePlane};
//!
//! // Model VII of Table 3: 144 B-Wires + 36 L-Wires per cluster link.
//! let link = LinkComposition::new(vec![
//!     WirePlane::new(WireClass::B, 144),
//!     WirePlane::new(WireClass::L, 36),
//! ])
//! .unwrap();
//! let mut net = Network::new(NetConfig::new(Topology::crossbar4(), link));
//! net.send(
//!     Transfer {
//!         src: Node::Cluster(0),
//!         dst: Node::Cluster(1),
//!         class: WireClass::L,
//!         kind: MessageKind::NarrowValue,
//!     },
//!     0,
//! );
//! net.tick(1);
//! let mut delivered = Vec::new();
//! net.take_delivered_into(2, &mut delivered);
//! assert_eq!(delivered.len(), 1); // L-Wires: 1-cycle crossbar
//! ```

pub mod fault;
pub mod fvc;
pub mod message;
pub mod network;
pub mod policy;
pub mod reference;
pub mod topo;
pub mod topology;

pub use fault::{
    FaultModel, FaultSpec, FaultSpecError, InjectedFaults, NullFaultModel, DEFAULT_FAULT_SEED,
    DEFAULT_RETRY_LIMIT,
};
pub use fvc::FrequentValueTable;
pub use message::{MessageKind, Transfer};
pub use network::{Delivery, NetConfig, NetStats, Network, Sent, TransferId};
pub use policy::{AvailablePlanes, LoadBalancer, TransferHints, WirePolicy};
pub use reference::ReferenceNetwork;
pub use topo::{TopoSpecError, TopologyPreset, TopologySpec};
pub use topology::{
    check_crossbar, check_ring, CapacityError, LinkId, Node, Route, Topology, MAX_RING_QUADS,
    MAX_ROUTE_LINKS, MAX_SIM_CLUSTERS,
};
