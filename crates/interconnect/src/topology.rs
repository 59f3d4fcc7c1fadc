//! Network topologies: parametric crossbars and hierarchical
//! crossbar-of-rings shapes. The paper's two configurations (Figure 2's
//! 4-cluster crossbar and 16-cluster hierarchy) are the [`Topology::crossbar4`]
//! and [`Topology::hier16`] presets of the general space; arbitrary shapes
//! come from the [`crate::topo`] spec layer (`xbar:8`, `ring:6x4`, ...).
//!
//! Route latencies are not hard-coded per shape: every route is a chain of
//! wire segments (one crossbar traversal plus zero or more ring hops) whose
//! per-class cycle counts derive from the `wires` crate's geometry anchor
//! via [`heterowire_wires::segment_latency`]. With the default segment
//! lengths (crossbar 1, ring hop 2) this reproduces the paper's §5.2
//! latency table exactly.

use std::borrow::Cow;

use heterowire_wires::{segment_latency, WireClass};

/// A network endpoint: one of the clusters or the centralized L1 D-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    /// Cluster `i`.
    Cluster(usize),
    /// The centralized data cache / LSQ.
    Cache,
}

/// A directed link in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// Cluster `i`'s injection link into its crossbar.
    ClusterOut(usize),
    /// Cluster `i`'s delivery link from its crossbar.
    ClusterIn(usize),
    /// The cache's injection link (double width).
    CacheOut,
    /// The cache's delivery link (double width).
    CacheIn,
    /// Directed ring segment between adjacent crossbar hubs.
    Ring {
        /// Source quad.
        from: usize,
        /// Destination quad (adjacent on the ring).
        to: usize,
    },
}

impl LinkId {
    /// Short human-readable label, used for telemetry track names and
    /// utilization CSV rows. Borrowed for the fixed cache links so callers
    /// that cache the labels (telemetry does, once per recording) never pay
    /// per-event formatting.
    pub fn label(self) -> Cow<'static, str> {
        match self {
            LinkId::ClusterOut(c) => Cow::Owned(format!("c{c}.out")),
            LinkId::ClusterIn(c) => Cow::Owned(format!("c{c}.in")),
            LinkId::CacheOut => Cow::Borrowed("cache.out"),
            LinkId::CacheIn => Cow::Borrowed("cache.in"),
            LinkId::Ring { from, to } => Cow::Owned(format!("ring.{from}-{to}")),
        }
    }
}

/// The generating shape of a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `clusters` clusters and the cache on a single crossbar.
    Crossbar { clusters: usize },
    /// `quads` crossbars of `per_quad` clusters each on a bidirectional
    /// ring, cache attached to quad 0's crossbar.
    HierRing { quads: usize, per_quad: usize },
}

/// The shape of the interconnect plus its segment geometry.
///
/// Figure 2(a) is [`Topology::crossbar4`], Figure 2(b) is
/// [`Topology::hier16`]; the general constructors ([`Topology::crossbar`],
/// [`Topology::hier_ring`]) and the spec parser
/// ([`crate::topo::TopologySpec`]) open the rest of the space. Equality is
/// structural, so a spec-built `ring:4x4` compares equal to the `hier16`
/// preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    shape: Shape,
    /// Crossbar traversal length in W-segment units (default 1).
    xbar_len: u32,
    /// Ring-hop length in W-segment units (default 2: a hop spans two
    /// crossbar-lengths). Pinned to the default for crossbars — the field
    /// is meaningless there and must not break structural equality.
    hop_len: u32,
}

/// A computed route: the links traversed and the end-to-end latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Directed links that must each grant a lane at injection time.
    pub links: Vec<LinkId>,
    /// Delivery latency in cycles for the given wire class.
    pub latency: u64,
    /// Energy hops: 1 for the crossbar traversal plus 1 per ring segment.
    pub hops: u32,
}

/// Cluster-capacity ceiling of the whole simulator stack. One constant,
/// one checker ([`Topology::check_capacity`]): the spec parser, the
/// `Topology` constructors, `Network::new`, and the processor's
/// `MAX_CLUSTERS` re-export are all fed from here, so an oversized
/// topology is refused with the same message everywhere. 64 is the
/// `ClusterMask` (u64) bound in `heterowire-core`; widening past it means
/// widening the mask first.
pub const MAX_SIM_CLUSTERS: usize = 64;

/// Most ring quads any supported topology has. Bounds the inline route
/// arrays via [`MAX_ROUTE_LINKS`]; 16 quads covers every headline wide
/// shape (`ring:16x4` = 64 clusters) without bloating the hot-path route
/// cache the way a worst-case 64-quad bound would.
pub const MAX_RING_QUADS: usize = 16;

/// Inline-route capacity of the network engines: source link + ring
/// segments + sink link, stored in fixed arrays on the hot path. Derived
/// from [`MAX_RING_QUADS`] (shortest paths take at most `quads / 2`
/// segments). Every `Topology` constructor validates
/// [`Topology::max_route_links`] against this bound through
/// [`Topology::check_capacity`] (and the spec parser turns the violation
/// into a [`crate::topo::TopoSpecError`]), so an oversized ring is a loud
/// construction-time error instead of a silent array overrun.
pub const MAX_ROUTE_LINKS: usize = 2 + MAX_RING_QUADS / 2;

/// A topology that exceeds the simulator's capacity bounds — the single
/// source of the refusal wording. The spec parser wraps this in
/// [`crate::topo::TopoSpecError::Capacity`] (CLI exit 2), the `Topology`
/// constructors and `Network::new` panic with its `Display` text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityError {
    /// A crossbar with fewer than 2 clusters.
    TooFewClusters(usize),
    /// A ring with fewer than 3 quads (the two directed segments between
    /// 2 quads would coincide).
    TooFewQuads(usize),
    /// A ring quad with zero clusters.
    EmptyQuad,
    /// More clusters than [`MAX_SIM_CLUSTERS`].
    TooManyClusters {
        /// Clusters the offending topology would have.
        clusters: usize,
    },
    /// A ring whose longest route exceeds [`MAX_ROUTE_LINKS`].
    RouteTooLong {
        /// Quads the offending ring would have.
        quads: usize,
        /// Links its longest route would need.
        needed: usize,
    },
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CapacityError::TooFewClusters(n) => {
                write!(f, "a crossbar needs at least 2 clusters, got {n}")
            }
            CapacityError::TooFewQuads(q) => write!(
                f,
                "a ring needs at least 3 quads, got {q} (the two directed segments \
                 between 2 quads would coincide; use xbar:<clusters> for small shapes)"
            ),
            CapacityError::EmptyQuad => write!(f, "a quad needs at least 1 cluster"),
            CapacityError::TooManyClusters { clusters } => write!(
                f,
                "{clusters} clusters, but the simulator supports at most \
                 {MAX_SIM_CLUSTERS} (the per-value cluster mask is 64-bit)"
            ),
            CapacityError::RouteTooLong { quads, needed } => write!(
                f,
                "a {quads}-quad ring routes up to {needed} links but the network's \
                 inline routes hold {MAX_ROUTE_LINKS}; rings support at most \
                 {MAX_RING_QUADS} quads"
            ),
        }
    }
}

impl std::error::Error for CapacityError {}

/// The one capacity checker behind every validation site: crossbar shape.
pub fn check_crossbar(clusters: usize) -> Result<(), CapacityError> {
    if clusters < 2 {
        return Err(CapacityError::TooFewClusters(clusters));
    }
    if clusters > MAX_SIM_CLUSTERS {
        return Err(CapacityError::TooManyClusters { clusters });
    }
    Ok(())
}

/// The one capacity checker behind every validation site: ring shape.
pub fn check_ring(quads: usize, per_quad: usize) -> Result<(), CapacityError> {
    if quads < 3 {
        return Err(CapacityError::TooFewQuads(quads));
    }
    if per_quad == 0 {
        return Err(CapacityError::EmptyQuad);
    }
    let needed = 2 + quads / 2;
    if needed > MAX_ROUTE_LINKS {
        return Err(CapacityError::RouteTooLong { quads, needed });
    }
    let clusters = quads * per_quad;
    if clusters > MAX_SIM_CLUSTERS {
        return Err(CapacityError::TooManyClusters { clusters });
    }
    Ok(())
}

/// An allocation-free [`Route`] with the link set stored inline — the
/// network's hot send path computes one of these per transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineRoute {
    links: [LinkId; MAX_ROUTE_LINKS],
    len: u8,
    /// Delivery latency in cycles for the given wire class.
    pub latency: u64,
    /// Energy hops: 1 for the crossbar traversal plus 1 per ring segment.
    pub hops: u32,
}

impl InlineRoute {
    /// The links traversed, in order.
    pub fn links(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }
}

/// Default crossbar segment length (one W-segment).
pub const DEFAULT_XBAR_LEN: u32 = 1;
/// Default ring-hop segment length (two W-segments, paper §5.2).
pub const DEFAULT_HOP_LEN: u32 = 2;

/// Longest crossbar traversal or ring hop a topology accepts, in W-segment
/// units. The network sizes its delivery wheel to the longest route, and
/// the kernel's forward-progress watchdog gives up after 100 000 cycles
/// without a commit, so an unbounded length would exhaust memory or stall
/// every job. 64 is twenty times the longest in-tree use, and
/// `ring:16x4@hop64@xbar64` still simulates. One bound, one message: the
/// spec layer refuses a longer `@hop`/`@xbar` override or
/// `hop_len`/`xbar_len` key with
/// [`crate::topo::TopoSpecError::InvalidOverride`] (CLI exit 2), and
/// [`Topology::with_segment_lengths`] panics with the same text.
pub const MAX_SEGMENT_LEN: u32 = 64;

impl Topology {
    /// A 4-cluster crossbar (the paper's main configuration).
    pub fn crossbar4() -> Self {
        Topology::crossbar(4)
    }

    /// The 16-cluster hierarchical configuration.
    pub fn hier16() -> Self {
        Topology::hier_ring(4, 4)
    }

    /// `clusters` clusters and the cache on a single crossbar
    /// (Figure 2(a); the paper uses 4 clusters).
    ///
    /// # Panics
    ///
    /// Panics when [`check_crossbar`] refuses the shape — fewer than 2
    /// clusters or more than [`MAX_SIM_CLUSTERS`] (spec-layer callers get
    /// a [`crate::topo::TopoSpecError`] instead).
    pub fn crossbar(clusters: usize) -> Self {
        if let Err(e) = check_crossbar(clusters) {
            panic!("{e}");
        }
        Topology {
            shape: Shape::Crossbar { clusters },
            xbar_len: DEFAULT_XBAR_LEN,
            hop_len: DEFAULT_HOP_LEN,
        }
    }

    /// `quads` crossbars of `per_quad` clusters each on a bidirectional
    /// ring, cache attached to quad 0's crossbar (Figure 2(b); 16 clusters
    /// = 4 quads of 4).
    ///
    /// # Panics
    ///
    /// Panics when [`check_ring`] refuses the shape — fewer than 3 quads
    /// (with 2 the two directed segments of each direction would
    /// coincide), zero clusters per quad, a ring whose longest route
    /// exceeds [`MAX_ROUTE_LINKS`] (more than [`MAX_RING_QUADS`] quads),
    /// or more than [`MAX_SIM_CLUSTERS`] clusters. Spec-layer callers get
    /// a [`crate::topo::TopoSpecError`] instead.
    pub fn hier_ring(quads: usize, per_quad: usize) -> Self {
        if let Err(e) = check_ring(quads, per_quad) {
            panic!("{e}");
        }
        Topology {
            shape: Shape::HierRing { quads, per_quad },
            xbar_len: DEFAULT_XBAR_LEN,
            hop_len: DEFAULT_HOP_LEN,
        }
    }

    /// Overrides the wire-segment lengths the latency derivation uses (the
    /// `@xbar<n>` / `@hop<n>` spec suffixes). On crossbars the hop length
    /// is pinned to [`DEFAULT_HOP_LEN`] so structural equality ignores it.
    ///
    /// # Panics
    ///
    /// Panics on a length outside 1 to [`MAX_SEGMENT_LEN`].
    pub fn with_segment_lengths(mut self, xbar_len: u32, hop_len: u32) -> Self {
        for (key, len) in [("xbar", xbar_len), ("hop", hop_len)] {
            if let Err(e) = crate::topo::check_segment_len(key, len as usize) {
                panic!("{e}");
            }
        }
        self.xbar_len = xbar_len;
        self.hop_len = match self.shape {
            Shape::Crossbar { .. } => DEFAULT_HOP_LEN,
            Shape::HierRing { .. } => hop_len,
        };
        self
    }

    /// Crossbar traversal length in W-segment units.
    pub fn xbar_len(&self) -> u32 {
        self.xbar_len
    }

    /// Ring-hop length in W-segment units ([`DEFAULT_HOP_LEN`] on
    /// crossbars, where no hop exists).
    pub fn hop_len(&self) -> u32 {
        self.hop_len
    }

    /// True for hierarchical (crossbar-of-rings) shapes.
    pub fn is_ring(&self) -> bool {
        matches!(self.shape, Shape::HierRing { .. })
    }

    /// Number of ring quads (1 for a flat crossbar: everything hangs off
    /// the single hub).
    pub fn quads(&self) -> usize {
        match self.shape {
            Shape::Crossbar { .. } => 1,
            Shape::HierRing { quads, .. } => quads,
        }
    }

    /// Clusters per quad (all of them, for a flat crossbar).
    pub fn per_quad(&self) -> usize {
        match self.shape {
            Shape::Crossbar { clusters } => clusters,
            Shape::HierRing { per_quad, .. } => per_quad,
        }
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        match self.shape {
            Shape::Crossbar { clusters } => clusters,
            Shape::HierRing { quads, per_quad } => quads * per_quad,
        }
    }

    /// Quad of a cluster (0 for flat crossbars).
    pub fn quad_of(&self, cluster: usize) -> usize {
        match self.shape {
            Shape::Crossbar { .. } => 0,
            Shape::HierRing { per_quad, .. } => cluster / per_quad,
        }
    }

    /// The quad that hosts the centralized cache.
    pub const CACHE_QUAD: usize = 0;

    /// Re-runs the shared capacity checker on this topology's shape.
    /// Constructors already enforce it, so on any `Topology` built through
    /// them this is `Ok`; `Network::new` re-checks defensively so a future
    /// construction path cannot overrun the inline route arrays.
    pub fn check_capacity(&self) -> Result<(), CapacityError> {
        match self.shape {
            Shape::Crossbar { clusters } => check_crossbar(clusters),
            Shape::HierRing { quads, per_quad } => check_ring(quads, per_quad),
        }
    }

    /// The longest route this topology can produce, in links: source link
    /// plus shortest-path ring segments (at most `quads / 2`) plus sink
    /// link. Constructors validate this against [`MAX_ROUTE_LINKS`].
    pub fn max_route_links(&self) -> usize {
        let max_segments = match self.shape {
            Shape::Crossbar { .. } => 0,
            Shape::HierRing { quads, .. } => quads / 2,
        };
        2 + max_segments
    }

    /// The canonical compact spec string for this topology (`xbar:4`,
    /// `ring:6x4`, `ring:4x4@hop3`), parseable by
    /// [`crate::topo::TopologySpec`]; non-default segment lengths appear as
    /// suffixes.
    pub fn spec_string(&self) -> String {
        let mut s = match self.shape {
            Shape::Crossbar { clusters } => format!("xbar:{clusters}"),
            Shape::HierRing { quads, per_quad } => format!("ring:{quads}x{per_quad}"),
        };
        if self.is_ring() && self.hop_len != DEFAULT_HOP_LEN {
            s.push_str(&format!("@hop{}", self.hop_len));
        }
        if self.xbar_len != DEFAULT_XBAR_LEN {
            s.push_str(&format!("@xbar{}", self.xbar_len));
        }
        s
    }

    /// All directed links in this topology, in a stable order.
    pub fn all_links(&self) -> Vec<LinkId> {
        let mut links = Vec::new();
        for c in 0..self.clusters() {
            links.push(LinkId::ClusterOut(c));
            links.push(LinkId::ClusterIn(c));
        }
        links.push(LinkId::CacheOut);
        links.push(LinkId::CacheIn);
        if let Shape::HierRing { quads, .. } = self.shape {
            for q in 0..quads {
                links.push(LinkId::Ring {
                    from: q,
                    to: (q + 1) % quads,
                });
                links.push(LinkId::Ring {
                    from: q,
                    to: (q + quads - 1) % quads,
                });
            }
        }
        links
    }

    /// Index of `id` in [`Topology::all_links`] order, computed
    /// arithmetically so hot paths need no hash lookup. The network checks
    /// this against the enumeration at construction time.
    ///
    /// # Panics
    ///
    /// Panics on a ring link in a crossbar topology (no such link is ever
    /// declared).
    pub fn link_slot(&self, id: LinkId) -> usize {
        let n = self.clusters();
        match id {
            LinkId::ClusterOut(c) => 2 * c,
            LinkId::ClusterIn(c) => 2 * c + 1,
            LinkId::CacheOut => 2 * n,
            LinkId::CacheIn => 2 * n + 1,
            LinkId::Ring { from, to } => {
                let Shape::HierRing { quads, .. } = self.shape else {
                    panic!("crossbar topologies have no ring links");
                };
                let clockwise = to == (from + 1) % quads;
                2 * n + 2 + 2 * from + usize::from(!clockwise)
            }
        }
    }

    /// Computes the route from `src` to `dst` for a transfer on `class`
    /// wires without heap allocation. The latency is the per-class segment
    /// derivation ([`heterowire_wires::segment_latency`]) over one crossbar
    /// traversal of [`Topology::xbar_len`] plus [`Topology::hop_len`] per
    /// ring segment.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or a cluster index is out of range (route
    /// length cannot overflow: constructors bound it by
    /// [`MAX_ROUTE_LINKS`]).
    pub fn route_inline(&self, src: Node, dst: Node, class: WireClass) -> InlineRoute {
        assert!(src != dst, "no self-transfers on the network");
        let xbar = segment_latency(class, self.xbar_len);
        let ring = segment_latency(class, self.hop_len);

        let mut links = [LinkId::CacheOut; MAX_ROUTE_LINKS];
        let mut len = 0usize;
        let src_quad = match src {
            Node::Cluster(c) => {
                assert!(c < self.clusters(), "cluster {c} out of range");
                links[len] = LinkId::ClusterOut(c);
                self.quad_of(c)
            }
            Node::Cache => {
                links[len] = LinkId::CacheOut;
                Self::CACHE_QUAD
            }
        };
        len += 1;
        let dst_quad = match dst {
            Node::Cluster(c) => {
                assert!(c < self.clusters(), "cluster {c} out of range");
                self.quad_of(c)
            }
            Node::Cache => Self::CACHE_QUAD,
        };

        // Ring path between quads: shortest direction, clockwise on ties.
        let mut segments = 0u64;
        if let Shape::HierRing { quads, .. } = self.shape {
            if src_quad != dst_quad {
                let cw = (dst_quad + quads - src_quad) % quads;
                let ccw = (src_quad + quads - dst_quad) % quads;
                let step = if cw <= ccw { 1 } else { quads - 1 };
                let mut q = src_quad;
                while q != dst_quad {
                    let n = (q + step) % quads;
                    links[len] = LinkId::Ring { from: q, to: n };
                    len += 1;
                    segments += 1;
                    q = n;
                }
            }
        }
        links[len] = match dst {
            Node::Cluster(c) => LinkId::ClusterIn(c),
            Node::Cache => LinkId::CacheIn,
        };
        len += 1;
        InlineRoute {
            links,
            len: len as u8,
            latency: xbar + ring * segments,
            hops: 1 + segments as u32,
        }
    }

    /// Computes the route from `src` to `dst` for a transfer on `class`
    /// wires (allocating convenience form of [`Topology::route_inline`]).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or a cluster index is out of range.
    pub fn route(&self, src: Node, dst: Node, class: WireClass) -> Route {
        let r = self.route_inline(src, dst, class);
        Route {
            links: r.links().to_vec(),
            latency: r.latency,
            hops: r.hops,
        }
    }

    /// Cluster nearest to the cache (steering gives loads affinity to it).
    /// For the crossbar every cluster is equidistant; quad-0 clusters win in
    /// the hierarchical topology.
    pub fn cache_adjacent(&self, cluster: usize) -> bool {
        self.quad_of(cluster) == Self::CACHE_QUAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_latencies_match_table2() {
        let t = Topology::crossbar4();
        for (class, lat) in [(WireClass::Pw, 3), (WireClass::B, 2), (WireClass::L, 1)] {
            let r = t.route(Node::Cluster(0), Node::Cluster(2), class);
            assert_eq!(r.latency, lat, "{class}");
            assert_eq!(r.hops, 1);
            assert_eq!(r.links, vec![LinkId::ClusterOut(0), LinkId::ClusterIn(2)]);
        }
    }

    #[test]
    fn cache_routes_use_cache_links() {
        let t = Topology::crossbar4();
        let r = t.route(Node::Cluster(1), Node::Cache, WireClass::B);
        assert_eq!(r.links, vec![LinkId::ClusterOut(1), LinkId::CacheIn]);
        let r = t.route(Node::Cache, Node::Cluster(3), WireClass::B);
        assert_eq!(r.links, vec![LinkId::CacheOut, LinkId::ClusterIn(3)]);
    }

    #[test]
    fn hier_ring_same_quad_is_one_crossbar() {
        let t = Topology::hier16();
        let r = t.route(Node::Cluster(4), Node::Cluster(7), WireClass::B);
        assert_eq!(r.latency, 2);
        assert_eq!(r.hops, 1);
    }

    #[test]
    fn hier_ring_adjacent_quad_adds_one_hop() {
        let t = Topology::hier16();
        // Quad 0 -> quad 1.
        let r = t.route(Node::Cluster(0), Node::Cluster(4), WireClass::B);
        assert_eq!(r.latency, 2 + 4);
        assert_eq!(r.hops, 2);
        assert!(r.links.contains(&LinkId::Ring { from: 0, to: 1 }));
    }

    #[test]
    fn hier_ring_opposite_quad_is_two_hops() {
        let t = Topology::hier16();
        // Quad 0 -> quad 2: two hops either way.
        let r = t.route(Node::Cluster(0), Node::Cluster(8), WireClass::L);
        assert_eq!(r.latency, 1 + 2 * 2);
        assert_eq!(r.hops, 3);
    }

    #[test]
    fn hier_ring_picks_short_direction() {
        let t = Topology::hier16();
        // Quad 3 -> quad 0 should go 3->0 directly (one hop ccw... the ring
        // is bidirectional so 3->0 clockwise is 1 hop).
        let r = t.route(Node::Cluster(12), Node::Cache, WireClass::B);
        assert_eq!(r.hops, 2);
        assert!(r.links.contains(&LinkId::Ring { from: 3, to: 0 }));
    }

    #[test]
    fn cache_is_adjacent_to_quad0_only() {
        let t = Topology::hier16();
        assert!(t.cache_adjacent(2));
        assert!(!t.cache_adjacent(5));
        let t4 = Topology::crossbar4();
        assert!(t4.cache_adjacent(3));
    }

    #[test]
    fn all_links_enumerates_everything_once() {
        let t = Topology::hier16();
        let links = t.all_links();
        let unique: std::collections::HashSet<_> = links.iter().collect();
        assert_eq!(links.len(), unique.len());
        // 16 clusters * 2 + cache 2 + 8 ring segments.
        assert_eq!(links.len(), 16 * 2 + 2 + 8);
    }

    #[test]
    fn link_slot_matches_enumeration_order() {
        for t in [
            Topology::crossbar4(),
            Topology::hier16(),
            Topology::crossbar(2),
            Topology::crossbar(8),
            Topology::hier_ring(3, 6),
            Topology::hier_ring(5, 2),
            Topology::hier_ring(8, 4),
        ] {
            for (i, &id) in t.all_links().iter().enumerate() {
                assert_eq!(t.link_slot(id), i, "{id:?}");
            }
            let links = t.all_links();
            let unique: std::collections::HashSet<_> = links.iter().collect();
            assert_eq!(links.len(), unique.len(), "{t:?} duplicates a link");
        }
    }

    #[test]
    fn generated_ring_generalizes_quads_and_latency() {
        // 6 quads of 2 clusters: 12 clusters, up to 3 ring segments.
        let t = Topology::hier_ring(6, 2);
        assert_eq!(t.clusters(), 12);
        assert_eq!(t.quad_of(5), 2);
        assert_eq!(t.max_route_links(), 5);
        // Quad 0 -> quad 3 is opposite: 3 hops.
        let r = t.route(Node::Cluster(0), Node::Cluster(6), WireClass::B);
        assert_eq!(r.hops, 4);
        assert_eq!(r.latency, 2 + 3 * 4);
        // Odd ring: no tie, the short way round wins.
        let t5 = Topology::hier_ring(5, 2);
        let r = t5.route(Node::Cluster(0), Node::Cluster(6), WireClass::L);
        assert_eq!(r.hops, 3); // quad 0 -> 3 counter-clockwise (2 segments)
        assert!(r.links.contains(&LinkId::Ring { from: 4, to: 3 }));
    }

    #[test]
    fn segment_length_overrides_rescale_latency() {
        // hier16 with 3-length hops: B hop becomes ceil(0.8*2.5*3) = 6.
        let t = Topology::hier_ring(4, 4).with_segment_lengths(1, 3);
        let r = t.route(Node::Cluster(0), Node::Cluster(4), WireClass::B);
        assert_eq!(r.latency, 2 + 6);
        // Double-length crossbar: B traversal costs the ring-hop 4.
        let t = Topology::crossbar(4).with_segment_lengths(2, 1);
        let r = t.route(Node::Cluster(0), Node::Cluster(1), WireClass::B);
        assert_eq!(r.latency, 4);
        // Crossbars pin the (unused) hop length for structural equality.
        assert_eq!(
            Topology::crossbar(4).with_segment_lengths(1, 5),
            Topology::crossbar4()
        );
    }

    #[test]
    #[should_panic(expected = "segment length of 1 to 64, got \"hop65\"")]
    fn overlong_segment_is_rejected_at_construction() {
        let _ = Topology::hier16().with_segment_lengths(1, MAX_SEGMENT_LEN + 1);
    }

    #[test]
    fn spec_strings_are_canonical() {
        assert_eq!(Topology::crossbar4().spec_string(), "xbar:4");
        assert_eq!(Topology::hier16().spec_string(), "ring:4x4");
        assert_eq!(
            Topology::hier_ring(6, 2)
                .with_segment_lengths(2, 3)
                .spec_string(),
            "ring:6x2@hop3@xbar2"
        );
    }

    #[test]
    fn labels_borrow_where_possible() {
        assert_eq!(LinkId::CacheOut.label(), "cache.out");
        assert!(matches!(LinkId::CacheIn.label(), Cow::Borrowed(_)));
        assert_eq!(LinkId::ClusterOut(3).label(), "c3.out");
        assert_eq!(LinkId::Ring { from: 1, to: 2 }.label(), "ring.1-2");
    }

    #[test]
    #[should_panic(expected = "at least 3 quads")]
    fn two_quad_ring_is_rejected() {
        let _ = Topology::hier_ring(2, 4);
    }

    #[test]
    #[should_panic(expected = "inline")]
    fn oversized_ring_is_rejected_at_construction() {
        // 20 quads need 2 + 10 = 12 links; the engines hold 10.
        let _ = Topology::hier_ring(20, 2);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn over_cap_crossbar_is_rejected_at_construction() {
        let _ = Topology::crossbar(MAX_SIM_CLUSTERS + 1);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn over_cap_ring_is_rejected_at_construction() {
        // 13 quads fit the route bound, but 13 * 5 = 65 clusters exceed
        // the simulator-wide cap.
        let _ = Topology::hier_ring(13, 5);
    }

    #[test]
    fn headline_wide_shapes_construct() {
        let x = Topology::crossbar(MAX_SIM_CLUSTERS);
        assert_eq!(x.clusters(), 64);
        assert!(x.check_capacity().is_ok());
        let r = Topology::hier_ring(MAX_RING_QUADS, 4);
        assert_eq!(r.clusters(), 64);
        assert_eq!(r.max_route_links(), MAX_ROUTE_LINKS);
        assert!(r.check_capacity().is_ok());
    }

    #[test]
    #[should_panic(expected = "at least 2 clusters")]
    fn degenerate_crossbar_is_rejected() {
        let _ = Topology::crossbar(1);
    }

    #[test]
    #[should_panic(expected = "self-transfers")]
    fn self_route_panics() {
        let _ = Topology::crossbar4().route(Node::Cluster(0), Node::Cluster(0), WireClass::B);
    }
}
