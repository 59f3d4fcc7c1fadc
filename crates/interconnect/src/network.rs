//! The O(events) network engine: indexed lane arbitration, a calendar-queue
//! delivery wheel, and energy accounting.
//!
//! Per the paper's model: every link offers the full degree of heterogeneity
//! (its composition in wire planes), transfers are fully pipelined (a lane
//! accepts a new transfer every cycle), contention buffers losers in
//! unbounded FIFOs, and the links in/out of the cache have twice the wires
//! of cluster links.
//!
//! The engine is pinned bit-identical to the retained scan-based
//! [`ReferenceNetwork`](crate::reference::ReferenceNetwork) (same stats,
//! same delivery sets, same probe event sequences — enforced by randomized
//! differential tests). The structural invariants that make the indexed
//! path exact are documented in DESIGN.md §10:
//!
//! * Pending transfers are partitioned into per-(source link, wire class)
//!   FIFO queues. A transfer's first route link is always its source's
//!   injection link, and transfer ids are assigned in send order, so each
//!   queue is id-sorted and the queues partition the pending set.
//! * Each tick merges the queue heads through a min-heap on id, which
//!   reproduces the reference scan's global oldest-first order exactly.
//!   When a grant saturates a queue's own (link, class) lanes the whole
//!   queue is closed for the tick — every later entry shares that first
//!   link and class, so the reference scan would deny them all.
//! * Departed transfers go into a power-of-two calendar wheel keyed by
//!   delivery cycle, so draining deliveries touches only due buckets and
//!   `next_event_cycle` reads the exact earliest delivery in O(1).
//! * A transfer holds one slab slot from `send` until its clean delivery:
//!   the queues and the wheel carry the slot, a retransmission keeps it,
//!   and a delivered slot is released at the start of the next drain. The
//!   slot is returned by `send` and carried by each [`Delivery`], so a
//!   caller can key per-transfer state by it and stay bounded by the
//!   transfers in flight.
//!
//! The engine is additionally generic over a [`FaultModel`]. With the
//! default [`NullFaultModel`] (`ENABLED = false`) every corruption check
//! monomorphizes away and the behaviour above is exactly the fault-free
//! engine. With an injector, a corrupted transfer detected at delivery is
//! NACKed back over the reverse route and re-enters arbitration with a
//! fresh arbitration sequence number (`aseq`), escalating to the B plane
//! after the model's retry limit — see DESIGN.md §14 for the invariants
//! that keep the indexed and reference engines bit-identical under
//! injection.

use std::collections::VecDeque;

use heterowire_telemetry::{NullProbe, Probe};
use heterowire_wires::{LinkComposition, WireClass};

use crate::fault::{FaultModel, NullFaultModel};
use crate::message::{MessageKind, Transfer};
use crate::topology::{LinkId, Node, Topology, MAX_ROUTE_LINKS};

/// Identifier of an in-flight or delivered transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(pub u64);

/// What [`Network::send`] hands back: the transfer's id and the slab slot
/// it holds until its clean delivery. Slots are dense from 0 and reused
/// only after delivery, so a table keyed by the slot grows with the
/// transfers in flight, not with the transfers sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sent {
    /// Send-order id, kept across retransmissions.
    pub id: TransferId,
    /// Slab slot, kept across retransmissions.
    pub slot: u32,
}

/// One clean delivery drained by [`Network::take_delivered_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The id [`Network::send`] returned.
    pub id: TransferId,
    /// The slot [`Network::send`] returned. It is not handed to another
    /// send before the next `take_delivered_into` call, so state keyed by
    /// it stays readable while the caller walks the batch (and sends).
    pub slot: u32,
    /// The transfer as delivered (a retransmission may have escalated its
    /// class).
    pub transfer: Transfer,
}

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Topology (crossbar or hierarchical ring).
    pub topology: Topology,
    /// Wire composition of one direction of a cluster link. Cache links are
    /// twice this; ring segments equal a cluster link.
    pub cluster_link: LinkComposition,
    /// Latency multiplier for wire-constrained sensitivity studies
    /// (§5.3 doubles all interconnect latencies).
    pub latency_scale: f64,
    /// Implement L-Wires as transmission lines (paper §2/§5.2): their
    /// latency stops scaling with the RC-constrained `latency_scale` and
    /// their dynamic energy drops to one third (Chang et al.).
    pub transmission_line_l: bool,
}

impl NetConfig {
    /// Creates a config with unit latency scale.
    pub fn new(topology: Topology, cluster_link: LinkComposition) -> Self {
        NetConfig {
            topology,
            cluster_link,
            latency_scale: 1.0,
            transmission_line_l: false,
        }
    }
}

/// Per-class traffic and energy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetStats {
    /// Transfers injected per class (indexed by `WireClass::ALL` order).
    pub transfers: [u64; 4],
    /// Bit-hops per class (payload bits x energy hops).
    pub bit_hops: [u64; 4],
    /// Weighted dynamic energy units (bit-hops x relative dynamic energy).
    pub dynamic_energy: f64,
    /// Total cycles transfers spent buffered waiting for a lane.
    pub queue_cycles: u64,
    /// Transfers delivered.
    pub delivered: u64,
    /// Deliveries that arrived corrupted (fault injection); each one is
    /// NACKed and retransmitted rather than delivered.
    pub faults_detected: u64,
    /// Retransmissions injected back into arbitration.
    pub retransmits: u64,
    /// Retransmissions escalated from their original class to B-Wires
    /// after exhausting the same-class retry budget.
    pub escalations: u64,
    /// Extra delivery delay accumulated by retried transfers: for each
    /// transfer that eventually arrived clean after one or more
    /// corruptions, the gap between its final and its first scheduled
    /// delivery cycle (NACK transit and re-arbitration included).
    pub retry_cycles: u64,
}

impl NetStats {
    /// Total transfers injected.
    pub fn total_transfers(&self) -> u64 {
        self.transfers.iter().sum()
    }

    /// Fraction of transfers carried on the given class.
    pub fn class_share(&self, class: WireClass) -> f64 {
        let total = self.total_transfers();
        if total == 0 {
            return 0.0;
        }
        self.transfers[class_index(class)] as f64 / total as f64
    }
}

pub(crate) fn class_index(class: WireClass) -> usize {
    WireClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class is one of the four")
}

/// A route resolved once at construction: link slots, energy hops and the
/// latency-scaled base delivery latency (before per-message serialization
/// cycles), cached per (source node, destination node, wire class) so the
/// send hot path is a table lookup instead of a ring walk.
#[derive(Debug, Clone, Copy)]
struct CachedRoute {
    links: [u16; MAX_ROUTE_LINKS],
    nlinks: u8,
    hops: u32,
    base_latency: u64,
}

const EMPTY_ROUTE: CachedRoute = CachedRoute {
    links: [0; MAX_ROUTE_LINKS],
    nlinks: 0,
    hops: 0,
    base_latency: 0,
};

/// Slab entry holding only the fields the per-tick arbitration loop reads
/// (SoA split: the departure-only fields live in [`DepSlot`]; the id rides
/// in the queue entry next to the slot index, so denials never touch the
/// slab at all).
#[derive(Debug, Clone, Copy)]
struct ArbSlot {
    enqueued: u64,
    links: [u16; MAX_ROUTE_LINKS],
    nlinks: u8,
    ci: u8,
}

/// Slab entry holding the fields read when a transfer departs and while it
/// rides the delivery wheel.
#[derive(Debug, Clone, Copy)]
struct DepSlot {
    transfer: Transfer,
    latency: u64,
    /// Route energy hops (also the corruption draw's exposure term).
    hops: u32,
    /// External transfer id. Queues order by `aseq` (which equals the id
    /// until a retransmission is injected), so departures read the id
    /// here.
    id: u64,
    /// Prior corrupted deliveries of this transfer (0 = original send).
    attempt: u32,
    /// Scheduled delivery cycle, written at grant.
    deliver_at: u64,
    /// Grant order, written at grant: sorting a drained batch by it
    /// restores the reference engine's departure order.
    dseq: u64,
    /// Delivery cycle the first attempt was scheduled for, written at the
    /// first grant and kept by retries so clean arrival can account the
    /// total retry delay.
    first_deliver: u64,
}

/// One merge-frontier entry: the oldest not-yet-visited candidate of one
/// active queue during a tick (see `Network::heads`).
#[derive(Debug, Clone, Copy)]
struct Head {
    /// Candidate arbitration sequence number (`u64::MAX` = queue
    /// exhausted/closed). Equal to the transfer id while faults are off.
    id: u64,
    /// Candidate's slab slot.
    slot: u32,
    /// Owning queue index.
    q: u32,
    /// Scan position within the queue (denied entries sit before it).
    cur: u32,
}

/// Calendar queue of in-transit transfers' slab slots keyed by delivery
/// cycle (same shape as the processor's completion wheel). The bucket
/// count is a power of two strictly greater than the longest possible
/// delivery latency for the network's configuration, so under monotone
/// use a bucket only ever holds entries for one cycle; every drain still
/// checks per-entry due-ness, and `earliest` never overestimates, so
/// deliveries are never missed even for manual non-monotone call
/// patterns.
#[derive(Debug, Clone)]
struct DeliveryWheel {
    buckets: Vec<Vec<u32>>,
    mask: u64,
    scheduled: usize,
    /// Earliest scheduled delivery cycle — exact under monotone use,
    /// never an overestimate otherwise (`u64::MAX` when empty).
    earliest: u64,
}

impl DeliveryWheel {
    fn new(horizon: u64) -> Self {
        let n = horizon.next_power_of_two().max(8);
        DeliveryWheel {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            mask: n - 1,
            scheduled: 0,
            earliest: u64::MAX,
        }
    }

    fn schedule(&mut self, now: u64, slot: u32, deliver_at: u64) {
        debug_assert!(
            deliver_at > now && deliver_at - now <= self.mask,
            "delivery {deliver_at} outside wheel horizon at cycle {now}"
        );
        self.buckets[(deliver_at & self.mask) as usize].push(slot);
        self.scheduled += 1;
        self.earliest = self.earliest.min(deliver_at);
    }

    /// Moves every slot due at or before `cycle` (by its `deliver_at` in
    /// `dep`) into `out`, in bucket order, not departure order, and
    /// advances `earliest` to the first surviving delivery.
    fn drain_due(&mut self, cycle: u64, dep: &[DepSlot], out: &mut Vec<u32>) {
        if self.earliest > cycle {
            return;
        }
        let nb = self.buckets.len() as u64;
        let lo = self.earliest;
        let span = cycle - lo + 1;
        let before = out.len();
        // Due entries lie in cycles [earliest, cycle]; visit exactly those
        // buckets (all of them if the span wraps the whole ring).
        for i in 0..span.min(nb) {
            let b = &mut self.buckets[((lo + i) & self.mask) as usize];
            let mut kept = 0;
            for j in 0..b.len() {
                let slot = b[j];
                if dep[slot as usize].deliver_at <= cycle {
                    out.push(slot);
                } else {
                    b[kept] = slot;
                    kept += 1;
                }
            }
            b.truncate(kept);
        }
        self.scheduled -= out.len() - before;
        // Everything due is gone, so the survivors' earliest is past
        // `cycle`: walk the ring forward to the first non-empty bucket.
        // Under the kernel's monotone use a bucket holds a single cycle's
        // entries within any one lap, making this exact; a survivor from a
        // later lap only ever makes it an underestimate, which is safe —
        // the next drain re-checks per-entry due-ness and walks again.
        self.earliest = u64::MAX;
        if self.scheduled > 0 {
            for i in 1..=nb {
                if !self.buckets[((cycle + i) & self.mask) as usize].is_empty() {
                    self.earliest = cycle + i;
                    break;
                }
            }
            debug_assert_ne!(self.earliest, u64::MAX, "scheduled > 0");
        }
    }

    /// The earliest scheduled delivery cycle, if any.
    fn next_due(&self) -> Option<u64> {
        (self.scheduled > 0).then_some(self.earliest)
    }
}

/// The inter-cluster network, generic over fault injection (`F`). The
/// default [`NullFaultModel`] compiles every corruption check away, so
/// `Network` (no parameter) is exactly the fault-free engine.
#[derive(Debug, Clone)]
pub struct Network<F: FaultModel = NullFaultModel> {
    config: NetConfig,
    link_ids: Vec<LinkId>,
    /// Lane capacity per link per wire class.
    caps: Vec<[u32; 4]>,
    /// Lanes used in the current cycle per link per class.
    used: Vec<[u32; 4]>,
    /// Routes cached per (src node, dst node, class); see [`CachedRoute`].
    routes: Vec<CachedRoute>,
    /// Arbitration-read slab half, parallel to `dep` (SoA split).
    arb: Vec<ArbSlot>,
    /// Departure-read slab half, parallel to `arb`.
    dep: Vec<DepSlot>,
    /// Free slab slots. A slot is held from `send` until its clean
    /// delivery and freed at the start of the drain after that.
    free: Vec<u32>,
    /// Per-(source link slot, class) FIFO queues of `(aseq, slab slot)`
    /// pairs, aseq-sorted because arbitration sequence numbers are
    /// assigned in enqueue order (sends and retransmissions alike; with
    /// faults off `aseq == id` exactly). Indexed `slot * 4 + ci`; only
    /// injection links (ClusterOut / CacheOut) ever host entries.
    /// Carrying the key inline keeps the tick's frontier maintenance off
    /// the slab.
    queues: Vec<VecDeque<(u64, u32)>>,
    /// Queues currently holding entries (lazily pruned each tick).
    active: Vec<u32>,
    /// Membership flags for `active`.
    in_active: Vec<bool>,
    /// Tick-local merge frontier: each active queue's current candidate
    /// (id `u64::MAX` once the queue is exhausted or closed for the tick)
    /// plus its scan cursor — entries before the cursor were already
    /// denied this cycle. A linear min-scan over this small array replaces
    /// a heap: the active-queue count is bounded by (source links x
    /// classes) and is almost always a handful, so the scan is
    /// cache-resident and branch-predictable.
    heads: Vec<Head>,
    /// Pending transfers across all queues.
    pending_count: usize,
    wheel: DeliveryWheel,
    /// Slots drained from the wheel. After a drain it holds the slots
    /// delivered clean, which the next drain frees before reusing it (no
    /// steady-state allocation).
    drained: Vec<u32>,
    /// Monotone grant counter tagging departures with their order.
    dseq: u64,
    next_id: u64,
    /// Monotone arbitration sequence: the queue/frontier ordering key,
    /// advanced per enqueue (send or retransmission). Tracks `next_id`
    /// exactly until the first retransmission.
    next_aseq: u64,
    last_tick: Option<u64>,
    stats: NetStats,
    /// Total link leakage weight, precomputed at construction.
    leakage_weight: f64,
    /// Fault injection (zero-sized and check-free for the default
    /// [`NullFaultModel`]).
    faults: F,
}

fn node_of(index: usize, clusters: usize) -> Node {
    if index == clusters {
        Node::Cache
    } else {
        Node::Cluster(index)
    }
}

fn node_index(node: Node, clusters: usize) -> usize {
    match node {
        Node::Cluster(c) => {
            assert!(c < clusters, "cluster {c} out of range");
            c
        }
        Node::Cache => clusters,
    }
}

impl Network {
    /// Builds the fault-free network for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster link composition is empty.
    pub fn new(config: NetConfig) -> Self {
        Network::with_faults(config, NullFaultModel)
    }
}

impl<F: FaultModel> Network<F> {
    /// Builds the network for `config` with the given fault model; with
    /// [`NullFaultModel`] this is exactly [`Network::new`].
    ///
    /// # Panics
    ///
    /// Panics if the cluster link composition is empty.
    pub fn with_faults(config: NetConfig, faults: F) -> Self {
        assert!(
            !config.cluster_link.is_empty(),
            "links need at least one wire plane"
        );
        // The spec layer and the Topology constructors already run the
        // shared capacity checker; re-running it here keeps the inline
        // route arrays safe against any future construction path.
        if let Err(e) = config.topology.check_capacity() {
            panic!("{e}");
        }
        let link_ids = config.topology.all_links();
        let cache_link = config.cluster_link.widened(2);
        let mut caps = Vec::with_capacity(link_ids.len());
        for &id in &link_ids {
            let comp = match id {
                LinkId::CacheIn | LinkId::CacheOut => &cache_link,
                _ => &config.cluster_link,
            };
            let mut lanes = [0u32; 4];
            for (ci, &c) in WireClass::ALL.iter().enumerate() {
                lanes[ci] = comp.lanes(c);
            }
            caps.push(lanes);
        }
        let used = vec![[0; 4]; link_ids.len()];
        // `Topology::link_slot` must agree with the enumeration order of
        // `all_links` (the route table below stores slots, not LinkIds).
        for (i, &id) in link_ids.iter().enumerate() {
            debug_assert_eq!(
                config.topology.link_slot(id),
                i,
                "link slot mismatch for {id:?}"
            );
        }

        // Resolve every (src, dst, class) route once. The wheel horizon is
        // the longest base latency plus the worst-case serialization tail.
        let clusters = config.topology.clusters();
        let nodes = clusters + 1;
        let mut routes = vec![EMPTY_ROUTE; nodes * nodes * 4];
        let max_serialization = MessageKind::SplitValue.serialization_cycles(WireClass::L);
        let mut max_latency = 1u64;
        for si in 0..nodes {
            for di in 0..nodes {
                if si == di {
                    continue;
                }
                let src = node_of(si, clusters);
                let dst = node_of(di, clusters);
                for (ci, &class) in WireClass::ALL.iter().enumerate() {
                    let r = config.topology.route_inline(src, dst, class);
                    let scale = if config.transmission_line_l && class == WireClass::L {
                        1.0
                    } else {
                        config.latency_scale
                    };
                    let base = ((r.latency as f64) * scale).round() as u64;
                    let mut links = [0u16; MAX_ROUTE_LINKS];
                    for (slot, &l) in links.iter_mut().zip(r.links()) {
                        *slot = config.topology.link_slot(l) as u16;
                    }
                    routes[(si * nodes + di) * 4 + ci] = CachedRoute {
                        links,
                        nlinks: r.links().len() as u8,
                        hops: r.hops,
                        base_latency: base,
                    };
                    max_latency = max_latency.max(base.max(1) + max_serialization);
                }
            }
        }

        let leakage_weight = link_ids
            .iter()
            .map(|id| match id {
                LinkId::CacheIn | LinkId::CacheOut => cache_link.leakage_weight(),
                _ => config.cluster_link.leakage_weight(),
            })
            .sum();

        let nqueues = link_ids.len() * 4;
        Network {
            config,
            caps,
            used,
            routes,
            arb: Vec::new(),
            dep: Vec::new(),
            free: Vec::new(),
            queues: (0..nqueues).map(|_| VecDeque::new()).collect(),
            active: Vec::new(),
            in_active: vec![false; nqueues],
            heads: Vec::new(),
            pending_count: 0,
            wheel: DeliveryWheel::new(max_latency + 1),
            drained: Vec::new(),
            dseq: 0,
            next_id: 0,
            next_aseq: 0,
            last_tick: None,
            stats: NetStats::default(),
            leakage_weight,
            faults,
            link_ids,
        }
    }

    /// True if the link composition offers any lanes of `class`.
    pub fn has_class(&self, class: WireClass) -> bool {
        self.config.cluster_link.lanes(class) > 0
    }

    /// Enqueues a transfer at `cycle`. It will compete for lanes starting
    /// with the next [`Network::tick`]. Returns its id and the slot it
    /// holds until delivered (see [`Sent`]).
    ///
    /// # Panics
    ///
    /// Panics if the message kind is not allowed on the chosen wire class
    /// or the network has no lanes of that class.
    pub fn send(&mut self, transfer: Transfer, cycle: u64) -> Sent {
        self.send_probed(transfer, cycle, &mut NullProbe)
    }

    /// [`Network::send`] with telemetry: emits [`Probe::enqueue`]. With
    /// [`NullProbe`] this monomorphizes to exactly `send`.
    #[inline(never)]
    pub fn send_probed<P: Probe>(&mut self, transfer: Transfer, cycle: u64, probe: &mut P) -> Sent {
        assert!(
            transfer.kind.allowed_on(transfer.class),
            "{:?} cannot ride {} wires",
            transfer.kind,
            transfer.class
        );
        assert!(
            self.has_class(transfer.class),
            "network has no {} plane",
            transfer.class
        );
        assert!(
            transfer.src != transfer.dst,
            "no self-transfers on the network"
        );
        let clusters = self.config.topology.clusters();
        let nodes = clusters + 1;
        let si = node_index(transfer.src, clusters);
        let di = node_index(transfer.dst, clusters);
        let ci = class_index(transfer.class);
        let route = &self.routes[(si * nodes + di) * 4 + ci];
        // Chunked messages (a SplitValue on an L lane) trail their first
        // chunk by the serialization cycles; the flit count is a property
        // of the message/lane pair, so latency scaling (already baked into
        // the cached base latency) does not apply to it.
        let latency =
            (route.base_latency + transfer.kind.serialization_cycles(transfer.class)).max(1);
        let id = TransferId(self.next_id);
        self.next_id += 1;
        self.stats.transfers[ci] += 1;
        let route = *route;
        let arb = ArbSlot {
            enqueued: cycle,
            links: route.links,
            nlinks: route.nlinks,
            ci: ci as u8,
        };
        let dep = DepSlot {
            transfer,
            latency,
            hops: route.hops,
            id: id.0,
            attempt: 0,
            deliver_at: 0,
            dseq: 0,
            first_deliver: 0,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.arb[s as usize] = arb;
                self.dep[s as usize] = dep;
                s as usize
            }
            None => {
                self.arb.push(arb);
                self.dep.push(dep);
                self.arb.len() - 1
            }
        };
        self.enqueue_for_arbitration(route.links[0] as usize * 4 + ci, slot);
        if P::ENABLED {
            probe.enqueue(cycle, id.0, transfer.class);
        }
        Sent {
            id,
            slot: slot as u32,
        }
    }

    /// Appends `slot` to arbitration queue `q` under a fresh `aseq` and
    /// keeps the active set and pending count in sync.
    fn enqueue_for_arbitration(&mut self, q: usize, slot: usize) {
        let aseq = self.next_aseq;
        self.next_aseq += 1;
        self.queues[q].push_back((aseq, slot as u32));
        if !self.in_active[q] {
            self.in_active[q] = true;
            self.active.push(q as u32);
        }
        self.pending_count += 1;
    }

    /// Arbitrates lanes for `cycle`: pending transfers (oldest first) that
    /// can reserve a lane on every link of their route depart and will be
    /// delivered `latency` cycles later.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` moves backwards.
    pub fn tick(&mut self, cycle: u64) {
        self.tick_probed(cycle, &mut NullProbe)
    }

    /// Departure bookkeeping shared by the arbitration paths: stats,
    /// probe events and wheel scheduling. The transfer keeps its slot
    /// while in flight. Lane usage and queue removal stay with the
    /// caller — the single-transfer fast path never touches either.
    #[inline]
    fn grant<P: Probe>(&mut self, cycle: u64, slot: usize, a: ArbSlot, probe: &mut P) {
        let d = &mut self.dep[slot];
        let ci = a.ci as usize;
        self.stats.queue_cycles += cycle - a.enqueued - 1;
        let bits = d.transfer.kind.bits() as u64 * d.hops as u64;
        self.stats.bit_hops[ci] += bits;
        let mut unit = d.transfer.class.params().relative_dynamic;
        if self.config.transmission_line_l && d.transfer.class == WireClass::L {
            unit /= 3.0; // Chang et al.: 3x energy reduction
        }
        self.stats.dynamic_energy += bits as f64 * unit;
        if P::ENABLED {
            probe.depart(cycle, d.id, d.transfer.class, cycle - a.enqueued - 1);
            for &l in &a.links[..a.nlinks as usize] {
                probe.link_busy(cycle, l as usize, d.transfer.class);
            }
        }
        d.deliver_at = cycle + d.latency;
        d.dseq = self.dseq;
        if d.attempt == 0 {
            // The first departure pins the baseline delivery cycle the
            // retry-delay metric is measured against.
            d.first_deliver = d.deliver_at;
        }
        self.wheel.schedule(cycle, slot as u32, d.deliver_at);
        self.dseq += 1;
        self.pending_count -= 1;
    }

    /// [`Network::tick`] with telemetry: emits [`Probe::depart`] for every
    /// transfer that wins arbitration and [`Probe::link_busy`] for each
    /// lane-cycle it consumes. With [`NullProbe`] this monomorphizes to
    /// exactly `tick`.
    #[inline(never)]
    pub fn tick_probed<P: Probe>(&mut self, cycle: u64, probe: &mut P) {
        if let Some(last) = self.last_tick {
            assert!(cycle > last, "network ticked backwards ({last} -> {cycle})");
        }
        self.last_tick = Some(cycle);
        if self.pending_count == 0 {
            // Nothing can depart; drop stale (drained-empty) queue
            // activations so future ticks start from a clean set.
            for &q in &self.active {
                self.in_active[q as usize] = false;
            }
            self.active.clear();
            return;
        }
        if self.pending_count == 1 {
            // A sole pending transfer cannot be contended: every lane of
            // its route has capacity >= 1 (`send` rejects classes without
            // lanes), so it departs as soon as it is eligible — no lane
            // accounting or merge frontier needed. This is the dominant
            // case under light traffic.
            loop {
                let q = self.active[0] as usize;
                if let Some(&(_, slot)) = self.queues[q].front() {
                    let a = self.arb[slot as usize];
                    if a.enqueued < cycle {
                        self.grant(cycle, slot as usize, a, probe);
                        self.queues[q].pop_front();
                    }
                    return;
                }
                self.in_active[q] = false;
                self.active.swap_remove(0);
            }
        }
        for u in &mut self.used {
            *u = [0; 4];
        }
        // Seed the merge frontier with the oldest entry of every non-empty
        // queue, pruning queues that drained since their last activation.
        self.heads.clear();
        let mut i = 0;
        while i < self.active.len() {
            let q = self.active[i] as usize;
            match self.queues[q].front() {
                Some(&(id, slot)) => {
                    self.heads.push(Head {
                        id,
                        slot,
                        q: q as u32,
                        cur: 0,
                    });
                    i += 1;
                }
                None => {
                    self.in_active[q] = false;
                    self.active.swap_remove(i);
                }
            }
        }
        // Repeatedly take the globally-oldest frontier candidate; each
        // visit is exactly the transfer the reference scan would visit
        // next among those still able to depart this cycle.
        loop {
            let mut best = 0usize;
            let mut best_id = u64::MAX;
            for (i, h) in self.heads.iter().enumerate() {
                if h.id < best_id {
                    best_id = h.id;
                    best = i;
                }
            }
            if best_id == u64::MAX {
                break;
            }
            let Head {
                slot, q: qi, cur, ..
            } = self.heads[best];
            let q = qi as usize;
            let slot = slot as usize;
            let a = self.arb[slot];
            let ci = a.ci as usize;
            let links = &a.links[..a.nlinks as usize];
            // A transfer sent this cycle is eligible next cycle (send
            // buffers add one cycle of wire scheduling).
            let departs = a.enqueued < cycle
                && links
                    .iter()
                    .all(|&l| self.used[l as usize][ci] < self.caps[l as usize][ci]);
            let ncur = if departs {
                for &l in links {
                    self.used[l as usize][ci] += 1;
                }
                self.grant(cycle, slot, a, probe);
                // Remove at the cursor — almost always the front; denied
                // older entries may sit before it, in which case the shift
                // cost is bounded by the denials already paid this tick.
                if cur == 0 {
                    self.queues[q].pop_front();
                } else {
                    self.queues[q].remove(cur as usize);
                }
                cur
            } else {
                cur + 1
            };
            // Close the queue once its own (link, class) lanes are
            // saturated: every later entry shares that first link and
            // class, so the reference scan would deny them all.
            let own_link = q >> 2;
            let own_ci = q & 3;
            match self.queues[q].get(ncur as usize) {
                Some(&(id, slot)) if self.used[own_link][own_ci] < self.caps[own_link][own_ci] => {
                    self.heads[best] = Head {
                        id,
                        slot,
                        q: qi,
                        cur: ncur,
                    };
                }
                _ => self.heads[best].id = u64::MAX,
            }
        }
    }

    /// Removes all transfers delivered at or before `cycle` into `out`
    /// (cleared first, then sorted by id) without allocating in steady
    /// state. First frees the slots of the previous call's deliveries;
    /// this call's stay held until the next one. O(1) when nothing is due.
    pub fn take_delivered_into(&mut self, cycle: u64, out: &mut Vec<Delivery>) {
        self.take_delivered_into_probed(cycle, out, &mut NullProbe)
    }

    /// [`Network::take_delivered_into`] with telemetry: emits
    /// [`Probe::deliver`] per delivered transfer. With [`NullProbe`] this
    /// monomorphizes to exactly `take_delivered_into`.
    #[inline(never)]
    pub fn take_delivered_into_probed<P: Probe>(
        &mut self,
        cycle: u64,
        out: &mut Vec<Delivery>,
        probe: &mut P,
    ) {
        out.clear();
        // The caller has read the previous batch, so its slots are free
        // now. Freeing them inside that drain would be too early: the
        // caller sends while it walks a batch, and such a send must not
        // get the slot of a delivery not yet read.
        self.free.extend_from_slice(&self.drained);
        self.drained.clear();
        if self.wheel.next_due().is_none_or(|d| d > cycle) {
            return;
        }
        self.wheel.drain_due(cycle, &self.dep, &mut self.drained);
        if P::ENABLED || F::ENABLED {
            // The reference engine processes deliveries in departure
            // order; restore it so probe event sequences match
            // bit-for-bit — and, under fault injection, so corrupted
            // transfers re-enter arbitration in the same order (requeue
            // order decides their `aseq` and therefore future
            // arbitration priority).
            let dep = &self.dep;
            self.drained
                .sort_unstable_by_key(|&slot| dep[slot as usize].dseq);
        }
        // Compact `drained` down to the clean deliveries, whose slots the
        // next call frees; a corrupted transfer keeps its slot.
        let mut delivered = 0;
        for i in 0..self.drained.len() {
            let slot = self.drained[i];
            let d = self.dep[slot as usize];
            if F::ENABLED
                && self.faults.corrupts(
                    d.id,
                    d.attempt,
                    d.transfer.class,
                    d.transfer.kind.bits(),
                    d.hops,
                )
            {
                self.requeue(slot as usize, probe);
                continue;
            }
            self.stats.delivered += 1;
            if F::ENABLED && d.attempt > 0 {
                self.stats.retry_cycles += d.deliver_at - d.first_deliver;
            }
            if P::ENABLED {
                // `deliver_at`, not `cycle`: the kernel may have skipped
                // idle cycles past the actual delivery time.
                probe.deliver(d.deliver_at, d.id, d.transfer.class);
            }
            out.push(Delivery {
                id: TransferId(d.id),
                slot,
                transfer: d.transfer,
            });
            self.drained[delivered] = slot;
            delivered += 1;
        }
        self.drained.truncate(delivered);
        out.sort_unstable_by_key(|d| d.id);
    }

    /// NACK + retransmission (cold: only compiled in with `F::ENABLED`,
    /// only reached on a corrupted delivery). The receiver detected the
    /// corruption at `e.deliver_at`; a NACK rides the reverse route on
    /// the failed attempt's class, and the transfer re-enters arbitration
    /// when it arrives. After the model's retry limit the retry escalates
    /// to the B plane (wider swing, better noise margin) when one exists
    /// and the message may ride it. The retry re-enters arbitration in
    /// its own slot, so it allocates nothing and keeps the id and slot a
    /// caller may have keyed state by; queue ordering uses a fresh
    /// `aseq`, keeping the FIFO-per-queue invariant intact.
    #[inline(never)]
    fn requeue<P: Probe>(&mut self, slot: usize, probe: &mut P) {
        let e = self.dep[slot];
        let clusters = self.config.topology.clusters();
        let nodes = clusters + 1;
        let si = node_index(e.transfer.src, clusters);
        let di = node_index(e.transfer.dst, clusters);
        let old_ci = class_index(e.transfer.class);
        self.stats.faults_detected += 1;
        if P::ENABLED {
            probe.fault_detected(e.deliver_at, e.id, e.transfer.class, e.attempt);
        }
        let nack = self.routes[(di * nodes + si) * 4 + old_ci]
            .base_latency
            .max(1);
        let attempt = e.attempt + 1;
        let mut transfer = e.transfer;
        if attempt >= self.faults.retry_limit()
            && transfer.class != WireClass::B
            && self.has_class(WireClass::B)
            && transfer.kind.allowed_on(WireClass::B)
        {
            transfer.class = WireClass::B;
            self.stats.escalations += 1;
        }
        let ci = class_index(transfer.class);
        let route = self.routes[(si * nodes + di) * 4 + ci];
        let latency =
            (route.base_latency + transfer.kind.serialization_cycles(transfer.class)).max(1);
        let enqueued = e.deliver_at + nack;
        self.arb[slot] = ArbSlot {
            enqueued,
            links: route.links,
            nlinks: route.nlinks,
            ci: ci as u8,
        };
        self.dep[slot] = DepSlot {
            transfer,
            latency,
            hops: route.hops,
            attempt,
            ..e
        };
        self.enqueue_for_arbitration(route.links[0] as usize * 4 + ci, slot);
        self.stats.retransmits += 1;
        if P::ENABLED {
            probe.retransmit(enqueued, e.id, transfer.class, attempt);
        }
    }

    /// The pending transfer with the smallest arbitration sequence (the
    /// one every tick arbitrates first), as `(id, class, enqueued cycle,
    /// attempt)`. Cold diagnostic accessor for the forward-progress
    /// watchdog's stall report.
    pub fn oldest_pending(&self) -> Option<(TransferId, WireClass, u64, u32)> {
        let mut best: Option<(u64, u32)> = None;
        for q in &self.queues {
            if let Some(&(aseq, slot)) = q.front() {
                if best.is_none_or(|(b, _)| aseq < b) {
                    best = Some((aseq, slot));
                }
            }
        }
        best.map(|(_, slot)| {
            let a = self.arb[slot as usize];
            let d = self.dep[slot as usize];
            (TransferId(d.id), d.transfer.class, a.enqueued, d.attempt)
        })
    }

    /// Removes and returns all transfers delivered at or before `cycle`
    /// (allocating convenience form of [`Network::take_delivered_into`]).
    /// Unit-test only, so the production alloc-free invariant cannot
    /// regress through it; everything else reuses a buffer via
    /// [`Network::take_delivered_into`].
    #[cfg(test)]
    pub(crate) fn take_delivered(&mut self, cycle: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.take_delivered_into(cycle, &mut out);
        out
    }

    /// The earliest future cycle at which the network can change state:
    /// next cycle while anything is pending arbitration (departures and
    /// queueing stats accrue per tick), otherwise the earliest in-flight
    /// delivery (read off the wheel in O(1)). `None` when the network is
    /// empty — ticks may then be skipped without observable effect.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if self.pending_count > 0 {
            return Some(now + 1);
        }
        self.wheel.next_due().map(|d| d.max(now + 1))
    }

    /// Transfers still queued or in flight.
    pub fn inflight_len(&self) -> usize {
        self.pending_count + self.wheel.scheduled
    }

    /// Transfers buffered awaiting lane arbitration (not yet departed).
    /// Telemetry reconciliation: `injected - departed == pending_len`.
    pub fn pending_len(&self) -> usize {
        self.pending_count
    }

    /// Labels of all links in stable slot order (the `link` index emitted
    /// by [`Probe::link_busy`] indexes this list).
    pub fn link_labels(&self) -> Vec<String> {
        self.link_ids
            .iter()
            .map(|id| id.label().into_owned())
            .collect()
    }

    /// Statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Total leakage weight of all wire planes on all links — multiply by
    /// executed cycles and the leakage energy unit to get leakage energy.
    /// Precomputed at construction; the derivation from the link list is
    /// kept as a debug assertion.
    pub fn leakage_weight(&self) -> f64 {
        debug_assert_eq!(
            self.leakage_weight,
            self.derive_leakage_weight(),
            "precomputed leakage weight diverged from the link list"
        );
        self.leakage_weight
    }

    fn derive_leakage_weight(&self) -> f64 {
        let cache_link = self.config.cluster_link.widened(2);
        self.link_ids
            .iter()
            .map(|id| match id {
                LinkId::CacheIn | LinkId::CacheOut => cache_link.leakage_weight(),
                _ => self.config.cluster_link.leakage_weight(),
            })
            .sum()
    }

    /// Total metal area of the interconnect in W-wire track units.
    pub fn metal_area(&self) -> f64 {
        let cache_link = self.config.cluster_link.widened(2);
        self.link_ids
            .iter()
            .map(|id| match id {
                LinkId::CacheIn | LinkId::CacheOut => cache_link.metal_area(),
                _ => self.config.cluster_link.metal_area(),
            })
            .sum()
    }

    /// The network's configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::message::MessageKind;
    use crate::topology::Node;
    use heterowire_wires::WirePlane;

    fn b_l_link() -> LinkComposition {
        LinkComposition::new(vec![
            WirePlane::new(WireClass::B, 144),
            WirePlane::new(WireClass::L, 36),
        ])
        .unwrap()
    }

    fn net() -> Network {
        Network::new(NetConfig::new(Topology::crossbar4(), b_l_link()))
    }

    fn reg_transfer(src: usize, dst: usize, class: WireClass) -> Transfer {
        Transfer {
            src: Node::Cluster(src),
            dst: Node::Cluster(dst),
            class,
            kind: if class == WireClass::L {
                MessageKind::NarrowValue
            } else {
                MessageKind::RegisterValue
            },
        }
    }

    #[test]
    fn b_wire_transfer_takes_two_cycles() {
        let mut n = net();
        n.send(reg_transfer(0, 1, WireClass::B), 0);
        n.tick(1);
        assert!(n.take_delivered(2).is_empty());
        n.tick(2);
        n.tick(3);
        let d = n.take_delivered(3);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn l_wire_transfer_is_faster() {
        let mut n = net();
        n.send(reg_transfer(0, 1, WireClass::L), 0);
        n.tick(1);
        let d = n.take_delivered(2);
        assert_eq!(d.len(), 1, "L transfer: 1 cycle after departing at 1");
    }

    #[test]
    fn contention_buffers_excess_transfers() {
        let mut n = net();
        // 144 B-wires = 2 lanes; three same-route transfers in one cycle.
        for _ in 0..3 {
            n.send(reg_transfer(0, 1, WireClass::B), 0);
        }
        n.tick(1);
        n.tick(2);
        n.tick(3);
        n.tick(4);
        let d = n.take_delivered(10);
        assert_eq!(d.len(), 3);
        assert_eq!(n.stats().queue_cycles, 1, "third transfer waited a cycle");
    }

    #[test]
    fn different_routes_do_not_contend() {
        let mut n = net();
        n.send(reg_transfer(0, 1, WireClass::B), 0);
        n.send(reg_transfer(2, 3, WireClass::B), 0);
        n.tick(1);
        n.tick(2);
        n.tick(3);
        assert_eq!(n.take_delivered(3).len(), 2);
        assert_eq!(n.stats().queue_cycles, 0);
    }

    #[test]
    fn cache_link_has_double_capacity() {
        let mut n = net();
        // 4 transfers from different clusters into the cache: cache-in has
        // 4 B lanes, each cluster-out has 2 -> all four depart together.
        for c in 0..4 {
            n.send(
                Transfer {
                    src: Node::Cluster(c),
                    dst: Node::Cache,
                    class: WireClass::B,
                    kind: MessageKind::FullAddress,
                },
                0,
            );
        }
        n.tick(1);
        n.tick(2);
        n.tick(3);
        assert_eq!(n.take_delivered(3).len(), 4);
        assert_eq!(n.stats().queue_cycles, 0);
    }

    #[test]
    fn younger_transfer_bypasses_blocked_older_one() {
        let mut n = net();
        // Saturate c1.in's two B lanes from cluster 2, then race an older
        // blocked transfer (0 -> 1) against a younger one (0 -> 3): the
        // younger departs around it (mid-queue removal in the (c0.out, B)
        // queue) while the older waits a cycle.
        n.send(reg_transfer(2, 1, WireClass::B), 0);
        n.send(reg_transfer(2, 1, WireClass::B), 0);
        let blocked = n.send(reg_transfer(0, 1, WireClass::B), 0);
        let bypass = n.send(reg_transfer(0, 3, WireClass::B), 0);
        n.tick(1);
        n.tick(2);
        n.tick(3);
        n.tick(4);
        let d = n.take_delivered(10);
        assert_eq!(d.len(), 4);
        assert_eq!(n.stats().queue_cycles, 1, "only the blocked one waited");
        // The bypasser departed at cycle 1 (delivered 3), the blocked
        // transfer at cycle 2 (delivered 4).
        assert!(d.iter().any(|d| d.id == bypass.id));
        assert!(d.iter().any(|d| d.id == blocked.id));
    }

    #[test]
    fn next_event_is_exact_for_pending_and_in_flight() {
        let mut n = net();
        assert_eq!(n.next_event_cycle(0), None, "empty network has no events");
        n.send(reg_transfer(0, 1, WireClass::B), 0);
        assert_eq!(n.next_event_cycle(0), Some(1), "pending -> next tick");
        n.tick(1);
        // Departed at 1, B crossbar latency 2 -> delivery at 3 exactly.
        assert_eq!(n.next_event_cycle(1), Some(3));
        let mut out = Vec::new();
        n.take_delivered_into(3, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(n.next_event_cycle(3), None);
    }

    #[test]
    fn delivery_wheel_drains_across_skipped_cycles() {
        let mut n = net();
        // Deliveries due at several different cycles, drained in one call
        // far in the future (the kernel skips idle cycles).
        n.send(reg_transfer(0, 1, WireClass::L), 0);
        n.send(reg_transfer(0, 1, WireClass::B), 0);
        n.tick(1);
        n.send(reg_transfer(2, 3, WireClass::B), 5);
        n.tick(6);
        let d = n.take_delivered(1000);
        assert_eq!(d.len(), 3);
        assert_eq!(n.inflight_len(), 0);
        // Ids come back sorted.
        assert!(d.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn slot_is_held_from_send_until_the_drain_after_delivery() {
        let mut n = net();
        let a = n.send(reg_transfer(0, 1, WireClass::L), 0);
        n.tick(1); // a departs, due at 2
        let b = n.send(reg_transfer(2, 3, WireClass::L), 1);
        assert_ne!(b.slot, a.slot, "a is in flight");
        n.tick(2); // b departs, due at 3
        let d = n.take_delivered(2);
        assert_eq!((d.len(), d[0].id, d[0].slot), (1, a.id, a.slot));
        // A send while the batch is walked must not reuse a's slot.
        let c = n.send(reg_transfer(0, 2, WireClass::B), 2);
        assert!(c.slot != a.slot && c.slot != b.slot);
        // The next drain releases it, and the slab does not grow.
        let d = n.take_delivered(3);
        assert_eq!((d.len(), d[0].slot), (1, b.slot));
        let e = n.send(reg_transfer(1, 0, WireClass::L), 3);
        assert_eq!(e.slot, a.slot);
        assert_eq!(n.arb.len(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot ride")]
    fn wide_message_on_l_wire_panics() {
        let mut n = net();
        n.send(
            Transfer {
                src: Node::Cluster(0),
                dst: Node::Cluster(1),
                class: WireClass::L,
                kind: MessageKind::RegisterValue,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "no PW-Wires plane")]
    fn missing_plane_panics() {
        let mut n = net();
        n.send(reg_transfer(0, 1, WireClass::Pw), 0);
    }

    #[test]
    fn split_value_pays_serialization_on_l_wires() {
        let mut n = net();
        n.send(
            Transfer {
                src: Node::Cluster(0),
                dst: Node::Cluster(1),
                class: WireClass::L,
                kind: MessageKind::SplitValue,
            },
            0,
        );
        n.tick(1);
        // L crossbar latency 1 + 3 trailing chunks: delivered at 1 + 4.
        assert!(n.take_delivered(4).is_empty());
        assert_eq!(n.take_delivered(5).len(), 1);
        // Energy charges all 72 bits at the L dynamic weight.
        assert!((n.stats().dynamic_energy - 72.0 * 0.84).abs() < 1e-9);
    }

    #[test]
    fn latency_scale_doubles_delivery_time() {
        let mut cfg = NetConfig::new(Topology::crossbar4(), b_l_link());
        cfg.latency_scale = 2.0;
        let mut n = Network::new(cfg);
        n.send(reg_transfer(0, 1, WireClass::B), 0);
        n.tick(1);
        assert!(n.take_delivered(4).is_empty());
        let d = n.take_delivered(5);
        assert_eq!(d.len(), 1, "doubled B latency = 4 cycles after depart");
    }

    #[test]
    fn energy_accounting_weights_by_class() {
        let mut n = net();
        n.send(reg_transfer(0, 1, WireClass::B), 0);
        n.tick(1);
        let e_b = n.stats().dynamic_energy;
        assert!((e_b - 72.0 * 0.58).abs() < 1e-9);
        n.send(reg_transfer(0, 1, WireClass::L), 1);
        n.tick(2);
        let e_total = n.stats().dynamic_energy;
        assert!((e_total - e_b - 18.0 * 0.84).abs() < 1e-9);
    }

    #[test]
    fn leakage_weight_counts_all_links() {
        let n = net();
        // 4 cluster links x2 dirs + cache x2 (double width).
        let cluster = 144.0 * 0.55 + 36.0 * 0.79;
        let expect = 8.0 * cluster + 2.0 * 2.0 * cluster;
        assert!((n.leakage_weight() - expect).abs() < 1e-9);
    }

    #[test]
    fn hier_ring_transfer_traverses_ring() {
        let mut n = Network::new(NetConfig::new(Topology::hier16(), b_l_link()));
        n.send(
            Transfer {
                src: Node::Cluster(0),
                dst: Node::Cluster(8),
                class: WireClass::B,
                kind: MessageKind::RegisterValue,
            },
            0,
        );
        n.tick(1);
        // Latency 2 + 2*4 = 10, departing at 1 -> delivered at 11.
        assert!(n.take_delivered(10).is_empty());
        assert_eq!(n.take_delivered(11).len(), 1);
    }

    #[test]
    fn stats_class_share() {
        let mut n = net();
        n.send(reg_transfer(0, 1, WireClass::B), 0);
        n.send(reg_transfer(0, 1, WireClass::B), 0);
        n.send(reg_transfer(0, 1, WireClass::L), 0);
        let s = n.stats();
        assert_eq!(s.total_transfers(), 3);
        assert!((s.class_share(WireClass::B) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn corrupted_transfer_retries_and_escalates_to_b() {
        // Saturated L error rate, one same-class retry allowed. The full
        // timeline on a crossbar (L latency 1, B latency 2, NACK 1):
        //   send @0 -> depart @1 -> corrupt at delivery @2
        //   -> NACK back (1 cycle) -> re-enqueued @3, escalated to B
        //   (attempt 1 >= retry limit 1) -> depart @4 -> deliver @6.
        let faults = FaultSpec::parse("faults:l@1+retry:1").unwrap().injector();
        let mut n = Network::with_faults(NetConfig::new(Topology::crossbar4(), b_l_link()), faults);
        let sent = n.send(reg_transfer(0, 1, WireClass::L), 0);
        n.tick(1);
        assert!(n.take_delivered(2).is_empty(), "first copy arrives corrupt");
        assert_eq!(n.stats().faults_detected, 1);
        assert_eq!(n.stats().retransmits, 1);
        assert_eq!(n.stats().escalations, 1, "retry limit 1 escalates at once");
        assert_eq!(n.pending_len(), 1, "retransmission waits for arbitration");
        n.tick(3); // NACK still in flight: enqueued @3 is not yet eligible
        assert!(n.take_delivered(3).is_empty());
        n.tick(4);
        let d = n.take_delivered(6);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].id, sent.id, "the retried copy keeps its transfer id");
        assert_eq!(d[0].slot, sent.slot, "and its slot");
        assert_eq!(
            d[0].transfer.class,
            WireClass::B,
            "delivered on the escalated plane"
        );
        let s = n.stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(s.total_transfers(), 1, "retries are not new sends");
        assert_eq!(s.retry_cycles, 4, "clean arrival @6 vs first schedule @2");
        // Both copies paid wire energy: 18 bits on L, then 18 bits on B.
        assert!((s.dynamic_energy - (18.0 * 0.84 + 18.0 * 0.58)).abs() < 1e-9);
    }

    #[test]
    fn same_class_retry_precedes_escalation() {
        // Default retry limit 2: attempt 1 retries on L, attempt 2
        // escalates. A saturated rate corrupts every L copy, so exactly
        // one same-class retry happens before the B-plane rescue.
        let faults = FaultSpec::parse("l@1").unwrap().injector();
        let mut n = Network::with_faults(NetConfig::new(Topology::crossbar4(), b_l_link()), faults);
        n.send(reg_transfer(0, 1, WireClass::L), 0);
        for cycle in 1..20 {
            n.tick(cycle);
            if !n.take_delivered(cycle).is_empty() {
                break;
            }
        }
        let s = n.stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(
            s.faults_detected, 2,
            "original + one same-class retry corrupt"
        );
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.escalations, 1);
    }

    #[test]
    fn zero_rate_injector_changes_nothing() {
        // An all-zero transient spec must reproduce the baseline stats
        // bit-for-bit even though the fault plumbing is compiled in.
        let faults = FaultSpec::parse("l@0+b@0").unwrap().injector();
        let mut base = net();
        let mut faulty =
            Network::with_faults(NetConfig::new(Topology::crossbar4(), b_l_link()), faults);
        fn drive<F: crate::fault::FaultModel>(n: &mut Network<F>) {
            let mut out = Vec::new();
            n.send(reg_transfer(0, 1, WireClass::B), 0);
            n.send(reg_transfer(0, 1, WireClass::B), 0);
            n.send(reg_transfer(2, 3, WireClass::L), 0);
            n.tick(1);
            n.tick(2);
            n.take_delivered_into(10, &mut out);
            assert_eq!(out.len(), 3);
        }
        drive(&mut base);
        drive(&mut faulty);
        let (b, f) = (base.stats(), faulty.stats());
        assert_eq!(b, f);
        assert_eq!(f.faults_detected, 0);
        assert_eq!(f.retry_cycles, 0);
    }

    #[test]
    fn oldest_pending_reports_the_arbitration_head() {
        let mut n = net();
        assert_eq!(n.oldest_pending(), None);
        let first = n.send(reg_transfer(0, 1, WireClass::B), 3);
        n.send(reg_transfer(2, 3, WireClass::B), 5);
        let (id, class, enqueued, attempt) = n.oldest_pending().unwrap();
        assert_eq!(id, first.id);
        assert_eq!(class, WireClass::B);
        assert_eq!(enqueued, 3);
        assert_eq!(attempt, 0);
    }
}
