//! The retained scan-based network engine, kept as the equivalence
//! reference for the indexed [`Network`](crate::network::Network).
//!
//! This is the pre-rework implementation verbatim: a flat `pending` Vec
//! rescanned in full on every tick and a flat `in_flight` Vec rescanned
//! (and the due subset sorted) on every delivery drain. It is deliberately
//! simple — the arbitration semantics are readable straight off the scan
//! loop — and deliberately slow, so it must never be used by the
//! simulator itself. The randomized differential tests in
//! `tests/differential.rs` drive it and the production network with
//! identical transfer streams and assert bit-identical [`NetStats`],
//! delivery sets and probe event sequences.

use heterowire_telemetry::{NullProbe, Probe};
use heterowire_wires::WireClass;

use crate::fault::{FaultModel, NullFaultModel};
use crate::message::Transfer;
use crate::network::{class_index, NetConfig, NetStats, TransferId};
use crate::topology::MAX_ROUTE_LINKS;

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: TransferId,
    transfer: Transfer,
    /// Link slots of the route, stored inline (no per-transfer heap).
    links: [u16; MAX_ROUTE_LINKS],
    nlinks: u8,
    latency: u64,
    hops: u32,
    enqueued: u64,
    /// Prior corrupted deliveries of this transfer (0 = original send).
    attempt: u32,
    /// First attempt's scheduled delivery cycle (retry-delay accounting;
    /// 0 while `attempt == 0`).
    first_deliver: u64,
}

impl Pending {
    fn links(&self) -> &[u16] {
        &self.links[..self.nlinks as usize]
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: TransferId,
    transfer: Transfer,
    deliver_at: u64,
    /// Route energy hops (the corruption draw's exposure term).
    hops: u32,
    /// Prior corrupted deliveries of this transfer.
    attempt: u32,
    /// First attempt's scheduled delivery cycle.
    first_deliver: u64,
}

/// The scan-based reference network: same public surface as
/// [`Network`](crate::network::Network) (send / tick / take_delivered /
/// next-event accessors), O(pending) per tick and O(in-flight) per drain.
#[derive(Debug, Clone)]
pub struct ReferenceNetwork<F: FaultModel = NullFaultModel> {
    config: NetConfig,
    /// Lane capacity per link per wire class.
    caps: Vec<[u32; 4]>,
    /// Lanes used in the current cycle per link per class.
    used: Vec<[u32; 4]>,
    pending: Vec<Pending>,
    in_flight: Vec<InFlight>,
    next_id: u64,
    last_tick: Option<u64>,
    stats: NetStats,
    faults: F,
}

impl ReferenceNetwork {
    /// Builds the fault-free reference network for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster link composition is empty.
    pub fn new(config: NetConfig) -> Self {
        ReferenceNetwork::with_faults(config, NullFaultModel)
    }
}

impl<F: FaultModel> ReferenceNetwork<F> {
    /// Builds the reference network with a fault injector (the scan-based
    /// mirror of `Network::with_faults`; the differential tests drive both
    /// with the same injector and assert bit-identical behaviour).
    ///
    /// # Panics
    ///
    /// Panics if the cluster link composition is empty.
    pub fn with_faults(config: NetConfig, faults: F) -> Self {
        assert!(
            !config.cluster_link.is_empty(),
            "links need at least one wire plane"
        );
        let link_ids = config.topology.all_links();
        let cache_link = config.cluster_link.widened(2);
        let mut caps = Vec::with_capacity(link_ids.len());
        for &id in &link_ids {
            let comp = match id {
                crate::topology::LinkId::CacheIn | crate::topology::LinkId::CacheOut => &cache_link,
                _ => &config.cluster_link,
            };
            let mut lanes = [0u32; 4];
            for (ci, &c) in WireClass::ALL.iter().enumerate() {
                lanes[ci] = comp.lanes(c);
            }
            caps.push(lanes);
        }
        let used = vec![[0; 4]; link_ids.len()];
        ReferenceNetwork {
            config,
            caps,
            used,
            pending: Vec::new(),
            in_flight: Vec::new(),
            next_id: 0,
            last_tick: None,
            stats: NetStats::default(),
            faults,
        }
    }

    /// True if the link composition offers any lanes of `class`.
    pub fn has_class(&self, class: WireClass) -> bool {
        self.config.cluster_link.lanes(class) > 0
    }

    /// Enqueues a transfer at `cycle` (see `Network::send`).
    ///
    /// # Panics
    ///
    /// Panics if the message kind is not allowed on the chosen wire class
    /// or the network has no lanes of that class.
    pub fn send(&mut self, transfer: Transfer, cycle: u64) -> TransferId {
        self.send_probed(transfer, cycle, &mut NullProbe)
    }

    /// [`ReferenceNetwork::send`] with telemetry.
    pub fn send_probed<P: Probe>(
        &mut self,
        transfer: Transfer,
        cycle: u64,
        probe: &mut P,
    ) -> TransferId {
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
        let route = self
            .config
            .topology
            .route_inline(transfer.src, transfer.dst, transfer.class);
        let scale = if self.config.transmission_line_l && transfer.class == WireClass::L {
            1.0
        } else {
            self.config.latency_scale
        };
        let latency = ((route.latency as f64) * scale).round() as u64
            + transfer.kind.serialization_cycles(transfer.class);
        let id = TransferId(self.next_id);
        self.next_id += 1;
        self.stats.transfers[class_index(transfer.class)] += 1;
        let mut links = [0u16; MAX_ROUTE_LINKS];
        for (slot, &l) in links.iter_mut().zip(route.links()) {
            *slot = self.config.topology.link_slot(l) as u16;
        }
        self.pending.push(Pending {
            id,
            transfer,
            links,
            nlinks: route.links().len() as u8,
            latency: latency.max(1),
            hops: route.hops,
            enqueued: cycle,
            attempt: 0,
            first_deliver: 0,
        });
        if P::ENABLED {
            probe.enqueue(cycle, id.0, transfer.class);
        }
        id
    }

    /// Arbitrates lanes for `cycle` by rescanning the whole pending set
    /// oldest first (see `Network::tick`).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` moves backwards.
    pub fn tick(&mut self, cycle: u64) {
        self.tick_probed(cycle, &mut NullProbe)
    }

    /// [`ReferenceNetwork::tick`] with telemetry.
    pub fn tick_probed<P: Probe>(&mut self, cycle: u64, probe: &mut P) {
        if let Some(last) = self.last_tick {
            assert!(cycle > last, "network ticked backwards ({last} -> {cycle})");
        }
        self.last_tick = Some(cycle);
        for u in &mut self.used {
            *u = [0; 4];
        }
        // Single ordered pass compacting survivors in place (oldest-first
        // arbitration order is preserved; no per-element shifting).
        let mut kept = 0;
        for i in 0..self.pending.len() {
            let p = self.pending[i];
            let ci = class_index(p.transfer.class);
            // A transfer sent this cycle is eligible next cycle (send
            // buffers add one cycle of wire scheduling).
            let departs = p.enqueued < cycle
                && p.links()
                    .iter()
                    .all(|&l| self.used[l as usize][ci] < self.caps[l as usize][ci]);
            if departs {
                for &l in p.links() {
                    self.used[l as usize][ci] += 1;
                }
                self.stats.queue_cycles += cycle - p.enqueued - 1;
                let bits = p.transfer.kind.bits() as u64 * p.hops as u64;
                self.stats.bit_hops[ci] += bits;
                let mut unit = p.transfer.class.params().relative_dynamic;
                if self.config.transmission_line_l && p.transfer.class == WireClass::L {
                    unit /= 3.0; // Chang et al.: 3x energy reduction
                }
                self.stats.dynamic_energy += bits as f64 * unit;
                if P::ENABLED {
                    probe.depart(cycle, p.id.0, p.transfer.class, cycle - p.enqueued - 1);
                    for &l in p.links() {
                        probe.link_busy(cycle, l as usize, p.transfer.class);
                    }
                }
                let deliver_at = cycle + p.latency;
                self.in_flight.push(InFlight {
                    id: p.id,
                    transfer: p.transfer,
                    deliver_at,
                    hops: p.hops,
                    attempt: p.attempt,
                    // The first departure pins the baseline delivery cycle
                    // the retry-delay metric is measured against.
                    first_deliver: if p.attempt == 0 {
                        deliver_at
                    } else {
                        p.first_deliver
                    },
                });
            } else {
                self.pending[kept] = p;
                kept += 1;
            }
        }
        self.pending.truncate(kept);
    }

    /// Removes all transfers delivered at or before `cycle` into `out`
    /// (cleared first, then sorted by id).
    pub fn take_delivered_into(&mut self, cycle: u64, out: &mut Vec<(TransferId, Transfer)>) {
        self.take_delivered_into_probed(cycle, out, &mut NullProbe)
    }

    /// [`ReferenceNetwork::take_delivered_into`] with telemetry.
    pub fn take_delivered_into_probed<P: Probe>(
        &mut self,
        cycle: u64,
        out: &mut Vec<(TransferId, Transfer)>,
        probe: &mut P,
    ) {
        out.clear();
        let mut kept = 0;
        // Push order is departure order, so due entries are visited in
        // exactly the order the indexed engine drains (dseq) — corrupted
        // transfers re-enter `pending` in the same order on both engines.
        for i in 0..self.in_flight.len() {
            let f = self.in_flight[i];
            if f.deliver_at <= cycle {
                if F::ENABLED
                    && self.faults.corrupts(
                        f.id.0,
                        f.attempt,
                        f.transfer.class,
                        f.transfer.kind.bits(),
                        f.hops,
                    )
                {
                    self.requeue(f, probe);
                    continue;
                }
                self.stats.delivered += 1;
                if F::ENABLED && f.attempt > 0 {
                    self.stats.retry_cycles += f.deliver_at - f.first_deliver;
                }
                if P::ENABLED {
                    // `deliver_at`, not `cycle`: the kernel may have
                    // skipped idle cycles past the actual delivery time.
                    probe.deliver(f.deliver_at, f.id.0, f.transfer.class);
                }
                out.push((f.id, f.transfer));
            } else {
                self.in_flight[kept] = f;
                kept += 1;
            }
        }
        self.in_flight.truncate(kept);
        out.sort_unstable_by_key(|(id, _)| *id);
    }

    /// The latency-scaled route latency, recomputed from `route_inline`
    /// on every call (no route table here). `Network` reads the same
    /// value from its table per (class, ring-segment count).
    fn scaled_base_latency(
        &self,
        src: crate::topology::Node,
        dst: crate::topology::Node,
        class: WireClass,
    ) -> u64 {
        let route = self.config.topology.route_inline(src, dst, class);
        let scale = if self.config.transmission_line_l && class == WireClass::L {
            1.0
        } else {
            self.config.latency_scale
        };
        ((route.latency as f64) * scale).round() as u64
    }

    /// NACK + retransmission, mirroring `Network::requeue` exactly: the
    /// NACK rides the reverse route on the failed class, the retry
    /// re-enters `pending` when it lands, and after the retry limit the
    /// transfer escalates to the B plane.
    fn requeue<P: Probe>(&mut self, f: InFlight, probe: &mut P) {
        self.stats.faults_detected += 1;
        if P::ENABLED {
            probe.fault_detected(f.deliver_at, f.id.0, f.transfer.class, f.attempt);
        }
        let nack = self
            .scaled_base_latency(f.transfer.dst, f.transfer.src, f.transfer.class)
            .max(1);
        let attempt = f.attempt + 1;
        let mut transfer = f.transfer;
        if attempt >= self.faults.retry_limit()
            && transfer.class != WireClass::B
            && self.has_class(WireClass::B)
            && transfer.kind.allowed_on(WireClass::B)
        {
            transfer.class = WireClass::B;
            self.stats.escalations += 1;
        }
        let route = self
            .config
            .topology
            .route_inline(transfer.src, transfer.dst, transfer.class);
        let latency = (self.scaled_base_latency(transfer.src, transfer.dst, transfer.class)
            + transfer.kind.serialization_cycles(transfer.class))
        .max(1);
        let mut links = [0u16; MAX_ROUTE_LINKS];
        for (slot, &l) in links.iter_mut().zip(route.links()) {
            *slot = self.config.topology.link_slot(l) as u16;
        }
        self.pending.push(Pending {
            id: f.id,
            transfer,
            links,
            nlinks: route.links().len() as u8,
            latency,
            hops: route.hops,
            enqueued: f.deliver_at + nack,
            attempt,
            first_deliver: f.first_deliver,
        });
        self.stats.retransmits += 1;
        if P::ENABLED {
            probe.retransmit(f.deliver_at + nack, f.id.0, transfer.class, attempt);
        }
    }

    /// The earliest future cycle at which the network can change state
    /// (see `Network::next_event_cycle`).
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if !self.pending.is_empty() {
            return Some(now + 1);
        }
        self.in_flight
            .iter()
            .map(|f| f.deliver_at)
            .min()
            .map(|d| d.max(now + 1))
    }

    /// Transfers still queued or in flight.
    pub fn inflight_len(&self) -> usize {
        self.pending.len() + self.in_flight.len()
    }

    /// Transfers buffered awaiting lane arbitration (not yet departed).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending transfer next in arbitration order, as `(id, class,
    /// enqueued cycle, attempt)` — mirror of `Network::oldest_pending`.
    pub fn oldest_pending(&self) -> Option<(TransferId, WireClass, u64, u32)> {
        self.pending
            .first()
            .map(|p| (p.id, p.transfer.class, p.enqueued, p.attempt))
    }

    /// Statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}
