//! Execution completion, network deliveries and every outbound send.
//!
//! All per-message wire-class decisions are delegated to the attached
//! [`TransferPolicy`]; this module owns the *when* and *where* (what gets
//! sent, to whom, with which delivery [`Action`]) while the policy owns
//! the *how* (class, message form, replay delay). Decision calls happen in
//! the exact order messages are sent so stateful policies observe the
//! same sequence under either kernel.

use std::cmp::Reverse;

use heterowire_interconnect::{FaultModel, MessageKind, Node, Sent, Transfer};
use heterowire_isa::{OpClass, RegClass};
use heterowire_memory::{LoadBlockers, LoadStatus};
use heterowire_telemetry::Probe;
use heterowire_wires::WireClass;

use super::policy::{CacheReturn, TransferPolicy, ValueCopy};
use super::wheel::DeferredSend;
use super::{Action, Phase, Processor, FULL_SCAN, IN_FLIGHT, NO_WAITER, PARTIAL_SCAN};

impl<P: Probe, T: TransferPolicy, F: FaultModel> Processor<P, T, F> {
    /// Schedules a send for cycle `at` (clamped to the next cycle, matching
    /// the reference scan — see [`DeferredSend`]).
    pub(super) fn defer_send(&mut self, at: u64, transfer: Transfer, action: Action) {
        let at = at.max(self.cycle + 1);
        let dseq = self.deferred_seq;
        self.deferred_seq += 1;
        self.deferred.push(Reverse(DeferredSend {
            at,
            dseq,
            transfer,
            action,
        }));
    }

    /// Sends a copy of the register value in `row` to `cluster`; the
    /// policy picks the class and message form. `ready_at_dispatch` marks
    /// the paper's first PW criterion.
    pub(super) fn send_value_copy(&mut self, row: u32, cluster: usize, ready_at_dispatch: bool) {
        let (src_cluster, narrow, value, pc, critical) = {
            let v = self.values.info(row);
            // Completion-time copies carry the criticality mark recorded
            // when the consumer subscribed; dispatch-time copies had slack
            // by definition.
            let critical = !ready_at_dispatch && v.critical_subs.contains(cluster);
            (v.cluster, v.narrow, v.value, v.pc, critical)
        };
        let dest_iq_used = self.steering.iq_used(cluster);
        let decision = self.policy.value_copy(
            ValueCopy {
                narrow,
                value,
                pc,
                ready_at_dispatch,
                critical,
                src_cluster,
                dst_cluster: cluster,
                dest_iq_used,
            },
            self.cycle,
            &mut self.probe,
        );
        let transfer = Transfer {
            src: Node::Cluster(src_cluster),
            dst: Node::Cluster(cluster),
            class: decision.class,
            kind: decision.kind,
        };
        let action = Action::ValueArrive {
            row,
            cluster: cluster as u32,
        };
        if decision.delay > 0 {
            self.defer_send(self.cycle + decision.delay, transfer, action);
        } else {
            let sent = self
                .network
                .send_probed(transfer, self.cycle, &mut self.probe);
            self.record_action(sent, action);
        }
        self.values.set_arrival(row, cluster, IN_FLIGHT);
    }

    /// Publishes the value in `row`, produced in `cluster` this cycle:
    /// sends copies to its subscribers (in subscription order) and wakes
    /// its local waiters.
    fn publish(&mut self, row: u32, cluster: usize) {
        self.values.info_mut(row).done_at = Some(self.cycle);
        let subs = self.values.take_subscribers(row);
        for c in subs.iter() {
            self.send_value_copy(row, c, false);
        }
        self.wake_waiters(row, cluster);
    }

    /// Records the delivery action of a freshly sent transfer under its
    /// network slot. Slots are dense and a new one is always the next
    /// index, so the table pushes for a new slot and overwrites a reused
    /// one. The network holds the slot until the drain after the
    /// delivery, so the action stays readable while its batch is walked.
    pub(super) fn record_action(&mut self, sent: Sent, action: Action) {
        let slot = sent.slot as usize;
        if slot == self.actions.len() {
            self.actions.push(action);
        } else {
            self.actions[slot] = action;
        }
    }

    /// Records a memory op's partial ([`PARTIAL_SCAN`]) or full
    /// ([`FULL_SCAN`]) address at the LSQ and wakes what the arrival can
    /// unblock: for a store, the loads whose scans stopped at it; for a
    /// load, the load itself, which joins the active list on its first
    /// address. A late partial address of a committed op is dropped.
    fn deliver_address(&mut self, seq: u64, scan: usize) {
        let Some(inst) = self.rob_get(seq) else {
            return;
        };
        let op = inst.op;
        let lref = inst.lsq_ref.expect("memory op has an LSQ handle");
        let addr = op.addr().expect("memory ops have addresses");
        let now = self.cycle;
        if scan == FULL_SCAN {
            self.lsq.arrive_full_ref(lref, addr, now);
        } else {
            self.lsq.arrive_partial_ref(lref, addr, now);
        }
        let inst = self.rob_get_mut(seq).expect("in rob");
        if op.op() == OpClass::Store {
            if scan == FULL_SCAN {
                inst.store_addr_arrived = true;
                // Both halves at the LSQ: committable. (The address is
                // only ever sent after AGEN, so the phase is already
                // MemPending here.)
                if inst.store_data_arrived && inst.phase == Phase::MemPending {
                    inst.phase = Phase::Done;
                }
                self.wake_lsq_waiters(seq, FULL_SCAN);
            }
            // A full address also fills in the partial bits.
            self.wake_lsq_waiters(seq, PARTIAL_SCAN);
        } else {
            inst.lsq_status = None;
            let newly_at_cache = !std::mem::replace(&mut inst.at_cache, true);
            self.loads_woken = true;
            if newly_at_cache {
                debug_assert!(!self.active_loads.contains(&seq), "load {seq} active twice");
                self.active_loads.push(seq);
            }
        }
    }

    /// Wakes the loads whose `scan` stopped at `store`: their status must
    /// be polled again.
    fn wake_lsq_waiters(&mut self, store: u64, scan: usize) {
        let head = &mut self.rob_get_mut(store).expect("store in rob").lsq_waiters[scan];
        let mut node = std::mem::replace(head, NO_WAITER);
        while node != NO_WAITER {
            let load = self
                .rob_get_mut(u64::from(node))
                .expect("waiting load in rob");
            node = std::mem::replace(&mut load.lsq_next[scan], NO_WAITER);
            load.lsq_status = None;
            self.loads_woken = true;
        }
    }

    /// Records a load's poll result and links it into the waiter list of
    /// each store it now waits on. A blocker unchanged since the last poll
    /// is still linked: its address has not arrived, or it would have
    /// woken the load and no scan would stop at it again.
    fn note_poll(&mut self, seq: u64, status: LoadStatus, blockers: LoadBlockers) {
        let load = self.rob_get_mut(seq).expect("load in rob");
        let old = std::mem::replace(&mut load.lsq_blockers, blockers);
        load.lsq_status = Some(status);
        for (scan, store, was) in [
            (FULL_SCAN, blockers.full, old.full),
            (PARTIAL_SCAN, blockers.partial, old.partial),
        ] {
            let Some(store) = store.filter(|&s| Some(s) != was) else {
                continue;
            };
            debug_assert!(seq < (1 << 31), "waiter seqs must fit 31 bits");
            let head = &mut self.rob_get_mut(store).expect("store in rob").lsq_waiters[scan];
            let next = std::mem::replace(head, seq as u32);
            self.rob_get_mut(seq).expect("load in rob").lsq_next[scan] = next;
        }
    }

    /// Processes everything the network delivered this cycle.
    pub(super) fn process_deliveries(&mut self) {
        let mut delivered = std::mem::take(&mut self.delivered_scratch);
        self.network
            .take_delivered_into_probed(self.cycle, &mut delivered, &mut self.probe);
        for d in &delivered {
            let action = self.actions[d.slot as usize];
            match action {
                Action::ValueArrive { row, cluster } => {
                    let cluster = cluster as usize;
                    self.values.set_arrival(row, cluster, self.cycle);
                    self.wake_waiters(row, cluster);
                }
                Action::PartialAddr { seq } => self.deliver_address(seq, PARTIAL_SCAN),
                Action::FullAddr { seq } => self.deliver_address(seq, FULL_SCAN),
                Action::StoreData { seq } => {
                    if let Some(i) = self.rob_get_mut(seq) {
                        i.store_data_arrived = true;
                        // Data may arrive before AGEN finishes; the store
                        // then completes when its address arrives instead.
                        if i.store_addr_arrived && i.phase == Phase::MemPending {
                            i.phase = Phase::Done;
                        }
                    }
                }
                Action::CacheData { seq } => {
                    let Some(i) = self.rob_get_mut(seq) else {
                        continue;
                    };
                    i.phase = Phase::Done;
                    let (cluster, dest_row) = (i.cluster, i.dest_row);
                    // A load without a destination has no readers.
                    if let Some(row) = dest_row {
                        self.publish(row, cluster);
                    }
                }
                Action::BranchSignal => {
                    self.fetch
                        .redirect(self.cycle + self.config.mispredict_refill);
                    if P::ENABLED {
                        self.probe.fetch_resume(self.cycle);
                    }
                }
            }
        }
        self.delivered_scratch = delivered;
    }

    /// Flushes deferred sends whose time has come, in `(at, dseq)` order.
    pub(super) fn process_deferred(&mut self) {
        while let Some(&Reverse(d)) = self.deferred.peek() {
            if d.at > self.cycle {
                break;
            }
            self.deferred.pop();
            let sent = self
                .network
                .send_probed(d.transfer, self.cycle, &mut self.probe);
            self.record_action(sent, d.action);
        }
    }

    /// Reference kernel: finds results produced this cycle by scanning the
    /// whole ROB for matured [`Phase::Executing`] entries.
    pub(super) fn complete_execution_scan(&mut self) {
        let cycle = self.cycle;
        let mut finished = std::mem::take(&mut self.finished_scratch);
        finished.clear();
        for (i, inst) in self.rob.iter().enumerate() {
            if let Phase::Executing(done) = inst.phase {
                if done <= cycle {
                    finished.push(self.rob_base + i as u64);
                }
            }
        }
        for &seq in &finished {
            self.finish_one(seq);
        }
        self.finished_scratch = finished;
    }

    /// Event kernel: pops exactly the instructions completing this cycle
    /// from the wheel (already in seq order — the order the scan finds
    /// them in).
    pub(super) fn complete_execution_event(&mut self) {
        let mut finished = std::mem::take(&mut self.finished_scratch);
        self.wheel.pop_due(self.cycle, &mut finished);
        for &seq in &finished {
            self.finish_one(seq);
        }
        self.finished_scratch = finished;
    }

    /// Completes one instruction whose execution finished this cycle:
    /// publishes the result and sends copies to subscribers, launches
    /// memory-op address transfers and branch signals.
    pub(super) fn finish_one(&mut self, seq: u64) {
        let cycle = self.cycle;
        if P::ENABLED {
            self.probe.complete(cycle, seq);
        }
        {
            let (op, cluster, mispredict, dest_row) = {
                let i = self.rob_get(seq).expect("in rob");
                (i.op, i.cluster, i.mispredict, i.dest_row)
            };
            match op.op() {
                OpClass::Load => {
                    // AGEN finished: ship the address to the LSQ.
                    self.rob_get_mut(seq).expect("in rob").phase = Phase::MemPending;
                    self.send_address(seq, cluster);
                }
                OpClass::Store => {
                    let inst = self.rob_get_mut(seq).expect("in rob");
                    inst.phase = Phase::MemPending;
                    inst.agen_done = true;
                    self.send_address(seq, cluster);
                }
                OpClass::Branch => {
                    self.rob_get_mut(seq).expect("in rob").phase = Phase::Done;
                    if mispredict {
                        let decision = self.policy.branch_signal(cycle, &mut self.probe);
                        let sent = self.network.send_probed(
                            Transfer {
                                src: Node::Cluster(cluster),
                                dst: Node::Cache,
                                class: decision.class,
                                kind: decision.kind,
                            },
                            cycle,
                            &mut self.probe,
                        );
                        self.record_action(sent, Action::BranchSignal);
                    }
                }
                _ => {
                    // ALU result: publish and notify subscribers.
                    self.rob_get_mut(seq).expect("in rob").phase = Phase::Done;
                    if let (Some(d), Some(row)) = (op.dest(), dest_row) {
                        self.publish(row, cluster);
                        // Integer results train the policy's width
                        // predictor (the detector sits next to the ALU).
                        if d.class() == RegClass::Int {
                            self.policy.observe_result(op.pc(), op.is_narrow_result());
                        }
                    }
                }
            }
        }
    }

    /// Sends the (partial +) full address of a load/store to the LSQ.
    pub(super) fn send_address(&mut self, seq: u64, cluster: usize) {
        let cycle = self.cycle;
        if self.policy.dispatches_partial_address() {
            let sent = self.network.send_probed(
                Transfer {
                    src: Node::Cluster(cluster),
                    dst: Node::Cache,
                    class: WireClass::L,
                    kind: MessageKind::PartialAddress,
                },
                cycle,
                &mut self.probe,
            );
            self.record_action(sent, Action::PartialAddr { seq });
        }
        let class = self.policy.full_address(cycle, &mut self.probe);
        let sent = self.network.send_probed(
            Transfer {
                src: Node::Cluster(cluster),
                dst: Node::Cache,
                class,
                kind: MessageKind::FullAddress,
            },
            cycle,
            &mut self.probe,
        );
        self.record_action(sent, Action::FullAddr { seq });
    }

    /// Advances loads at the cache through disambiguation and RAM access,
    /// walking the active list in order (shared by both kernels).
    ///
    /// The event kernel polls a load's LSQ status only when an input of
    /// its last status changed — the wake rule of
    /// [`heterowire_memory::LoadBlockers`]: its own address or a blocking
    /// store's arrived (`lsq_status` reset to `None` on delivery), or it
    /// is in partial conflict and a store retired. Any other poll would
    /// return the same status with no side effect. The reference kernel
    /// (`poll_all`) polls every active load every cycle, and in debug
    /// builds checks that the loads the rule leaves asleep kept theirs.
    pub(super) fn progress_memory_loads(&mut self, poll_all: bool) {
        let cycle = self.cycle;
        let use_partial = self.config.opts.cache_pipeline;
        let retired = std::mem::take(&mut self.retired_store);
        if !(poll_all || std::mem::take(&mut self.loads_woken) || retired) {
            return;
        }

        // Loads at the LSQ/cache.
        let mut i = 0;
        while i < self.active_loads.len() {
            let seq = self.active_loads[i];
            let Some(inst) = self.rob_get(seq) else {
                self.active_loads.swap_remove(i);
                continue;
            };
            if inst.phase != Phase::MemPending {
                i += 1;
                continue;
            }
            let last = inst.lsq_status;
            let woken = last.is_none() || (retired && last == Some(LoadStatus::PartialConflict));
            if !(woken || poll_all) {
                i += 1;
                continue;
            }
            let addr = inst.op.addr().expect("loads have addresses");
            let cluster = inst.cluster;
            let narrow = inst.op.is_narrow_result();
            let pc = inst.op.pc();
            let ram_start = inst.ram_start;
            let lref = inst.lsq_ref.expect("memory op has an LSQ handle");
            let (status, blockers) =
                self.lsq
                    .load_status_and_blockers(lref, cycle, use_partial, &mut self.probe);
            debug_assert!(
                woken || last == Some(status),
                "load {seq} went from {last:?} to {status:?} without a wake-up"
            );
            self.note_poll(seq, status, blockers);
            match status {
                LoadStatus::PartialReady => {
                    if ram_start.is_none() {
                        self.rob_get_mut(seq).expect("in rob").ram_start = Some(cycle);
                        if P::ENABLED {
                            self.probe.lsq_partial_ready(cycle, seq);
                        }
                    }
                    i += 1;
                }
                LoadStatus::FullReady { forward } => {
                    let data_ready = if forward {
                        cycle + 1
                    } else {
                        let accelerated =
                            use_partial && ram_start.map(|r| r < cycle).unwrap_or(false);
                        let rs = if accelerated {
                            ram_start.unwrap()
                        } else {
                            cycle
                        };
                        self.memory.load(addr, rs, cycle, accelerated)
                    };
                    // Return the data to the cluster over the network.
                    let int_dest = self
                        .rob_get(seq)
                        .and_then(|i| i.op.dest())
                        .map(|d| d.class() == RegClass::Int)
                        .unwrap_or(false);
                    let decision = self.policy.cache_data(
                        CacheReturn {
                            narrow,
                            pc,
                            int_dest,
                        },
                        cycle,
                        &mut self.probe,
                    );
                    self.defer_send(
                        data_ready,
                        Transfer {
                            src: Node::Cache,
                            dst: Node::Cluster(cluster),
                            class: decision.class,
                            kind: decision.kind,
                        },
                        Action::CacheData { seq },
                    );
                    self.active_loads.swap_remove(i);
                }
                _ => {
                    i += 1;
                }
            }
        }
    }

    /// Reference kernel: scans the whole ROB for stores whose data operand
    /// became ready and launches their data transfers.
    pub(super) fn progress_memory_stores_scan(&mut self) {
        let cycle = self.cycle;
        // Store data: send once the data operand is ready in the cluster.
        let mut to_send = std::mem::take(&mut self.store_send_scratch);
        to_send.clear();
        for (off, inst) in self.rob.iter().enumerate() {
            if inst.op.op() != OpClass::Store || inst.store_data_sent {
                continue;
            }
            // Data operand is the second source when present.
            let ready = match inst.src_producer[1] {
                None => true,
                Some(p) => self
                    .value_ready_in(p, inst.cluster)
                    .map(|c| c <= cycle)
                    .unwrap_or(false),
            };
            if ready {
                to_send.push((self.rob_base + off as u64, inst.cluster));
            }
        }
        for &(seq, cluster) in &to_send {
            self.send_store_data(seq, cluster);
        }
        self.store_send_scratch = to_send;
    }

    /// Event kernel: drains the stores whose data operand became ready
    /// (registered at dispatch or woken by a value event), in seq order —
    /// the order the reference scan finds them in.
    pub(super) fn progress_memory_stores_event(&mut self) {
        if self.store_data_pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.store_data_pending);
        pending.sort_unstable();
        for &s in &pending {
            let seq = u64::from(s);
            let cluster = match self.rob_get(seq) {
                Some(inst) if !inst.store_data_sent => inst.cluster,
                _ => continue, // already sent or squashed
            };
            self.send_store_data(seq, cluster);
        }
        pending.clear();
        self.store_data_pending = pending;
    }

    /// Launches one store's data transfer to the LSQ.
    pub(super) fn send_store_data(&mut self, seq: u64, cluster: usize) {
        let cycle = self.cycle;
        let class = self.policy.store_data(cycle, &mut self.probe);
        let sent = self.network.send_probed(
            Transfer {
                src: Node::Cluster(cluster),
                dst: Node::Cache,
                class,
                kind: MessageKind::StoreData,
            },
            cycle,
            &mut self.probe,
        );
        self.record_action(sent, Action::StoreData { seq });
        self.rob_get_mut(seq).expect("in rob").store_data_sent = true;
    }
}
