//! Dispatch: fetch queue → steering → ROB/issue-queue insertion, with
//! cross-cluster operand copies/subscriptions and event-kernel readiness
//! registration.

use heterowire_interconnect::FaultModel;
use heterowire_isa::OpClass;
use heterowire_memory::LoadBlockers;
use heterowire_telemetry::Probe;

use super::policy::TransferPolicy;
use super::{iq_class, Inflight, Phase, Processor, ValueInfo, FU_KINDS, NOT_SENT, NO_WAITER};
use crate::steer::{Demand, ProducerInfo};

impl<P: Probe, T: TransferPolicy, F: FaultModel> Processor<P, T, F> {
    /// Dispatches from the fetch queue into the ROB and issue queues.
    pub(super) fn dispatch(&mut self) {
        let mut budget = self.config.dispatch_width;
        while budget > 0 {
            if self.rob.len() >= self.config.rob_size {
                break;
            }
            let Some(fetched) = self.fetch.peek().copied() else {
                break;
            };
            let op = fetched.op;

            // Gather producer info for steering.
            let mut producers = [ProducerInfo {
                cluster: 0,
                critical: false,
            }; 2];
            let mut n_producers = 0;
            let mut src_producer = [None; 2];
            // `(seq, row)` of the youngest producer still executing.
            let mut youngest_pending: Option<(u64, u32)> = None;
            for (s, slot) in op.src_slots().into_iter().enumerate() {
                let Some(reg) = slot else { continue };
                let Some((p, row)) = self.rename[reg.flat_index()] else {
                    continue;
                };
                src_producer[s] = Some(row);
                let v = self.values.info(row);
                if v.done_at.is_none() && youngest_pending.is_none_or(|(y, _)| p > y) {
                    youngest_pending = Some((p, row));
                }
                producers[n_producers] = ProducerInfo {
                    cluster: v.cluster,
                    critical: false,
                };
                n_producers += 1;
            }
            let producers = &mut producers[..n_producers];
            let youngest_row = youngest_pending.map(|(_, row)| row);
            // Mark the youngest still-pending producer as critical.
            if let Some(y) = youngest_row {
                let yc = self.values.info(y).cluster;
                if let Some(pi) = producers.iter_mut().find(|pi| pi.cluster == yc) {
                    pi.critical = true;
                }
            }

            // Steer over the occupancy index.
            let demand = Demand {
                queue: iq_class(op.op()),
                dest: op.dest().map(|d| d.class()),
            };
            let chosen = self
                .steering
                .choose(op.op() == OpClass::Load, producers, demand);
            if P::ENABLED {
                self.probe.steer_decision(self.cycle, chosen);
            }
            let Some(cluster) = chosen else {
                break; // structural stall
            };

            // Consume the fetch-queue entry.
            let fetched = self.fetch.pop().expect("peeked");
            budget -= 1;
            self.dispatched += 1;

            self.steering.dispatch(cluster, demand);
            let seq = op.seq();
            debug_assert_eq!(seq, self.rob_base + self.rob.len() as u64);

            // Register the destination value in a pooled row and rename,
            // remembering the row it supersedes (freed at this op's
            // commit).
            let (dest_row, prev_row) = match op.dest() {
                Some(d) => {
                    let row = self.values.alloc(ValueInfo::new(
                        cluster,
                        op.is_narrow_result(),
                        op.result(),
                        op.pc(),
                    ));
                    let prev = self.rename[d.flat_index()].replace((seq, row));
                    (Some(row), prev.map(|(_, r)| r))
                }
                None => (None, None),
            };

            // Cross-cluster operand copies / subscriptions.
            for &p in src_producer.iter().flatten() {
                let (v_cluster, v_done) = {
                    let v = self.values.info(p);
                    (v.cluster, v.done_at.is_some())
                };
                if v_cluster == cluster || self.values.arrival(p, cluster) != NOT_SENT {
                    continue;
                }
                if v_done {
                    self.send_value_copy(p, cluster, true);
                } else {
                    // Remember whether this subscription is the consumer's
                    // last-arriving operand: the same criticality signal
                    // steering uses feeds the completion-time copy.
                    self.values.push_subscriber_unique(p, cluster);
                    if youngest_row == Some(p) {
                        self.values.info_mut(p).critical_subs.insert(cluster);
                    }
                }
            }

            // LSQ entry for memory ops.
            let lsq_ref = op
                .op()
                .is_mem()
                .then(|| self.lsq.insert(seq, op.op() == OpClass::Store));

            self.rob.push_back(Inflight {
                op,
                cluster,
                phase: Phase::Waiting,
                src_producer,
                dest_row,
                prev_row,
                src_ready: [u64::MAX; 2],
                mispredict: fetched.mispredicted,
                ram_start: None,
                at_cache: false,
                lsq_status: None,
                lsq_blockers: LoadBlockers::default(),
                lsq_next: [NO_WAITER; 2],
                lsq_waiters: [NO_WAITER; 2],
                lsq_ref,
                agen_done: false,
                store_data_sent: false,
                store_addr_arrived: false,
                store_data_arrived: false,
                pending_srcs: 0,
                waiter_next: [NO_WAITER; 2],
            });
            if P::ENABLED {
                self.probe.dispatch(self.cycle, seq, cluster, op.op());
            }

            // Event-kernel readiness registration. Value stamps are always
            // in the past, so `Some` here means usable now; `None` sources
            // link into the producer's waiter list and wake on the value's
            // publish/arrival event. Harmless (never drained) under the
            // reference kernel.
            let needed = if op.op() == OpClass::Store { 1 } else { 2 };
            let mut pending = 0u8;
            for (s, &producer) in src_producer.iter().enumerate().take(needed) {
                if let Some(p) = producer {
                    if self.value_ready_in(p, cluster).is_none() {
                        pending += 1;
                        self.register_waiter(p, cluster, seq, s);
                    }
                }
            }
            self.rob_get_mut(seq).expect("just pushed").pending_srcs = pending;
            if pending == 0 {
                self.ready
                    .push(cluster * FU_KINDS + op.op().unit().index(), seq);
            }
            // Store data operand (slot 1) feeds the data-send queue, not
            // the issue queue.
            if op.op() == OpClass::Store {
                match src_producer[1] {
                    Some(p) if self.value_ready_in(p, cluster).is_none() => {
                        self.register_waiter(p, cluster, seq, 1);
                    }
                    _ => self.store_data_pending.push(seq as u32),
                }
            }
        }
    }
}
