//! ROB, value and waiter-list bookkeeping, and commit.
//!
//! The ROB is a dense `VecDeque` indexed by `seq - rob_base`; value
//! records live in pooled rows (`slots`) named by rename, so the
//! rename/dispatch path never hashes. Waiter lists are intrusive
//! singly-linked lists threaded through the [`Inflight`] entries (see
//! [`super`] for the node encoding).

use heterowire_interconnect::FaultModel;
use heterowire_isa::OpClass;
use heterowire_telemetry::Probe;

use super::policy::TransferPolicy;
use super::{Inflight, Phase, Processor, FU_KINDS, IN_FLIGHT, NO_WAITER};

impl<P: Probe, T: TransferPolicy, F: FaultModel> Processor<P, T, F> {
    pub(super) fn rob_get(&self, seq: u64) -> Option<&Inflight> {
        if seq < self.rob_base {
            return None;
        }
        self.rob.get((seq - self.rob_base) as usize)
    }

    pub(super) fn rob_get_mut(&mut self, seq: u64) -> Option<&mut Inflight> {
        if seq < self.rob_base {
            return None;
        }
        self.rob.get_mut((seq - self.rob_base) as usize)
    }

    /// Cycle the value in `row` is usable in `cluster`, if known yet.
    pub(super) fn value_ready_in(&self, row: u32, cluster: usize) -> Option<u64> {
        let v = self.values.info(row);
        if v.cluster == cluster {
            v.done_at
        } else {
            let arrival = self.values.arrival(row, cluster);
            (arrival < IN_FLIGHT).then_some(arrival)
        }
    }

    /// Links `seq`'s source `slot` into the waiter list of `row`'s value
    /// for `cluster`; [`Processor::wake_waiters`] unlinks it when the
    /// value becomes usable there.
    pub(super) fn register_waiter(&mut self, row: u32, cluster: usize, seq: u64, slot: usize) {
        debug_assert!(seq < (1 << 31), "waiter seqs must fit 31 bits");
        let node = ((seq as u32) << 1) | slot as u32;
        let head = self.values.replace_waiter(row, cluster, node);
        self.rob_get_mut(seq).expect("waiter in rob").waiter_next[slot] = head;
    }

    /// Wakes every instruction waiting for `row`'s value in `cluster`:
    /// issue operands decrement their pending count (reaching 0 enqueues
    /// the instruction on its ready queue), store-data operands enqueue the
    /// store for a data send. Wake order within one event is irrelevant —
    /// both queues restore seq order before use.
    pub(super) fn wake_waiters(&mut self, row: u32, cluster: usize) {
        let mut node = self.values.replace_waiter(row, cluster, NO_WAITER);
        while node != NO_WAITER {
            let seq = u64::from(node >> 1);
            let slot = (node & 1) as usize;
            let (next, store_data, ready, rq) = {
                let inst = self.rob_get_mut(seq).expect("waiter in rob");
                let next = std::mem::replace(&mut inst.waiter_next[slot], NO_WAITER);
                if slot == 1 && inst.op.op() == OpClass::Store {
                    (next, true, false, 0)
                } else {
                    inst.pending_srcs -= 1;
                    let rq = inst.cluster * FU_KINDS + inst.op.op().unit().index();
                    (next, false, inst.pending_srcs == 0, rq)
                }
            };
            node = next;
            if store_data {
                self.store_data_pending.push(seq as u32);
            } else if ready {
                self.ready.push(rq, seq);
            }
        }
    }

    /// Commits completed instructions from the ROB head.
    pub(super) fn commit(&mut self) {
        let cycle = self.cycle;
        let mut budget = (self.config.dispatch_width as u64)
            .min(self.commit_target.saturating_sub(self.committed));
        while budget > 0 {
            let Some(head) = self.rob.front() else { break };
            if head.phase != Phase::Done {
                break;
            }
            let inst = self.rob.pop_front().expect("nonempty");
            let seq = self.rob_base;
            self.rob_base += 1;
            budget -= 1;
            self.committed += 1;
            if P::ENABLED {
                self.probe.commit(cycle, seq);
            }
            if let Some(d) = inst.op.dest() {
                self.steering.commit(inst.cluster, d.class());
            }
            // The destination's previous value is dead: every reader
            // renamed before this op, so has already committed.
            if let Some(row) = inst.prev_row {
                self.values.release(row);
            }
            if inst.op.op().is_mem() {
                self.lsq.retire_through(seq);
            }
            if inst.op.op() == OpClass::Store {
                let addr = inst.op.addr().expect("stores have addresses");
                self.memory.store(addr, cycle);
                // Its address arrived before it could complete, waking
                // every load that waited on it.
                debug_assert_eq!(inst.lsq_waiters, [NO_WAITER; 2], "store {seq}");
                // Retiring a store can resolve a waiting load's partial
                // conflict without any network event; the skipper must
                // poll the LSQ next cycle.
                self.retired_store = true;
            }
        }
    }
}
