//! The run loops: issue, the per-cycle step sequence, idle-cycle skipping
//! and results assembly.

use std::cmp::Reverse;

use heterowire_interconnect::{FaultModel, NetStats};
use heterowire_telemetry::{BlockedTransfer, Probe, StallReport};

use super::policy::{NarrowStats, TransferPolicy};
use super::{iq_class, Phase, Processor, FU_KINDS};
use crate::results::SimResults;

/// Which scheduling kernel drives the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Completion wheel + wakeup lists + idle-cycle skipping.
    Event,
    /// The seed's cycle-driven full-ROB scans (equivalence reference).
    Reference,
}

impl<P: Probe, T: TransferPolicy, F: FaultModel> Processor<P, T, F> {
    /// Reference kernel: issues ready instructions to functional units by
    /// scanning the whole ROB (oldest first, one new op per FU kind per
    /// cluster per cycle).
    fn issue_scan(&mut self) {
        let cycle = self.cycle;
        for f in self.fu_started.iter_mut() {
            *f = [false; 4];
        }

        // Resolve cached source readiness lazily.
        let len = self.rob.len();
        for off in 0..len {
            let (cluster, phase, op) = {
                let i = &self.rob[off];
                (i.cluster, i.phase, i.op)
            };
            if phase != Phase::Waiting {
                continue;
            }
            let kind = op.op().unit();
            if self.fu_started[cluster][kind.index()] {
                continue;
            }
            if self.fu_free[cluster][kind.index()] > cycle {
                continue;
            }
            // Operand readiness: stores only need their address operand
            // (source 0) to begin AGEN.
            let needed = if op.op() == heterowire_isa::OpClass::Store {
                1
            } else {
                2
            };
            let mut ready = true;
            for s in 0..needed {
                let cached = self.rob[off].src_ready[s];
                if cached != u64::MAX {
                    if cached > cycle {
                        ready = false;
                        break;
                    }
                    continue;
                }
                match self.rob[off].src_producer[s] {
                    None => {
                        self.rob[off].src_ready[s] = 0;
                    }
                    Some(p) => match self.value_ready_in(p, cluster) {
                        Some(c) => {
                            self.rob[off].src_ready[s] = c;
                            if c > cycle {
                                ready = false;
                                break;
                            }
                        }
                        None => {
                            ready = false;
                            break;
                        }
                    },
                }
            }
            if !ready {
                continue;
            }

            // Issue.
            self.fu_started[cluster][kind.index()] = true;
            let latency = op.op().latency() as u64;
            self.fu_free[cluster][kind.index()] = if op.op().pipelined() {
                cycle + 1
            } else {
                cycle + latency
            };
            self.steering.issue(cluster, iq_class(op.op()));
            self.rob[off].phase = Phase::Executing(cycle + latency);
            if P::ENABLED {
                self.probe.issue(cycle, self.rob_base + off as u64, cluster);
            }
        }
    }

    /// Event kernel: pops the oldest known-ready instruction per non-empty
    /// (cluster, FU kind) ready queue whose unit is free — exactly the
    /// instruction the reference scan would pick — and schedules its
    /// completion on the wheel.
    fn issue_event(&mut self) {
        let cycle = self.cycle;
        for queue in self.ready.nonempty() {
            let (cluster, kind) = (queue / FU_KINDS, queue % FU_KINDS);
            if self.fu_free[cluster][kind] > cycle {
                continue;
            }
            let seq = self.ready.pop(queue).expect("non-empty ready queue");
            let op = self.rob_get(seq).expect("ready instr in rob").op;
            debug_assert_eq!(op.op().unit().index(), kind);
            let latency = op.op().latency() as u64;
            self.fu_free[cluster][kind] = if op.op().pipelined() {
                cycle + 1
            } else {
                cycle + latency
            };
            self.steering.issue(cluster, iq_class(op.op()));
            self.rob_get_mut(seq).expect("ready instr in rob").phase =
                Phase::Executing(cycle + latency);
            if P::ENABLED {
                self.probe.issue(cycle, seq, cluster);
            }
            self.wheel.schedule(cycle, cycle + latency, seq);
        }
    }

    /// Runs the simulation with the event-driven kernel until
    /// `instructions` have committed (with the first `warmup` committed
    /// instructions excluded from the returned statistics), and returns
    /// the results.
    ///
    /// # Panics
    ///
    /// Panics if the forward-progress watchdog fires (no commit for
    /// 100 000 cycles) — without fault injection this indicates a
    /// simulator bug, not a workload property. Fault-injecting harnesses
    /// should call [`Processor::try_run`] instead: a saturated error rate
    /// can livelock the fabric legitimately (a retry storm), and the
    /// structured [`StallReport`] turns that into a failed row rather
    /// than a dead sweep.
    pub fn run(&mut self, instructions: u64, warmup: u64) -> SimResults {
        match self.try_run(instructions, warmup) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Processor::run`], returning the watchdog's diagnostic
    /// [`StallReport`] as a structured error instead of panicking (boxed:
    /// the report is a cold-path diagnostic far larger than the Ok lane).
    pub fn try_run(
        &mut self,
        instructions: u64,
        warmup: u64,
    ) -> Result<SimResults, Box<StallReport>> {
        self.run_kernel(instructions, warmup, Kernel::Event)
    }

    /// Runs the seed's cycle-driven reference loop — full-ROB scans every
    /// cycle, no idle-cycle skipping. Kept so the equivalence tests can
    /// assert the event-driven kernel is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics when the watchdog fires, like [`Processor::run`].
    pub fn run_reference(&mut self, instructions: u64, warmup: u64) -> SimResults {
        match self.try_run_reference(instructions, warmup) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Processor::run_reference`] with the structured stall error.
    pub fn try_run_reference(
        &mut self,
        instructions: u64,
        warmup: u64,
    ) -> Result<SimResults, Box<StallReport>> {
        self.run_kernel(instructions, warmup, Kernel::Reference)
    }

    /// Assembles the watchdog's diagnostic snapshot (cold path: runs once,
    /// right before the run aborts).
    fn stall_report(&self) -> StallReport {
        let net = self.network.stats();
        StallReport {
            cycle: self.cycle,
            committed: self.committed,
            rob_len: self.rob.len(),
            rob_head: self.rob.front().map(|i| format!("{:?}", (i.op, i.phase))),
            net_pending: self.network.pending_len(),
            net_inflight: self.network.inflight_len(),
            faults_detected: net.faults_detected,
            retransmits: net.retransmits,
            escalations: net.escalations,
            oldest_blocked: self
                .network
                .oldest_pending()
                .map(|(id, class, enqueued, attempt)| BlockedTransfer {
                    id: id.0,
                    class,
                    enqueued,
                    attempt,
                }),
            link: self.config.link.to_string(),
        }
    }

    /// The earliest future cycle at which anything can happen, bounded by
    /// `cap` (the cycle where the deadlock detector must fire). Every term
    /// mirrors one way the reference loop's cycle body can act: a
    /// committable ROB head, dispatchable fetch-queue entries, a fetch or
    /// network event, a deferred send, a wheel completion, a ready
    /// instruction waiting on its FU, pending store-data sends, or a store
    /// retirement that may re-disambiguate a waiting load. (LSQ address
    /// stamps are never in the future, so they add no term.) The network
    /// term is exact and O(1): pending arbitration means next cycle,
    /// otherwise the indexed engine reads the earliest delivery off its
    /// wheel.
    fn next_event_cycle(&self, cap: u64) -> u64 {
        let now = self.cycle;
        let soon = now + 1;
        if self.retired_store
            || !self.store_data_pending.is_empty()
            || self.rob.front().map(|i| i.phase == Phase::Done) == Some(true)
            || (self.fetch.queue_len() > 0 && self.rob.len() < self.config.rob_size)
        {
            return soon;
        }
        let mut next = cap;
        if let Some(c) = self.fetch.next_event_cycle(now) {
            next = next.min(c);
        }
        if let Some(c) = self.network.next_event_cycle(now) {
            next = next.min(c);
        }
        if let Some(Reverse(d)) = self.deferred.peek() {
            next = next.min(d.at);
        }
        if let Some(c) = self.wheel.next_due() {
            next = next.min(c.max(soon));
        }
        for queue in self.ready.nonempty() {
            let fu_free = self.fu_free[queue / FU_KINDS][queue % FU_KINDS];
            next = next.min(fu_free.max(soon));
        }
        next.max(soon)
    }

    fn run_kernel(
        &mut self,
        instructions: u64,
        warmup: u64,
        kernel: Kernel,
    ) -> Result<SimResults, Box<StallReport>> {
        assert!(instructions > 0, "must simulate at least one instruction");
        let target = instructions + warmup;
        self.commit_target = target;
        let mut warm_cycle = 0u64;
        let mut warm_net = NetStats::default();
        let mut warm_narrow = NarrowStats::default();
        let mut warm_done = warmup == 0;
        let mut last_commit_cycle = 0u64;
        let mut last_committed = 0u64;

        while self.committed < target {
            self.cycle += 1;
            // An empty-pending tick is a no-op (no departures, no stats, no
            // probe events), so skip the call entirely; the network's
            // monotonic-cycle contract allows gaps.
            if self.network.pending_len() > 0 {
                self.network.tick_probed(self.cycle, &mut self.probe);
            }
            self.process_deliveries();
            self.process_deferred();
            match kernel {
                Kernel::Event => self.complete_execution_event(),
                Kernel::Reference => self.complete_execution_scan(),
            }
            self.progress_memory_loads(kernel == Kernel::Reference);
            match kernel {
                Kernel::Event => self.progress_memory_stores_event(),
                Kernel::Reference => self.progress_memory_stores_scan(),
            }
            self.commit();
            match kernel {
                Kernel::Event => self.issue_event(),
                Kernel::Reference => self.issue_scan(),
            }
            self.dispatch();
            self.fetch.tick_probed(self.cycle, &mut self.probe);
            if P::ENABLED {
                // Once per *executed* cycle — skipped idle cycles are not
                // sampled, so histograms weight active cycles only.
                self.probe
                    .occupancy(self.cycle, self.rob.len(), self.lsq.len(), self.ready.len());
            }

            if !warm_done && self.committed >= warmup {
                warm_done = true;
                warm_cycle = self.cycle;
                warm_net = self.network.stats();
                warm_narrow = self.policy.narrow_stats();
            }
            if self.committed > last_committed {
                last_committed = self.committed;
                last_commit_cycle = self.cycle;
            } else if self.cycle - last_commit_cycle > 100_000 {
                let report = self.stall_report();
                if P::ENABLED {
                    self.probe.stall(&report);
                }
                return Err(Box::new(report));
            }
            if self.fetch.is_done() && self.rob.is_empty() {
                break;
            }
            if matches!(kernel, Kernel::Event) {
                // Idle-cycle skipping: jump to the cycle before the next
                // event (capped so the deadlock panic above still fires at
                // the reference loop's exact cycle). Skipped cycles are
                // no-ops in the reference loop except for fetch's stall
                // counter, which is credited in bulk.
                let next = self.next_event_cycle(last_commit_cycle + 100_001);
                if next > self.cycle + 1 {
                    self.fetch.note_skipped_stall_cycles(next - 1 - self.cycle);
                    self.cycle = next - 1;
                }
            }
        }

        let cycles = self.cycle - warm_cycle;
        let insts = self.committed - warmup.min(self.committed);
        let net = self.network.stats();
        let mut measured = net;
        for i in 0..4 {
            measured.transfers[i] -= warm_net.transfers[i];
            measured.bit_hops[i] -= warm_net.bit_hops[i];
        }
        measured.dynamic_energy -= warm_net.dynamic_energy;
        measured.queue_cycles -= warm_net.queue_cycles;
        measured.delivered -= warm_net.delivered;
        measured.faults_detected -= warm_net.faults_detected;
        measured.retransmits -= warm_net.retransmits;
        measured.escalations -= warm_net.escalations;
        measured.retry_cycles -= warm_net.retry_cycles;

        // Warmup-excluded narrow-predictor rates.
        let narrow = self.policy.narrow_stats();
        let hits = narrow.hits - warm_narrow.hits;
        let missed = narrow.missed - warm_narrow.missed;
        let false_narrow = narrow.false_narrow - warm_narrow.false_narrow;
        let narrow_coverage = if hits + missed == 0 {
            0.0
        } else {
            hits as f64 / (hits + missed) as f64
        };
        let narrow_false_rate = if hits + false_narrow == 0 {
            0.0
        } else {
            false_narrow as f64 / (hits + false_narrow) as f64
        };

        Ok(SimResults {
            instructions: insts,
            cycles,
            net: measured,
            leakage_weight: self.network.leakage_weight(),
            fetch: self.fetch.stats(),
            lsq: self.lsq.stats(),
            mem: self.memory.stats(),
            narrow_coverage,
            narrow_false_rate,
            metal_area: self.network.metal_area(),
        })
    }
}
