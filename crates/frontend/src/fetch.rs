//! The fetch engine: an 8-wide front-end pulling from a trace, with a
//! 64-entry fetch queue, fetch across at most two basic blocks per cycle,
//! and stall-on-mispredict semantics (Table 1).
//!
//! The simulator is trace-driven, so wrong-path instructions are not
//! executed; instead, fetching a mispredicted branch stalls the front-end
//! until the core reports resolution (plus the mispredict-signal transfer
//! time and the 12-cycle minimum refill penalty, both applied by the core).
//! Predictor and BTB are trained at fetch — a common trace-driven
//! simplification that slightly flatters predictors with long update
//! latencies but preserves relative accuracy.

use std::collections::VecDeque;

use heterowire_isa::{MicroOp, OpClass};
use heterowire_telemetry::{NullProbe, Probe};

use crate::btb::Btb;
use crate::predictor::{Combined, DirectionPredictor};

/// A fetched micro-op together with its front-end prediction verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchedOp {
    /// The micro-op.
    pub op: MicroOp,
    /// True if this is a branch the front-end mispredicted (wrong direction,
    /// or taken with a BTB target miss).
    pub mispredicted: bool,
}

/// Front-end statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchStats {
    /// Micro-ops delivered into the fetch queue.
    pub fetched: u64,
    /// Conditional branches seen.
    pub branches: u64,
    /// Mispredicted branches (direction or target).
    pub mispredicts: u64,
    /// Cycles in which fetch was stalled waiting on a mispredict.
    pub stall_cycles: u64,
    /// Sum of full mispredict penalties (stall begin to redirect target).
    pub penalty_cycles: u64,
    /// Number of resolved mispredict stalls (denominator for the mean).
    pub resolved_mispredicts: u64,
}

impl FetchStats {
    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Mean cycles from mispredict-stall start to fetch restart.
    pub fn mean_mispredict_penalty(&self) -> f64 {
        if self.resolved_mispredicts == 0 {
            0.0
        } else {
            self.penalty_cycles as f64 / self.resolved_mispredicts as f64
        }
    }
}

/// The fetch engine. Generic over the trace source.
#[derive(Debug)]
pub struct FetchEngine<I> {
    source: I,
    predictor: Combined,
    btb: Btb,
    queue: VecDeque<FetchedOp>,
    queue_cap: usize,
    width: usize,
    max_blocks: usize,
    /// When stalled, fetch resumes at this cycle (`u64::MAX` until the core
    /// reports resolution).
    resume_at: Option<u64>,
    /// Cycle the current stall began (for penalty accounting).
    stall_started: u64,
    stats: FetchStats,
    exhausted: bool,
}

impl<I: Iterator<Item = MicroOp>> FetchEngine<I> {
    /// Creates a Table-1 front-end (width 8, queue 64, 2 basic blocks,
    /// combining predictor, 16K x 2 BTB) over `source`.
    pub fn new(source: I) -> Self {
        Self::with_geometry(source, 8, 64, 2)
    }

    /// Creates a front-end with custom geometry.
    ///
    /// # Panics
    ///
    /// Panics if any of the parameters is zero.
    pub fn with_geometry(source: I, width: usize, queue_cap: usize, max_blocks: usize) -> Self {
        assert!(width > 0 && queue_cap > 0 && max_blocks > 0);
        FetchEngine {
            source,
            predictor: Combined::table1(),
            btb: Btb::table1(),
            queue: VecDeque::with_capacity(queue_cap),
            queue_cap,
            width,
            max_blocks,
            resume_at: None,
            stall_started: 0,
            stats: FetchStats::default(),
            exhausted: false,
        }
    }

    /// Advances fetch by one cycle, filling the fetch queue.
    pub fn tick(&mut self, cycle: u64) {
        self.tick_probed(cycle, &mut NullProbe)
    }

    /// [`FetchEngine::tick`] with telemetry: emits [`Probe::fetch_stall`]
    /// when a mispredicted branch stalls the front-end. With [`NullProbe`]
    /// this monomorphizes to exactly `tick`.
    #[inline(never)]
    pub fn tick_probed<P: Probe>(&mut self, cycle: u64, probe: &mut P) {
        match self.resume_at {
            Some(at) if cycle < at => {
                self.stats.stall_cycles += 1;
                return;
            }
            Some(_) => self.resume_at = None,
            None => {}
        }

        let mut fetched = 0;
        let mut blocks = 1;
        while fetched < self.width && self.queue.len() < self.queue_cap {
            let Some(op) = self.source.next() else {
                self.exhausted = true;
                break;
            };
            fetched += 1;
            self.stats.fetched += 1;

            if op.op() == OpClass::Branch {
                let info = op.branch().expect("branches carry outcomes");
                self.stats.branches += 1;
                let predicted_taken = self.predictor.predict(op.pc());
                let target_known = if info.taken {
                    self.btb
                        .lookup(op.pc())
                        .map(|t| t == info.target)
                        .unwrap_or(false)
                } else {
                    true
                };
                self.predictor.update(op.pc(), info.taken);
                self.btb.update(op.pc(), info.target);

                let mispredicted = predicted_taken != info.taken || !target_known;
                self.queue.push_back(FetchedOp { op, mispredicted });

                if mispredicted {
                    self.stats.mispredicts += 1;
                    // Stall until the core reports resolution.
                    self.resume_at = Some(u64::MAX);
                    self.stall_started = cycle;
                    if P::ENABLED {
                        probe.fetch_stall(cycle);
                    }
                    return;
                }
                if info.taken {
                    // Crossing into a new basic block; at most `max_blocks`
                    // per cycle.
                    blocks += 1;
                    if blocks > self.max_blocks {
                        return;
                    }
                }
            } else {
                self.queue.push_back(FetchedOp {
                    op,
                    mispredicted: false,
                });
            }
        }
    }

    /// The earliest future cycle at which a `tick` could change fetch
    /// state, or `None` if fetch is quiescent (stalled on an unresolved
    /// mispredict, trace exhausted, or queue full). Used by the core's
    /// idle-cycle skipper.
    pub fn next_event_cycle(&self, now: u64) -> Option<u64> {
        match self.resume_at {
            Some(u64::MAX) => None,
            Some(at) => Some(at.max(now + 1)),
            None => {
                if self.exhausted || self.queue.len() >= self.queue_cap {
                    None
                } else {
                    Some(now + 1)
                }
            }
        }
    }

    /// Accounts for `n` skipped cycles: a stalled front-end would have
    /// counted each as a stall cycle had it been ticked (non-stalled
    /// skipped ticks never touch the stats — the skipper only jumps when
    /// fetch is quiescent).
    pub fn note_skipped_stall_cycles(&mut self, n: u64) {
        if self.resume_at.is_some() {
            self.stats.stall_cycles += n;
        }
    }

    /// The core reports that the stalling mispredicted branch has resolved
    /// and redirected fetch; fetching resumes at `cycle`.
    pub fn redirect(&mut self, cycle: u64) {
        if self.resume_at == Some(u64::MAX) {
            self.resume_at = Some(cycle);
            self.stats.penalty_cycles += cycle.saturating_sub(self.stall_started);
            self.stats.resolved_mispredicts += 1;
        }
    }

    /// True if fetch is stalled on an unresolved mispredict.
    pub fn is_stalled(&self) -> bool {
        matches!(self.resume_at, Some(u64::MAX))
    }

    /// Removes and returns the oldest fetched op, if any.
    pub fn pop(&mut self) -> Option<FetchedOp> {
        self.queue.pop_front()
    }

    /// Peeks at the oldest fetched op without removing it.
    pub fn peek(&self) -> Option<&FetchedOp> {
        self.queue.front()
    }

    /// Number of ops waiting in the fetch queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True once the trace source has run dry and the queue is empty.
    pub fn is_done(&self) -> bool {
        self.exhausted && self.queue.is_empty()
    }

    /// Front-end statistics so far.
    pub fn stats(&self) -> FetchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterowire_isa::reg::ArchReg;

    fn alu(seq: u64) -> MicroOp {
        MicroOp::builder(seq, 0x1000 + seq * 4, OpClass::IntAlu)
            .dest(ArchReg::int(1))
            .result(1)
            .build()
    }

    fn branch(seq: u64, pc: u64, taken: bool) -> MicroOp {
        MicroOp::builder(seq, pc, OpClass::Branch)
            .branch(taken, pc + 64)
            .build()
    }

    #[test]
    fn fetches_up_to_width_per_cycle() {
        let ops: Vec<_> = (0..32).map(alu).collect();
        let mut fe = FetchEngine::new(ops.into_iter());
        fe.tick(0);
        assert_eq!(fe.queue_len(), 8);
        fe.tick(1);
        assert_eq!(fe.queue_len(), 16);
    }

    #[test]
    fn queue_capacity_caps_fetch() {
        let ops: Vec<_> = (0..1000).map(alu).collect();
        let mut fe = FetchEngine::new(ops.into_iter());
        for c in 0..20 {
            fe.tick(c);
        }
        assert_eq!(fe.queue_len(), 64);
    }

    #[test]
    fn mispredict_stalls_until_redirect() {
        // First encounter of a taken branch misses the BTB => mispredict.
        let mut ops = vec![alu(0)];
        ops.push(branch(1, 0x2000, true));
        ops.extend((2..20).map(alu));
        let mut fe = FetchEngine::new(ops.into_iter());
        fe.tick(0);
        let fetched_at_stall = fe.queue_len();
        assert!(fe.is_stalled());
        fe.tick(1);
        assert_eq!(fe.queue_len(), fetched_at_stall, "no fetch while stalled");
        fe.redirect(5);
        fe.tick(4);
        assert_eq!(fe.queue_len(), fetched_at_stall, "still stalled at cycle 4");
        fe.tick(5);
        assert!(
            fe.queue_len() > fetched_at_stall,
            "fetch resumed at cycle 5"
        );
        assert_eq!(fe.stats().mispredicts, 1);
    }

    #[test]
    fn well_predicted_taken_branch_limits_blocks() {
        // Warm up the branch so it predicts correctly, then check the
        // two-block fetch limit: 8-wide fetch stops after the second taken
        // branch in a cycle.
        let mut warm = Vec::new();
        for i in 0..40 {
            warm.push(branch(i, 0x2000, true));
        }
        let mut body: Vec<_> = warm;
        let base = 40;
        // Now: b, b, b in quick succession (all predicted, all taken).
        body.push(branch(base, 0x2000, true));
        body.push(branch(base + 1, 0x2000, true));
        body.push(branch(base + 2, 0x2000, true));
        body.extend((base + 3..base + 20).map(alu));

        let mut fe = FetchEngine::new(body.into_iter());
        // Warmup: drain queue each cycle.
        let mut cycle = 0;
        while fe.stats().fetched < 40 {
            fe.tick(cycle);
            if fe.is_stalled() {
                fe.redirect(cycle + 1);
            }
            while fe.pop().is_some() {}
            cycle += 1;
        }
        while fe.pop().is_some() {}
        let before = fe.stats().fetched;
        fe.tick(cycle);
        assert!(!fe.is_stalled(), "branch should be predicted by now");
        // Fetch must have stopped after the second taken branch.
        assert_eq!(fe.stats().fetched - before, 2);
    }

    #[test]
    fn biased_branches_reach_high_accuracy() {
        let ops: Vec<_> = (0..2000)
            .map(|i| {
                if i % 4 == 0 {
                    branch(i, 0x3000 + (i % 16) * 4, true)
                } else {
                    alu(i)
                }
            })
            .collect();
        let mut fe = FetchEngine::new(ops.into_iter());
        let mut cycle = 0;
        while !fe.is_done() && cycle < 10_000 {
            fe.tick(cycle);
            if fe.is_stalled() {
                fe.redirect(cycle + 1);
            }
            while fe.pop().is_some() {}
            cycle += 1;
        }
        let s = fe.stats();
        assert!(s.branches > 400);
        assert!(
            s.mispredict_rate() < 0.05,
            "always-taken branches should predict well, rate {}",
            s.mispredict_rate()
        );
    }

    #[test]
    fn done_only_after_drain() {
        let ops: Vec<_> = (0..4).map(alu).collect();
        let mut fe = FetchEngine::new(ops.into_iter());
        fe.tick(0);
        assert!(!fe.is_done());
        while fe.pop().is_some() {}
        fe.tick(1);
        assert!(fe.is_done());
    }
}
