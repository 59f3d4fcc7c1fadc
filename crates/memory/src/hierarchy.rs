//! The memory hierarchy: banked L1 D-cache, unified L2, D-TLB and DRAM,
//! with Table-1 latencies and 4-way word interleaving.

use crate::cache::Cache;
use crate::pipeline::{accelerated_hit_completion, baseline_hit_completion, CachePipelineParams};
use crate::tlb::Tlb;

/// Latency and banking parameters of the hierarchy (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 D-cache pipeline parameters (6-cycle RAM).
    pub l1: CachePipelineParams,
    /// L2 access latency (30 cycles).
    pub l2_latency: u64,
    /// Main-memory latency for the first block (300 cycles).
    pub mem_latency: u64,
    /// Number of word-interleaved L1 banks (4).
    pub banks: usize,
    /// TLB miss handling penalty (hardware walk).
    pub tlb_miss_penalty: u64,
    /// Critical-word-first refills over L-Wires (paper §5.3: "such wires
    /// can be employed to fetch critical words from the L2 or L3"): the
    /// requested word bypasses the line-transfer tail of a refill.
    pub critical_word_first: bool,
    /// Cycles of an L2 refill attributable to streaming the rest of the
    /// line (saved by critical-word-first).
    pub l2_line_tail: u64,
    /// Cycles of a DRAM refill attributable to streaming the rest of the
    /// line.
    pub mem_line_tail: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1: CachePipelineParams::l1_table1(),
            l2_latency: 30,
            mem_latency: 300,
            banks: 4,
            tlb_miss_penalty: 30,
            critical_word_first: false,
            l2_line_tail: 4,
            mem_line_tail: 8,
        }
    }
}

/// Hierarchy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Load accesses.
    pub loads: u64,
    /// Store accesses.
    pub stores: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// L2 misses (went to DRAM).
    pub l2_misses: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Accesses delayed by a bank conflict.
    pub bank_conflicts: u64,
}

/// The memory hierarchy model.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemConfig,
    l1d: Cache,
    l2: Cache,
    dtlb: Tlb,
    /// Next free cycle per L1 bank (banks accept one new access per cycle).
    bank_free: Vec<u64>,
    stats: MemStats,
}

impl MemoryHierarchy {
    /// Creates a Table-1 hierarchy.
    pub fn new(config: MemConfig) -> Self {
        let banks = config.banks.max(1);
        MemoryHierarchy {
            config,
            l1d: Cache::l1d_table1(),
            l2: Cache::l2_table1(),
            dtlb: Tlb::table1(),
            bank_free: vec![0; banks],
            stats: MemStats::default(),
        }
    }

    fn bank_of(&self, addr: u64) -> usize {
        ((addr >> 3) as usize) % self.bank_free.len()
    }

    /// Claims the L1 bank for `addr` no earlier than `start`; returns the
    /// cycle the access actually begins.
    fn claim_bank(&mut self, addr: u64, start: u64) -> u64 {
        let b = self.bank_of(addr);
        let begin = start.max(self.bank_free[b]);
        if begin > start {
            self.stats.bank_conflicts += 1;
        }
        self.bank_free[b] = begin + 1; // fully pipelined banks
        begin
    }

    /// Performs a load.
    ///
    /// * `ram_start` — cycle at which the cache RAM index is available
    ///   (partial-address arrival in the accelerated pipeline).
    /// * `full_arrival` — cycle at which the full address is available.
    /// * `accelerated` — whether the L-Wire pipeline is in effect.
    ///
    /// Returns the cycle the data is ready at the cache, before the return
    /// network transfer.
    pub fn load(&mut self, addr: u64, ram_start: u64, full_arrival: u64, accelerated: bool) -> u64 {
        self.stats.loads += 1;
        let begin = if accelerated {
            self.claim_bank(addr, ram_start)
        } else {
            self.claim_bank(addr, full_arrival)
        };

        // TLB lookup: in the accelerated pipeline the partial VPN bits
        // prefetch candidate translations, so a hit costs nothing extra in
        // either mode; a miss stalls the tag compare by the walk penalty.
        let tlb_hit = self.dtlb.access(addr);
        let tag_time = if tlb_hit {
            full_arrival
        } else {
            self.stats.tlb_misses += 1;
            full_arrival + self.config.tlb_miss_penalty
        };

        let l1_hit = self.l1d.access(addr);
        let hit_done = if accelerated {
            // The controller falls back to the conventional pipeline when
            // the full address arrives before the prefetched RAM access
            // pays off, so acceleration never loses cycles.
            accelerated_hit_completion(&self.config.l1, begin, tag_time)
                .min(baseline_hit_completion(&self.config.l1, tag_time))
        } else {
            baseline_hit_completion(&self.config.l1, begin.max(tag_time))
        };
        if l1_hit {
            return hit_done;
        }

        // L1 miss is detected at tag-compare time; the line then comes from
        // L2 or memory. With critical-word-first the requested word skips
        // the line-streaming tail of the refill.
        self.stats.l1_misses += 1;
        let l2_hit = self.l2.access(addr);
        let (latency, tail) = if l2_hit {
            (self.config.l2_latency, self.config.l2_line_tail)
        } else {
            self.stats.l2_misses += 1;
            (self.config.mem_latency, self.config.mem_line_tail)
        };
        let saved = if self.config.critical_word_first {
            tail
        } else {
            0
        };
        hit_done + latency - saved.min(latency)
    }

    /// Performs a store at commit time; returns the cycle the store has
    /// been absorbed by the hierarchy (loads never wait on this — conflicts
    /// were resolved in the LSQ).
    pub fn store(&mut self, addr: u64, commit_cycle: u64) -> u64 {
        self.stats.stores += 1;
        let begin = self.claim_bank(addr, commit_cycle);
        self.dtlb.access(addr);
        if !self.l1d.access(addr) {
            self.stats.l1_misses += 1;
            if !self.l2.access(addr) {
                self.stats.l2_misses += 1;
            }
        }
        begin + 1
    }

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::new(MemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_hit_latency_is_six_cycles_baseline() {
        let mut m = MemoryHierarchy::default();
        m.load(0x1000, 0, 0, false); // cold: install
        let done = m.load(0x1000, 100, 100, false);
        assert_eq!(done, 106);
    }

    #[test]
    fn accelerated_hit_hides_ram_latency() {
        let mut m = MemoryHierarchy::default();
        m.load(0x1000, 0, 0, false);
        // LS bits at 100, full address at 106: RAM done exactly when the
        // MS bits arrive; one extra cycle for tag compare.
        let done = m.load(0x1000, 100, 106, true);
        assert_eq!(done, 107);
        // Baseline would have been 106 + 6 = 112.
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut m = MemoryHierarchy::default();
        let done = m.load(0x5_0000, 0, 0, false);
        assert!(
            done >= 300,
            "cold miss should cost DRAM latency, got {done}"
        );
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn l2_hit_costs_thirty_extra() {
        let mut m = MemoryHierarchy::default();
        m.load(0x9_0000, 0, 0, false); // install in L1+L2
                                       // Evict from L1 by filling its set: L1 is 4-way, 128 sets, 64B
                                       // lines; same set stride = 128*64 = 8192.
        for i in 1..=4u64 {
            m.load(0x9_0000 + i * 8192, 0, 0, false);
        }
        let s_before = m.stats().l2_misses;
        let done = m.load(0x9_0000, 1000, 1000, false);
        assert_eq!(m.stats().l2_misses, s_before, "line should be in L2");
        assert_eq!(done, 1000 + 6 + 30);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut m = MemoryHierarchy::default();
        // Same bank (same word alignment), same start cycle.
        m.load(0x1000, 10, 10, false);
        m.load(0x1000 + 32, 10, 10, false); // (0x1020>>3)%4 == (0x1000>>3)%4
        assert_eq!(m.stats().bank_conflicts, 1);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let mut m = MemoryHierarchy::default();
        m.load(0x1000, 10, 10, false);
        m.load(0x1008, 10, 10, false); // next word -> next bank
        assert_eq!(m.stats().bank_conflicts, 0);
    }

    #[test]
    fn tlb_miss_delays_tag_compare() {
        let mut m = MemoryHierarchy::default();
        m.load(0x1000, 0, 0, false); // warm L1 + TLB
                                     // Far page, same cache line can't be: use same line via aliasing is
                                     // impossible; so warm the line under a cold TLB page instead.
        let addr = 0x1000 + 8192 * 16; // same L1 set region, new page
        m.load(addr, 0, 0, false); // cold everything
        let warm = m.load(addr, 500, 500, false);
        assert_eq!(warm, 506, "TLB+L1 both warm now");
        // A distinct page mapping to the same TLB set eventually evicts it;
        // simplest check: stats count misses.
        assert!(m.stats().tlb_misses >= 1);
    }

    #[test]
    fn stores_update_caches() {
        let mut m = MemoryHierarchy::default();
        m.store(0x2000, 5);
        let done = m.load(0x2000, 50, 50, false);
        assert_eq!(done, 56, "store should have installed the line");
    }
}
