//! Deterministic synthesis of instruction streams from a
//! [`BenchmarkProfile`].
//!
//! The generator is an infinite, seeded iterator of
//! [`heterowire_isa::MicroOp`]s. Register dependences are drawn from a
//! geometric distance distribution over recently written registers, memory
//! addresses come from a hot-set / cold-set / sequential-stream mix, and
//! branch outcomes follow per-site biases — so downstream cache and branch
//! predictor models observe realistic locality rather than pre-baked
//! hit/miss labels.

use std::collections::VecDeque;

use heterowire_rng::SmallRng;

use heterowire_isa::{ArchReg, MicroOp, OpClass, RegClass};

use crate::profile::BenchmarkProfile;

/// How many recently written registers to remember per class when sampling
/// dependences.
const RECENT_WINDOW: usize = 64;
/// Number of concurrent sequential access streams for array-walking codes.
const NUM_STREAMS: usize = 8;
/// Size of the static code footprint of straight-line (non-branch) code.
/// Small enough that static sites repeat many times within a simulation
/// window — hot loops dominate dynamic instruction counts — so per-site
/// predictors (narrow-width, branch direction) can learn.
const CODE_FOOTPRINT: u64 = 4 * 1024;
/// Base address of the branch-site PC region (kept apart from the
/// straight-line region so branch sites never alias narrow-value sites).
const BRANCH_REGION: u64 = 0x0080_0000;

/// A deterministic, infinite micro-op stream for one benchmark profile.
///
/// # Examples
///
/// ```
/// use heterowire_trace::generator::TraceGenerator;
/// use heterowire_trace::profile::by_name;
///
/// let mut gen = TraceGenerator::new(by_name("gzip").unwrap(), 42);
/// let window: Vec<_> = gen.by_ref().take(1000).collect();
/// assert_eq!(window.len(), 1000);
/// // Same profile + seed => identical stream.
/// let again: Vec<_> = TraceGenerator::new(by_name("gzip").unwrap(), 42)
///     .take(1000)
///     .collect();
/// assert_eq!(window, again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    rng: SmallRng,
    seq: u64,
    pc: u64,
    recent_int: VecDeque<ArchReg>,
    recent_fp: VecDeque<ArchReg>,
    int_rr: u8,
    fp_rr: u8,
    branch_bias_taken: Vec<bool>,
    streams: Vec<u64>,
    next_stream: usize,
    cold_ptr: u64,
    /// `ln(1 - p)` for the geometric dependence distance with success
    /// probability `p = 1 / dep_distance_mean`, fixed per profile.
    ln_dep_fail: f64,
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::validate`].
    pub fn new(profile: BenchmarkProfile, seed: u64) -> Self {
        if let Err(e) = profile.validate() {
            panic!("invalid benchmark profile: {e}");
        }
        // Mix the program name into the seed so each benchmark gets an
        // independent stream even under a shared experiment seed.
        let name_hash = profile.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        });
        let mut rng = SmallRng::seed_from_u64(seed ^ name_hash);
        let branch_bias_taken = (0..profile.branch_sites)
            .map(|_| rng.gen_bool(0.5))
            .collect();
        // Stagger stream starting points by distinct cache-line and page
        // offsets so concurrent streams do not conflict-miss in the same
        // cache sets (real array bases are not set-aligned).
        let streams = (0..NUM_STREAMS as u64)
            .map(|i| {
                0x4000_0000 + i * (profile.cold_working_set / NUM_STREAMS as u64) + i * (4096 + 64)
            })
            .collect();
        let p = (1.0 / profile.dep_distance_mean).clamp(1e-6, 1.0);
        TraceGenerator {
            ln_dep_fail: (1.0 - p).ln(),
            profile,
            rng,
            seq: 0,
            pc: 0x0040_0000,
            recent_int: VecDeque::with_capacity(RECENT_WINDOW),
            recent_fp: VecDeque::with_capacity(RECENT_WINDOW),
            int_rr: 1,
            fp_rr: 1,
            branch_bias_taken,
            streams,
            next_stream: 0,
            cold_ptr: 0x8000_0000,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Samples an operation class from the profile's instruction mix.
    fn sample_op(&mut self) -> OpClass {
        let p = &self.profile;
        let mut x: f64 = self.rng.gen();
        let steps = [
            (p.load_frac, OpClass::Load),
            (p.store_frac, OpClass::Store),
            (p.branch_frac, OpClass::Branch),
            (p.fp_frac * 0.6, OpClass::FpAlu),
            (p.fp_frac * 0.3, OpClass::FpMul),
            (p.fp_frac * 0.1, OpClass::FpDiv),
            (p.int_mul_frac, OpClass::IntMul),
        ];
        for (frac, op) in steps {
            if x < frac {
                return op;
            }
            x -= frac;
        }
        OpClass::IntAlu
    }

    /// Samples a register written roughly `geometric(1/mean)` instructions
    /// ago from the given class, if any has been written yet. With
    /// probability `independence` the source instead references long-dead
    /// architected state (`None`), breaking the dependence web into
    /// separate chains.
    fn sample_src(&mut self, class: RegClass) -> Option<ArchReg> {
        if self.rng.gen_bool(self.profile.independence) {
            return None;
        }
        let recent = match class {
            RegClass::Int => &self.recent_int,
            RegClass::Fp => &self.recent_fp,
        };
        if recent.is_empty() {
            return None;
        }
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let dist = 1 + ((1.0 - u).ln() / self.ln_dep_fail) as usize;
        let idx = dist.min(recent.len()) - 1;
        // Index from the most recent end.
        Some(recent[recent.len() - 1 - idx])
    }

    /// Samples the address-base operand of a load/store. Address bases
    /// (stack/frame pointers, globals, induction variables) are long-lived:
    /// they mostly reference architected state; when produced in-window
    /// they are usually old values — except in pointer-chasing codes, where
    /// they are fresh load results.
    fn sample_addr_src(&mut self) -> Option<ArchReg> {
        if self.rng.gen_bool(self.profile.addr_independence) {
            return None;
        }
        if self.rng.gen_bool(self.profile.addr_freshness) {
            return self.sample_src(RegClass::Int);
        }
        // An old value: deep in the recent-write window.
        if self.recent_int.len() < 8 {
            return None;
        }
        let d = self
            .rng
            .gen_range(self.recent_int.len() / 2..self.recent_int.len());
        Some(self.recent_int[self.recent_int.len() - 1 - d])
    }

    fn alloc_dest(&mut self, class: RegClass) -> ArchReg {
        // Round-robin over r1..r30 (r0 conventionally zero, r31 reserved),
        // mirroring compiler register rotation in hot loops.
        match class {
            RegClass::Int => {
                let r = ArchReg::int(self.int_rr);
                self.int_rr = if self.int_rr >= 30 {
                    1
                } else {
                    self.int_rr + 1
                };
                if self.recent_int.len() == RECENT_WINDOW {
                    self.recent_int.pop_front();
                }
                self.recent_int.push_back(r);
                r
            }
            RegClass::Fp => {
                let r = ArchReg::fp(self.fp_rr);
                self.fp_rr = if self.fp_rr >= 30 { 1 } else { self.fp_rr + 1 };
                if self.recent_fp.len() == RECENT_WINDOW {
                    self.recent_fp.pop_front();
                }
                self.recent_fp.push_back(r);
                r
            }
        }
    }

    /// Samples an effective address: sequential stream, hot set or cold set.
    fn sample_addr(&mut self) -> u64 {
        let p = &self.profile;
        if self.rng.gen_bool(p.stream_frac) {
            let s = self.next_stream;
            self.next_stream = (self.next_stream + 1) % NUM_STREAMS;
            let a = self.streams[s];
            // Unit-stride walk. The wrap length is capped at 1 MB per
            // stream so the steady-state stream footprint stays L2-resident
            // (as blocked/tiled numeric loops are); the stagger keeps
            // streams out of each other's L1 sets.
            let lane = p.cold_working_set / NUM_STREAMS as u64;
            let wrap = p.stream_wrap.clamp(8, lane.max(8));
            let base = 0x4000_0000 + s as u64 * lane + s as u64 * (4096 + 64);
            self.streams[s] = base + ((a - base) + 8) % wrap;
            a & !7
        } else if self.rng.gen_bool(p.hot_frac) {
            let off = self.rng.gen_range(0..p.hot_working_set.max(8)) & !7;
            0x1000_0000 + off
        } else {
            // Cold accesses are a pointer walk with occasional random jumps:
            // mostly short strides within the current line/page (real heap
            // traversals have spatial locality), sometimes a far jump that
            // costs a TLB and cache miss.
            if self.rng.gen_bool(0.03) {
                let off = self.rng.gen_range(0..p.cold_working_set.max(64)) & !63;
                self.cold_ptr = 0x8000_0000 + off;
            } else {
                let stride = 8 * self.rng.gen_range(1u64..=3);
                self.cold_ptr = 0x8000_0000
                    + (self.cold_ptr - 0x8000_0000 + stride) % p.cold_working_set.max(64);
            }
            self.cold_ptr & !7
        }
    }

    /// Result values: whether a value is narrow is chiefly a property of
    /// the *static* instruction (a flag computation always produces flags),
    /// with a little per-instance noise. This is what makes the paper's
    /// PC-indexed narrow predictor viable.
    fn sample_result(&mut self, class: RegClass, pc: u64) -> u64 {
        match class {
            RegClass::Int => {
                // Stable per-site hash decides if this is a narrow site.
                let mut h = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                h ^= h >> 33;
                let narrow_site = (h % 10_000) as f64 / 10_000.0 < self.profile.narrow_frac;
                let narrow = if narrow_site {
                    self.rng.gen_bool(0.995)
                } else {
                    self.rng.gen_bool(0.005)
                };
                if narrow {
                    self.rng.gen_range(0..=1023)
                } else {
                    // Wide values have log-uniform widths (11..=53 bits), so
                    // width-threshold ablations see a realistic spectrum.
                    let bits = self.rng.gen_range(11u32..=53);
                    self.rng.gen_range((1u64 << (bits - 1))..(1u64 << bits))
                }
            }
            RegClass::Fp => self.rng.gen::<u64>() | (1 << 62),
        }
    }

    fn gen_branch(&mut self, seq: u64) -> MicroOp {
        let site = self.rng.gen_range(0..self.profile.branch_sites);
        let bias = self.branch_bias_taken[site];
        let follows = self.rng.gen_bool(self.profile.branch_bias);
        let taken = if follows { bias } else { !bias };
        // Each site has a stable PC in its own region and a stable target
        // within the straight-line code footprint.
        let pc = BRANCH_REGION + site as u64 * 4;
        let target = (0x0040_0000 + ((site as u64).wrapping_mul(2654435761) % CODE_FOOTPRINT)) & !3;
        let mut b = MicroOp::builder(seq, pc, OpClass::Branch).branch(taken, target);
        // Branch conditions (loop counters, flags) are usually computed well
        // ahead of the branch; only a minority wait on fresh values.
        if !self.rng.gen_bool(0.6) {
            if let Some(s) = self.sample_src(RegClass::Int) {
                b = b.src(s);
            }
        }
        let op = b.build();
        self.pc = if taken { target } else { pc + 4 };
        op
    }
}

impl Iterator for TraceGenerator {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let seq = self.seq;
        self.seq += 1;
        let op = self.sample_op();
        if op == OpClass::Branch {
            return Some(self.gen_branch(seq));
        }

        let pc = 0x0040_0000 + (self.pc - 0x0040_0000) % CODE_FOOTPRINT;
        self.pc = pc + 4;
        let mut b = MicroOp::builder(seq, pc, op);

        match op {
            OpClass::Load => {
                let addr = self.sample_addr();
                // Whether a load fills an FP register is a static property
                // of the instruction (ldq vs ldt), so derive it from the PC.
                let mut h = pc.wrapping_mul(0xd6e8_feb8_6659_fd93);
                h ^= h >> 32;
                let fp_dest =
                    (h % 10_000) as f64 / 10_000.0 < (self.profile.fp_frac * 0.8).min(1.0);
                let class = if fp_dest { RegClass::Fp } else { RegClass::Int };
                if let Some(s) = self.sample_addr_src() {
                    b = b.src(s);
                }
                let dest = self.alloc_dest(class);
                let result = self.sample_result(class, pc);
                Some(b.dest(dest).addr(addr).result(result).build())
            }
            OpClass::Store => {
                let addr = self.sample_addr();
                if let Some(s) = self.sample_addr_src() {
                    b = b.src(s); // address base
                }
                let data_fp = self.rng.gen_bool((self.profile.fp_frac * 0.8).min(1.0));
                let data_class = if data_fp { RegClass::Fp } else { RegClass::Int };
                if let Some(s) = self.sample_src(data_class) {
                    b = b.src_data(s); // store data always sits in slot 1
                }
                Some(b.addr(addr).build())
            }
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => {
                for _ in 0..2 {
                    if let Some(s) = self.sample_src(RegClass::Fp) {
                        b = b.src(s);
                    }
                }
                let dest = self.alloc_dest(RegClass::Fp);
                let result = self.sample_result(RegClass::Fp, pc);
                Some(b.dest(dest).result(result).build())
            }
            OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => {
                for _ in 0..2 {
                    if let Some(s) = self.sample_src(RegClass::Int) {
                        b = b.src(s);
                    }
                }
                let dest = self.alloc_dest(RegClass::Int);
                let result = self.sample_result(RegClass::Int, pc);
                Some(b.dest(dest).result(result).build())
            }
            OpClass::Branch => unreachable!("handled above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{by_name, spec2000};

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<_> = TraceGenerator::new(by_name("mcf").unwrap(), 7)
            .take(5000)
            .collect();
        let b: Vec<_> = TraceGenerator::new(by_name("mcf").unwrap(), 7)
            .take(5000)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = TraceGenerator::new(by_name("mcf").unwrap(), 7)
            .take(100)
            .collect();
        let b: Vec<_> = TraceGenerator::new(by_name("mcf").unwrap(), 8)
            .take(100)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mix_converges_to_profile() {
        let p = by_name("gcc").unwrap();
        let n = 200_000;
        let window: Vec<_> = TraceGenerator::new(p, 1).take(n).collect();
        let frac = |cls: OpClass| window.iter().filter(|i| i.op() == cls).count() as f64 / n as f64;
        assert!((frac(OpClass::Load) - p.load_frac).abs() < 0.01);
        assert!((frac(OpClass::Store) - p.store_frac).abs() < 0.01);
        assert!((frac(OpClass::Branch) - p.branch_frac).abs() < 0.01);
    }

    #[test]
    fn seqs_are_consecutive() {
        let window: Vec<_> = TraceGenerator::new(by_name("art").unwrap(), 3)
            .take(1000)
            .collect();
        for (i, op) in window.iter().enumerate() {
            assert_eq!(op.seq(), i as u64);
        }
    }

    #[test]
    fn sources_reference_previously_written_regs() {
        // After warmup every source register must have been some earlier
        // op's destination (the generator never fabricates dangling deps).
        let window: Vec<_> = TraceGenerator::new(by_name("swim").unwrap(), 9)
            .take(10_000)
            .collect();
        let mut written = std::collections::HashSet::new();
        for op in &window {
            for s in op.srcs() {
                if !written.is_empty() {
                    // Source regs are drawn from the recent-write window, so
                    // after warmup they must be in the written set.
                    if written.len() > 60 {
                        assert!(written.contains(&s), "dangling source {s}");
                    }
                }
            }
            if let Some(d) = op.dest() {
                written.insert(d);
            }
        }
    }

    #[test]
    fn narrow_fraction_tracks_profile() {
        let p = by_name("gzip").unwrap();
        let window: Vec<_> = TraceGenerator::new(p, 5).take(100_000).collect();
        let int_results: Vec<_> = window
            .iter()
            .filter(|o| {
                o.dest()
                    .map(|d| d.class() == RegClass::Int)
                    .unwrap_or(false)
            })
            .collect();
        let narrow = int_results.iter().filter(|o| o.is_narrow_result()).count() as f64
            / int_results.len() as f64;
        // Per-site narrowness: expect site-sampling variance around the
        // profile value.
        assert!((narrow - p.narrow_frac).abs() < 0.08, "narrow = {narrow}");
    }

    #[test]
    fn every_profile_generates_without_panic() {
        for p in spec2000() {
            let n = TraceGenerator::new(p, 11).take(2000).count();
            assert_eq!(n, 2000);
        }
    }

    #[test]
    fn fp_suite_generates_fp_ops() {
        let window: Vec<_> = TraceGenerator::new(by_name("swim").unwrap(), 2)
            .take(10_000)
            .collect();
        let fp = window.iter().filter(|o| o.op().is_fp()).count();
        assert!(fp > 3_000, "fp ops = {fp}");
    }

    #[test]
    fn streams_produce_sequential_addresses() {
        let mut gen = TraceGenerator::new(by_name("swim").unwrap(), 4);
        let mut per_stream: std::collections::HashMap<u64, Vec<u64>> =
            std::collections::HashMap::new();
        for op in gen.by_ref().take(50_000) {
            if let Some(a) = op.addr() {
                if (0x4000_0000..0x8000_0000).contains(&a) {
                    let lane = by_name("swim").unwrap().cold_working_set / 8;
                    per_stream
                        .entry((a - 0x4000_0000) / lane)
                        .or_default()
                        .push(a);
                }
            }
        }
        // Within each stream, consecutive accesses advance by 8 bytes.
        let mut sequential = 0usize;
        let mut total = 0usize;
        for (_, addrs) in per_stream {
            for w in addrs.windows(2) {
                total += 1;
                if w[1] == w[0] + 8 {
                    sequential += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            sequential as f64 / total as f64 > 0.9,
            "sequential {sequential}/{total}"
        );
    }
}
