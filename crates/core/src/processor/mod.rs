//! The clustered dynamically-scheduled out-of-order processor.
//!
//! A cycle-driven, trace-driven timing model with the paper's structure:
//! an 8-wide front end feeding a 480-entry ROB; dynamic steering of
//! instructions to clusters (15-entry int/fp issue queues, 32 int/fp
//! registers, one FU of each kind per cluster); a centralized LSQ + L1
//! D-cache reached over the heterogeneous interconnect; copy transfers for
//! cross-cluster register dependences with tag-ahead wakeup; and the three
//! wire-management optimizations (partial-address cache pipeline, narrow
//! operands + branch signals on L-Wires, non-critical traffic on PW-Wires).
//!
//! Deliberate trace-driven simplifications (documented in DESIGN.md):
//! wrong-path instructions are not fetched (mispredicts stall fetch until
//! resolution + signal transfer + 12-cycle refill); architected register
//! state predating the simulation window is available in every cluster;
//! physical registers bound in-flight destinations only.
//!
//! The processor is layered (DESIGN.md §8):
//!
//! * the **policy layer** ([`policy`]) — every per-message wire-class
//!   decision (narrow-operand prediction with false-narrow replay, PW
//!   steering, L-Wire partial-address dispatch) lives behind the
//!   [`TransferPolicy`] trait; [`PaperPolicy`] is the paper's policy and
//!   the default, alternatives plug in via [`Processor::with_policy`];
//! * the **structure layer** — the pipeline machinery is split into
//!   focused submodules: [`mod@self`] (state), `rob` (ROB/value/waiter
//!   bookkeeping and commit), `wheel` (completion wheel + deferred sends),
//!   `dispatch`, `complete` (execution completion and all network sends),
//!   `kernel` (the run loops).
//!
//! Two scheduling kernels drive the same per-cycle step functions:
//!
//! * the **event-driven kernel** ([`Processor::run`]) — a completion wheel
//!   pops instructions the cycle they finish executing, wakeup lists feed
//!   per-(cluster, FU) ready queues so issue never scans the ROB (and
//!   visits only the non-empty queues), store data is sent by
//!   subscription, a waiting load is re-polled at the LSQ only when its
//!   own address or a store it waits on arrives (or, in partial conflict,
//!   a store retires), and the loop jumps over cycles in which provably
//!   nothing can happen;
//! * the **cycle-driven reference kernel** ([`Processor::run_reference`]) —
//!   the seed's original full-ROB scans, polling every waiting load every
//!   cycle, kept so equivalence tests can assert the event-driven kernel
//!   is bit-identical.

mod complete;
mod dispatch;
mod kernel;
pub mod policies;
pub mod policy;
mod rob;
mod slots;
#[cfg(test)]
mod tests;
mod wheel;

pub use policies::{CriticalityPolicy, OraclePolicy, PwFirstPolicy};
pub use policy::{PaperPolicy, SprayPolicy, TransferPolicy};

use crate::mask::ClusterMask;
use slots::ValuePool;

use std::cmp::Reverse;
use std::sync::Arc;

use heterowire_frontend::FetchEngine;
use heterowire_interconnect::{Delivery, Network};
use heterowire_interconnect::{FaultModel, NullFaultModel};
use heterowire_interconnect::{NetConfig, Topology};
use heterowire_isa::{ArchReg, MicroOp, OpClass, RegClass};
use heterowire_memory::{LoadBlockers, LoadStatus, LoadStoreQueue, LsqRef};
use heterowire_memory::{MemConfig, MemoryHierarchy};
use heterowire_telemetry::{NullProbe, Probe};
use heterowire_trace::TraceGenerator;
use heterowire_wires::WireClass;

use crate::config::ProcessorConfig;
use crate::results::SimResults;
use crate::steer::{Steering, SteeringWeights};

use wheel::{CompletionWheel, DeferredSend, ReadyQueues};

/// Execution phase of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// In an issue queue waiting for operands and a functional unit.
    Waiting,
    /// Executing; finishes at the contained cycle.
    Executing(u64),
    /// Load/store interacting with the LSQ, cache and network.
    MemPending,
    /// Result produced (or store fully delivered); ready to commit.
    Done,
}

#[derive(Debug, Clone)]
struct Inflight {
    op: MicroOp,
    cluster: usize,
    phase: Phase,
    /// Producer value row per source (`None` = architected state, always
    /// ready).
    src_producer: [Option<u32>; 2],
    /// This op's destination value row (`None` without a destination).
    dest_row: Option<u32>,
    /// The row the destination register mapped to before this op renamed
    /// it; freed when this op commits (see `slots` for the freeing rule).
    prev_row: Option<u32>,
    /// Cached cycle each source becomes ready in this cluster
    /// (`u64::MAX` = not yet known).
    src_ready: [u64; 2],
    mispredict: bool,
    /// Loads: cycle the cache RAM index arrived (partial bits).
    ram_start: Option<u64>,
    /// Loads: registered in the at-cache active list.
    at_cache: bool,
    /// Loads: the status of the last LSQ poll, `None` once an input of it
    /// changed (the wake rule in `progress_memory_loads`).
    lsq_status: Option<LoadStatus>,
    /// Loads: the stores the last poll waits on; the load is linked into
    /// their `lsq_waiters` lists.
    lsq_blockers: LoadBlockers,
    /// Loads: intrusive link per scan ([`FULL_SCAN`], [`PARTIAL_SCAN`]) in
    /// the blocking store's `lsq_waiters` list ([`NO_WAITER`] = end).
    lsq_next: [u32; 2],
    /// Stores: heads of the lists of loads whose full / partial scan
    /// stopped at this store, woken when the address arrives.
    lsq_waiters: [u32; 2],
    /// Loads/stores: O(1) handle to this op's LSQ entry.
    lsq_ref: Option<LsqRef>,
    /// Stores: address has been sent after AGEN.
    agen_done: bool,
    /// Stores: data transfer has been sent.
    store_data_sent: bool,
    /// Stores: address arrived at the LSQ.
    store_addr_arrived: bool,
    /// Stores: data arrived at the LSQ.
    store_data_arrived: bool,
    /// Issue operands not yet known ready (event-kernel wakeup counter;
    /// reaching 0 pushes the instruction onto its ready queue).
    pending_srcs: u8,
    /// Intrusive per-source link in a producer's waiter list
    /// ([`NO_WAITER`] = end of list / not linked).
    waiter_next: [u32; 2],
}

/// Most clusters any supported topology has — re-exported from the
/// interconnect's simulator-wide cap so there is exactly one bound (and
/// one refusal message, from the shared capacity checker) across parse,
/// construction and `Network::new`. Capacity is otherwise data-driven:
/// per-value slot rows are sized from the topology's cluster count at
/// construction (the `processor::slots` pool), so this cap only
/// reflects the [`crate::ClusterMask`] width.
pub const MAX_CLUSTERS: usize = heterowire_interconnect::MAX_SIM_CLUSTERS;
// The criticality mask and the steering index are one bit per cluster;
// widening past them means widening `ClusterMask` first.
const _: () = assert!(MAX_CLUSTERS <= crate::ClusterMask::CAPACITY);
/// Functional-unit kinds per cluster (`FuKind::ALL.len()`).
const FU_KINDS: usize = 4;
/// Architectural registers (integer + fp), the rename table's size.
const ARCH_REGS: usize = ArchReg::total();
/// End-of-list sentinel for the intrusive waiter lists. Value-waiter nodes
/// encode `seq << 1 | source_slot` (LSQ-waiter nodes the load's seq), so
/// seqs stay below 2^31.
const NO_WAITER: u32 = u32::MAX;
/// Scan index of the full-address scan in the LSQ waiter links.
const FULL_SCAN: usize = 0;
/// Scan index of the partial-address scan in the LSQ waiter links.
const PARTIAL_SCAN: usize = 1;
/// Arrival-slot sentinel: no copy was ever sent to this cluster.
const NOT_SENT: u64 = u64::MAX;
/// Arrival-slot sentinel: a copy is in flight, arrival cycle unknown.
const IN_FLIGHT: u64 = u64::MAX - 1;

/// The issue queue an operation waits in: the fp queue for fp
/// arithmetic, the int queue for everything else.
fn iq_class(op: OpClass) -> RegClass {
    if op.is_fp() {
        RegClass::Fp
    } else {
        RegClass::Int
    }
}

#[derive(Debug, Clone)]
struct ValueInfo {
    cluster: usize,
    done_at: Option<u64>,
    narrow: bool,
    value: u64,
    pc: u64,
    /// Subscribed clusters whose consumer marked this producer as its
    /// last-arriving (youngest still-pending) operand at dispatch — the
    /// criticality signal completion-time copies hand to the policy.
    /// Per-cluster arrival cycles, waiter-list heads and the ordered
    /// subscriber list live next to it in the [`ValuePool`] row, whose
    /// width is the machine's cluster count.
    critical_subs: ClusterMask,
}

impl ValueInfo {
    fn new(cluster: usize, narrow: bool, value: u64, pc: u64) -> Self {
        ValueInfo {
            cluster,
            done_at: None,
            narrow,
            value,
            pc,
            critical_subs: ClusterMask::EMPTY,
        }
    }
}

/// What to do when a network transfer is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    ValueArrive { row: u32, cluster: u32 },
    PartialAddr { seq: u64 },
    FullAddr { seq: u64 },
    StoreData { seq: u64 },
    CacheData { seq: u64 },
    BranchSignal,
}

/// The processor simulator. Create with [`Processor::new`], run with
/// [`Processor::run`].
///
/// Generic over a telemetry [`Probe`], a [`TransferPolicy`] and a
/// [`FaultModel`]; the default [`NullProbe`] carries `ENABLED = false`,
/// so every probe call site monomorphizes away and `Processor` (no type
/// arguments) is exactly the uninstrumented simulator running the paper's
/// wire-management policy over a fault-free fabric (the default
/// [`NullFaultModel`] likewise compiles the corruption checks out). Use
/// [`Processor::with_probe`] to attach a recording probe,
/// [`Processor::with_policy`] to swap in an alternative transfer policy
/// and [`Processor::with_faults`] to inject wire faults.
#[derive(Debug)]
pub struct Processor<
    P: Probe = NullProbe,
    T: TransferPolicy = PaperPolicy,
    F: FaultModel = NullFaultModel,
> {
    probe: P,
    policy: T,
    config: Arc<ProcessorConfig>,
    fetch: FetchEngine<TraceGenerator>,
    network: Network<F>,
    lsq: LoadStoreQueue,
    memory: MemoryHierarchy,
    /// The steering heuristic and the clusters' issue-queue and register
    /// occupancy it indexes.
    steering: Steering,

    rob: std::collections::VecDeque<Inflight>,
    rob_base: u64, // seq of rob[0]
    /// Per cluster and FU kind, the first cycle the unit can accept an
    /// operation.
    fu_free: Vec<[u64; FU_KINDS]>,
    /// Destination values and their per-cluster slots (arrivals / waiters
    /// / subscribers), in rows recycled like physical registers.
    values: ValuePool,
    /// Current producer `(seq, row)` per architectural register (`None` =
    /// architected state predating the window).
    rename: [Option<(u64, u32)>; ARCH_REGS],
    /// Delivery action per transfer, indexed by the network slot the
    /// transfer holds from send to delivery. It grows only when the
    /// network's slab does, so its length follows the transfers in
    /// flight, not the transfers sent.
    actions: Vec<Action>,
    /// Deferred sends as a deterministic min-heap (see [`DeferredSend`]).
    deferred: std::collections::BinaryHeap<Reverse<DeferredSend>>,
    /// Insertion counter for [`DeferredSend::dseq`].
    deferred_seq: u64,
    /// Loads at the LSQ/cache, in the order `progress_memory_loads` walks
    /// them.
    active_loads: Vec<u64>,
    /// Some active load's status input changed since the last walk.
    loads_woken: bool,

    // Event-kernel scheduling state. The wakeup structures (ready queues,
    // store-data list, LSQ waiter lists) are maintained by the shared
    // dispatch/delivery/completion paths in both kernels; only the event
    // kernel consumes them. The wheel is fed by `issue_event` alone.
    wheel: CompletionWheel,
    /// Known-ready waiting instructions per (cluster, FU kind).
    ready: ReadyQueues,
    /// Stores whose data operand became ready (drained in seq order).
    store_data_pending: Vec<u32>,
    /// A store committed since the last `progress_memory_loads`: waiting
    /// loads' disambiguation may change, so the next cycle must not be
    /// skipped and partially conflicting loads must be polled.
    retired_store: bool,

    // Reusable per-cycle buffers (steady-state hot path allocates nothing).
    fu_started: Vec<[bool; 4]>,
    finished_scratch: Vec<u64>,
    store_send_scratch: Vec<(u64, usize)>,
    delivered_scratch: Vec<Delivery>,

    cycle: u64,
    committed: u64,
    dispatched: u64,
    /// Commit stops exactly at this count (set by `run`).
    commit_target: u64,
}

impl Processor {
    /// Builds a processor running `trace` under `config`.
    ///
    /// These constructors live on the concrete (probe-less, paper-policy)
    /// type because default type parameters do not drive inference:
    /// `Processor::new` must resolve without annotations at every existing
    /// call site. Probed construction goes through
    /// [`Processor::with_probe`], alternative policies through
    /// [`Processor::with_policy`].
    pub fn new(config: ProcessorConfig, trace: TraceGenerator) -> Self {
        Self::with_probe_shared(Arc::new(config), trace, NullProbe)
    }

    /// Convenience: builds and runs in one call.
    pub fn simulate(
        config: ProcessorConfig,
        trace: TraceGenerator,
        instructions: u64,
        warmup: u64,
    ) -> SimResults {
        Processor::new(config, trace).run(instructions, warmup)
    }
}

impl<P: Probe> Processor<P, PaperPolicy> {
    /// Builds an instrumented processor observing events through `probe`.
    pub fn with_probe(config: ProcessorConfig, trace: TraceGenerator, probe: P) -> Self {
        Self::with_probe_shared(Arc::new(config), trace, probe)
    }

    /// [`Processor::with_probe`] over a shared configuration.
    pub fn with_probe_shared(
        config: Arc<ProcessorConfig>,
        trace: TraceGenerator,
        probe: P,
    ) -> Self {
        let policy = PaperPolicy::new(&config);
        Self::with_policy_shared(config, trace, probe, policy)
    }
}

impl<P: Probe, T: TransferPolicy> Processor<P, T> {
    /// Builds a processor driving its transfers through an arbitrary
    /// [`TransferPolicy`] — the A/B entry point for policy studies.
    pub fn with_policy(
        config: ProcessorConfig,
        trace: TraceGenerator,
        probe: P,
        policy: T,
    ) -> Self {
        Self::with_policy_shared(Arc::new(config), trace, probe, policy)
    }

    /// [`Processor::with_policy`] over a shared configuration.
    pub fn with_policy_shared(
        config: Arc<ProcessorConfig>,
        trace: TraceGenerator,
        probe: P,
        policy: T,
    ) -> Self {
        Processor::with_faults_shared(config, trace, probe, policy, NullFaultModel)
    }
}

impl<P: Probe, T: TransferPolicy, F: FaultModel> Processor<P, T, F> {
    /// Builds a processor whose interconnect injects wire faults through
    /// `faults` — transfers may arrive corrupted, be NACKed and retried
    /// (see the interconnect's fault module / DESIGN.md §14). With
    /// [`NullFaultModel`] this is exactly [`Processor::with_policy`].
    pub fn with_faults(
        config: ProcessorConfig,
        trace: TraceGenerator,
        probe: P,
        policy: T,
        faults: F,
    ) -> Self {
        Self::with_faults_shared(Arc::new(config), trace, probe, policy, faults)
    }

    /// [`Processor::with_faults`] over a shared configuration.
    pub fn with_faults_shared(
        config: Arc<ProcessorConfig>,
        trace: TraceGenerator,
        probe: P,
        policy: T,
        faults: F,
    ) -> Self {
        let mut net_config = NetConfig::new(config.topology, config.link.clone());
        net_config.latency_scale = config.latency_scale;
        net_config.transmission_line_l = config.extensions.transmission_lines;

        let mem_config = MemConfig {
            critical_word_first: config.extensions.l2_critical_word
                && config.link.lanes(WireClass::L) > 0,
            ..MemConfig::default()
        };

        // Capacity is validated by the shared checker inside
        // `Network::new` below (one bound, one message); `MAX_CLUSTERS`
        // mirrors it, so `n <= ClusterMask::CAPACITY` holds here.
        let n = config.clusters();
        Processor {
            probe,
            policy,
            fetch: FetchEngine::new(trace),
            network: Network::with_faults(net_config, faults),
            lsq: LoadStoreQueue::new(config.ls_bits),
            memory: MemoryHierarchy::new(mem_config),
            steering: Steering::new(
                config.topology,
                SteeringWeights::default(),
                config.iq_per_cluster,
                config.regs_per_cluster,
            ),
            rob: std::collections::VecDeque::with_capacity(config.rob_size),
            rob_base: 0,
            fu_free: vec![[0; FU_KINDS]; n],
            // Live rows never exceed one per register plus one per ROB
            // entry (the freeing rule in `slots`).
            values: ValuePool::new(n, config.rob_size + ARCH_REGS),
            rename: [None; ARCH_REGS],
            actions: Vec::new(),
            deferred: std::collections::BinaryHeap::new(),
            deferred_seq: 0,
            active_loads: Vec::new(),
            loads_woken: false,
            wheel: CompletionWheel::new(),
            ready: ReadyQueues::new(n * FU_KINDS),
            store_data_pending: Vec::new(),
            retired_store: false,
            fu_started: vec![[false; 4]; n],
            finished_scratch: Vec::new(),
            store_send_scratch: Vec::new(),
            delivered_scratch: Vec::new(),
            cycle: 0,
            committed: 0,
            dispatched: 0,
            commit_target: u64::MAX,
            config,
        }
    }

    /// The attached probe (e.g. to read recordings after a run).
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the attached probe (e.g. to flush final samples).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// The interconnect (telemetry needs link labels and queue depths).
    pub fn network(&self) -> &Network<F> {
        &self.network
    }

    /// Overrides the steering weights. The clusters' live occupancy is
    /// regrouped under the new weights in place, so this is sound at any
    /// point of a run.
    pub fn set_steering_weights(&mut self, weights: SteeringWeights) {
        self.steering.set_weights(weights);
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ProcessorConfig {
        &self.config
    }

    /// The topology in effect.
    pub fn topology(&self) -> Topology {
        self.config.topology
    }
}
