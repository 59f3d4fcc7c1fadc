//! Steady-state allocation accounting for the simulator hot path.
//!
//! A counting global allocator measures how many heap allocations two
//! simulations of different window lengths perform. In steady state the
//! per-cycle machinery (dispatch, issue, steering, network send/deliver)
//! must allocate nothing. The value records live in a pool reserved at
//! construction and recycled like physical registers, so they do not
//! grow with the window at all. Nor do the network's transfer slots and
//! the delivery actions keyed by them: a slot is reused once its
//! transfer is delivered. What growth remains is first-touch and
//! high-water growth that saturates: BTB and cache sets allocate their
//! ways the first time the trace touches them, and per-queue buffers,
//! the slot slab and the action table grow to their deepest occupancy.
//! The delta between the two runs must therefore stay far below one
//! allocation per extra instruction.
//!
//! The same allocator also sums the bytes requested, which bounds what
//! building one network costs: its route tables must not grow with
//! (nodes² × wire classes).
//!
//! This file deliberately holds a single test: the counters are global to
//! the process, and a dedicated integration-test binary keeps other tests
//! from allocating concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use heterowire_core::{InterconnectModel, NullProbe, Processor, ProcessorConfig};
use heterowire_interconnect::{NetConfig, Network, Topology};
use heterowire_trace::{by_name, TraceGenerator};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by every allocation (a reallocation counts its whole
/// new size), never decremented.
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_for(topology: Topology, window: u64) -> u64 {
    // Model X exercises all three wire planes (so every send/steer path
    // runs); gcc has a rich mix of loads, stores and branches. Built
    // through the generic probed entry point with the probe disabled:
    // `NullProbe` must monomorphize every hook away, so this path is held
    // to the same allocation budget as the seed's plain constructor.
    // `NullFaultModel` (the default third parameter) is covered the same
    // way: with `ENABLED = false` every corruption check, retry branch
    // and dseq sort compiles out, so this budget also pins the
    // faults-disabled fabric.
    let cfg = ProcessorConfig::for_model(InterconnectModel::X, topology);
    let trace = TraceGenerator::new(by_name("gcc").expect("gcc exists"), 42);
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = Processor::with_probe(cfg, trace, NullProbe).run(window, 500);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(r.cycles > 0);
    after - before
}

#[test]
fn simulator_steady_state_is_allocation_free() {
    // Crossbar (4 clusters) and ring (16 clusters, 64 ready queues)
    // both: the event kernel's wheel, ready queues, waiter lists and
    // deferred heap must all reach steady state like the rest of the
    // per-cycle machinery.
    for topology in [Topology::crossbar4(), Topology::hier16()] {
        let small = allocs_for(topology, 4_000);
        let large = allocs_for(topology, 16_000);
        let delta = large.saturating_sub(small);
        // 12 000 extra instructions. Before the de-allocation pass the
        // simulator allocated several Vecs per instruction (>36 000 here);
        // now only first-touch and high-water growth remain: measured 219
        // on crossbar4 and 315 on hier16, most of it BTB and cache sets.
        assert!(
            delta < 400,
            "hot path allocates on {topology:?}: {delta} extra allocations \
             for 12k extra instructions (small window: {small}, large \
             window: {large})"
        );
    }

    // Wide topologies (past the old 16-cluster wall) use the same pooled
    // slot rows with a bigger stride, so they are held to the same
    // budget: never per-value or per-cycle allocation.
    for topology in [Topology::crossbar(32), Topology::hier_ring(16, 4)] {
        let small = allocs_for(topology, 4_000);
        let large = allocs_for(topology, 16_000);
        let delta = large.saturating_sub(small);
        // Measured 315 on xbar:32 and 339 on ring:16x4 (a boxed-slice
        // spill design cost ~28 000 here — three allocations per value).
        assert!(
            delta < 400,
            "wide slot tables allocate per value on {topology:?}: {delta} \
             extra allocations for 12k extra instructions (small window: \
             {small}, large window: {large})"
        );
    }

    // Building the 64-cluster ring's network: one link list per node pair
    // (65² of them, 93 KB) plus the link, queue and wheel state. Measured
    // 133,270 bytes; with a route per (node pair, class) it was 716,320.
    let link = ProcessorConfig::for_model(InterconnectModel::X, Topology::hier_ring(16, 4)).link;
    let config = NetConfig::new(Topology::hier_ring(16, 4), link);
    let before = BYTES.load(Ordering::Relaxed);
    let net = Network::new(config);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(net);
    assert!(
        bytes < 256 * 1024,
        "building the ring:16x4 network allocated {bytes} bytes; its route \
         tables should not grow with (nodes² × classes)"
    );
}
