#![warn(missing_docs)]
//! # heterowire-memory
//!
//! The memory subsystem of the `heterowire` clustered processor: generic
//! set-associative caches ([`cache`]), a set-associative TLB ([`tlb`]), the
//! centralized load/store queue with **partial-address disambiguation**
//! ([`lsq`]), the baseline and L-Wire-accelerated cache access pipelines
//! ([`pipeline`]) and the banked hierarchy gluing them together
//! ([`hierarchy`]).
//!
//! The paper's headline memory technique: the least-significant bits of a
//! load/store address travel on low-latency L-Wires ahead of the full
//! address, enabling (a) early partial disambiguation in the LSQ and
//! (b) cache RAM / TLB bank prefetch, hiding most of the RAM access latency
//! behind the slow wire transfer of the remaining address bits.
//!
//! ```
//! use heterowire_memory::lsq::{LoadStoreQueue, LoadStatus};
//!
//! let mut lsq = LoadStoreQueue::new(8);
//! let store = lsq.insert(1, true);
//! let load = lsq.insert(2, false);
//! lsq.arrive_partial_ref(store, 0x1000, 1);
//! lsq.arrive_partial_ref(load, 0x2008, 1);
//! // LS bits differ, so the load may begin its cache access immediately:
//! assert_eq!(lsq.load_status_ref(load, 1, true), LoadStatus::PartialReady);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod lsq;
pub mod pipeline;
pub mod tlb;

pub use cache::Cache;
pub use hierarchy::{MemConfig, MemStats, MemoryHierarchy};
pub use lsq::{LoadBlockers, LoadStatus, LoadStoreQueue, LsqRef, LsqStats};
pub use pipeline::CachePipelineParams;
pub use tlb::Tlb;
