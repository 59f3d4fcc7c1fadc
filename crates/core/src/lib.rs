#![warn(missing_docs)]
//! # heterowire-core
//!
//! A reproduction of *"Microarchitectural Wire Management for Performance
//! and Power in Partitioned Architectures"* (Balasubramonian,
//! Muralimanohar, Ramani, Venkatachalapathy — HPCA-11, 2005): a clustered,
//! dynamically scheduled out-of-order processor whose inter-cluster
//! interconnect mixes wires with different latency / bandwidth / energy
//! trade-offs, plus the microarchitectural techniques that exploit them.
//!
//! The pieces:
//!
//! * [`config`] — Table-1 machine parameters and the ten interconnect
//!   models of Tables 3/4 ([`config::InterconnectModel`]);
//! * [`steer`] — the dynamic instruction steering heuristic;
//! * [`narrow`] — the 8K-entry narrow bit-width result predictor;
//! * [`processor`] — the cycle-driven simulator tying together the trace
//!   generator, front end, clusters, heterogeneous network, LSQ and caches;
//! * [`energy`] — the chip-level energy / ED² model the tables report;
//! * [`results`] — per-run statistics.
//!
//! ## Quick start
//!
//! ```
//! use heterowire_core::config::{InterconnectModel, ProcessorConfig};
//! use heterowire_core::processor::Processor;
//! use heterowire_interconnect::Topology;
//! use heterowire_trace::{generator::TraceGenerator, profile};
//!
//! // Model VII (144 B-Wires + 36 L-Wires) on the 4-cluster crossbar:
//! let config = ProcessorConfig::for_model(InterconnectModel::VII, Topology::crossbar4());
//! let trace = TraceGenerator::new(profile::by_name("gzip").unwrap(), 42);
//! let results = Processor::simulate(config, trace, 5_000, 500);
//! assert!(results.ipc() > 0.0);
//! ```

pub mod config;
pub mod energy;
pub mod mask;
pub mod narrow;
pub mod processor;
pub mod report;
pub mod results;
pub mod steer;

pub use config::{
    Extensions, InterconnectModel, ModelSpec, ModelSpecError, Optimizations, ProcessorConfig,
};
pub use energy::{mean_report, relative_report, EnergyParams, RelativeReport};
pub use heterowire_interconnect::{
    FaultModel, FaultSpec, FaultSpecError, InjectedFaults, NullFaultModel,
};
pub use heterowire_telemetry::{
    BlockedTransfer, NullProbe, Probe, RecordingConfig, RecordingProbe, StallReport,
};
pub use mask::ClusterMask;
pub use narrow::NarrowPredictor;
pub use processor::{
    CriticalityPolicy, OraclePolicy, PaperPolicy, Processor, PwFirstPolicy, SprayPolicy,
    TransferPolicy, MAX_CLUSTERS,
};
pub use results::{mean_ipc, SimResults};
pub use steer::{Demand, ProducerInfo, Steering, SteeringWeights};
