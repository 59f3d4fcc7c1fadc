//! Spec-driven topology generation: the parseable, validated description
//! layer over [`crate::topology::Topology`].
//!
//! A [`TopologySpec`] names a topology three ways:
//!
//! * a **preset** — `crossbar4` or `hier16`, the paper's two Figure-2
//!   shapes, each delegating to a compact spec string (and pinned
//!   bit-identical to the enum-built constructors by tests);
//! * a **compact string** — `xbar:<clusters>` or `ring:<quads>x<per_quad>`
//!   with optional `@hop<n>` / `@xbar<n>` wire-segment-length overrides
//!   (`xbar:8`, `ring:6x4`, `ring:4x4@hop3`);
//! * a **key=value file** — one `key = value` per line (`shape`,
//!   `clusters` / `quads` / `per_quad`, `hop_len`, `xbar_len`), `#`
//!   comments allowed; see [`TopologySpec::parse_file`].
//!
//! All three converge on the same validation: shapes the route engine
//! cannot hold (rings past 16 quads), degenerate counts (a 1-cluster
//! crossbar, a 2-quad ring whose directed segments would coincide) and
//! malformed or overlong (past `MAX_SEGMENT_LEN`) segment lengths are
//! loud [`TopoSpecError`]s with pointed messages — the harness binaries
//! surface them as exit status 2, mirroring `ModelSpec`. Route latencies
//! of the generated topologies derive from the `wires` segment model
//! ([`heterowire_wires::segment_latency`]), so a spec never states cycle
//! counts, only geometry.

mod file;
mod spec;

pub(crate) use spec::check_segment_len;
pub use spec::{TopoSpecError, TopologyPreset, TopologySpec};
