//! The compact-string topology grammar and its validation errors.

use std::fmt;
use std::str::FromStr;

use crate::topology::{
    check_crossbar, check_ring, CapacityError, Topology, DEFAULT_HOP_LEN, DEFAULT_XBAR_LEN,
    MAX_SEGMENT_LEN,
};

/// The paper's two named shapes, delegating to compact spec strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyPreset {
    /// Figure 2(a): 4 clusters on one crossbar (`xbar:4`).
    Crossbar4,
    /// Figure 2(b): 4 quads of 4 clusters on a ring (`ring:4x4`).
    Hier16,
}

impl TopologyPreset {
    /// Both presets, in Figure-2 order.
    pub const ALL: [TopologyPreset; 2] = [TopologyPreset::Crossbar4, TopologyPreset::Hier16];

    /// The command-line token naming this preset.
    pub fn name(self) -> &'static str {
        match self {
            TopologyPreset::Crossbar4 => "crossbar4",
            TopologyPreset::Hier16 => "hier16",
        }
    }

    /// The compact spec string this preset delegates to.
    pub fn spec_str(self) -> &'static str {
        match self {
            TopologyPreset::Crossbar4 => "xbar:4",
            TopologyPreset::Hier16 => "ring:4x4",
        }
    }

    /// The generated topology (structurally equal to the enum-built
    /// constructor of the same name — pinned by tests).
    pub fn topology(self) -> Topology {
        let spec = TopologySpec::parse(self.spec_str()).expect("preset spec strings are valid");
        spec.topology()
    }
}

/// Why a topology token, spec string or spec file failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoSpecError {
    /// The token or file was empty.
    Empty,
    /// A bare token that is neither a preset nor a `<shape>:<dims>` spec.
    UnknownTopology(String),
    /// The shape word before `:` (or the `shape =` value) is unknown.
    UnknownShape(String),
    /// A dimension (clusters / quads / per-quad) is missing, non-numeric
    /// or zero.
    InvalidDim {
        /// Which dimension failed.
        what: &'static str,
        /// The offending text.
        token: String,
    },
    /// Ring dims are not `<quads>x<per_quad>`.
    BadRingDims(String),
    /// The shape exceeds a simulator capacity bound (too few clusters or
    /// quads, too many clusters, or a route past the inline cap). Wraps
    /// the shared checker's [`CapacityError`] so the refusal wording lives
    /// in exactly one place.
    Capacity(CapacityError),
    /// An `@...` override suffix names no known key (`hop`, `xbar`).
    UnknownOverride(String),
    /// The same latency override appears twice.
    DuplicateOverride(&'static str),
    /// `@hop` on a crossbar, which has no ring hops.
    OverrideNotApplicable {
        /// The override key.
        key: &'static str,
    },
    /// A segment length is missing, non-numeric, zero or longer than
    /// [`MAX_SEGMENT_LEN`], as an `@hop`/`@xbar` override or as a spec
    /// file's `hop_len`/`xbar_len`.
    InvalidOverride {
        /// The override key.
        key: &'static str,
        /// The offending text.
        token: String,
    },
    /// A spec-file line is not `key = value`, a comment or blank.
    FileSyntax {
        /// 1-based line number.
        line: usize,
        /// The offending line.
        text: String,
    },
    /// A spec-file key is unknown.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The offending key.
        key: String,
    },
    /// A spec-file key appears twice.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
    },
    /// A spec-file key required by the shape is missing.
    MissingKey {
        /// The shape word.
        shape: &'static str,
        /// The missing key.
        key: &'static str,
    },
    /// A spec-file key does not apply to the declared shape.
    KeyNotApplicable {
        /// The shape word.
        shape: &'static str,
        /// The inapplicable key.
        key: String,
    },
}

impl fmt::Display for TopoSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoSpecError::Empty => write!(
                f,
                "empty topology spec; expected a preset (crossbar4, hier16) or a \
                 spec like \"xbar:8\" or \"ring:6x4\""
            ),
            TopoSpecError::UnknownTopology(t) => write!(
                f,
                "unknown topology {t:?}; expected a preset (crossbar4, hier16) or a \
                 spec like \"xbar:8\" or \"ring:6x4[@hop<n>][@xbar<n>]\""
            ),
            TopoSpecError::UnknownShape(s) => {
                write!(f, "unknown shape {s:?}; expected xbar or ring")
            }
            TopoSpecError::InvalidDim { what, token } => {
                write!(f, "{what} must be a positive integer, got {token:?}")
            }
            TopoSpecError::BadRingDims(d) => write!(
                f,
                "ring dims {d:?} must be <quads>x<clusters-per-quad>, e.g. \"ring:6x4\""
            ),
            TopoSpecError::Capacity(e) => write!(f, "{e}"),
            TopoSpecError::UnknownOverride(o) => {
                write!(f, "unknown override @{o}; expected @hop<n> or @xbar<n>")
            }
            TopoSpecError::DuplicateOverride(key) => {
                write!(f, "duplicate @{key} latency override")
            }
            TopoSpecError::OverrideNotApplicable { key } => {
                write!(
                    f,
                    "@{key} does not apply to a crossbar (it has no ring hops)"
                )
            }
            TopoSpecError::InvalidOverride { key, token } => write!(
                f,
                "@{key} needs a segment length of 1 to {MAX_SEGMENT_LEN}, got {token:?} \
                 (e.g. \"@{key}2\")"
            ),
            TopoSpecError::FileSyntax { line, text } => write!(
                f,
                "spec file line {line}: expected `key = value`, got {text:?}"
            ),
            TopoSpecError::UnknownKey { line, key } => write!(
                f,
                "spec file line {line}: unknown key {key:?}; expected shape, clusters, \
                 quads, per_quad, hop_len, xbar_len"
            ),
            TopoSpecError::DuplicateKey { line, key } => {
                write!(f, "spec file line {line}: duplicate key {key:?}")
            }
            TopoSpecError::MissingKey { shape, key } => {
                write!(f, "spec file: shape {shape} requires a `{key} = ...` line")
            }
            TopoSpecError::KeyNotApplicable { shape, key } => {
                write!(f, "spec file: key {key:?} does not apply to shape {shape}")
            }
        }
    }
}

impl std::error::Error for TopoSpecError {}

/// Parses one dimension as a positive integer.
fn parse_dim(what: &'static str, token: &str) -> Result<usize, TopoSpecError> {
    let err = || TopoSpecError::InvalidDim {
        what,
        token: token.to_string(),
    };
    let n: usize = token.trim().parse().map_err(|_| err())?;
    if n == 0 {
        return Err(err());
    }
    Ok(n)
}

impl From<CapacityError> for TopoSpecError {
    fn from(e: CapacityError) -> Self {
        TopoSpecError::Capacity(e)
    }
}

/// The one segment-length check behind every validation site: `len`
/// must lie in 1 to [`MAX_SEGMENT_LEN`]. The spec parsers return its
/// error and [`Topology::with_segment_lengths`] panics with its text.
pub(crate) fn check_segment_len(key: &'static str, len: usize) -> Result<u32, TopoSpecError> {
    match u32::try_from(len) {
        Ok(n @ 1..=MAX_SEGMENT_LEN) => Ok(n),
        _ => Err(TopoSpecError::InvalidOverride {
            key,
            token: format!("{key}{len}"),
        }),
    }
}

/// Builds and validates a crossbar topology (shared by the compact and
/// file parsers); validation is the shared segment-length and capacity
/// checkers.
pub(super) fn build_crossbar(clusters: usize, xbar_len: usize) -> Result<Topology, TopoSpecError> {
    let xbar_len = check_segment_len("xbar", xbar_len)?;
    check_crossbar(clusters)?;
    Ok(Topology::crossbar(clusters).with_segment_lengths(xbar_len, DEFAULT_HOP_LEN))
}

/// Builds and validates a hierarchical-ring topology (shared by the
/// compact and file parsers); validation is the shared segment-length and
/// capacity checkers.
pub(super) fn build_ring(
    quads: usize,
    per_quad: usize,
    xbar_len: usize,
    hop_len: usize,
) -> Result<Topology, TopoSpecError> {
    let xbar_len = check_segment_len("xbar", xbar_len)?;
    let hop_len = check_segment_len("hop", hop_len)?;
    check_ring(quads, per_quad)?;
    Ok(Topology::hier_ring(quads, per_quad).with_segment_lengths(xbar_len, hop_len))
}

/// A validated, parseable topology description: a preset name or a
/// generated shape. Parsing and formatting round-trip
/// (`parse(spec.name()) == spec`), and the generated [`Topology`] compares
/// structurally, so `parse("ring:4x4").topology() == Topology::hier16()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologySpec {
    preset: Option<TopologyPreset>,
    topology: Topology,
}

impl TopologySpec {
    /// Parses a preset name (`crossbar4`, `hier16`) or a compact spec
    /// (`xbar:<clusters>`, `ring:<quads>x<per_quad>`, each with optional
    /// `@hop<n>` / `@xbar<n>` segment-length overrides).
    pub fn parse(token: &str) -> Result<Self, TopoSpecError> {
        let token = token.trim();
        if token.is_empty() {
            return Err(TopoSpecError::Empty);
        }
        for p in TopologyPreset::ALL {
            if p.name() == token {
                // Parse the delegated spec string directly (not via
                // `p.topology()`, which would recurse through here).
                let spec = Self::parse(p.spec_str())?;
                return Ok(TopologySpec {
                    preset: Some(p),
                    topology: spec.topology,
                });
            }
        }
        let Some((shape, rest)) = token.split_once(':') else {
            return Err(TopoSpecError::UnknownTopology(token.to_string()));
        };

        let mut parts = rest.split('@');
        let dims = parts.next().unwrap_or("");
        let mut xbar_len: Option<usize> = None;
        let mut hop_len: Option<usize> = None;
        for ov in parts {
            let digits_at = ov.find(|c: char| c.is_ascii_digit()).unwrap_or(ov.len());
            let (key, value) = ov.split_at(digits_at);
            let slot = match key {
                "hop" => &mut hop_len,
                "xbar" => &mut xbar_len,
                _ => return Err(TopoSpecError::UnknownOverride(ov.to_string())),
            };
            let key: &'static str = if key == "hop" { "hop" } else { "xbar" };
            if slot.is_some() {
                return Err(TopoSpecError::DuplicateOverride(key));
            }
            // The range check is `build_*`'s, shared with the file form.
            let len: usize = value.parse().map_err(|_| TopoSpecError::InvalidOverride {
                key,
                token: ov.to_string(),
            })?;
            *slot = Some(len);
        }

        let topology = match shape {
            "xbar" => {
                if hop_len.is_some() {
                    return Err(TopoSpecError::OverrideNotApplicable { key: "hop" });
                }
                let clusters = parse_dim("clusters", dims)?;
                build_crossbar(clusters, xbar_len.unwrap_or(DEFAULT_XBAR_LEN as usize))?
            }
            "ring" => {
                let Some((q, p)) = dims.split_once('x') else {
                    return Err(TopoSpecError::BadRingDims(dims.to_string()));
                };
                let quads = parse_dim("quads", q)?;
                let per_quad = parse_dim("clusters per quad", p)?;
                build_ring(
                    quads,
                    per_quad,
                    xbar_len.unwrap_or(DEFAULT_XBAR_LEN as usize),
                    hop_len.unwrap_or(DEFAULT_HOP_LEN as usize),
                )?
            }
            other => return Err(TopoSpecError::UnknownShape(other.to_string())),
        };
        Ok(TopologySpec {
            preset: None,
            topology,
        })
    }

    /// Parses the key=value spec-file form (see [`crate::topo`] module
    /// docs for the grammar).
    pub fn parse_file(contents: &str) -> Result<Self, TopoSpecError> {
        super::file::parse_file_str(contents)
    }

    /// Wraps an already-built topology (no preset attribution).
    pub fn from_topology(topology: Topology) -> Self {
        TopologySpec {
            preset: None,
            topology,
        }
    }

    /// The preset this spec names, if it was given by preset name.
    pub fn preset(&self) -> Option<TopologyPreset> {
        self.preset
    }

    /// The generated topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The parseable name: the preset name, or the canonical compact spec
    /// string ([`Topology::spec_string`]).
    pub fn name(&self) -> String {
        match self.preset {
            Some(p) => p.name().to_string(),
            None => self.topology.spec_string(),
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl FromStr for TopologySpec {
    type Err = TopoSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_delegate_to_their_spec_strings() {
        for p in TopologyPreset::ALL {
            let by_name = TopologySpec::parse(p.name()).unwrap();
            let by_spec = TopologySpec::parse(p.spec_str()).unwrap();
            assert_eq!(by_name.preset(), Some(p));
            assert_eq!(by_spec.preset(), None, "spec form is not auto-promoted");
            assert_eq!(by_name.topology(), by_spec.topology());
            // name() round-trips for both forms.
            assert_eq!(TopologySpec::parse(&by_name.name()).unwrap(), by_name);
            assert_eq!(TopologySpec::parse(&by_spec.name()).unwrap(), by_spec);
        }
        assert_eq!(
            TopologySpec::parse("crossbar4").unwrap().topology(),
            Topology::crossbar4()
        );
        assert_eq!(
            TopologySpec::parse("hier16").unwrap().topology(),
            Topology::hier16()
        );
    }

    #[test]
    fn compact_specs_generate_the_expected_shapes() {
        let t = TopologySpec::parse("xbar:8").unwrap().topology();
        assert_eq!(t.clusters(), 8);
        assert!(!t.is_ring());

        let t = TopologySpec::parse("ring:6x4").unwrap().topology();
        assert_eq!((t.quads(), t.per_quad(), t.clusters()), (6, 4, 24));

        let t = TopologySpec::parse("ring:4x4@hop3").unwrap().topology();
        assert_eq!(t.hop_len(), 3);
        assert_eq!(t.xbar_len(), 1);

        let t = TopologySpec::parse("xbar:2@xbar2").unwrap().topology();
        assert_eq!(t.xbar_len(), 2);

        // Overrides compose in either order.
        assert_eq!(
            TopologySpec::parse("ring:5x2@hop3@xbar2").unwrap(),
            TopologySpec::parse("ring:5x2@xbar2@hop3").unwrap()
        );
    }

    #[test]
    fn whitespace_is_tolerated_around_the_token() {
        assert_eq!(
            TopologySpec::parse("  ring:4x4 ").unwrap().topology(),
            Topology::hier16()
        );
    }

    #[test]
    fn malformed_specs_fail_with_pointed_errors() {
        use TopoSpecError as E;
        let err = |s: &str| TopologySpec::parse(s).unwrap_err();
        assert_eq!(err(""), E::Empty);
        assert_eq!(err("   "), E::Empty);
        assert_eq!(err("mesh"), E::UnknownTopology("mesh".into()));
        assert_eq!(err("mesh:4"), E::UnknownShape("mesh".into()));
        assert!(matches!(
            err("xbar:"),
            E::InvalidDim {
                what: "clusters",
                ..
            }
        ));
        assert!(matches!(
            err("xbar:0"),
            E::InvalidDim {
                what: "clusters",
                ..
            }
        ));
        assert!(matches!(err("xbar:four"), E::InvalidDim { .. }));
        assert_eq!(err("xbar:1"), E::Capacity(CapacityError::TooFewClusters(1)));
        assert_eq!(
            err("xbar:65"),
            E::Capacity(CapacityError::TooManyClusters { clusters: 65 })
        );
        assert_eq!(err("ring:6"), E::BadRingDims("6".into()));
        assert!(matches!(
            err("ring:0x4"),
            E::InvalidDim { what: "quads", .. }
        ));
        assert!(matches!(err("ring:4x0"), E::InvalidDim { .. }));
        assert_eq!(err("ring:2x4"), E::Capacity(CapacityError::TooFewQuads(2)));
        assert_eq!(
            err("ring:20x2"),
            E::Capacity(CapacityError::RouteTooLong {
                quads: 20,
                needed: 12
            })
        );
        assert_eq!(
            err("ring:16x5"),
            E::Capacity(CapacityError::TooManyClusters { clusters: 80 })
        );
        assert_eq!(err("ring:4x4@speed2"), E::UnknownOverride("speed2".into()));
        assert_eq!(err("ring:4x4@hop2@hop3"), E::DuplicateOverride("hop"));
        assert_eq!(err("xbar:4@hop2"), E::OverrideNotApplicable { key: "hop" });
        assert!(matches!(
            err("ring:4x4@hop0"),
            E::InvalidOverride { key: "hop", .. }
        ));
        assert!(matches!(err("ring:4x4@hop"), E::InvalidOverride { .. }));
        // Every error Displays a non-empty, pointed message.
        for s in [
            "",
            "mesh",
            "mesh:4",
            "xbar:1",
            "xbar:65",
            "ring:2x4",
            "ring:20x2",
            "ring:16x5",
            "ring:4x4@hop2@hop3",
        ] {
            let msg = TopologySpec::parse(s).unwrap_err().to_string();
            assert!(!msg.is_empty(), "{s:?}");
        }
    }

    #[test]
    fn segment_lengths_past_the_bound_are_refused() {
        // The bound itself parses on both segment kinds.
        let t = TopologySpec::parse("ring:16x4@hop64@xbar64")
            .unwrap()
            .topology();
        assert_eq!((t.hop_len(), t.xbar_len()), (64, 64));
        for (spec, key, token) in [
            ("ring:4x4@hop65", "hop", "hop65"),
            ("ring:4x4@hop100000", "hop", "hop100000"),
            ("ring:4x4@hop4000000000", "hop", "hop4000000000"),
            // Past u32 as well.
            ("ring:4x4@hop4294967298", "hop", "hop4294967298"),
            ("ring:4x4@xbar65", "xbar", "xbar65"),
            ("xbar:4@xbar4000000000", "xbar", "xbar4000000000"),
        ] {
            let err = TopologySpec::parse(spec).unwrap_err();
            assert_eq!(
                err,
                TopoSpecError::InvalidOverride {
                    key,
                    token: token.into()
                },
                "{spec}"
            );
            let msg = err.to_string();
            assert!(msg.contains(token) && msg.contains("1 to 64"), "{msg}");
        }
    }

    #[test]
    fn route_bound_errors_name_the_limit() {
        let msg = TopologySpec::parse("ring:20x2").unwrap_err().to_string();
        assert!(msg.contains("at most 16 quads"), "{msg}");
        // 16 quads is the boundary (2 + 16/2 = 10 inline links) and is
        // accepted — ring:16x4 is the 64-cluster headline shape.
        let t = TopologySpec::parse("ring:16x4").unwrap().topology();
        assert_eq!(t.max_route_links(), 10);
        assert_eq!(t.clusters(), 64);
    }

    #[test]
    fn cluster_cap_errors_name_cap_and_offender() {
        // The refusal wording comes from the one shared checker: it names
        // both the offending cluster count and the simulator-wide cap.
        for spec in ["xbar:65", "ring:13x5"] {
            let msg = TopologySpec::parse(spec).unwrap_err().to_string();
            assert!(msg.contains("65 clusters"), "{spec}: {msg}");
            assert!(msg.contains("at most 64"), "{spec}: {msg}");
        }
        // The widest supported crossbar parses.
        let t = TopologySpec::parse("xbar:64").unwrap().topology();
        assert_eq!(t.clusters(), 64);
    }
}
