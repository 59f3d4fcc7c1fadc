//! The key=value spec-file form of [`TopologySpec`].
//!
//! ```text
//! # 6 quads of 4 clusters, slow ring hops
//! shape    = ring
//! quads    = 6
//! per_quad = 4
//! hop_len  = 3
//! ```
//!
//! `shape` is required (`xbar` or `ring`); `clusters` applies to crossbars,
//! `quads` / `per_quad` to rings; `hop_len` / `xbar_len` override the wire
//! segment lengths the latency derivation uses. Unknown, duplicate,
//! missing or shape-inapplicable keys are loud [`TopoSpecError`]s.

use super::spec::{build_crossbar, build_ring, TopoSpecError, TopologySpec};
use crate::topology::{DEFAULT_HOP_LEN, DEFAULT_XBAR_LEN};

/// One parsed `key = value` assignment.
struct Assign<'a> {
    key: &'a str,
    value: &'a str,
}

pub(super) fn parse_file_str(contents: &str) -> Result<TopologySpec, TopoSpecError> {
    let mut assigns: Vec<Assign> = Vec::new();
    for (i, raw) in contents.lines().enumerate() {
        let line = i + 1;
        let text = match raw.split_once('#') {
            Some((before, _)) => before,
            None => raw,
        }
        .trim();
        if text.is_empty() {
            continue;
        }
        let Some((key, value)) = text.split_once('=') else {
            return Err(TopoSpecError::FileSyntax {
                line,
                text: text.to_string(),
            });
        };
        let (key, value) = (key.trim(), value.trim());
        if key.is_empty() || value.is_empty() {
            return Err(TopoSpecError::FileSyntax {
                line,
                text: text.to_string(),
            });
        }
        const KNOWN: [&str; 6] = [
            "shape", "clusters", "quads", "per_quad", "hop_len", "xbar_len",
        ];
        if !KNOWN.contains(&key) {
            return Err(TopoSpecError::UnknownKey {
                line,
                key: key.to_string(),
            });
        }
        if assigns.iter().any(|a| a.key == key) {
            return Err(TopoSpecError::DuplicateKey {
                line,
                key: key.to_string(),
            });
        }
        assigns.push(Assign { key, value });
    }
    if assigns.is_empty() {
        return Err(TopoSpecError::Empty);
    }

    let get = |key: &str| assigns.iter().find(|a| a.key == key);
    let dim = |key: &'static str| -> Result<Option<usize>, TopoSpecError> {
        match get(key) {
            None => Ok(None),
            Some(a) => match a.value.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(TopoSpecError::InvalidDim {
                    what: key,
                    token: a.value.to_string(),
                }),
            },
        }
    };

    let shape = get("shape").ok_or(TopoSpecError::MissingKey {
        shape: "any",
        key: "shape",
    })?;
    let reject = |shape_word: &'static str, key: &'static str| -> Result<(), TopoSpecError> {
        match get(key) {
            Some(a) => Err(TopoSpecError::KeyNotApplicable {
                shape: shape_word,
                key: a.key.to_string(),
            }),
            None => Ok(()),
        }
    };
    // Segment lengths go to `build_*` unnarrowed, which range-checks them.
    let xbar_len = dim("xbar_len")?.unwrap_or(DEFAULT_XBAR_LEN as usize);
    let topology = match shape.value {
        "xbar" => {
            reject("xbar", "quads")?;
            reject("xbar", "per_quad")?;
            reject("xbar", "hop_len")?;
            let clusters = dim("clusters")?.ok_or(TopoSpecError::MissingKey {
                shape: "xbar",
                key: "clusters",
            })?;
            build_crossbar(clusters, xbar_len)?
        }
        "ring" => {
            reject("ring", "clusters")?;
            let quads = dim("quads")?.ok_or(TopoSpecError::MissingKey {
                shape: "ring",
                key: "quads",
            })?;
            let per_quad = dim("per_quad")?.ok_or(TopoSpecError::MissingKey {
                shape: "ring",
                key: "per_quad",
            })?;
            let hop_len = dim("hop_len")?.unwrap_or(DEFAULT_HOP_LEN as usize);
            build_ring(quads, per_quad, xbar_len, hop_len)?
        }
        other => return Err(TopoSpecError::UnknownShape(other.to_string())),
    };
    Ok(TopologySpec::from_topology(topology))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{CapacityError, Topology};

    #[test]
    fn file_form_parses_both_shapes() {
        let spec = TopologySpec::parse_file(
            "# the hier16 preset, spelled out\nshape = ring\nquads = 4\nper_quad = 4\n",
        )
        .unwrap();
        assert_eq!(spec.topology(), Topology::hier16());
        assert_eq!(spec.name(), "ring:4x4");

        let spec = TopologySpec::parse_file("shape = xbar\nclusters = 8\nxbar_len = 2\n").unwrap();
        assert_eq!(spec.topology().clusters(), 8);
        assert_eq!(spec.topology().xbar_len(), 2);
        assert_eq!(spec.name(), "xbar:8@xbar2");
    }

    #[test]
    fn file_form_matches_the_equivalent_compact_spec() {
        let by_file = TopologySpec::parse_file(
            "shape = ring\nquads = 6\nper_quad = 2\nhop_len = 3  # slow hops\n",
        )
        .unwrap();
        let by_compact = TopologySpec::parse("ring:6x2@hop3").unwrap();
        assert_eq!(by_file, by_compact);
    }

    #[test]
    fn file_form_bounds_segment_lengths_like_the_compact_form() {
        use TopoSpecError as E;
        let ring = |hop: &str| format!("shape = ring\nquads = 4\nper_quad = 4\nhop_len = {hop}\n");
        assert_eq!(
            TopologySpec::parse_file(&ring("64")).unwrap(),
            TopologySpec::parse("ring:4x4@hop64").unwrap()
        );
        for (text, key, token) in [
            (ring("4000000000"), "hop", "hop4000000000"),
            // Past u32: once truncated to a hop length of 2.
            (ring("4294967298"), "hop", "hop4294967298"),
            (
                "shape = xbar\nclusters = 4\nxbar_len = 65\n".to_string(),
                "xbar",
                "xbar65",
            ),
        ] {
            assert_eq!(
                TopologySpec::parse_file(&text).unwrap_err(),
                E::InvalidOverride {
                    key,
                    token: token.into()
                },
                "{text}"
            );
        }
    }

    #[test]
    fn file_form_rejects_malformed_input() {
        use TopoSpecError as E;
        let err = |s: &str| TopologySpec::parse_file(s).unwrap_err();
        assert_eq!(err(""), E::Empty);
        assert_eq!(err("# only comments\n\n"), E::Empty);
        assert!(matches!(err("shape ring\n"), E::FileSyntax { line: 1, .. }));
        assert!(matches!(err("shape =\n"), E::FileSyntax { .. }));
        assert!(matches!(
            err("shape = ring\ncolor = red\n"),
            E::UnknownKey { line: 2, .. }
        ));
        assert!(matches!(
            err("shape = ring\nquads = 4\nquads = 5\n"),
            E::DuplicateKey { line: 3, .. }
        ));
        assert!(matches!(
            err("quads = 4\nper_quad = 4\n"),
            E::MissingKey { key: "shape", .. }
        ));
        assert!(matches!(
            err("shape = ring\nquads = 4\n"),
            E::MissingKey {
                key: "per_quad",
                ..
            }
        ));
        assert!(matches!(
            err("shape = xbar\nclusters = 4\nhop_len = 2\n"),
            E::KeyNotApplicable { .. }
        ));
        assert_eq!(
            err("shape = torus\nclusters = 4\n"),
            E::UnknownShape("torus".into())
        );
        assert!(matches!(
            err("shape = ring\nquads = 0\nper_quad = 4\n"),
            E::InvalidDim { what: "quads", .. }
        ));
        // Shared validation with the compact form.
        assert_eq!(
            err("shape = ring\nquads = 2\nper_quad = 4\n"),
            E::Capacity(CapacityError::TooFewQuads(2))
        );
        assert_eq!(
            err("shape = ring\nquads = 20\nper_quad = 1\n"),
            E::Capacity(CapacityError::RouteTooLong {
                quads: 20,
                needed: 12
            })
        );
        assert_eq!(
            err("shape = xbar\nclusters = 100\n"),
            E::Capacity(CapacityError::TooManyClusters { clusters: 100 })
        );
    }
}
