//! Data-driven link specifications.
//!
//! A [`LinkSpec`] is the parseable, round-trippable text form of a
//! [`LinkComposition`]: `b144+pw288+l36` describes a link of 144 B-Wires,
//! 288 PW-Wires and 36 L-Wires (the paper's Model X). The grammar is a
//! `+`-joined list of `<class><count>` segments, where `<class>` is one of
//! the lowercase class letters `w`, `pw`, `b`, `l` and `<count>` is a
//! positive wire count that must be a whole number of lanes for the class
//! (multiples of 72 for W/PW/B, of 18 for L).
//!
//! Specs open the model space beyond the ten enum presets of Tables 3/4:
//! any composition the lane arithmetic accepts can be swept from the
//! command line without recompiling.
//!
//! ```
//! use heterowire_wires::spec::LinkSpec;
//! use heterowire_wires::WireClass;
//!
//! let spec: LinkSpec = "b144+pw288+l36".parse().unwrap();
//! assert_eq!(spec.composition().lanes(WireClass::B), 2);
//! assert_eq!(spec.to_string(), "b144+pw288+l36");
//! ```

use std::fmt;
use std::str::FromStr;

use crate::classes::WireClass;
use crate::plane::{LinkComposition, WirePlane};

/// Why a spec string failed to parse into a valid link composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string was empty (or a segment between `+`s was).
    Empty,
    /// A segment did not start with a known class letter (`w`, `pw`, `b`,
    /// `l`).
    UnknownClass(String),
    /// A segment's wire count was missing or not a positive integer.
    InvalidCount(String),
    /// A count is not a whole number of lanes for its class.
    NotLaneMultiple {
        /// The wire class of the offending segment.
        class: WireClass,
        /// The requested wire count.
        count: u32,
        /// Wires per lane for the class.
        lane: u32,
    },
    /// The same class appears in more than one segment.
    DuplicateClass(WireClass),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(
                f,
                "empty link spec; expected `+`-joined <class><count> segments like \"b144+l36\""
            ),
            SpecError::UnknownClass(seg) => write!(
                f,
                "unknown wire class in segment {seg:?}; expected one of w, pw, b, l"
            ),
            SpecError::InvalidCount(seg) => write!(
                f,
                "segment {seg:?} needs a positive wire count, e.g. \"b144\""
            ),
            SpecError::NotLaneMultiple { class, count, lane } => write!(
                f,
                "{count} {class} is not a whole number of lanes \
                 ({class} lanes are {lane} wires wide)"
            ),
            SpecError::DuplicateClass(class) => {
                write!(f, "duplicate {class} plane in link spec")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Lowercase spec letter for a class (`w`, `pw`, `b`, `l`).
fn class_letter(class: WireClass) -> &'static str {
    match class {
        WireClass::W => "w",
        WireClass::Pw => "pw",
        WireClass::B => "b",
        WireClass::L => "l",
    }
}

/// A validated, parseable link composition. Parsing and formatting are
/// exact inverses: `format(parse(s)) == canonical(s)` where the canonical
/// form lowercases class letters and preserves segment order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    composition: LinkComposition,
}

impl LinkSpec {
    /// Parses a `b144+pw288+l36`-style spec.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Empty);
        }
        let mut planes = Vec::new();
        for segment in s.split('+') {
            let segment = segment.trim();
            if segment.is_empty() {
                return Err(SpecError::Empty);
            }
            let digits_at = segment
                .find(|c: char| c.is_ascii_digit())
                .ok_or_else(|| SpecError::InvalidCount(segment.to_string()))?;
            let (letters, digits) = segment.split_at(digits_at);
            let class = WireClass::ALL
                .into_iter()
                .find(|&c| letters.eq_ignore_ascii_case(class_letter(c)))
                .ok_or_else(|| SpecError::UnknownClass(segment.to_string()))?;
            let count: u32 = digits
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| SpecError::InvalidCount(segment.to_string()))?;
            let lane = WirePlane::wires_per_lane(class);
            if !count.is_multiple_of(lane) {
                return Err(SpecError::NotLaneMultiple { class, count, lane });
            }
            planes.push(WirePlane::new(class, count));
        }
        let composition =
            LinkComposition::new(planes).map_err(|e| SpecError::DuplicateClass(e.0))?;
        Ok(LinkSpec { composition })
    }

    /// The composition this spec describes.
    pub fn composition(&self) -> &LinkComposition {
        &self.composition
    }

    /// Consumes the spec, yielding the composition.
    pub fn into_composition(self) -> LinkComposition {
        self.composition
    }
}

impl FromStr for LinkSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

impl fmt::Display for LinkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.composition.planes().iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{}{}", class_letter(p.class()), p.count())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_model_x_spec() {
        let spec = LinkSpec::parse("b144+pw288+l36").unwrap();
        let link = spec.composition();
        assert_eq!(link.lanes(WireClass::B), 2);
        assert_eq!(link.lanes(WireClass::Pw), 4);
        assert_eq!(link.lanes(WireClass::L), 2);
        assert_eq!(link.to_string(), "144 B-Wires, 288 PW-Wires, 36 L-Wires");
    }

    #[test]
    fn format_round_trips_and_canonicalises() {
        for s in ["b144", "pw288", "pw144+l36", "b432", "w72+l18"] {
            let spec = LinkSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s, "canonical form is stable");
            assert_eq!(LinkSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        // Uppercase and whitespace are accepted but canonicalised away.
        let spec = LinkSpec::parse(" B144 + L36 ").unwrap();
        assert_eq!(spec.to_string(), "b144+l36");
    }

    #[test]
    fn segment_order_is_preserved() {
        assert_eq!(LinkSpec::parse("l36+b144").unwrap().to_string(), "l36+b144");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert_eq!(LinkSpec::parse(""), Err(SpecError::Empty));
        assert_eq!(LinkSpec::parse("b144+"), Err(SpecError::Empty));
        assert_eq!(
            LinkSpec::parse("x144"),
            Err(SpecError::UnknownClass("x144".to_string()))
        );
        assert_eq!(
            LinkSpec::parse("b"),
            Err(SpecError::InvalidCount("b".to_string()))
        );
        assert_eq!(
            LinkSpec::parse("b0"),
            Err(SpecError::InvalidCount("b0".to_string()))
        );
        assert_eq!(
            LinkSpec::parse("b100"),
            Err(SpecError::NotLaneMultiple {
                class: WireClass::B,
                count: 100,
                lane: 72,
            })
        );
        assert_eq!(
            LinkSpec::parse("b72+b144"),
            Err(SpecError::DuplicateClass(WireClass::B))
        );
        // Errors print something a CLI user can act on.
        assert!(LinkSpec::parse("b100")
            .unwrap_err()
            .to_string()
            .contains("72 wires wide"));
    }
}
