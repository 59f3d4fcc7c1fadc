//! Wire *planes*: bundles of same-class wires deployed on a network link.
//!
//! The paper describes links as e.g. "144 B-Wires + 36 L-Wires". A plane of
//! 72 B- or PW-wires carries one 64-bit-data + 8-bit-tag transfer per cycle
//! (one *lane*); a plane of 18 L-wires carries one narrow transfer per cycle
//! (8-bit tag + 10-bit payload, or a partial-address packet).

use std::fmt;

use crate::classes::WireClass;

/// Wires per full-width (data + tag) lane for B/PW/W planes.
pub const FULL_LANE_WIRES: u32 = 72;
/// Wires per narrow lane for L planes.
pub const NARROW_LANE_WIRES: u32 = 18;

/// A bundle of `count` wires of a single class on one unidirectional link.
///
/// # Examples
///
/// ```
/// use heterowire_wires::plane::WirePlane;
/// use heterowire_wires::classes::WireClass;
///
/// let b = WirePlane::new(WireClass::B, 144);
/// assert_eq!(b.lanes(), 2);
/// let l = WirePlane::new(WireClass::L, 36);
/// assert_eq!(l.lanes(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WirePlane {
    class: WireClass,
    count: u32,
}

impl WirePlane {
    /// Creates a plane of `count` wires of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or not a whole number of lanes for the
    /// class (multiples of 72 for W/PW/B, multiples of 18 for L).
    pub fn new(class: WireClass, count: u32) -> Self {
        assert!(count > 0, "a wire plane must contain at least one wire");
        let lane = Self::wires_per_lane(class);
        assert!(
            count.is_multiple_of(lane),
            "{count} {class} must be a multiple of the {lane}-wire lane width"
        );
        WirePlane { class, count }
    }

    /// Wire class of this plane.
    pub fn class(&self) -> WireClass {
        self.class
    }

    /// Number of physical wires in the plane.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Wires needed for one lane of the given class.
    pub fn wires_per_lane(class: WireClass) -> u32 {
        match class {
            WireClass::L => NARROW_LANE_WIRES,
            _ => FULL_LANE_WIRES,
        }
    }

    /// Independent transfers this plane can start per cycle.
    pub fn lanes(&self) -> u32 {
        self.count / Self::wires_per_lane(self.class)
    }

    /// Metal-area footprint in units of one W-wire track.
    ///
    /// A B-wire occupies 2 tracks and an L-wire 8 (Table 2), so
    /// `144 B-Wires` cost 288 track-units — the same as `288 PW-Wires`.
    pub fn metal_area(&self) -> f64 {
        self.count as f64 * self.class.params().relative_area
    }

    /// Leakage weight of the plane: wires × per-wire relative leakage.
    /// Used by the energy model (leakage accrues every cycle).
    pub fn leakage_weight(&self) -> f64 {
        self.count as f64 * self.class.params().relative_leakage
    }
}

impl fmt::Display for WirePlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.count, self.class)
    }
}

/// Error returned by [`LinkComposition::new`] when two planes share a wire
/// class — a link offers at most one plane per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateClassError(pub WireClass);

impl fmt::Display for DuplicateClassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "duplicate {} plane in link composition", self.0)
    }
}

impl std::error::Error for DuplicateClassError {}

/// The wire composition of one unidirectional link: zero or one plane per
/// class. Construct with [`LinkComposition::new`] from a list of planes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinkComposition {
    planes: Vec<WirePlane>,
}

impl LinkComposition {
    /// Creates a composition from the given planes, rejecting compositions
    /// in which two planes share a wire class. Hard-coded compositions
    /// (the paper's model presets, test fixtures) unwrap at the call site;
    /// data-driven callers (the [`crate::spec::LinkSpec`] parser) surface
    /// the error to the user.
    pub fn new(planes: Vec<WirePlane>) -> Result<Self, DuplicateClassError> {
        for (i, a) in planes.iter().enumerate() {
            for b in &planes[i + 1..] {
                if a.class() == b.class() {
                    return Err(DuplicateClassError(a.class()));
                }
            }
        }
        Ok(LinkComposition { planes })
    }

    /// The planes in this composition.
    pub fn planes(&self) -> &[WirePlane] {
        &self.planes
    }

    /// The plane of the given class, if present.
    pub fn plane(&self, class: WireClass) -> Option<&WirePlane> {
        self.planes.iter().find(|p| p.class() == class)
    }

    /// Lanes available for the given class (0 if the class is absent).
    pub fn lanes(&self, class: WireClass) -> u32 {
        self.plane(class).map_or(0, WirePlane::lanes)
    }

    /// Total metal area in W-wire track units.
    pub fn metal_area(&self) -> f64 {
        self.planes.iter().map(WirePlane::metal_area).sum()
    }

    /// Total leakage weight (wires × relative leakage).
    pub fn leakage_weight(&self) -> f64 {
        self.planes.iter().map(WirePlane::leakage_weight).sum()
    }

    /// Returns a composition with every plane's wire count multiplied by
    /// `factor` — used for the double-width cache links.
    pub fn widened(&self, factor: u32) -> Self {
        assert!(factor > 0, "widening factor must be positive");
        LinkComposition {
            planes: self
                .planes
                .iter()
                .map(|p| WirePlane::new(p.class(), p.count() * factor))
                .collect(),
        }
    }

    /// Returns a composition with `lanes` lanes of `class` permanently
    /// removed — the wire-level model of stuck-at lane faults: the wires
    /// still occupy metal area on the die, but no longer carry transfers,
    /// so the returned composition is what every consumer (steering
    /// policies, load balancer, network arbitration) must steer against.
    /// A plane whose last lane is retired disappears from the composition
    /// entirely (a plane cannot hold zero wires).
    pub fn with_lanes_retired(
        &self,
        class: WireClass,
        lanes: u32,
    ) -> Result<Self, LaneRetireError> {
        if lanes == 0 {
            return Ok(self.clone());
        }
        let available = self.lanes(class);
        if lanes > available {
            return Err(LaneRetireError {
                class,
                available,
                requested: lanes,
            });
        }
        let planes = self
            .planes
            .iter()
            .filter_map(|p| {
                if p.class() != class {
                    return Some(*p);
                }
                let keep = p.lanes() - lanes;
                (keep > 0).then(|| WirePlane::new(class, keep * WirePlane::wires_per_lane(class)))
            })
            .collect();
        Ok(LinkComposition { planes })
    }

    /// True if no planes are present.
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }
}

/// Error returned by [`LinkComposition::with_lanes_retired`] when the
/// composition has fewer live lanes of the class than the retirement asks
/// for (including the class being absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRetireError {
    /// Class whose lanes were to be retired.
    pub class: WireClass,
    /// Lanes the composition actually offers for that class.
    pub available: u32,
    /// Lanes requested for retirement.
    pub requested: u32,
}

impl fmt::Display for LaneRetireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot retire {} {} lane(s): the link has only {}",
            self.requested, self.class, self.available
        )
    }
}

impl std::error::Error for LaneRetireError {}

impl fmt::Display for LinkComposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.planes.is_empty() {
            return write!(f, "(no wires)");
        }
        for (i, p) in self.planes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_math_matches_paper_examples() {
        // "every link may consist of 72 B-Wires, 144 PW-Wires and 18 L-Wires"
        assert_eq!(WirePlane::new(WireClass::B, 72).lanes(), 1);
        assert_eq!(WirePlane::new(WireClass::Pw, 144).lanes(), 2);
        assert_eq!(WirePlane::new(WireClass::L, 18).lanes(), 1);
    }

    #[test]
    fn area_equivalences_from_section_5_4() {
        // Model I (144 B) has area 288 track units; Model II (288 PW) the
        // same; 36 L-wires also cost 288. These are the paper's "same metal
        // area" equivalence classes.
        let b = WirePlane::new(WireClass::B, 144).metal_area();
        let pw = WirePlane::new(WireClass::Pw, 288).metal_area();
        let l = WirePlane::new(WireClass::L, 36).metal_area();
        assert_eq!(b, 288.0);
        assert_eq!(pw, 288.0);
        assert_eq!(l, 288.0);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn non_lane_multiple_panics() {
        let _ = WirePlane::new(WireClass::B, 100);
    }

    #[test]
    fn duplicate_class_is_rejected() {
        let err = LinkComposition::new(vec![
            WirePlane::new(WireClass::B, 72),
            WirePlane::new(WireClass::B, 144),
        ])
        .unwrap_err();
        assert_eq!(err, DuplicateClassError(WireClass::B));
        assert!(err.to_string().contains("duplicate B-Wires plane"));
    }

    #[test]
    fn widened_doubles_counts() {
        let link = LinkComposition::new(vec![
            WirePlane::new(WireClass::B, 144),
            WirePlane::new(WireClass::L, 36),
        ])
        .unwrap();
        let cache = link.widened(2);
        assert_eq!(cache.lanes(WireClass::B), 4);
        assert_eq!(cache.lanes(WireClass::L), 4);
        assert_eq!(cache.metal_area(), 2.0 * link.metal_area());
    }

    #[test]
    fn missing_class_has_zero_lanes() {
        let link = LinkComposition::new(vec![WirePlane::new(WireClass::B, 144)]).unwrap();
        assert_eq!(link.lanes(WireClass::L), 0);
        assert_eq!(link.lanes(WireClass::Pw), 0);
        assert!(link.plane(WireClass::L).is_none());
    }

    #[test]
    fn display_formats() {
        let link = LinkComposition::new(vec![
            WirePlane::new(WireClass::B, 144),
            WirePlane::new(WireClass::L, 36),
        ])
        .unwrap();
        assert_eq!(link.to_string(), "144 B-Wires, 36 L-Wires");
        assert_eq!(LinkComposition::default().to_string(), "(no wires)");
    }

    #[test]
    fn lane_retirement_shrinks_live_capacity() {
        let link = LinkComposition::new(vec![
            WirePlane::new(WireClass::B, 144),
            WirePlane::new(WireClass::L, 36),
        ])
        .unwrap();
        // Retiring one of two L lanes halves the plane; area tracks the
        // surviving wires (the composition models live capacity).
        let degraded = link.with_lanes_retired(WireClass::L, 1).unwrap();
        assert_eq!(degraded.lanes(WireClass::L), 1);
        assert_eq!(degraded.lanes(WireClass::B), 2);
        assert_eq!(degraded.to_string(), "144 B-Wires, 18 L-Wires");
        // Retiring the whole plane removes it.
        let gone = link.with_lanes_retired(WireClass::L, 2).unwrap();
        assert!(gone.plane(WireClass::L).is_none());
        assert_eq!(gone.to_string(), "144 B-Wires");
        // Zero retirements is the identity.
        assert_eq!(link.with_lanes_retired(WireClass::Pw, 0).unwrap(), link);
        // Over-retirement and absent classes fail loudly.
        let err = link.with_lanes_retired(WireClass::L, 3).unwrap_err();
        assert_eq!(
            err,
            LaneRetireError {
                class: WireClass::L,
                available: 2,
                requested: 3
            }
        );
        assert!(err.to_string().contains("only 2"), "{err}");
        assert!(link.with_lanes_retired(WireClass::Pw, 1).is_err());
    }

    #[test]
    fn leakage_weight_uses_table2_ratios() {
        let b = WirePlane::new(WireClass::B, 144);
        assert!((b.leakage_weight() - 144.0 * 0.55).abs() < 1e-9);
    }
}
