//! Road classes and arc-length-parameterised routes.
//!
//! A [`Route`] is a polyline of constant-heading segments. Positions and
//! headings are queried by *arc length* `s` (metres from the route start) —
//! the same coordinate RUPS trajectories live in, which makes ground-truth
//! relative distances trivially `s_front − s_rear`.

use rups_core::testfield::splitmix64;
use serde::{Deserialize, Serialize};

/// The four road settings of the paper's evaluation (§VI-C/D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoadClass {
    /// 2-lane suburban surface road (open radio environment).
    Suburban2Lane,
    /// 4-lane urban surface road among buildings (semi-open).
    Urban4Lane,
    /// 8-lane urban major road (open-ish sky, heavy traffic).
    Urban8Lane,
    /// Road running under an elevated expressway (close environment —
    /// hardest for both GSM and GPS).
    UnderElevated,
}

impl RoadClass {
    /// All classes in the order the paper reports them (Fig. 12).
    pub const ALL: [RoadClass; 4] = [
        RoadClass::Suburban2Lane,
        RoadClass::Urban4Lane,
        RoadClass::Urban8Lane,
        RoadClass::UnderElevated,
    ];

    /// Number of lanes per direction.
    pub fn lanes(self) -> usize {
        match self {
            RoadClass::Suburban2Lane => 1,
            RoadClass::Urban4Lane => 2,
            RoadClass::Urban8Lane => 4,
            RoadClass::UnderElevated => 2,
        }
    }

    /// Lane width in metres.
    pub fn lane_width_m(self) -> f64 {
        3.5
    }

    /// Typical free-flow speed, m/s.
    pub fn free_flow_speed_mps(self) -> f64 {
        match self {
            RoadClass::Suburban2Lane => 14.0, // ~50 km/h
            RoadClass::Urban4Lane => 11.0,    // ~40 km/h
            RoadClass::Urban8Lane => 16.5,    // ~60 km/h
            RoadClass::UnderElevated => 12.5, // ~45 km/h
        }
    }

    /// Mean distance between signalised intersections, metres (none on
    /// grade-separated stretches would be `f64::INFINITY`; all four classes
    /// here are surface roads).
    pub fn signal_spacing_m(self) -> f64 {
        match self {
            RoadClass::Suburban2Lane => 900.0,
            RoadClass::Urban4Lane => 450.0,
            RoadClass::Urban8Lane => 650.0,
            RoadClass::UnderElevated => 550.0,
        }
    }
}

impl std::fmt::Display for RoadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RoadClass::Suburban2Lane => "2-lane suburb",
            RoadClass::Urban4Lane => "4-lane urban",
            RoadClass::Urban8Lane => "8-lane urban",
            RoadClass::UnderElevated => "under elevated",
        };
        f.write_str(s)
    }
}

/// One constant-heading stretch of a route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouteSegment {
    /// Length of the segment, metres.
    pub len_m: f64,
    /// Heading of the segment, radians CCW from +x.
    pub heading_rad: f64,
}

/// An arc-length-parameterised route of one road class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    class: RoadClass,
    segments: Vec<RouteSegment>,
    /// Cumulative arc length at the start of each segment (plus total at
    /// the end): `cum[i]..cum[i+1]` spans segment `i`.
    cum: Vec<f64>,
    /// Position of each segment start.
    starts: Vec<(f64, f64)>,
}

impl Route {
    /// Builds a route from segments. Panics on empty input or non-positive
    /// segment lengths.
    pub fn new(class: RoadClass, segments: Vec<RouteSegment>) -> Self {
        assert!(!segments.is_empty(), "route needs at least one segment");
        assert!(
            segments.iter().all(|s| s.len_m > 0.0),
            "segment lengths must be positive"
        );
        let mut cum = Vec::with_capacity(segments.len() + 1);
        let mut starts = Vec::with_capacity(segments.len());
        let mut s = 0.0;
        let mut pos = (0.0f64, 0.0f64);
        for seg in &segments {
            cum.push(s);
            starts.push(pos);
            s += seg.len_m;
            pos.0 += seg.len_m * seg.heading_rad.cos();
            pos.1 += seg.len_m * seg.heading_rad.sin();
        }
        cum.push(s);
        Self {
            class,
            segments,
            cum,
            starts,
        }
    }

    /// A single straight segment heading east — the workhorse for
    /// controlled experiments.
    pub fn straight(class: RoadClass, len_m: f64) -> Self {
        Route::new(
            class,
            vec![RouteSegment {
                len_m,
                heading_rad: 0.0,
            }],
        )
    }

    /// Deterministically generates a mostly-straight route of roughly
    /// `len_m` metres with occasional gentle curves and 90° turns, as a
    /// stand-in for a surface-road itinerary.
    pub fn generate(seed: u64, class: RoadClass, len_m: f64) -> Self {
        let mut h = seed ^ 0x0520_AD00;
        let mut segments = Vec::new();
        let mut heading: f64 = 0.0;
        let mut total = 0.0;
        while total < len_m {
            h = splitmix64(h);
            let u = unit(h);
            let seg_len = 200.0 + u * 500.0;
            segments.push(RouteSegment {
                len_m: seg_len,
                heading_rad: heading,
            });
            total += seg_len;
            h = splitmix64(h);
            let turn_draw = unit(h);
            heading += if turn_draw < 0.15 {
                std::f64::consts::FRAC_PI_2 // left turn
            } else if turn_draw < 0.30 {
                -std::f64::consts::FRAC_PI_2 // right turn
            } else if turn_draw < 0.55 {
                (unit(splitmix64(h)) - 0.5) * 0.3 // gentle curve
            } else {
                0.0
            };
        }
        Route::new(class, segments)
    }

    /// Road class of this route.
    pub fn class(&self) -> RoadClass {
        self.class
    }

    /// Total arc length, metres.
    pub fn len_m(&self) -> f64 {
        *self.cum.last().unwrap()
    }

    /// The segments of the route.
    pub fn segments(&self) -> &[RouteSegment] {
        &self.segments
    }

    /// Index of the segment containing arc length `s` (clamped to the
    /// route).
    fn segment_index(&self, s: f64) -> usize {
        let s = s.clamp(0.0, self.len_m());
        match self.cum.binary_search_by(|c| c.partial_cmp(&s).unwrap()) {
            Ok(i) => i.min(self.segments.len() - 1),
            Err(i) => i - 1,
        }
    }

    /// Heading at arc length `s`, radians.
    pub fn heading_at(&self, s: f64) -> f64 {
        self.segments[self.segment_index(s)].heading_rad
    }

    /// Centre-line position at arc length `s`.
    pub fn pos_at(&self, s: f64) -> (f64, f64) {
        let s = s.clamp(0.0, self.len_m());
        let i = self.segment_index(s);
        let seg = self.segments[i];
        let d = s - self.cum[i];
        let (x0, y0) = self.starts[i];
        (
            x0 + d * seg.heading_rad.cos(),
            y0 + d * seg.heading_rad.sin(),
        )
    }

    /// Position at arc length `s` displaced `lane_offset_m` metres to the
    /// left of the direction of travel (negative = right). Lane `k`'s
    /// centre sits at `(k + 0.5 − lanes/2) · lane_width`.
    pub fn pos_at_offset(&self, s: f64, lane_offset_m: f64) -> (f64, f64) {
        let (x, y) = self.pos_at(s);
        let h = self.heading_at(s);
        // Left normal of the heading.
        let nx = -h.sin();
        let ny = h.cos();
        (x + lane_offset_m * nx, y + lane_offset_m * ny)
    }
}

/// A 64-bit hash as a uniform draw in `[0, 1]`.
pub(crate) fn unit(h: u64) -> f64 {
    h as f64 / u64::MAX as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn straight_route_geometry() {
        let r = Route::straight(RoadClass::Urban4Lane, 1000.0);
        assert_eq!(r.len_m(), 1000.0);
        assert_eq!(r.pos_at(0.0), (0.0, 0.0));
        assert_eq!(r.pos_at(250.0), (250.0, 0.0));
        assert_eq!(r.heading_at(999.0), 0.0);
        // Clamps beyond the ends.
        assert_eq!(r.pos_at(5000.0), (1000.0, 0.0));
        assert_eq!(r.pos_at(-10.0), (0.0, 0.0));
    }

    #[test]
    fn l_shaped_route() {
        let r = Route::new(
            RoadClass::Urban4Lane,
            vec![
                RouteSegment {
                    len_m: 100.0,
                    heading_rad: 0.0,
                },
                RouteSegment {
                    len_m: 50.0,
                    heading_rad: FRAC_PI_2,
                },
            ],
        );
        assert_eq!(r.len_m(), 150.0);
        let (x, y) = r.pos_at(100.0);
        assert!((x - 100.0).abs() < 1e-9 && y.abs() < 1e-9);
        let (x, y) = r.pos_at(150.0);
        assert!((x - 100.0).abs() < 1e-9 && (y - 50.0).abs() < 1e-9);
        assert_eq!(r.heading_at(120.0), FRAC_PI_2);
        assert_eq!(r.heading_at(99.0), 0.0);
        // Exactly at the joint the second segment begins.
        assert_eq!(r.heading_at(100.0), FRAC_PI_2);
    }

    #[test]
    fn lane_offset_is_perpendicular() {
        let r = Route::straight(RoadClass::Urban8Lane, 500.0);
        let (x, y) = r.pos_at_offset(100.0, 3.5);
        assert!((x - 100.0).abs() < 1e-9);
        assert!(
            (y - 3.5).abs() < 1e-9,
            "left offset on eastbound road is +y, got {y}"
        );
        let (_, y) = r.pos_at_offset(100.0, -3.5);
        assert!((y + 3.5).abs() < 1e-9);
    }

    #[test]
    fn generated_route_is_deterministic_and_long_enough() {
        let a = Route::generate(7, RoadClass::Suburban2Lane, 5_000.0);
        let b = Route::generate(7, RoadClass::Suburban2Lane, 5_000.0);
        assert_eq!(a, b);
        assert!(a.len_m() >= 5_000.0);
        assert!(a.segments().len() >= 8);
        let c = Route::generate(8, RoadClass::Suburban2Lane, 5_000.0);
        assert_ne!(a, c);
    }

    #[test]
    fn class_parameters_are_sane() {
        for class in RoadClass::ALL {
            assert!(class.lanes() >= 1);
            assert!(class.free_flow_speed_mps() > 5.0);
            assert!(class.signal_spacing_m() > 100.0);
        }
        assert_eq!(RoadClass::Urban8Lane.lanes(), 4);
        assert_eq!(RoadClass::Urban4Lane.to_string(), "4-lane urban");
    }
}
