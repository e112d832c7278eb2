//! Vehicle motion along a route: seeded speed profiles with traffic-signal
//! stops, time↔distance interpolation, and the odometry error model.
//!
//! A [`Drive`] is the ground-truth motion of one vehicle: uniformly sampled
//! `(t, s, v)` states along a [`Route`]. Experiments query it for positions
//! (to feed the GSM scanner), for ground-truth gaps (`s₁(t) − s₂(t)`), and
//! for the *perceived* per-metre marks after odometry error
//! ([`Drive::metre_marks`]) that become the vehicle's RUPS geographical
//! trajectory.

use crate::road::{unit, Route};
use rups_core::testfield::splitmix64;
use serde::{Deserialize, Serialize};

/// One ground-truth motion sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriveState {
    /// Time, seconds.
    pub t: f64,
    /// Arc length along the route, metres.
    pub s: f64,
    /// Speed, m/s.
    pub v: f64,
}

/// Ground-truth motion of one vehicle along a route.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Drive {
    states: Vec<DriveState>,
    dt: f64,
}

/// Simulation time step, seconds.
pub const SIM_DT_S: f64 = 0.2;

/// Maximum comfortable acceleration, m/s².
const A_MAX: f64 = 2.0;
/// Maximum braking deceleration, m/s².
const B_MAX: f64 = 3.0;

/// Kinematic envelope of a moving RUPS user (§VII extends RUPS beyond cars
/// to "users of mobile devices such as pedestrians and bicyclists").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotionProfile {
    /// Free-flow speed, m/s.
    pub free_speed_mps: f64,
    /// Maximum acceleration, m/s².
    pub a_max: f64,
    /// Maximum deceleration, m/s².
    pub b_max: f64,
}

impl MotionProfile {
    /// A car on the given road class (the default everywhere).
    pub fn vehicle(class: crate::road::RoadClass) -> Self {
        Self {
            free_speed_mps: class.free_flow_speed_mps(),
            a_max: A_MAX,
            b_max: B_MAX,
        }
    }

    /// A bicyclist: ~16 km/h, gentle dynamics.
    pub fn bicycle() -> Self {
        Self {
            free_speed_mps: 4.5,
            a_max: 0.8,
            b_max: 1.8,
        }
    }

    /// A pedestrian: ~5 km/h walking pace.
    pub fn pedestrian() -> Self {
        Self {
            free_speed_mps: 1.4,
            a_max: 0.6,
            b_max: 1.2,
        }
    }
}

/// Smooth unit-amplitude noise over `x` (lattice spacing 1).
fn noise1(seed: u64, x: f64) -> f64 {
    let k = x.floor();
    let t = x - k;
    let sm = t * t * (3.0 - 2.0 * t);
    let at = |i: i64| unit(splitmix64(seed ^ (i as u64).wrapping_mul(0x2545_F491))) * 2.0 - 1.0;
    let (a, b) = (at(k as i64), at(k as i64 + 1));
    a + sm * (b - a)
}

impl Drive {
    /// Simulates a single free vehicle along `route` for `duration_s`
    /// seconds starting at arc length `start_s` and time `start_t`.
    ///
    /// The speed controller tracks a slowly varying target around the road
    /// class's free-flow speed and obeys seeded traffic signals: signal
    /// positions follow the class's mean spacing, and each arrival draws a
    /// red/green decision; red lights stop the vehicle for a seeded dwell.
    pub fn simulate(
        route: &Route,
        seed: u64,
        start_t: f64,
        start_s: f64,
        duration_s: f64,
    ) -> Drive {
        Self::simulate_with(
            route,
            seed,
            start_t,
            start_s,
            duration_s,
            &MotionProfile::vehicle(route.class()),
        )
    }

    /// Like [`Drive::simulate`] with an explicit kinematic profile —
    /// pedestrians and bicyclists stop at the same signals but move and
    /// accelerate within their own envelope.
    pub fn simulate_with(
        route: &Route,
        seed: u64,
        start_t: f64,
        start_s: f64,
        duration_s: f64,
        profile: &MotionProfile,
    ) -> Drive {
        let class = route.class();
        let free = profile.free_speed_mps;
        let (a_max, b_max) = (profile.a_max, profile.b_max);
        let spacing = class.signal_spacing_m();

        // Seeded signal layout for this route/seed.
        let signal_pos = |k: usize| -> f64 {
            let jitter = unit(splitmix64(seed ^ 0x516 ^ (k as u64) << 1)) - 0.5;
            spacing * (k as f64 + 1.0 + 0.4 * jitter)
        };
        let signal_is_red = |k: usize, arrival_t: f64| -> bool {
            // A 60 s signal cycle with 40 % red, phase hashed per signal.
            let phase = unit(splitmix64(seed ^ 0xF00D ^ (k as u64) << 3)) * 60.0;
            ((arrival_t + phase) % 60.0) < 24.0
        };
        let dwell = |k: usize| 10.0 + 25.0 * unit(splitmix64(seed ^ 0xD3E1 ^ (k as u64) << 5));

        let n_steps = (duration_s / SIM_DT_S).ceil() as usize;
        let mut states = Vec::with_capacity(n_steps + 1);
        let mut s = start_s;
        let mut v: f64 = 0.0;
        let mut next_signal = 0usize;
        while signal_pos(next_signal) <= s {
            next_signal += 1;
        }
        let mut wait_until = f64::NEG_INFINITY;
        let mut stopped_for: Option<usize> = None;

        for step in 0..=n_steps {
            let t = start_t + step as f64 * SIM_DT_S;
            states.push(DriveState { t, s, v });

            // Target speed wanders ±20 % around free flow over ~90 s.
            let mut target = free * (1.0 + 0.2 * noise1(seed ^ 0x5EED, t / 90.0));

            // Signal handling.
            if let Some(k) = stopped_for {
                if t < wait_until {
                    target = 0.0;
                } else {
                    stopped_for = None;
                    next_signal = k + 1;
                }
            } else {
                let sig_s = signal_pos(next_signal);
                let dist = sig_s - s;
                // Braking distance at current speed.
                let brake_d = v * v / (2.0 * b_max) + 5.0;
                if dist <= brake_d {
                    if signal_is_red(next_signal, t) {
                        // Decelerate to stop at the signal.
                        target = 0.0;
                        if v < 0.05 && dist < 8.0 {
                            stopped_for = Some(next_signal);
                            wait_until = t + dwell(next_signal);
                        }
                    } else {
                        next_signal += 1;
                    }
                }
            }

            // Track the target with bounded acceleration.
            let dv = (target - v).clamp(-b_max * SIM_DT_S, a_max * SIM_DT_S);
            v = (v + dv).max(0.0);
            s += v * SIM_DT_S;
        }
        Drive {
            states,
            dt: SIM_DT_S,
        }
    }

    /// Builds a drive directly from states (used by the car-following
    /// scenario simulator). States must be uniformly spaced in time.
    pub fn from_states(states: Vec<DriveState>, dt: f64) -> Drive {
        assert!(states.len() >= 2, "a drive needs at least two states");
        Drive { states, dt }
    }

    /// The raw states.
    pub fn states(&self) -> &[DriveState] {
        &self.states
    }

    /// First sampled time.
    pub fn start_time(&self) -> f64 {
        self.states[0].t
    }

    /// Last sampled time.
    pub fn end_time(&self) -> f64 {
        self.states[self.states.len() - 1].t
    }

    /// Total distance covered.
    pub fn distance_covered_m(&self) -> f64 {
        self.states[self.states.len() - 1].s - self.states[0].s
    }

    fn index_for(&self, t: f64) -> usize {
        let rel = (t - self.start_time()) / self.dt;
        (rel.floor().max(0.0) as usize).min(self.states.len() - 2)
    }

    /// Arc length at time `t` (linear interpolation; clamped to the drive).
    pub fn distance_at(&self, t: f64) -> f64 {
        if t <= self.start_time() {
            return self.states[0].s;
        }
        if t >= self.end_time() {
            return self.states[self.states.len() - 1].s;
        }
        let i = self.index_for(t);
        let a = self.states[i];
        let b = self.states[i + 1];
        let w = (t - a.t) / (b.t - a.t);
        a.s + w * (b.s - a.s)
    }

    /// Speed at time `t`.
    pub fn speed_at(&self, t: f64) -> f64 {
        if t <= self.start_time() {
            return self.states[0].v;
        }
        if t >= self.end_time() {
            return self.states[self.states.len() - 1].v;
        }
        let i = self.index_for(t);
        let a = self.states[i];
        let b = self.states[i + 1];
        let w = (t - a.t) / (b.t - a.t);
        a.v + w * (b.v - a.v)
    }

    /// First time the vehicle reaches arc length `s`; `None` when `s` is
    /// outside the covered range. Binary search over the monotone states.
    pub fn time_at_distance(&self, s: f64) -> Option<f64> {
        let first = self.states[0].s;
        let last = self.states[self.states.len() - 1].s;
        if s < first || s > last {
            return None;
        }
        let mut lo = 0usize;
        let mut hi = self.states.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.states[mid].s < s {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let a = self.states[lo];
        let b = self.states[hi];
        if b.s <= a.s {
            return Some(a.t);
        }
        Some(a.t + (s - a.s) / (b.s - a.s) * (b.t - a.t))
    }

    /// Position on `route` at time `t`, with a lane offset (metres left of
    /// the direction of travel).
    pub fn pos_at_time(&self, route: &Route, t: f64, lane_offset_m: f64) -> (f64, f64) {
        route.pos_at_offset(self.distance_at(t), lane_offset_m)
    }

    /// Perceived per-metre marks under an odometry/heading error model.
    ///
    /// The RUPS dead-reckoner believes it advances exactly one metre per
    /// mark; in truth each perceived metre covers `1 + bias + ε` true
    /// metres. The returned marks carry the **true** arc length (to query
    /// the radio environment at the right place) together with the crossing
    /// time and the *measured* heading. Marks stop at the end of the drive.
    pub fn metre_marks(&self, route: &Route, odo: &OdometryModel, seed: u64) -> Vec<MetreMark> {
        let mut out = Vec::new();
        let mut true_s = self.states[0].s;
        let end_s = self.states[self.states.len() - 1].s;
        let mut i = 0u64;
        loop {
            let n1 = gauss(seed ^ 0x0D0, i);
            let step = (1.0 + odo.scale_bias + odo.per_metre_sigma * n1).max(0.2);
            true_s += step;
            if true_s > end_s {
                break;
            }
            let Some(t) = self.time_at_distance(true_s) else {
                break;
            };
            let n2 = gauss(seed ^ 0x4EAD, i);
            let heading_meas =
                route.heading_at(true_s) + odo.heading_bias_rad + odo.heading_sigma_rad * n2;
            out.push(MetreMark {
                true_s,
                t,
                heading_meas,
            });
            i += 1;
        }
        out
    }
}

/// Approximate standard normal from three hashed uniforms.
fn gauss(seed: u64, i: u64) -> f64 {
    let u1 = unit(splitmix64(seed ^ i.wrapping_mul(0xA24B_AED4)));
    let u2 = unit(splitmix64(seed ^ i.wrapping_mul(0x9FB2_1C65) ^ 0xFF));
    let u3 = unit(splitmix64(seed ^ i.wrapping_mul(0xE837_31D1) ^ 0xFFFF));
    (u1 + u2 + u3 - 1.5) * 2.0
}

/// Odometry and heading measurement error model (§IV-B sensing errors).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OdometryModel {
    /// Systematic odometer scale error (e.g. tyre-circumference mismatch);
    /// 0.005 = the vehicle over-counts distance by 0.5 %.
    pub scale_bias: f64,
    /// Per-metre random odometry noise (standard deviation, metres).
    pub per_metre_sigma: f64,
    /// Heading measurement noise per mark, radians.
    pub heading_sigma_rad: f64,
    /// Systematic heading bias (compass declination residual), radians.
    pub heading_bias_rad: f64,
}

impl OdometryModel {
    /// Perfect odometry — for isolating radio-side errors in experiments.
    pub fn ideal() -> Self {
        Self {
            scale_bias: 0.0,
            per_metre_sigma: 0.0,
            heading_sigma_rad: 0.0,
            heading_bias_rad: 0.0,
        }
    }

    /// A realistic instrument: Hall-sensor wheel odometry (§VI-A) with a
    /// small per-vehicle scale bias, plus compass noise. Deterministic in
    /// `seed`.
    pub fn realistic(seed: u64) -> Self {
        let u = |k: u64| unit(splitmix64(seed ^ k)) - 0.5;
        Self {
            scale_bias: 0.02 * u(1),       // within ±1 % (tyre wear/pressure)
            per_metre_sigma: 0.05,         // 5 cm per metre
            heading_sigma_rad: 0.02,       // ~1.1°
            heading_bias_rad: 0.02 * u(2), // within ±0.6°
        }
    }
}

/// One perceived metre mark (see [`Drive::metre_marks`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetreMark {
    /// Ground-truth arc length of the mark, metres.
    pub true_s: f64,
    /// Time the mark was crossed, seconds.
    pub t: f64,
    /// Measured heading at the mark, radians.
    pub heading_meas: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::{RoadClass, Route};

    fn drive() -> (Route, Drive) {
        let route = Route::straight(RoadClass::Urban4Lane, 20_000.0);
        let d = Drive::simulate(&route, 42, 0.0, 0.0, 600.0);
        (route, d)
    }

    #[test]
    fn simulation_is_deterministic() {
        let route = Route::straight(RoadClass::Urban4Lane, 10_000.0);
        let a = Drive::simulate(&route, 1, 0.0, 0.0, 120.0);
        let b = Drive::simulate(&route, 1, 0.0, 0.0, 120.0);
        assert_eq!(a, b);
        let c = Drive::simulate(&route, 2, 0.0, 0.0, 120.0);
        assert_ne!(a, c);
    }

    #[test]
    fn speed_and_distance_are_physical() {
        let (_, d) = drive();
        for w in d.states().windows(2) {
            let dv = w[1].v - w[0].v;
            assert!(dv <= A_MAX * SIM_DT_S + 1e-9, "accel too high");
            assert!(dv >= -B_MAX * SIM_DT_S - 1e-9, "brake too hard");
            assert!(w[1].s >= w[0].s, "distance must be monotone");
            assert!(w[0].v >= 0.0);
            // ds == v·dt for the *new* v (forward Euler).
            assert!((w[1].s - w[0].s - w[1].v * SIM_DT_S).abs() < 1e-9);
        }
        // Average speed should be a plausible urban figure.
        let avg = d.distance_covered_m() / 600.0;
        assert!(avg > 3.0 && avg < 20.0, "avg speed {avg} m/s");
    }

    #[test]
    fn signals_cause_full_stops() {
        let (_, d) = drive();
        let stopped = d.states().iter().filter(|s| s.v < 0.01).count();
        // 10 minutes of urban driving should include some red-light dwell.
        assert!(stopped as f64 * SIM_DT_S > 5.0, "no signal stops observed");
    }

    #[test]
    fn interpolators_roundtrip() {
        let (_, d) = drive();
        let t = 333.3;
        let s = d.distance_at(t);
        if d.speed_at(t) > 0.5 {
            let t_back = d.time_at_distance(s).unwrap();
            assert!((t_back - t).abs() < 0.5, "t {t} → s {s} → t {t_back}");
        }
        // Clamping beyond the drive.
        assert_eq!(d.distance_at(-5.0), d.states()[0].s);
        assert_eq!(d.distance_at(1e9), d.states()[d.states().len() - 1].s);
        assert_eq!(d.time_at_distance(-1.0), None);
        assert_eq!(d.time_at_distance(d.distance_covered_m() + 100.0), None);
    }

    #[test]
    fn metre_marks_ideal_model_are_exact_metres() {
        let (route, d) = drive();
        let marks = d.metre_marks(&route, &OdometryModel::ideal(), 0);
        assert!(!marks.is_empty());
        for (i, m) in marks.iter().enumerate() {
            assert!((m.true_s - (i as f64 + 1.0)).abs() < 1e-9);
            assert_eq!(m.heading_meas, 0.0);
        }
        // Timestamps are non-decreasing.
        assert!(marks.windows(2).all(|w| w[1].t >= w[0].t));
        // Roughly one mark per metre covered.
        let expect = d.distance_covered_m();
        assert!((marks.len() as f64 - expect).abs() <= 2.0);
    }

    #[test]
    fn metre_marks_with_bias_drift() {
        let (route, d) = drive();
        let odo = OdometryModel {
            scale_bias: 0.01,
            ..OdometryModel::ideal()
        };
        let marks = d.metre_marks(&route, &odo, 0);
        // After 1000 perceived metres the vehicle truly covered ~1010 m.
        let m = &marks[999];
        assert!((m.true_s - 1010.0).abs() < 1.0, "true_s {}", m.true_s);
    }

    #[test]
    fn realistic_model_is_seed_deterministic_and_modest() {
        let a = OdometryModel::realistic(5);
        let b = OdometryModel::realistic(5);
        assert_eq!(a, b);
        assert!(a.scale_bias.abs() <= 0.01);
        assert!(a.heading_bias_rad.abs() <= 0.01);
    }

    #[test]
    fn from_states_interpolates() {
        let states = vec![
            DriveState {
                t: 0.0,
                s: 0.0,
                v: 10.0,
            },
            DriveState {
                t: 1.0,
                s: 10.0,
                v: 10.0,
            },
            DriveState {
                t: 2.0,
                s: 20.0,
                v: 10.0,
            },
        ];
        let d = Drive::from_states(states, 1.0);
        assert_eq!(d.distance_at(0.5), 5.0);
        assert_eq!(d.speed_at(1.5), 10.0);
        assert_eq!(d.time_at_distance(15.0), Some(1.5));
    }
}
