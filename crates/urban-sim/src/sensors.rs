//! On-board sensor stream generation (§IV-B, §VI-A instrumentation).
//!
//! Produces the raw inputs of the RUPS perception pipeline from a
//! ground-truth [`Drive`]: accelerometer/gyroscope/magnetometer samples in a
//! *misaligned sensor frame* (phones are never mounted straight — this is
//! what exercises the coordinate reorientation of §IV-B) plus sparse OBD-II
//! speed reports. `rups-core`'s [`rups_core::motion`] module turns these
//! back into per-metre geographical trajectories.

use crate::drive::Drive;
use crate::road::{unit, Route};
use rups_core::geo::angle_diff;
use rups_core::motion::{mag_for_heading, ImuSample, RotationMatrix, Vec3};
use rups_core::testfield::splitmix64;
use serde::{Deserialize, Serialize};

/// Sampling rates of the instrument suite (§V-A: "0.3 Hz for OBD and around
/// 200 Hz for motion sensors").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorRates {
    /// Inertial/magnetic sampling rate, Hz.
    pub imu_hz: f64,
    /// OBD-II speed report rate, Hz.
    pub obd_hz: f64,
}

impl Default for SensorRates {
    fn default() -> Self {
        Self {
            imu_hz: 200.0,
            obd_hz: 0.3,
        }
    }
}

/// Gravity, m/s².
pub const GRAVITY_MPS2: f64 = 9.81;
/// Horizontal magnetic field strength used by the simulator (arbitrary
/// units — only the direction matters to the compass).
pub const MAG_FIELD_H: f64 = 0.5;

/// The generated raw sensor streams of one vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorStream {
    /// Inertial/magnetic samples in the (misaligned) sensor frame.
    pub imu: Vec<ImuSample>,
    /// `(timestamp, speed m/s)` OBD-II reports (quantised to 1 km/h).
    pub obd: Vec<(f64, f64)>,
}

/// Sensor noise parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorNoise {
    /// Accelerometer white noise σ, m/s².
    pub accel_sigma: f64,
    /// Gyroscope white noise σ, rad/s.
    pub gyro_sigma: f64,
    /// Gyroscope constant bias, rad/s.
    pub gyro_bias: f64,
    /// Magnetometer white noise σ (field units).
    pub mag_sigma: f64,
}

impl Default for SensorNoise {
    fn default() -> Self {
        Self {
            accel_sigma: 0.05,
            gyro_sigma: 0.004,
            gyro_bias: 0.001,
            mag_sigma: 0.01,
        }
    }
}

fn gauss(seed: u64, i: u64, k: u64) -> f64 {
    let u = |x: u64| {
        unit(splitmix64(
            seed ^ i.wrapping_mul(0x9E37_79B9) ^ (k << 48) ^ x,
        ))
    };
    (u(1) + u(2) + u(3) - 1.5) * 2.0
}

/// A plausible phone mount: rotated about all three axes by the given Euler
/// angles (radians), returned as the sensor→vehicle [`RotationMatrix`].
pub fn mount_rotation(roll: f64, pitch: f64, yaw: f64) -> RotationMatrix {
    // Build the vehicle axes in sensor coordinates by rotating the identity
    // frame: R = Rz(yaw)·Ry(pitch)·Rx(roll) applied to each axis, then the
    // *rows* of that matrix are the vehicle axes seen from the sensor.
    let (cr, sr) = (roll.cos(), roll.sin());
    let (cp, sp) = (pitch.cos(), pitch.sin());
    let (cy, sy) = (yaw.cos(), yaw.sin());
    // Composite rotation matrix (vehicle→sensor), column-major thinking:
    let r = [
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ];
    // Vehicle axis k in sensor coords is column k of the vehicle→sensor
    // matrix — equivalently row k of its transpose.
    RotationMatrix {
        x: Vec3::new(r[0][0], r[1][0], r[2][0]),
        y: Vec3::new(r[0][1], r[1][1], r[2][1]),
        z: Vec3::new(r[0][2], r[1][2], r[2][2]),
    }
}

/// Generates the raw sensor streams for a drive.
///
/// `mount` is the true (unknown-to-RUPS) sensor mounting attitude; the
/// generated samples are expressed in the sensor frame, so the consumer
/// must recover the reorientation first (see
/// [`rups_core::motion::estimate_reorientation`]).
pub fn generate(
    route: &Route,
    drive: &Drive,
    mount: &RotationMatrix,
    rates: &SensorRates,
    noise: &SensorNoise,
    seed: u64,
) -> SensorStream {
    let t0 = drive.start_time();
    let t1 = drive.end_time();
    let dt = 1.0 / rates.imu_hz;
    let n = ((t1 - t0) / dt) as u64;

    let mut imu = Vec::with_capacity(n as usize);
    for i in 0..n {
        let t = t0 + i as f64 * dt;
        let v = drive.speed_at(t);
        // Longitudinal acceleration from finite speed difference.
        let a_long = (drive.speed_at(t + 0.05) - drive.speed_at(t - 0.05)) / 0.1;
        // Yaw rate from the route heading gradient at the current position.
        let s = drive.distance_at(t);
        let h_now = route.heading_at(s);
        let h_fwd = route.heading_at(s + 2.0);
        let yaw_rate = (angle_diff(h_fwd, h_now) / 2.0 * v).clamp(-0.7, 0.7);

        // Vehicle-frame specific force: forward accel on y, centripetal on
        // x (a left turn pushes occupants right → sensed −x), gravity
        // reaction on z.
        let a_vehicle = Vec3::new(-v * yaw_rate, a_long, GRAVITY_MPS2);
        let g_vehicle = Vec3::new(0.0, 0.0, yaw_rate);
        let m_vehicle = mag_for_heading(h_now, MAG_FIELD_H);

        let jitter = |k: u64, sigma: f64| {
            Vec3::new(
                sigma * gauss(seed, i, k),
                sigma * gauss(seed, i, k + 1),
                sigma * gauss(seed, i, k + 2),
            )
        };
        let accel = mount.to_sensor(a_vehicle) + jitter(0, noise.accel_sigma);
        let gyro = mount.to_sensor(g_vehicle)
            + Vec3::new(noise.gyro_bias, 0.0, noise.gyro_bias)
            + jitter(3, noise.gyro_sigma);
        let mag = mount.to_sensor(m_vehicle) + jitter(6, noise.mag_sigma);
        imu.push(ImuSample {
            timestamp_s: t,
            accel,
            gyro,
            mag,
        });
    }

    let obd_dt = 1.0 / rates.obd_hz;
    let mut obd = Vec::new();
    let mut t = t0;
    while t <= t1 {
        // OBD speed is quantised to 1 km/h.
        let kmh = (drive.speed_at(t) * 3.6).round();
        obd.push((t, kmh / 3.6));
        t += obd_dt;
    }
    SensorStream { imu, obd }
}

/// Generates calibration windows for the §IV-B reorientation: `secs` of
/// stationary samples followed by `secs` of straight-line acceleration at
/// `accel_mps2`, both through the given mount.
pub fn calibration_windows(
    mount: &RotationMatrix,
    secs: f64,
    accel_mps2: f64,
    noise: &SensorNoise,
    seed: u64,
) -> (Vec<ImuSample>, Vec<ImuSample>) {
    let rate = 100.0;
    let n = (secs * rate) as u64;
    let mk = |accel_vehicle: Vec3, off: u64| {
        (0..n)
            .map(|i| {
                let jitter = Vec3::new(
                    noise.accel_sigma * gauss(seed ^ off, i, 0),
                    noise.accel_sigma * gauss(seed ^ off, i, 1),
                    noise.accel_sigma * gauss(seed ^ off, i, 2),
                );
                ImuSample {
                    timestamp_s: i as f64 / rate,
                    accel: mount.to_sensor(accel_vehicle) + jitter,
                    gyro: Vec3::ZERO,
                    mag: Vec3::ZERO,
                }
            })
            .collect::<Vec<_>>()
    };
    let stationary = mk(Vec3::new(0.0, 0.0, GRAVITY_MPS2), 0x57A7);
    let accelerating = mk(Vec3::new(0.0, accel_mps2, GRAVITY_MPS2), 0xACCE);
    (stationary, accelerating)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::{RoadClass, Route};
    use rups_core::motion::{estimate_reorientation, heading_from_mag};

    fn setup() -> (Route, Drive) {
        let route = Route::straight(RoadClass::Urban4Lane, 10_000.0);
        let drive = Drive::simulate(&route, 21, 0.0, 0.0, 60.0);
        (route, drive)
    }

    #[test]
    fn mount_rotation_is_orthonormal() {
        let m = mount_rotation(0.2, -0.35, 1.1);
        assert!(
            m.orthonormality_error() < 1e-9,
            "err {}",
            m.orthonormality_error()
        );
        let id = mount_rotation(0.0, 0.0, 0.0);
        assert!((id.x.x - 1.0).abs() < 1e-12);
        assert!((id.y.y - 1.0).abs() < 1e-12);
        assert!((id.z.z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stream_sizes_follow_rates() {
        let (route, drive) = setup();
        let s = generate(
            &route,
            &drive,
            &RotationMatrix::IDENTITY,
            &SensorRates::default(),
            &SensorNoise::default(),
            1,
        );
        // 60 s at 200 Hz ≈ 12000 IMU samples; 0.3 Hz ≈ 19 OBD samples.
        assert!((s.imu.len() as i64 - 12_000).unsigned_abs() < 20);
        assert!((s.obd.len() as i64 - 19).unsigned_abs() <= 1);
    }

    #[test]
    fn gravity_dominates_accelerometer() {
        let (route, drive) = setup();
        let s = generate(
            &route,
            &drive,
            &RotationMatrix::IDENTITY,
            &SensorRates {
                imu_hz: 50.0,
                obd_hz: 0.3,
            },
            &SensorNoise::default(),
            2,
        );
        let mean_norm: f64 = s.imu.iter().map(|x| x.accel.norm()).sum::<f64>() / s.imu.len() as f64;
        assert!(
            (mean_norm - GRAVITY_MPS2).abs() < 0.6,
            "mean |a| = {mean_norm}"
        );
    }

    #[test]
    fn compass_reads_route_heading_through_any_mount() {
        let (route, drive) = setup();
        let mount = mount_rotation(0.3, 0.2, -0.8);
        let s = generate(
            &route,
            &drive,
            &mount,
            &SensorRates {
                imu_hz: 20.0,
                obd_hz: 0.3,
            },
            &SensorNoise {
                mag_sigma: 0.0,
                ..SensorNoise::default()
            },
            3,
        );
        // Rotate readings back into the vehicle frame with the true mount
        // and recover the heading (route is straight east → heading 0).
        for sample in s.imu.iter().step_by(50) {
            let m_vehicle = mount.to_vehicle(sample.mag);
            let h = heading_from_mag(m_vehicle);
            assert!(h.abs() < 0.05, "recovered heading {h}");
        }
    }

    #[test]
    fn calibration_windows_recover_the_mount() {
        let mount = mount_rotation(0.15, -0.25, 0.6);
        let (stationary, accelerating) =
            calibration_windows(&mount, 2.0, 2.0, &SensorNoise::default(), 5);
        let r = estimate_reorientation(&stationary, &accelerating).unwrap();
        // The estimated matrix must map a sensor-frame gravity vector back
        // to vehicle +z.
        let g_sensor = mount.to_sensor(Vec3::new(0.0, 0.0, GRAVITY_MPS2));
        let back = r.to_vehicle(g_sensor);
        assert!(back.z > 9.7, "recovered z component {}", back.z);
        assert!(back.x.abs() < 0.3 && back.y.abs() < 0.3);
    }

    #[test]
    fn obd_is_quantised_to_kmh() {
        let (route, drive) = setup();
        let s = generate(
            &route,
            &drive,
            &RotationMatrix::IDENTITY,
            &SensorRates::default(),
            &SensorNoise::default(),
            4,
        );
        for &(_, v) in &s.obd {
            let kmh = v * 3.6;
            assert!((kmh - kmh.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (route, drive) = setup();
        let mk = || {
            generate(
                &route,
                &drive,
                &RotationMatrix::IDENTITY,
                &SensorRates {
                    imu_hz: 10.0,
                    obd_hz: 0.3,
                },
                &SensorNoise::default(),
                9,
            )
        };
        assert_eq!(mk(), mk());
    }
}
