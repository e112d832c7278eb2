//! Hashed value-noise kernels.
//!
//! All stochastic structure in the simulated radio environment — shadowing,
//! small-scale fading, temporal drift, interference bursts — is generated
//! from these deterministic kernels: a lattice of hashed pseudo-random
//! values smoothly interpolated in one or two dimensions. Determinism is
//! essential: a GSM fingerprint only works because revisiting a location
//! reproduces the same signal structure.

use rups_core::testfield::splitmix64;

/// Combines a seed with up to three lattice coordinates into one hash.
#[inline]
fn hash3(seed: u64, a: i64, b: i64, c: u64) -> u64 {
    let mut h = seed;
    h = splitmix64(h ^ (a as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    h = splitmix64(h ^ (b as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
    splitmix64(h ^ c.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Uniform value in `[-1, 1]` at an integer lattice point.
#[inline]
fn lattice(seed: u64, a: i64, b: i64, c: u64) -> f64 {
    (hash3(seed, a, b, c) as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Smoothstep interpolation weight.
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// 1-D value noise with unit lattice spacing: smooth, deterministic,
/// zero-mean, range `[-1, 1]`. `stream` separates independent noise
/// processes sharing a seed (e.g. one per channel).
pub fn noise1(seed: u64, stream: u64, x: f64) -> f64 {
    let k = x.floor();
    let t = smooth(x - k);
    let k = k as i64;
    let a = lattice(seed, k, 0, stream);
    let b = lattice(seed, k + 1, 0, stream);
    a + t * (b - a)
}

/// 2-D value noise with unit lattice spacing (bilinear smoothstep blend).
pub fn noise2(seed: u64, stream: u64, x: f64, y: f64) -> f64 {
    let kx = x.floor();
    let ky = y.floor();
    let tx = smooth(x - kx);
    let ty = smooth(y - ky);
    let (kx, ky) = (kx as i64, ky as i64);
    let v00 = lattice(seed, kx, ky, stream);
    let v10 = lattice(seed, kx + 1, ky, stream);
    let v01 = lattice(seed, kx, ky + 1, stream);
    let v11 = lattice(seed, kx + 1, ky + 1, stream);
    let a = v00 + tx * (v10 - v00);
    let b = v01 + tx * (v11 - v01);
    a + ty * (b - a)
}

/// Two-octave 2-D noise: a coarse octave at `coarse_scale` metres per
/// lattice cell plus a half-amplitude octave at half the scale. Gives the
/// shadowing field a more natural spectrum than single-octave noise.
pub fn fractal2(seed: u64, stream: u64, x: f64, y: f64, coarse_scale: f64) -> f64 {
    let n1 = noise2(seed, stream, x / coarse_scale, y / coarse_scale);
    let n2 = noise2(
        seed ^ 0x6A09_E667,
        stream,
        2.0 * x / coarse_scale,
        2.0 * y / coarse_scale,
    );
    (n1 + 0.5 * n2) / 1.118 // renormalize: sqrt(1 + 0.25)
}

/// Uniform value in `[0, 1)` for a discrete event slot — used for
/// interference-burst scheduling.
pub fn slot_uniform(seed: u64, stream: u64, slot: i64) -> f64 {
    hash3(seed, slot, 1, stream) as f64 / u64::MAX as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic() {
        assert_eq!(noise1(1, 2, 3.7), noise1(1, 2, 3.7));
        assert_eq!(noise2(1, 2, 3.7, -1.2), noise2(1, 2, 3.7, -1.2));
        assert_ne!(noise1(1, 2, 3.7), noise1(1, 3, 3.7));
        assert_ne!(noise1(1, 2, 3.7), noise1(2, 2, 3.7));
    }

    #[test]
    fn noise_is_continuous() {
        // Max step over 0.01 increments must be small.
        let mut max_step: f64 = 0.0;
        for i in 0..1000 {
            let x = i as f64 * 0.01;
            let d = (noise1(9, 0, x + 0.01) - noise1(9, 0, x)).abs();
            max_step = max_step.max(d);
        }
        assert!(max_step < 0.05, "1-D noise jumps {max_step}");
    }

    #[test]
    fn noise_matches_lattice_at_integers() {
        for k in -5..5 {
            let v = noise1(4, 7, k as f64);
            assert!((-1.0..=1.0).contains(&v));
            // Interpolation endpoints: value at integer equals lattice value.
            assert!((noise1(4, 7, k as f64 + 1e-9) - v).abs() < 1e-6);
        }
    }

    #[test]
    fn noise_mean_near_zero() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| noise1(11, 3, i as f64 * 0.618)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn noise2_varies_in_both_axes() {
        let base = noise2(5, 0, 10.3, 20.7);
        assert_ne!(base, noise2(5, 0, 11.3, 20.7));
        assert_ne!(base, noise2(5, 0, 10.3, 21.7));
    }

    #[test]
    fn fractal_in_range() {
        for i in 0..500 {
            let v = fractal2(3, 1, i as f64 * 1.7, i as f64 * 0.3, 30.0);
            assert!(v.abs() <= 1.5, "fractal noise out of range: {v}");
        }
    }

    #[test]
    fn distant_samples_uncorrelated() {
        // Sample the coarse field at many sites vs sites 10 km away; the
        // product-moment correlation should be near zero.
        let xs: Vec<f64> = (0..400).map(|i| noise1(2, 0, i as f64)).collect();
        let ys: Vec<f64> = (0..400)
            .map(|i| noise1(2, 0, i as f64 + 10_000.0))
            .collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(a, b)| (a - mx) * (b - my))
            .sum::<f64>()
            / n;
        let vx: f64 = xs.iter().map(|a| (a - mx) * (a - mx)).sum::<f64>() / n;
        let vy: f64 = ys.iter().map(|b| (b - my) * (b - my)).sum::<f64>() / n;
        let r = cov / (vx * vy).sqrt();
        assert!(r.abs() < 0.15, "distant correlation {r}");
    }

    #[test]
    fn slot_uniform_distribution() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| slot_uniform(8, 1, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02);
        let frac_low = (0..n).filter(|&i| slot_uniform(8, 1, i) < 0.1).count() as f64 / n as f64;
        assert!((frac_low - 0.1).abs() < 0.02);
    }
}
