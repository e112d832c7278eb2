//! Seeded cell-site deployment along a road corridor.
//!
//! Real GSM coverage comes from base-station *sites*, each hosting several
//! transceivers (one BCCH carrier plus traffic carriers) on distinct
//! ARFCNs; carriers transmit continuously, which is what makes per-channel
//! RSSI a stable function of location. Frequencies are reused between
//! distant sites; a receiver effectively hears the strongest co-channel
//! carrier (capture effect).
//!
//! We deploy sites with an environment-dependent linear density, give each
//! site 2–6 carriers drawn round-robin from the active subset of the band
//! (the paper's prototype scans a 115-channel active subset of the 194,
//! §VI-A), and let distant sites reuse channels. TX powers are calibrated
//! so that typical received levels sit in the −70…−100 dBm range the
//! paper's Fig. 1 colour scale shows.

use crate::params::PropagationParams;
use rups_core::testfield::splitmix64;
use serde::{Deserialize, Serialize};

/// One GSM carrier (a transceiver at a site).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tower {
    /// Position in the local metre frame (x along the corridor, y across).
    pub pos: (f64, f64),
    /// Dense channel index of this carrier.
    pub channel: usize,
    /// Effective radiated power at the 10 m reference distance, dBm.
    pub tx_power_dbm: f64,
}

/// Deterministically deploys carriers for a corridor of `corridor_len_m`
/// metres (x ∈ [0, corridor_len_m]) in a band of `n_channels` channels.
///
/// Site count follows `params.tower_density_per_km` (sites per km); each
/// site hosts 2–6 carriers; channels cycle round-robin through a seeded
/// permutation of the active subset, so every active channel is served and
/// distant sites reuse frequencies.
pub fn deploy_towers(
    seed: u64,
    corridor_len_m: f64,
    n_channels: usize,
    params: &PropagationParams,
) -> Vec<Tower> {
    let n_active = ((n_channels as f64) * params.active_channel_fraction).round() as usize;
    let n_active = n_active.clamp(1, n_channels);
    let n_sites = ((corridor_len_m / 1000.0) * params.tower_density_per_km)
        .ceil()
        .max(1.0) as usize;

    // Seeded permutation of the band; the first n_active entries are the
    // active subset.
    let mut channels: Vec<usize> = (0..n_channels).collect();
    let mut h = splitmix64(seed ^ 0xC0FF_EE00);
    for i in 0..n_channels.saturating_sub(1) {
        h = splitmix64(h);
        let j = i + (h as usize) % (n_channels - i);
        channels.swap(i, j);
    }
    channels.truncate(n_active);

    let u = |h: &mut u64| {
        *h = splitmix64(*h);
        *h as f64 / u64::MAX as f64
    };

    let mut rng = splitmix64(seed ^ 0xBEEF_CAFE);
    let mut towers = Vec::new();
    let mut next_channel = 0usize;
    for _ in 0..n_sites {
        // Sites scatter around the corridor, 30 m to 1.2 km off-axis.
        let x = u(&mut rng) * corridor_len_m;
        let side = if u(&mut rng) < 0.5 { -1.0 } else { 1.0 };
        let y = side * (30.0 + u(&mut rng) * 1_170.0);
        let carriers = 2 + (u(&mut rng) * 5.0) as usize; // 2..=6
        let site_power = 8.0 + (u(&mut rng) - 0.5) * 10.0; // 3..13 dBm at 10 m
        for c in 0..carriers {
            let channel = channels[next_channel % channels.len()];
            next_channel += 1;
            // The BCCH carrier (first) runs at full site power; traffic
            // carriers a couple of dB lower.
            let tx = if c == 0 { site_power } else { site_power - 2.0 };
            towers.push(Tower {
                pos: (x, y),
                channel,
                tx_power_dbm: tx,
            });
        }
    }
    towers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::EnvironmentClass;
    use std::collections::HashSet;

    #[test]
    fn deployment_is_deterministic() {
        let p = EnvironmentClass::SemiOpen.params();
        let a = deploy_towers(42, 5_000.0, 194, &p);
        let b = deploy_towers(42, 5_000.0, 194, &p);
        assert_eq!(a, b);
        let c = deploy_towers(43, 5_000.0, 194, &p);
        assert_ne!(a, c);
    }

    #[test]
    fn carrier_count_scales_with_length_and_class() {
        let open = EnvironmentClass::Open.params();
        let close = EnvironmentClass::Close.params();
        let a = deploy_towers(1, 10_000.0, 194, &open);
        let b = deploy_towers(1, 10_000.0, 194, &close);
        // 3 vs 6 sites/km over 10 km, 2–6 carriers per site.
        assert!(a.len() >= 60 && a.len() <= 180, "open carriers {}", a.len());
        assert!(
            b.len() > a.len(),
            "close ({}) should out-deploy open ({})",
            b.len(),
            a.len()
        );
        let short = deploy_towers(1, 100.0, 194, &open);
        assert!(!short.is_empty(), "at least one site");
    }

    #[test]
    fn channels_stay_in_active_subset() {
        let p = EnvironmentClass::Close.params();
        let n_active = (194.0 * p.active_channel_fraction).round() as usize;
        let towers = deploy_towers(9, 20_000.0, 194, &p);
        let distinct: HashSet<usize> = towers.iter().map(|t| t.channel).collect();
        assert!(distinct.len() <= n_active);
        assert!(distinct.iter().all(|&c| c < 194));
        // A long corridor serves (nearly) the whole active subset.
        assert!(
            distinct.len() as f64 >= n_active as f64 * 0.9,
            "{} of {} active channels served",
            distinct.len(),
            n_active
        );
    }

    #[test]
    fn distant_sites_reuse_channels() {
        let p = EnvironmentClass::SemiOpen.params();
        let towers = deploy_towers(3, 40_000.0, 64, &p);
        let distinct: HashSet<usize> = towers.iter().map(|t| t.channel).collect();
        assert!(
            towers.len() > distinct.len(),
            "a 40 km corridor must reuse frequencies ({} carriers, {} channels)",
            towers.len(),
            distinct.len()
        );
    }

    #[test]
    fn positions_and_power_in_expected_ranges() {
        let p = EnvironmentClass::SemiOpen.params();
        for t in deploy_towers(3, 4_000.0, 194, &p) {
            assert!((0.0..=4_000.0).contains(&t.pos.0));
            assert!(t.pos.1.abs() >= 30.0 && t.pos.1.abs() <= 1_200.0);
            assert!(
                (0.0..=14.0).contains(&t.tx_power_dbm),
                "tx {}",
                t.tx_power_dbm
            );
        }
    }

    #[test]
    fn sites_host_multiple_carriers() {
        let p = EnvironmentClass::SemiOpen.params();
        let towers = deploy_towers(5, 6_000.0, 194, &p);
        // Group by position: at least one site with ≥2 carriers.
        let mut sites: Vec<(f64, f64)> = towers.iter().map(|t| t.pos).collect();
        sites.dedup();
        assert!(
            sites.len() < towers.len(),
            "every site has a single carrier?"
        );
    }
}
