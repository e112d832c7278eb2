//! §V-B: responding time and system scalability — the communication cost of
//! exchanging journey contexts over 802.11p.
//!
//! Reproduces the paper's arithmetic (1 km context → ~182 KB → ~130 WSM
//! packets → ~0.52 s) with the actual snapshot codec, and quantifies the
//! §V-B tracking optimisation: after the first full exchange, incremental
//! tail updates at a 10 Hz tracking rate cost a tiny fraction of repeated
//! full transfers.

use crate::series::{Figure, Series};
use rups_core::geo::{GeoSample, GeoTrajectory};
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::pipeline::ContextSnapshot;
use rups_core::testfield;
use serde::{Deserialize, Serialize};
use v2v_sim::tracking::TrackingSession;
use v2v_sim::wsm::{exchange_time_s, WsmConfig};

/// Vehicle speed for the tracking scenario, m/s.
const SPEED_MPS: f64 = 10.0;

/// Parameters of the §V-B communication measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Band width carried on the wire.
    pub n_channels: usize,
    /// Context lengths to evaluate, metres.
    pub max_context_m: usize,
    /// Tracking window length, seconds.
    pub tracking_secs: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            n_channels: 194,
            max_context_m: 1000,
            tracking_secs: 60,
        }
    }
}

/// Smaller run for tests.
pub fn quick_params() -> Params {
    Params {
        n_channels: 48,
        max_context_m: 200,
        tracking_secs: 20,
    }
}

fn snapshot_of_len(len: usize, n_channels: usize) -> ContextSnapshot {
    let mut geo = GeoTrajectory::with_capacity(len);
    let mut gsm = GsmTrajectory::with_capacity(n_channels, len);
    for i in 0..len {
        geo.push(GeoSample {
            heading_rad: 0.0,
            timestamp_s: i as f64,
        });
        gsm.push(&PowerVector::from_fn(n_channels, |ch| {
            Some(testfield::rssi(9, i as f64, ch))
        }));
    }
    ContextSnapshot {
        vehicle_id: Some(1),
        geo,
        gsm,
        trace: None,
    }
}

/// Runs the measurement.
pub fn run(p: &Params) -> Figure {
    let wsm = WsmConfig::default();

    // Full-context exchange cost vs context length.
    let lens: Vec<usize> = [125, 250, 500, 1000]
        .iter()
        .map(|&l: &usize| l.min(p.max_context_m))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut bytes_y = Vec::new();
    let mut time_y = Vec::new();
    for &len in &lens {
        let wire = v2v_sim::codec::encode_snapshot(&snapshot_of_len(len, p.n_channels));
        bytes_y.push(wire.len() as f64);
        time_y.push(exchange_time_s(wire.len(), &wsm));
    }

    // Tracking: one full context then 10 Hz incremental updates while the
    // vehicle adds `SPEED_MPS` metres of trajectory per second.
    let mut session = TrackingSession::new(250);
    let full_len = p.max_context_m;
    let mut total_incremental_bytes = 0usize;
    let mut n_updates = 0usize;
    let mut first_full_bytes = 0usize;
    for sec in 0..=p.tracking_secs {
        let len = full_len + (sec as f64 * SPEED_MPS) as usize;
        let snap = snapshot_of_len(len, p.n_channels);
        if let Some(update) = session.next_update(&snap) {
            if sec == 0 {
                first_full_bytes = update.wire_bytes();
            } else {
                total_incremental_bytes += update.wire_bytes();
                n_updates += 1;
            }
        }
    }
    let naive_bytes = first_full_bytes * (p.tracking_secs + 1);

    let x: Vec<f64> = lens.iter().map(|&l| l as f64).collect();
    let full_1km = *bytes_y.last().unwrap();
    let t_1km = *time_y.last().unwrap();
    let packets = wsm.packets_for(full_1km as usize);
    Figure {
        id: "sec5b".into(),
        title: "Context exchange cost over 802.11p (WSM)".into(),
        notes: vec![
            format!(
                "{} m context: {:.0} KB → {packets} WSM packets → {t_1km:.2} s \
                 (paper: 1 km ≈ 182 KB ≈ 130 packets ≈ 0.52 s)",
                lens.last().unwrap(),
                full_1km / 1024.0
            ),
            format!(
                "tracking for {} s: 1 full transfer ({:.0} KB) + {n_updates} incremental \
                 updates totalling {:.1} KB — {:.1}× less traffic than re-sending full \
                 contexts ({:.0} KB)",
                p.tracking_secs,
                first_full_bytes as f64 / 1024.0,
                total_incremental_bytes as f64 / 1024.0,
                naive_bytes as f64 / (first_full_bytes + total_incremental_bytes).max(1) as f64,
                naive_bytes as f64 / 1024.0
            ),
        ],
        series: vec![
            Series::new("wire bytes vs context metres", x.clone(), bytes_y),
            Series::new("exchange seconds vs context metres", x, time_y),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_numbers() {
        let fig = run(&Params::default());
        let bytes = &fig.series[0];
        let time = &fig.series[1];
        // 1 km × 194 channels ≈ 200 KB, ≈0.57 s.
        let last_bytes = *bytes.y.last().unwrap();
        assert!(
            (150_000.0..250_000.0).contains(&last_bytes),
            "bytes {last_bytes}"
        );
        let last_time = *time.y.last().unwrap();
        assert!((0.4..0.8).contains(&last_time), "time {last_time}");
    }

    #[test]
    fn tracking_beats_naive_retransmission() {
        let fig = run(&quick_params());
        // The ratio note must report a >5× saving.
        let note = &fig.notes[1];
        let ratio: f64 = note
            .split("— ")
            .nth(1)
            .and_then(|s| s.split('×').next())
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(ratio > 5.0, "tracking saving only {ratio}× ({note})");
    }

    #[test]
    fn exchange_time_grows_with_context() {
        let fig = run(&quick_params());
        let time = &fig.series[1];
        assert!(time.y.windows(2).all(|w| w[1] >= w[0]));
    }
}
