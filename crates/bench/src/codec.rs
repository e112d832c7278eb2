//! The `codec` workload: encode and decode of paper-band journey contexts,
//! measured by the `codec_wsm` bench and by the CI regression gate
//! (`bench_gate`).
//!
//! A context of `len` metres over the 194-channel band is one beacon of the
//! §V-B exchange; 600 m is what the `track` benchmark workload beacons each
//! second, 1000 m is the paper's 1 km / 182 KB reference payload.

use crate::baseline::{self, Baseline, BenchCase};
use rups_core::geo::{GeoSample, GeoTrajectory};
use rups_core::pipeline::ContextSnapshot;
use rups_eval::figures::cost::synthetic_context;
use std::hint::black_box;
use v2v_sim::codec::{decode_snapshot, encode_snapshot};

/// Channels of the paper band.
pub const N_CHANNELS: usize = 194;
/// Context lengths measured, metres.
pub const LENGTHS_M: [usize; 2] = [600, 1000];

/// A fully covered `len`-metre snapshot over the paper band from a sender
/// with an id, one metre every 0.4 s.
pub fn snapshot(len: usize) -> ContextSnapshot {
    let gsm = synthetic_context(9, 0, len, N_CHANNELS);
    let mut geo = GeoTrajectory::with_capacity(len);
    for i in 0..len {
        geo.push(GeoSample {
            heading_rad: 0.0,
            timestamp_s: i as f64 * 0.4,
        });
    }
    ContextSnapshot {
        vehicle_id: Some(1),
        geo,
        gsm,
        trace: None,
    }
}

/// Measures `encode/<len>` and `decode/<len>` for every length in
/// [`LENGTHS_M`] and returns the machine-readable baseline (the committed
/// `results/BENCH_codec.json` is one of these with `samples = 15`). One op
/// is one whole snapshot; no engine cache rates apply.
pub fn measure(samples: usize) -> Baseline {
    let mut cases = Vec::new();
    for len in LENGTHS_M {
        let snap = snapshot(len);
        let wire = encode_snapshot(&snap);
        let ns = baseline::measure_median_ns_per_op(samples, 16, 1, || {
            black_box(encode_snapshot(black_box(&snap)));
        });
        cases.push(BenchCase {
            id: format!("encode/{len}"),
            ops_per_iter: 1,
            median_ns_per_op: ns,
            samples,
        });
        let ns = baseline::measure_median_ns_per_op(samples, 32, 1, || {
            black_box(decode_snapshot(black_box(&wire)).expect("own encoding decodes"));
        });
        cases.push(BenchCase {
            id: format!("decode/{len}"),
            ops_per_iter: 1,
            median_ns_per_op: ns,
            samples,
        });
    }
    Baseline {
        bench: "codec".into(),
        cases,
        engine: None,
    }
}
