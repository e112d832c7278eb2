//! Fuzz suite for the snapshot wire codec.
//!
//! The decoder sits directly behind the radio: every byte string a faulty
//! or hostile link can produce must come back as `Ok(snapshot)` or a typed
//! [`CodecError`] — never a panic, never an inconsistent snapshot. Three
//! attack surfaces are fuzzed:
//!
//! 1. arbitrary byte strings (no structure at all),
//! 2. byte strings that start with a valid header prefix (to reach the
//!    deeper parse branches the random case rarely finds), and
//! 3. *mutated valid encodings* — bit flips, byte rewrites, truncations
//!    and garbage extensions of real snapshots, which is exactly what the
//!    `fault` module's corruption model hands the decoder.
//!
//! A second, differential half pins the codec to an oracle: the original
//! per-metre encoder, decoder and quantiser, kept verbatim below as
//! `reference_*`. The production codec must emit the same bytes for every
//! snapshot and return the same outcome — the same snapshot bit for bit,
//! or the same [`CodecError`] — for every byte string.
//!
//! Run with `PROPTEST_CASES=512` (CI does) for a deeper sweep.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use rups_core::geo::{GeoSample, GeoTrajectory};
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::pipeline::ContextSnapshot;
use rups_obs::{TraceContext, TRACE_CONTEXT_WIRE_BYTES};
use v2v_sim::codec::{
    decode_snapshot, encode_snapshot, quantise_rssi, try_encode_snapshot, CodecError, FLAG_TRACE,
    FLAG_VEHICLE_ID, MAGIC, VERSION,
};

/// The header magic, little-endian "RUPS".
const MAGIC_LE: [u8; 4] = 0x5350_5552u32.to_le_bytes();

/// Structural invariants every successfully decoded snapshot must satisfy,
/// no matter how damaged the input was.
fn assert_consistent(snap: &ContextSnapshot) -> Result<(), TestCaseError> {
    prop_assert_eq!(snap.geo.len(), snap.gsm.len());
    let mut prev = f64::NEG_INFINITY;
    for s in snap.geo.samples() {
        prop_assert!(s.timestamp_s.is_finite(), "non-finite timestamp decoded");
        prop_assert!(
            s.timestamp_s >= prev,
            "decoded timestamps regress: {} after {}",
            s.timestamp_s,
            prev
        );
        prop_assert!(s.heading_rad.is_finite());
        prev = s.timestamp_s;
    }
    for ch in 0..snap.gsm.n_channels() {
        for i in 0..snap.gsm.len() {
            if let Some(rssi) = snap.gsm.get(ch, i) {
                prop_assert!(rssi.is_finite(), "non-finite RSSI decoded");
            }
        }
    }
    Ok(())
}

/// A valid snapshot of modest size (kept small so mutations hit every
/// region of the encoding with realistic probability).
fn snapshot_strategy() -> impl Strategy<Value = ContextSnapshot> {
    (
        1usize..5,
        0usize..24,
        proptest::option::of(any::<u64>()),
        any::<u32>(),
    )
        .prop_map(|(n_channels, len, vehicle_id, seed)| {
            let mut geo = GeoTrajectory::new();
            let mut gsm = GsmTrajectory::new(n_channels);
            let mut h = seed as u64;
            let mut next = move || {
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h
            };
            for i in 0..len {
                geo.push(GeoSample {
                    heading_rad: ((next() % 6283) as f64 / 1000.0) - std::f64::consts::PI,
                    timestamp_s: 2e5 + i as f64 * 0.41,
                });
                gsm.push(&PowerVector::from_fn(n_channels, |_| {
                    (next() % 5 != 0).then(|| -108.0 + (next() % 1100) as f32 / 10.0)
                }));
            }
            ContextSnapshot {
                vehicle_id,
                geo,
                gsm,
                trace: None,
            }
        })
}

proptest! {
    // Surface 1: completely arbitrary bytes.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(snap) = decode_snapshot(&data) {
            assert_consistent(&snap)?;
        }
    }

    // Surface 2: a valid magic + arbitrary tail, reaching the parse
    // branches behind the header check.
    #[test]
    fn valid_magic_with_arbitrary_tail_never_panics(
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut wire = MAGIC_LE.to_vec();
        wire.extend_from_slice(&tail);
        if let Ok(snap) = decode_snapshot(&wire) {
            assert_consistent(&snap)?;
        }
    }

    // Surface 3a: bit flips anywhere in a valid encoding — the exact
    // damage the fault model's `corrupt` knob inflicts.
    #[test]
    fn bit_flipped_encodings_never_panic(
        snap in snapshot_strategy(),
        flips in proptest::collection::vec((any::<u16>(), 0u8..8), 1..12),
    ) {
        let mut wire = encode_snapshot(&snap).to_vec();
        for (idx, bit) in flips {
            let i = idx as usize % wire.len();
            wire[i] ^= 1 << bit;
        }
        if let Ok(back) = decode_snapshot(&wire) {
            assert_consistent(&back)?;
        }
    }

    // Surface 3b: whole-byte rewrites (e.g. a hostile sender forging
    // lengths and counts).
    #[test]
    fn byte_rewritten_encodings_never_panic(
        snap in snapshot_strategy(),
        writes in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
    ) {
        let mut wire = encode_snapshot(&snap).to_vec();
        for (idx, val) in writes {
            let i = idx as usize % wire.len();
            wire[i] = val;
        }
        if let Ok(back) = decode_snapshot(&wire) {
            assert_consistent(&back)?;
        }
    }

    // Surface 3c: truncation to any prefix plus optional trailing
    // garbage — what the fault model's `truncate` knob and WSM
    // reassembly bugs would produce.
    #[test]
    fn truncated_and_extended_encodings_never_panic(
        snap in snapshot_strategy(),
        keep in any::<u16>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let wire = encode_snapshot(&snap);
        let mut cut = wire[..keep as usize % (wire.len() + 1)].to_vec();
        cut.extend_from_slice(&garbage);
        if let Ok(back) = decode_snapshot(&cut) {
            assert_consistent(&back)?;
        }
    }

    // Round trip: an undamaged encoding decodes back to the same
    // structure, and the fallible encoder agrees bit-for-bit with the
    // infallible one on aligned snapshots.
    #[test]
    fn undamaged_roundtrip_is_lossless_in_structure(snap in snapshot_strategy()) {
        let wire = encode_snapshot(&snap);
        prop_assert_eq!(
            try_encode_snapshot(&snap).expect("aligned snapshot must encode"),
            wire.clone()
        );
        let back = decode_snapshot(&wire).expect("own encoding must decode");
        assert_consistent(&back)?;
        prop_assert_eq!(back.vehicle_id, snap.vehicle_id);
        prop_assert_eq!(back.len(), snap.len());
        prop_assert_eq!(back.gsm.n_channels(), snap.gsm.n_channels());
    }
}

// ---------------------------------------------------------------------------
// Differential oracle: the original per-metre codec, kept verbatim.
// ---------------------------------------------------------------------------

/// The original quantiser (`codec::quantise_rssi` before the block codec).
#[inline]
fn reference_quantise_rssi(dbm: f32) -> u8 {
    if dbm.is_nan() {
        return 255;
    }
    (((dbm + 110.0) * 2.0).round().clamp(0.0, 254.0)) as u8
}

/// The original inverse quantiser.
#[inline]
fn reference_dequantise_rssi(q: u8) -> f32 {
    if q == 255 {
        f32::NAN
    } else {
        q as f32 / 2.0 - 110.0
    }
}

/// The original encoder: one `put_*` per field, one channel lookup per
/// cell, metre by metre.
fn reference_encode_snapshot(snap: &ContextSnapshot) -> Bytes {
    let n_channels = snap.gsm.n_channels();
    let len = snap.gsm.len().min(snap.geo.len());
    let mut buf = BytesMut::with_capacity(32 + len * (6 + n_channels));
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    let mut flags = 0u8;
    if snap.vehicle_id.is_some() {
        flags |= FLAG_VEHICLE_ID;
    }
    if snap.trace.is_some() && snap.vehicle_id.is_some() {
        flags |= FLAG_TRACE;
    }
    buf.put_u8(flags);
    buf.put_u16_le(n_channels as u16);
    buf.put_u32_le(len as u32);
    if let Some(id) = snap.vehicle_id {
        buf.put_u64_le(id);
    }
    if let (Some(trace), true) = (&snap.trace, snap.vehicle_id.is_some()) {
        buf.put_slice(&trace.to_wire());
    }
    let t0 = snap.geo.samples().first().map_or(0.0, |s| s.timestamp_s);
    buf.put_f64_le(t0);
    for i in 0..len {
        let g = snap.geo.samples()[i];
        buf.put_i16_le((g.heading_rad * 1e4).round().clamp(-32768.0, 32767.0) as i16);
        buf.put_f32_le((g.timestamp_s - t0) as f32);
        for ch in 0..n_channels {
            let v = snap.gsm.channel(ch)[i];
            buf.put_u8(reference_quantise_rssi(v));
        }
    }
    buf.freeze()
}

/// The original decoder: one power vector per metre, pushed column by
/// column.
fn reference_decode_snapshot(mut data: &[u8]) -> Result<ContextSnapshot, CodecError> {
    if data.remaining() < 12 {
        return Err(CodecError::Truncated);
    }
    if data.get_u32_le() != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = data.get_u8();
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let flags = data.get_u8();
    let n_channels = data.get_u16_le() as usize;
    let len = data.get_u32_le() as usize;
    if n_channels == 0 && len > 0 {
        return Err(CodecError::Corrupt("zero channels with non-empty context"));
    }
    let vehicle_id = if flags & FLAG_VEHICLE_ID != 0 {
        if data.remaining() < 8 {
            return Err(CodecError::Truncated);
        }
        Some(data.get_u64_le())
    } else {
        None
    };
    let trace = if flags & FLAG_TRACE != 0 {
        if data.remaining() < TRACE_CONTEXT_WIRE_BYTES {
            return Err(CodecError::Truncated);
        }
        let mut wire = [0u8; TRACE_CONTEXT_WIRE_BYTES];
        data.copy_to_slice(&mut wire);
        let t = TraceContext::from_wire(&wire).ok_or(CodecError::Corrupt("bad trace context"))?;
        let id = vehicle_id.ok_or(CodecError::Corrupt("traced payload without sender id"))?;
        if TraceContext::root(id, t.clock).trace_id != t.trace_id {
            return Err(CodecError::Corrupt("trace does not match its sender"));
        }
        Some(t)
    } else {
        None
    };
    if data.remaining() < 8 + len * (6 + n_channels) {
        return Err(CodecError::Truncated);
    }
    let t0 = data.get_f64_le();
    let mut geo = GeoTrajectory::with_capacity(len);
    let mut gsm = GsmTrajectory::with_capacity(n_channels, len);
    let mut col = vec![f32::NAN; n_channels];
    if !t0.is_finite() {
        return Err(CodecError::Corrupt("non-finite base timestamp"));
    }
    let mut prev_dt = f64::NEG_INFINITY;
    for _ in 0..len {
        let heading = data.get_i16_le() as f64 / 1e4;
        let dt = data.get_f32_le() as f64;
        if !dt.is_finite() || dt < prev_dt {
            return Err(CodecError::Corrupt("metre timestamps not non-decreasing"));
        }
        prev_dt = dt;
        geo.push(GeoSample {
            heading_rad: heading,
            timestamp_s: t0 + dt,
        });
        for slot in col.iter_mut() {
            *slot = reference_dequantise_rssi(data.get_u8());
        }
        gsm.push(&PowerVector::from_values(col.clone()));
    }
    Ok(ContextSnapshot {
        vehicle_id,
        geo,
        gsm,
        trace,
    })
}

/// SplitMix64 finaliser: the cell generator of the differential specs.
fn mix(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A differential snapshot, kept small so a failing case prints readably;
/// [`build`] expands it inside the test body.
#[derive(Debug, Clone, Copy)]
struct Spec {
    /// GSM metres.
    len: usize,
    n_channels: usize,
    vehicle_id: Option<u64>,
    /// `Some(clock)` stamps a trace minted for `vehicle_id` (or for a
    /// stranger when the id is absent or `forged`).
    trace_clock: Option<u32>,
    forged: bool,
    /// Geo metres minus GSM metres: -1, 0 or +1.
    geo_skew: i64,
    /// Cells (and geo fields) drawn from the special-value table, per 1024.
    special_per_1024: u64,
    seed: u64,
}

fn spec_strategy(max_len: usize, max_channels: usize) -> impl Strategy<Value = Spec> {
    (
        (0..=max_len, 1..=max_channels),
        proptest::option::of(any::<u64>()),
        (proptest::option::of(any::<u32>()), any::<bool>()),
        (0i64..3, 0u64..1024),
        any::<u64>(),
    )
        .prop_map(
            |((len, n_channels), vehicle_id, (trace_clock, forged), (skew, special), seed)| Spec {
                len,
                n_channels,
                vehicle_id,
                trace_clock,
                forged,
                geo_skew: skew - 1,
                // Mostly ordinary contexts, some dense with edge values.
                special_per_1024: if special < 512 { special / 16 } else { special },
                seed,
            },
        )
}

/// RSSI cells that stress the quantiser: non-finite, huge, signed zero,
/// subnormal, and exact rounding ties and their neighbours.
fn special_rssi(z: u64) -> f32 {
    let tie = ((z >> 8) % 511) as f32 / 4.0 - 110.0;
    match z % 16 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 1e30,
        4 => -1e30,
        5 => -0.0,
        6 => 0.0,
        7 => f32::from_bits(1 + (z >> 12) as u32 % 0x007F_FFFF),
        8 => -f32::from_bits(1 + (z >> 12) as u32 % 0x007F_FFFF),
        9 => f32::MAX,
        10 => f32::MIN,
        11 => tie,
        12 => f32::from_bits(tie.to_bits() + 1),
        13 => f32::from_bits(tie.to_bits().wrapping_sub(1)),
        14 => f32::from_bits((z >> 16) as u32),
        _ => -110.0 + ((z >> 20) % 509) as f32 * 0.25,
    }
}

/// Geo field values for the special rows: headings past the `i16` range,
/// non-finite headings and timestamps, and regressing clocks.
fn special_geo(z: u64, i: usize) -> GeoSample {
    let heading_rad = match z % 6 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => -4.0,
        3 => 3.2768,
        4 => -3.2768500001,
        _ => 3.27675,
    };
    let timestamp_s = match (z >> 8) % 5 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => 1e5 - i as f64,
        3 => 1e5 + i as f64 * 1e-9,
        _ => 1e5 + i as f64 * 0.4,
    };
    GeoSample {
        heading_rad,
        timestamp_s,
    }
}

fn build(spec: &Spec) -> ContextSnapshot {
    let special = |key: u64| mix(key) % 1024 < spec.special_per_1024;
    let geo_len = (spec.len as i64 + spec.geo_skew).max(0) as usize;
    let t0 = 2e5 + (mix(spec.seed) % 1000) as f64 * 0.37;
    let mut t = t0;
    let samples = (0..geo_len)
        .map(|i| {
            let z = mix(spec.seed ^ 0xA5A5 ^ (i as u64) << 20);
            if i > 0 && special(z) {
                return special_geo(mix(z), i);
            }
            t += 0.05 + (z >> 40) as f64 / (1u64 << 24) as f64;
            GeoSample {
                heading_rad: ((z % 62_832) as f64 / 1e4) - std::f64::consts::PI,
                timestamp_s: t,
            }
        })
        .collect();
    let rows = (0..spec.n_channels)
        .map(|ch| {
            (0..spec.len)
                .map(|i| {
                    let z = mix(spec.seed ^ ((ch as u64) << 40) ^ i as u64);
                    if special(z) {
                        special_rssi(mix(z))
                    } else {
                        -130.0 + (z >> 40) as f32 / (1u64 << 24) as f32 * 160.0
                    }
                })
                .collect()
        })
        .collect();
    let snap = ContextSnapshot {
        vehicle_id: spec.vehicle_id,
        geo: GeoTrajectory::from_samples(samples),
        gsm: GsmTrajectory::from_rows(rows),
        trace: None,
    };
    match spec.trace_clock {
        Some(clock) => {
            let signer = match spec.vehicle_id {
                Some(id) if !spec.forged => id,
                _ => mix(spec.seed),
            };
            snap.with_trace(TraceContext::root(signer, clock).with_parent(clock ^ 0x55))
        }
        None => snap,
    }
}

/// Bit-exact snapshot equality: NaN cells compare by bit pattern.
fn assert_same_snapshot(a: &ContextSnapshot, b: &ContextSnapshot) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.vehicle_id, b.vehicle_id);
    prop_assert_eq!(a.trace, b.trace);
    prop_assert_eq!(a.geo.len(), b.geo.len());
    for (i, (x, y)) in a.geo.samples().iter().zip(b.geo.samples()).enumerate() {
        prop_assert!(
            x.heading_rad.to_bits() == y.heading_rad.to_bits()
                && x.timestamp_s.to_bits() == y.timestamp_s.to_bits(),
            "geo metre {i}: {x:?} vs {y:?}"
        );
    }
    prop_assert_eq!(a.gsm.n_channels(), b.gsm.n_channels());
    prop_assert_eq!(a.gsm.len(), b.gsm.len());
    for ch in 0..a.gsm.n_channels() {
        let (x, y) = (a.gsm.channel(ch), b.gsm.channel(ch));
        prop_assert_eq!(x.len(), y.len());
        if let Some(i) = (0..x.len()).find(|&i| x[i].to_bits() != y[i].to_bits()) {
            return Err(TestCaseError::fail(format!(
                "channel {ch} metre {i}: {:#010x} vs {:#010x}",
                x[i].to_bits(),
                y[i].to_bits()
            )));
        }
    }
    Ok(())
}

/// The production decoder and the oracle agree on `wire`: the same
/// snapshot bit for bit, or the same error.
fn assert_same_decode(wire: &[u8]) -> Result<(), TestCaseError> {
    match (decode_snapshot(wire), reference_decode_snapshot(wire)) {
        (Ok(a), Ok(b)) => assert_same_snapshot(&a, &b),
        (Err(a), Err(b)) => {
            prop_assert_eq!(a, b);
            Ok(())
        }
        (a, b) => Err(TestCaseError::fail(format!(
            "outcomes differ on {} bytes: {:?} vs {:?}",
            wire.len(),
            a.map(|s| (s.len(), s.gsm.n_channels())),
            b.map(|s| (s.len(), s.gsm.n_channels()))
        ))),
    }
}

fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
}

/// One damage to a valid frame: a bit flip, a byte rewrite, or a cut
/// (with optional garbage tail). Offsets below 64 land in the header and
/// trace region, where damage reaches the most decode branches.
#[derive(Debug, Clone, Copy)]
enum Damage {
    Flip { at: u32, bit: u8 },
    Rewrite { at: u32, value: u8 },
    Cut { keep: u32, garbage: u8 },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    let at = prop_oneof![0u32..64, any::<u32>()];
    prop_oneof![
        (at, 0u8..8).prop_map(|(at, bit)| Damage::Flip { at, bit }),
        (prop_oneof![0u32..64, any::<u32>()], any::<u8>())
            .prop_map(|(at, value)| Damage::Rewrite { at, value }),
        (any::<u32>(), 0u8..16).prop_map(|(keep, garbage)| Damage::Cut { keep, garbage }),
    ]
}

fn apply(wire: &mut Vec<u8>, damage: Damage) {
    if wire.is_empty() {
        return;
    }
    match damage {
        Damage::Flip { at, bit } => {
            let i = at as usize % wire.len();
            wire[i] ^= 1 << bit;
        }
        Damage::Rewrite { at, value } => {
            let i = at as usize % wire.len();
            wire[i] = value;
        }
        Damage::Cut { keep, garbage } => {
            wire.truncate(keep as usize % (wire.len() + 1));
            wire.extend((0..garbage as u64).map(|g| mix(g ^ keep as u64) as u8));
        }
    }
}

proptest! {
    // The block encoder emits the oracle's bytes: several transpose blocks
    // long, up to 200 channels, edge-value cells, anonymous / identified /
    // traced senders, geo one metre short of or past the GSM half.
    #[test]
    fn encode_matches_reference(spec in spec_strategy(300, 200)) {
        let snap = build(&spec);
        let ours = encode_snapshot(&snap);
        let theirs = reference_encode_snapshot(&snap);
        prop_assert!(
            ours[..] == theirs[..],
            "{} vs {} bytes, first difference at {:?}",
            ours.len(),
            theirs.len(),
            first_difference(&ours, &theirs)
        );
        match try_encode_snapshot(&snap) {
            Ok(wire) => {
                prop_assert_eq!(snap.geo.len(), snap.gsm.len());
                prop_assert!(wire[..] == theirs[..], "fallible encoder disagrees");
            }
            Err(e) => prop_assert_eq!(
                e,
                CodecError::Misaligned { geo: snap.geo.len(), gsm: snap.gsm.len() }
            ),
        }
        assert_same_decode(&theirs)?;
    }

    // Arbitrary bytes: both decoders give the same verdict.
    #[test]
    fn decode_matches_reference_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        assert_same_decode(&data)?;
    }

    // A valid magic and version, then a small structured header (any
    // flags, few channels and metres) over an arbitrary body, so both
    // decoders reach the trace, timestamp and body checks.
    #[test]
    fn decode_matches_reference_behind_valid_magic(
        flags in 0u8..8,
        dims in (0u16..6, 0u32..12),
        version in prop_oneof![Just(VERSION), any::<u8>()],
        body in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut wire = MAGIC_LE.to_vec();
        wire.push(version);
        wire.push(flags);
        wire.extend_from_slice(&dims.0.to_le_bytes());
        wire.extend_from_slice(&dims.1.to_le_bytes());
        wire.extend_from_slice(&body);
        assert_same_decode(&wire)?;
    }

    // Damaged valid frames: bit flips, byte rewrites and cuts, the fault
    // model's corruption and truncation knobs.
    #[test]
    fn decode_matches_reference_on_damaged_frames(
        spec in spec_strategy(150, 64),
        damage in proptest::collection::vec(damage_strategy(), 0..6),
    ) {
        let mut wire = reference_encode_snapshot(&build(&spec)).to_vec();
        for d in damage {
            apply(&mut wire, d);
        }
        assert_same_decode(&wire)?;
    }
}

/// Maps an `f32` to a signed key that counts ulps monotonically across
/// zero, and back.
fn ulp_key(x: f32) -> i64 {
    let b = x.to_bits();
    if b >> 31 == 1 {
        -((b & 0x7FFF_FFFF) as i64)
    } else {
        b as i64
    }
}

fn from_ulp_key(k: i64) -> f32 {
    if k < 0 {
        f32::from_bits((-k) as u32 | 0x8000_0000)
    } else {
        f32::from_bits(k as u32)
    }
}

#[test]
fn quantiser_matches_reference_near_every_boundary_and_across_the_bit_space() {
    let check = |x: f32| {
        assert_eq!(
            quantise_rssi(x),
            reference_quantise_rssi(x),
            "quantise_rssi({x:e}) [{:#010x}]",
            x.to_bits()
        );
    };
    // Every f32 within ±4,096 ulps of each of the 511 half-step boundaries
    // k/4 − 110 (every rounding tie and every exact code point).
    for k in 0..511 {
        let centre = ulp_key(k as f32 / 4.0 - 110.0);
        for d in -4096..=4096 {
            check(from_ulp_key(centre + d));
        }
    }
    // A stride-65,521 sweep of all 2³² bit patterns (NaNs, infinities,
    // subnormals and both zeros included by the extra probes).
    for bits in (0..=u32::MAX).step_by(65_521) {
        check(f32::from_bits(bits));
    }
    for x in [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
    ] {
        check(x);
    }
    // The decode table is the exact inverse on every code point.
    for q in 0..=255u8 {
        let v = v2v_sim::codec::dequantise_rssi(q);
        assert_eq!(v.to_bits(), reference_dequantise_rssi(q).to_bits());
        if q < 255 {
            assert_eq!(quantise_rssi(v), q);
        }
    }
}

/// The whole 32-bit space, ~40 s in a release build:
/// `cargo test --release -p v2v-sim --test fuzz_codec -- --ignored`.
#[test]
#[ignore = "exhaustive; run explicitly in a release build"]
fn quantiser_matches_reference_on_every_bit_pattern() {
    for bits in 0..=u32::MAX {
        let x = f32::from_bits(bits);
        assert_eq!(quantise_rssi(x), reference_quantise_rssi(x), "{bits:#010x}");
    }
}
