//! Compact binary codec for journey-context snapshots.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic      u32   "RUPS" (0x53505552)
//! version    u8
//! flags      u8    bit 0: vehicle_id present; bit 1: trace context present
//! n_channels u16
//! len_m      u32
//! vehicle_id u64   (only when flag bit 0)
//! trace      16 B  (only when flag bit 1) — [`TraceContext`] wire form:
//!                  trace_id u64, parent_span u32, sender clock u32
//! t0         f64   timestamp of the first metre mark
//! per metre:
//!   heading  i16   radians × 10⁴ (±π fits in ±31 416)
//!   dt       f32   seconds since t0
//!   rssi     u8 × n_channels   (dBm + 110) × 2, clamped to 0..=254;
//!                              255 = missing channel
//! ```
//!
//! One metre of a 194-channel context costs `2 + 4 + 194 = 200` bytes, so a
//! 1 km context is ≈200 KB — the paper quotes 182 KB for its 115-channel
//! prototype plus geometry, same order (§V-B).
//!
//! The body is metre-major, but [`GsmTrajectory`] stores channel rows, so
//! both directions are a transpose. They run one block of `BLOCK_M`
//! metres at a time: the block's slice of the body stays in cache while
//! every channel row streams through it, and each row is read or written
//! contiguously. The per-metre original lives on as the differential
//! oracle in `tests/fuzz_codec.rs`.

use bytes::{Buf, BufMut, Bytes};
use rups_core::geo::{GeoSample, GeoTrajectory};
use rups_core::gsm::GsmTrajectory;
use rups_core::pipeline::ContextSnapshot;
use rups_obs::{Counter, Registry, TraceContext, TRACE_CONTEXT_WIRE_BYTES};

/// Codec magic number ("RUPS" in LE bytes).
pub const MAGIC: u32 = 0x5350_5552;
/// Current codec version.
pub const VERSION: u8 = 1;
/// Flags bit 0: the payload carries a sender vehicle id.
pub const FLAG_VEHICLE_ID: u8 = 0x01;
/// Flags bit 1: the payload carries a piggybacked [`TraceContext`].
///
/// A backward-compatible extension: untraced snapshots encode byte-for-byte
/// as they always did (the bit stays clear), and decoders ignore flag bits
/// they do not know, so pre-extension payloads decode unchanged.
pub const FLAG_TRACE: u8 = 0x02;

/// Metres per transpose block: 64 metres of a 194-channel body are 12.8 KB,
/// which stays in L1 while the channel rows pass over it.
const BLOCK_M: usize = 64;

/// Decoding/encoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than its headers/payload claim.
    Truncated,
    /// Bad magic number — not a RUPS snapshot.
    BadMagic,
    /// Unsupported codec version.
    BadVersion(u8),
    /// Structurally valid but semantically impossible payload
    /// (e.g. non-finite or regressing metre timestamps).
    Corrupt(&'static str),
    /// A snapshot offered for encoding whose geographical and GSM halves
    /// disagree on length — it does not describe one trajectory.
    Misaligned {
        /// Metres in the geographical half.
        geo: usize,
        /// Metres in the GSM half.
        gsm: usize,
    },
    /// A snapshot offered for encoding with more channels than the `u16`
    /// header field or more metres than the `u32` one can count.
    Oversized {
        /// Channels in the snapshot.
        n_channels: usize,
        /// Metres in the snapshot.
        len_m: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "snapshot payload truncated"),
            CodecError::BadMagic => write!(f, "bad magic: not a RUPS snapshot"),
            CodecError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            CodecError::Corrupt(why) => write!(f, "corrupt snapshot payload: {why}"),
            CodecError::Misaligned { geo, gsm } => write!(
                f,
                "misaligned snapshot: geo half has {geo} m, gsm half {gsm} m"
            ),
            CodecError::Oversized { n_channels, len_m } => write!(
                f,
                "oversized snapshot: {n_channels} channels × {len_m} m exceeds the header fields"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Quantises an RSSI in dBm to the wire byte (0.5 dB resolution from
/// −110 dBm, halves rounded away from zero). `255` encodes a missing
/// measurement.
#[inline]
pub fn quantise_rssi(dbm: f32) -> u8 {
    if dbm.is_nan() {
        return 255;
    }
    // `round().clamp(0, 254)` without `f32::round`, which is a libm call on
    // baseline x86-64: clamp first, then truncate and add the half step
    // back. On [0, 254] both the truncation and the fraction are exact, so
    // this equals the rounded form on every input (swept against it in
    // `tests/fuzz_codec.rs`).
    let x = ((dbm + 110.0) * 2.0).clamp(0.0, 254.0);
    let whole = x as u8;
    whole + (x - whole as f32 >= 0.5) as u8
}

/// Inverse of [`quantise_rssi`]; `255` becomes `NaN` (missing).
#[inline]
pub fn dequantise_rssi(q: u8) -> f32 {
    if q == 255 {
        f32::NAN
    } else {
        q as f32 / 2.0 - 110.0
    }
}

/// Serialises a snapshot into its wire form.
///
/// ```
/// use rups_core::geo::{GeoSample, GeoTrajectory};
/// use rups_core::gsm::{GsmTrajectory, PowerVector};
/// use rups_core::pipeline::ContextSnapshot;
/// use v2v_sim::codec::{decode_snapshot, encode_snapshot};
///
/// let mut geo = GeoTrajectory::new();
/// let mut gsm = GsmTrajectory::new(4);
/// for i in 0..10 {
///     geo.push(GeoSample { heading_rad: 0.0, timestamp_s: i as f64 });
///     gsm.push(&PowerVector::from_fn(4, |ch| Some(-70.0 - ch as f32)));
/// }
/// let snap = ContextSnapshot { vehicle_id: Some(7), geo, gsm, trace: None };
/// let wire = encode_snapshot(&snap);
/// let back = decode_snapshot(&wire).unwrap();
/// assert_eq!(back.vehicle_id, Some(7));
/// assert_eq!(back.len(), 10);
/// ```
pub fn encode_snapshot(snap: &ContextSnapshot) -> Bytes {
    // Contract for misaligned or oversized input: encode the prefix the
    // header can describe — the aligned metres, at most `u32::MAX` of them,
    // over the first `u16::MAX` channels — rather than panicking mid-encode
    // or writing a header that disagrees with its body. Callers that must
    // treat either as an error use [`try_encode_snapshot`].
    let n_channels = snap.gsm.n_channels().min(u16::MAX as usize);
    let len = snap.gsm.len().min(snap.geo.len()).min(u32::MAX as usize);
    // A trace is only carried alongside a sender id: the id + the trace's
    // logical clock are what let receivers verify the trace survived the
    // wire (see `decode_snapshot`), so an anonymous traced payload would be
    // unverifiable and is encoded untraced instead.
    let trace = snap.trace.filter(|_| snap.vehicle_id.is_some());
    let mut flags = 0u8;
    if snap.vehicle_id.is_some() {
        flags |= FLAG_VEHICLE_ID;
    }
    if trace.is_some() {
        flags |= FLAG_TRACE;
    }
    let stride = 6 + n_channels;
    // The longest header (fixed fields, sender id, trace, t0) plus the body.
    let mut buf = Vec::with_capacity(12 + 8 + TRACE_CONTEXT_WIRE_BYTES + 8 + len * stride);
    buf.put_u32_le(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(flags);
    buf.put_u16_le(n_channels as u16);
    buf.put_u32_le(len as u32);
    if let Some(id) = snap.vehicle_id {
        buf.put_u64_le(id);
    }
    if let Some(trace) = trace {
        buf.put_slice(&trace.to_wire());
    }
    let t0 = snap.geo.samples().first().map_or(0.0, |s| s.timestamp_s);
    buf.put_f64_le(t0);
    let head = buf.len();
    buf.resize(head + len * stride, 0);
    let body = &mut buf[head..];
    for (metre, g) in body.chunks_exact_mut(stride).zip(snap.geo.samples()) {
        let heading = (g.heading_rad * 1e4).round().clamp(-32768.0, 32767.0) as i16;
        metre[..2].copy_from_slice(&heading.to_le_bytes());
        metre[2..6].copy_from_slice(&((g.timestamp_s - t0) as f32).to_le_bytes());
    }
    for (b, block) in body.chunks_mut(BLOCK_M * stride).enumerate() {
        for ch in 0..n_channels {
            let row = &snap.gsm.channel(ch)[b * BLOCK_M..];
            for (metre, &v) in block.chunks_exact_mut(stride).zip(row) {
                metre[6 + ch] = quantise_rssi(v);
            }
        }
    }
    Bytes::from(buf)
}

/// Serialises a snapshot, rejecting one whose geo and GSM halves disagree
/// on length, or one too large for the header fields, instead of silently
/// encoding a prefix (the [`encode_snapshot`] contract).
pub fn try_encode_snapshot(snap: &ContextSnapshot) -> Result<Bytes, CodecError> {
    if snap.geo.len() != snap.gsm.len() {
        return Err(CodecError::Misaligned {
            geo: snap.geo.len(),
            gsm: snap.gsm.len(),
        });
    }
    if snap.gsm.n_channels() > u16::MAX as usize || snap.gsm.len() > u32::MAX as usize {
        return Err(CodecError::Oversized {
            n_channels: snap.gsm.n_channels(),
            len_m: snap.gsm.len(),
        });
    }
    Ok(encode_snapshot(snap))
}

/// Parses a snapshot from its wire form.
pub fn decode_snapshot(mut data: &[u8]) -> Result<ContextSnapshot, CodecError> {
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
        // Trace ids are self-verifying: the sender mints them as a pure
        // hash of `(vehicle_id, clock)`, so the receiver recomputes the
        // hash and any bit damage to the id, the clock or the sender id
        // shows up as a mismatch. This is what keeps corrupted beacons
        // from planting orphan trace ids in a merged fleet trace.
        let id = vehicle_id.ok_or(CodecError::Corrupt("traced payload without sender id"))?;
        if TraceContext::root(id, t.clock).trace_id != t.trace_id {
            return Err(CodecError::Corrupt("trace does not match its sender"));
        }
        Some(t)
    } else {
        None
    };
    // Both factors come off the wire: a product past `usize` cannot be in
    // the buffer either.
    let stride = 6 + n_channels;
    let need = len.checked_mul(stride).and_then(|body| body.checked_add(8));
    if need.is_none_or(|need| data.remaining() < need) {
        return Err(CodecError::Truncated);
    }
    let t0 = data.get_f64_le();
    if !t0.is_finite() {
        return Err(CodecError::Corrupt("non-finite base timestamp"));
    }
    let body = &data[..len * stride];
    let mut samples = Vec::with_capacity(len);
    let mut prev_dt = f64::NEG_INFINITY;
    for metre in body.chunks_exact(stride) {
        let heading = i16::from_le_bytes([metre[0], metre[1]]) as f64 / 1e4;
        let dt = f32::from_le_bytes([metre[2], metre[3], metre[4], metre[5]]) as f64;
        // Metre marks are recorded in time order; anything else means the
        // payload bytes do not describe a real trajectory.
        if !dt.is_finite() || dt < prev_dt {
            return Err(CodecError::Corrupt("metre timestamps not non-decreasing"));
        }
        prev_dt = dt;
        samples.push(GeoSample {
            heading_rad: heading,
            timestamp_s: t0 + dt,
        });
    }
    let table: [f32; 256] = std::array::from_fn(|q| dequantise_rssi(q as u8));
    let mut rows: Vec<Vec<f32>> = (0..n_channels).map(|_| Vec::with_capacity(len)).collect();
    for block in body.chunks(BLOCK_M * stride) {
        for (ch, row) in rows.iter_mut().enumerate() {
            row.extend(
                block
                    .chunks_exact(stride)
                    .map(|metre| table[metre[6 + ch] as usize]),
            );
        }
    }
    Ok(ContextSnapshot {
        vehicle_id,
        geo: GeoTrajectory::from_samples(samples),
        gsm: GsmTrajectory::from_rows(rows),
        trace,
    })
}

/// Wire size in bytes of a context of `len_m` metres over `n_channels`
/// channels (with a vehicle id, without a trace context — a traced payload
/// adds [`TRACE_CONTEXT_WIRE_BYTES`]).
pub fn encoded_size(len_m: usize, n_channels: usize) -> usize {
    4 + 1 + 1 + 2 + 4 + 8 + 8 + len_m * (6 + n_channels)
}

/// Counted decode front-end: pre-registered `rups_v2v_codec_*` counters
/// recording how incoming payloads fared against [`decode_snapshot`], so a
/// fault-injected run can report *why* the wire path rejected frames.
#[derive(Debug, Clone)]
pub struct CodecMetrics {
    decode_ok: Counter,
    rejected_truncated: Counter,
    rejected_bad_magic: Counter,
    rejected_bad_version: Counter,
    rejected_corrupt: Counter,
}

impl CodecMetrics {
    /// Registers the codec counters in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            decode_ok: registry.counter("rups_v2v_codec_decode_ok"),
            rejected_truncated: registry.counter("rups_v2v_codec_rejected_truncated"),
            rejected_bad_magic: registry.counter("rups_v2v_codec_rejected_bad_magic"),
            rejected_bad_version: registry.counter("rups_v2v_codec_rejected_bad_version"),
            rejected_corrupt: registry.counter("rups_v2v_codec_rejected_corrupt"),
        }
    }

    /// [`decode_snapshot`] plus outcome accounting.
    pub fn decode(&self, data: &[u8]) -> Result<ContextSnapshot, CodecError> {
        let out = decode_snapshot(data);
        match &out {
            Ok(_) => self.decode_ok.inc(),
            Err(CodecError::Truncated) => self.rejected_truncated.inc(),
            Err(CodecError::BadMagic) => self.rejected_bad_magic.inc(),
            Err(CodecError::BadVersion(_)) => self.rejected_bad_version.inc(),
            Err(CodecError::Corrupt(_)) => self.rejected_corrupt.inc(),
            // decode never reports the encode-side errors.
            Err(CodecError::Misaligned { .. } | CodecError::Oversized { .. }) => {}
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rups_core::gsm::PowerVector;

    fn snapshot(len: usize, n_channels: usize, with_id: bool) -> ContextSnapshot {
        let mut geo = GeoTrajectory::new();
        let mut gsm = GsmTrajectory::new(n_channels);
        for i in 0..len {
            geo.push(GeoSample {
                heading_rad: (i as f64 * 0.01) - 1.5,
                timestamp_s: 100.0 + i as f64 * 0.5,
            });
            gsm.push(&PowerVector::from_fn(n_channels, |ch| {
                ((ch + i) % 5 != 0).then(|| -60.0 - ((ch * 7 + i) % 40) as f32 * 0.5)
            }));
        }
        ContextSnapshot {
            vehicle_id: with_id.then_some(0xDEAD_BEEF),
            geo,
            gsm,
            trace: None,
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let snap = snapshot(50, 24, true);
        let wire = encode_snapshot(&snap);
        let back = decode_snapshot(&wire).unwrap();
        assert_eq!(back.vehicle_id, Some(0xDEAD_BEEF));
        assert_eq!(back.gsm.len(), 50);
        assert_eq!(back.gsm.n_channels(), 24);
        assert_eq!(back.geo.len(), 50);
        for i in 0..50 {
            let a = snap.geo.samples()[i];
            let b = back.geo.samples()[i];
            assert!((a.heading_rad - b.heading_rad).abs() < 1e-4);
            assert!((a.timestamp_s - b.timestamp_s).abs() < 1e-3);
            for ch in 0..24 {
                match (snap.gsm.get(ch, i), back.gsm.get(ch, i)) {
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() <= 0.25, "rssi {x} → {y}")
                    }
                    (None, None) => {}
                    other => panic!("missing-ness not preserved: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn roundtrip_without_vehicle_id() {
        let snap = snapshot(10, 8, false);
        let back = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert_eq!(back.vehicle_id, None);
        assert_eq!(back.gsm.len(), 10);
    }

    #[test]
    fn traced_roundtrip_and_backward_compat() {
        let ctx = TraceContext::root(0xDEAD_BEEF, 42).with_parent(9);
        let plain = snapshot(12, 6, true);
        let traced = plain.clone().with_trace(ctx);

        // The trace context survives the wire byte-exactly.
        let wire = encode_snapshot(&traced);
        assert_eq!(wire.len(), encoded_size(12, 6) + TRACE_CONTEXT_WIRE_BYTES);
        let back = decode_snapshot(&wire).unwrap();
        assert_eq!(back.trace, Some(ctx));
        assert_eq!(back.vehicle_id, plain.vehicle_id);
        assert_eq!(back.len(), plain.len());

        // Backward compatibility both ways: an untraced snapshot encodes
        // byte-for-byte as before the extension (the flag bit stays clear),
        // and those pre-extension bytes decode with `trace: None`.
        let old_wire = encode_snapshot(&plain);
        assert_eq!(old_wire.len(), encoded_size(12, 6));
        assert_eq!(old_wire[5], FLAG_VEHICLE_ID, "only bit 0 set");
        assert_eq!(decode_snapshot(&old_wire).unwrap().trace, None);

        // A payload truncated inside the trace bytes is Truncated, not
        // misparsed as context data.
        let cut = 4 + 1 + 1 + 2 + 4 + 8 + TRACE_CONTEXT_WIRE_BYTES / 2;
        assert_eq!(decode_snapshot(&wire[..cut]), Err(CodecError::Truncated));

        // Trace ids are a pure hash of `(vehicle_id, clock)`, so the
        // decoder recomputes and rejects any bit damage to the id, the
        // clock, or the sender id — corrupted beacons can never plant an
        // orphan trace id in a merged fleet trace.
        let trace_off = 4 + 1 + 1 + 2 + 4 + 8;
        for bit_of in [
            trace_off,                                // trace_id low byte
            trace_off + 7,                            // trace_id high byte
            trace_off + TRACE_CONTEXT_WIRE_BYTES - 1, // clock high byte
            4 + 1 + 1 + 2 + 4,                        // vehicle_id low byte
        ] {
            let mut damaged = wire.to_vec();
            damaged[bit_of] ^= 0x40;
            assert!(
                matches!(decode_snapshot(&damaged), Err(CodecError::Corrupt(_))),
                "flip at offset {bit_of} must be caught"
            );
        }
        // An anonymous snapshot cannot carry a verifiable trace: the
        // infallible encoder silently drops it instead of emitting bytes
        // every decoder would reject.
        let anon = snapshot(12, 6, false).with_trace(ctx);
        let anon_wire = encode_snapshot(&anon);
        assert_eq!(anon_wire[5], 0, "no flags set");
        assert_eq!(decode_snapshot(&anon_wire).unwrap().trace, None);
    }

    #[test]
    fn quantisation_boundaries() {
        assert_eq!(quantise_rssi(f32::NAN), 255);
        assert!(dequantise_rssi(255).is_nan());
        assert_eq!(quantise_rssi(-110.0), 0);
        assert_eq!(dequantise_rssi(0), -110.0);
        // Values below the floor clamp to the floor.
        assert_eq!(quantise_rssi(-150.0), 0);
        // Values above the representable range clamp to 254 (≈ +17 dBm).
        assert_eq!(quantise_rssi(50.0), 254);
        assert_eq!(dequantise_rssi(254), 17.0);
        // Mid-range resolution is 0.5 dB.
        let q = quantise_rssi(-73.26);
        assert!((dequantise_rssi(q) - -73.26).abs() <= 0.25);
    }

    #[test]
    fn size_matches_paper_order_of_magnitude() {
        // 1 km × 194 channels ≈ 200 KB; the paper quotes 182 KB for a 1 km
        // context (§V-B). Same order, slightly larger because we carry the
        // full 194-channel band, not the 115-channel prototype subset.
        let sz = encoded_size(1000, 194);
        assert!(sz > 150_000 && sz < 250_000, "1 km context is {sz} bytes");
        let snap = snapshot(100, 194, true);
        assert_eq!(encode_snapshot(&snap).len(), encoded_size(100, 194));
        // The 115-channel prototype subset stays in the same 100–200 KB
        // band the paper reports (182 KB including their geometry framing).
        let proto = encoded_size(1000, 115);
        assert!(
            (100_000..200_000).contains(&proto),
            "115-channel context is {proto} bytes"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_snapshot(&[1, 2, 3]), Err(CodecError::Truncated));
        let mut wire = encode_snapshot(&snapshot(5, 4, true)).to_vec();
        wire[0] ^= 0xFF;
        assert_eq!(decode_snapshot(&wire), Err(CodecError::BadMagic));
        let mut wire = encode_snapshot(&snapshot(5, 4, true)).to_vec();
        wire[4] = 99;
        assert_eq!(decode_snapshot(&wire), Err(CodecError::BadVersion(99)));
        let wire = encode_snapshot(&snapshot(5, 4, true));
        assert_eq!(
            decode_snapshot(&wire[..wire.len() - 3]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn misaligned_snapshot_is_a_checked_error_not_a_panic() {
        // Build a snapshot whose geo half is one metre short of its gsm
        // half (easy to produce by mixing tails of different lengths).
        let full = snapshot(10, 4, true);
        let misaligned = ContextSnapshot {
            vehicle_id: full.vehicle_id,
            geo: full.geo.tail(9),
            gsm: full.gsm.tail(10),
            trace: None,
        };
        assert_eq!(
            try_encode_snapshot(&misaligned),
            Err(CodecError::Misaligned { geo: 9, gsm: 10 })
        );
        // The infallible entry point encodes the aligned prefix instead of
        // panicking on slice indexing (release-mode behaviour before the
        // fix) — and the result still decodes.
        let wire = encode_snapshot(&misaligned);
        let back = decode_snapshot(&wire).unwrap();
        assert_eq!(back.len(), 9);
        assert_eq!(back.geo.len(), back.gsm.len());
        // Aligned snapshots pass through the fallible path unchanged.
        assert_eq!(try_encode_snapshot(&full).unwrap(), encode_snapshot(&full));
    }

    #[test]
    fn oversized_snapshots_are_rejected_or_framed_as_their_prefix() {
        // The header counts channels in a `u16`. These two counts used to
        // wrap: 65,536 to 0, which decoded as Corrupt, and 65,537 to 1,
        // which decoded as a valid one-channel snapshot unrelated to the
        // body behind the header.
        for n_channels in [65_536usize, 65_537] {
            let rows = (0..n_channels)
                .map(|ch| vec![-60.0 - (ch % 40) as f32, f32::NAN])
                .collect();
            let geo = (0..2)
                .map(|i| GeoSample {
                    heading_rad: 0.0,
                    timestamp_s: i as f64,
                })
                .collect();
            let snap = ContextSnapshot {
                vehicle_id: Some(3),
                geo: GeoTrajectory::from_samples(geo),
                gsm: GsmTrajectory::from_rows(rows),
                trace: None,
            };
            assert_eq!(
                try_encode_snapshot(&snap),
                Err(CodecError::Oversized {
                    n_channels,
                    len_m: 2
                })
            );
            // The infallible encoder frames the first `u16::MAX` channels.
            let wire = encode_snapshot(&snap);
            assert_eq!(wire.len(), encoded_size(2, u16::MAX as usize));
            let back = decode_snapshot(&wire).unwrap();
            assert_eq!(back.gsm.n_channels(), u16::MAX as usize);
            assert_eq!(back.len(), 2);
            for ch in [0, 1, 39, 40, 65_534] {
                assert_eq!(back.gsm.get(ch, 0), snap.gsm.get(ch, 0));
                assert_eq!(back.gsm.get(ch, 1), None);
            }
        }
    }

    #[test]
    fn largest_header_claim_is_truncated_not_overflowed() {
        // `len_m × (6 + n_channels)` comes off the wire; the largest claim
        // must be measured against the buffer, not wrap into a small size.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.push(VERSION);
        wire.push(0);
        wire.extend_from_slice(&u16::MAX.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&0f64.to_le_bytes());
        wire.extend_from_slice(&[0u8; 64]);
        assert_eq!(decode_snapshot(&wire), Err(CodecError::Truncated));
    }

    #[test]
    fn zero_channel_nonempty_payload_rejected() {
        // Hand-craft a header claiming 0 channels but 3 metres of context.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.push(VERSION);
        wire.push(0); // no vehicle id
        wire.extend_from_slice(&0u16.to_le_bytes()); // n_channels = 0
        wire.extend_from_slice(&3u32.to_le_bytes()); // len = 3
        wire.extend_from_slice(&0f64.to_le_bytes()); // t0
        wire.extend_from_slice(&[0u8; 18]); // 3 metres × (2 + 4 + 0) bytes
        assert!(matches!(
            decode_snapshot(&wire),
            Err(CodecError::Corrupt(_))
        ));
        // A genuinely empty zero-channel snapshot stays decodable.
        let empty = ContextSnapshot {
            vehicle_id: None,
            geo: GeoTrajectory::new(),
            gsm: GsmTrajectory::new(0),
            trace: None,
        };
        let back = decode_snapshot(&encode_snapshot(&empty)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn counted_decode_attributes_every_outcome() {
        let reg = Registry::new();
        let m = CodecMetrics::register(&reg);
        let good = encode_snapshot(&snapshot(5, 4, true));
        assert!(m.decode(&good).is_ok());
        assert!(m.decode(&good[..good.len() - 3]).is_err());
        let mut bad_magic = good.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(m.decode(&bad_magic).is_err());
        let mut bad_version = good.to_vec();
        bad_version[4] = 99;
        assert!(m.decode(&bad_version).is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rups_v2v_codec_decode_ok"), Some(1));
        assert_eq!(snap.counter("rups_v2v_codec_rejected_truncated"), Some(1));
        assert_eq!(snap.counter("rups_v2v_codec_rejected_bad_magic"), Some(1));
        assert_eq!(snap.counter("rups_v2v_codec_rejected_bad_version"), Some(1));
        assert_eq!(snap.counter("rups_v2v_codec_rejected_corrupt"), Some(0));
    }

    #[test]
    fn decoded_snapshot_still_matches_for_rups() {
        // End-to-end: a context that goes through the codec must still
        // produce a correct distance fix.
        use rups_core::config::RupsConfig;
        use rups_core::pipeline::RupsNode;
        let cfg = RupsConfig {
            n_channels: 32,
            window_channels: 24,
            ..RupsConfig::default()
        };
        let field = |s: f64, ch: usize| rups_core::testfield::rssi(3, s, ch);
        let mk = |start: usize| {
            let mut node = RupsNode::new(cfg.clone());
            for i in 0..300 {
                let s = (start + i) as f64;
                node.append_metre(
                    GeoSample {
                        heading_rad: 0.0,
                        timestamp_s: s,
                    },
                    &PowerVector::from_fn(32, |ch| Some(field(s, ch))),
                )
                .unwrap();
            }
            node
        };
        let a = mk(0);
        let b = mk(55);
        let wire = encode_snapshot(&b.snapshot(None));
        let decoded = decode_snapshot(&wire).unwrap();
        let fix = a.fix_distance(&decoded).unwrap();
        assert!(
            (fix.distance_m - 55.0).abs() < 1.5,
            "distance {}",
            fix.distance_m
        );
    }
}
