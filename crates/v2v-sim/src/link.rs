//! An in-process broadcast medium for multi-vehicle tests and examples.
//!
//! Models the shared DSRC channel: every registered node hears every other
//! node's broadcasts, subject to the configured [`FaultConfig`] (bursty
//! Gilbert–Elliott loss, duplication, reordering, payload damage, jitter)
//! and the WSM latency model. Delivery is via crossbeam channels so vehicle
//! tasks can run on separate threads; the registry is guarded by a
//! `parking_lot` mutex.
//!
//! Delivery is **time-aware**: [`Endpoint::poll_until`] only surfaces
//! messages whose arrival time has passed, so a simulation stepping through
//! time never reads a payload that is still "on the air". The legacy
//! [`Endpoint::poll`] drains everything regardless of arrival time and is
//! kept for tests and threaded examples that do not track simulated time.

use crate::fault::{ChannelState, FaultConfig};
use crate::wsm::{exchange_time_s, WsmConfig};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rups_core::testfield::splitmix64;
use rups_obs::{Counter, Histogram, Registry, SpanRecorder, TraceContext};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A message delivered to a node.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Sending node id.
    pub from: u64,
    /// Simulated time at which the message finished arriving, seconds
    /// (send time plus the WSM transfer latency for its size, plus any
    /// fault-injected jitter or reordering delay).
    pub arrival_s: f64,
    /// Message payload (possibly truncated or bit-corrupted when the link
    /// injects payload faults — receivers must validate what they decode).
    pub payload: Bytes,
}

/// Counters of everything the fault layer did, for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// `(message, receiver)` pairs offered to the fault layer.
    pub offered: u64,
    /// Pairs actually delivered (including duplicates).
    pub delivered: u64,
    /// Pairs dropped by the Gilbert–Elliott loss draw.
    pub dropped: u64,
    /// Extra copies delivered by the duplication fault.
    pub duplicated: u64,
    /// Deliveries held back by the reordering fault.
    pub reordered: u64,
    /// Deliveries with a truncated payload.
    pub truncated: u64,
    /// Deliveries with flipped payload bits.
    pub corrupted: u64,
}

impl LinkStats {
    /// Field-wise `self − earlier` (saturating), for per-epoch deltas from
    /// two cumulative snapshots.
    pub fn delta(&self, earlier: &LinkStats) -> LinkStats {
        LinkStats {
            offered: self.offered.saturating_sub(earlier.offered),
            delivered: self.delivered.saturating_sub(earlier.delivered),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            duplicated: self.duplicated.saturating_sub(earlier.duplicated),
            reordered: self.reordered.saturating_sub(earlier.reordered),
            truncated: self.truncated.saturating_sub(earlier.truncated),
            corrupted: self.corrupted.saturating_sub(earlier.corrupted),
        }
    }

    /// Fraction of offered `(message, receiver)` pairs actually delivered
    /// (0.0 when nothing was offered; can exceed 1.0 under duplication).
    pub fn delivery_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// Pre-registered registry handles for the fault-layer counters
/// (`rups_v2v_link_*`) plus the broadcast payload-size histogram.
struct LinkMetrics {
    offered: Counter,
    delivered: Counter,
    dropped: Counter,
    duplicated: Counter,
    reordered: Counter,
    truncated: Counter,
    corrupted: Counter,
    payload_bytes: Histogram,
}

impl LinkMetrics {
    fn register(reg: &Registry) -> Self {
        Self {
            offered: reg.counter("rups_v2v_link_offered"),
            delivered: reg.counter("rups_v2v_link_delivered"),
            dropped: reg.counter("rups_v2v_link_dropped"),
            duplicated: reg.counter("rups_v2v_link_duplicated"),
            reordered: reg.counter("rups_v2v_link_reordered"),
            truncated: reg.counter("rups_v2v_link_truncated"),
            corrupted: reg.counter("rups_v2v_link_corrupted"),
            payload_bytes: reg.histogram("rups_v2v_link_payload_bytes"),
        }
    }
}

struct Inner {
    peers: Mutex<HashMap<u64, Sender<Delivery>>>,
    /// Per-receiver Gilbert–Elliott channel state.
    states: Mutex<HashMap<u64, ChannelState>>,
    cfg: WsmConfig,
    /// Link-wide fault model; mutable at runtime via
    /// [`V2vLink::set_faults`] so harnesses can stage degradations
    /// mid-scenario.
    faults: Mutex<FaultConfig>,
    /// Per-receiver fault overrides (targeted degradations), keyed by
    /// receiver node id; a receiver with no entry uses the link-wide model.
    overrides: Mutex<HashMap<u64, FaultConfig>>,
    seq: AtomicU64,
    seed: u64,
    registry: Arc<Registry>,
    stats: LinkMetrics,
    /// Span sink for fault events, when attached.
    spans: Option<Arc<SpanRecorder>>,
}

/// Handle to the shared broadcast medium.
#[derive(Clone)]
pub struct V2vLink {
    inner: Arc<Inner>,
}

/// A node's endpoint on the link.
pub struct Endpoint {
    /// This node's id.
    pub id: u64,
    link: V2vLink,
    rx: Receiver<Delivery>,
    /// Messages received off the channel but not yet surfaced because
    /// their arrival time lies in the future (time-aware delivery).
    pending: RefCell<Vec<Delivery>>,
}

/// One deterministic uniform draw in `[0, 1)` for a `(seed, message,
/// receiver, purpose)` tuple.
fn draw(seed: u64, msg_seq: u64, id: u64, salt: u64) -> f64 {
    splitmix64(seed ^ msg_seq.wrapping_mul(31) ^ id ^ salt.wrapping_mul(0x9E37_79B9)) as f64
        / u64::MAX as f64
}

impl V2vLink {
    /// A lossless, fault-free link with default WSM parameters.
    pub fn new() -> Self {
        Self::with_faults(FaultConfig::ideal(), 0)
    }

    /// A link with the full fault model (deterministic in `seed`).
    ///
    /// # Panics
    /// Panics when the fault configuration is invalid (probabilities
    /// outside `[0, 1]`, negative delays).
    pub fn with_faults(faults: FaultConfig, seed: u64) -> Self {
        Self::with_faults_in(faults, seed, Arc::new(Registry::new()))
    }

    /// A link recording its fault-layer counters into the given shared
    /// registry (under `rups_v2v_link_*`), so node and link metrics can be
    /// exported as one snapshot.
    ///
    /// # Panics
    /// Panics when the fault configuration is invalid.
    pub fn with_faults_in(faults: FaultConfig, seed: u64, registry: Arc<Registry>) -> Self {
        faults.validate().expect("invalid fault configuration");
        let stats = LinkMetrics::register(&registry);
        V2vLink {
            inner: Arc::new(Inner {
                peers: Mutex::new(HashMap::new()),
                states: Mutex::new(HashMap::new()),
                cfg: WsmConfig::default(),
                faults: Mutex::new(faults),
                overrides: Mutex::new(HashMap::new()),
                seq: AtomicU64::new(0),
                seed,
                registry,
                stats,
                spans: None,
            }),
        }
    }

    /// Records fault events (`link.drop` / `link.duplicate` /
    /// `link.reorder` / `link.truncate` / `link.corrupt`) into `spans`.
    /// Only callable before the link handle is shared (cloned or joined).
    ///
    /// # Panics
    /// Panics when the link is already shared.
    pub fn with_spans(mut self, spans: Arc<SpanRecorder>) -> Self {
        Arc::get_mut(&mut self.inner)
            .expect("attach spans before sharing the link")
            .spans = Some(spans);
        self
    }

    /// The active link-wide fault configuration.
    pub fn faults(&self) -> FaultConfig {
        *self.inner.faults.lock()
    }

    /// Replaces the link-wide fault model mid-run. Messages already in
    /// flight are unaffected; the next broadcast sees the new model.
    /// Gilbert–Elliott channel states persist across the swap.
    ///
    /// # Errors
    /// Returns the validation message when the configuration is invalid
    /// (the active model is left unchanged).
    pub fn set_faults(&self, faults: FaultConfig) -> Result<(), String> {
        faults.validate()?;
        *self.inner.faults.lock() = faults;
        Ok(())
    }

    /// Installs (or with `None` clears) a fault override for one receiver,
    /// leaving every other receiver on the link-wide model — a targeted
    /// degradation, e.g. burst loss towards a single vehicle.
    ///
    /// # Errors
    /// Returns the validation message when the configuration is invalid
    /// (existing overrides are left unchanged).
    pub fn set_receiver_faults(&self, id: u64, faults: Option<FaultConfig>) -> Result<(), String> {
        match faults {
            Some(f) => {
                f.validate()?;
                self.inner.overrides.lock().insert(id, f);
            }
            None => {
                self.inner.overrides.lock().remove(&id);
            }
        }
        Ok(())
    }

    /// The metrics registry this link records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Snapshot of the fault-layer counters, read straight off the
    /// registry atomics.
    pub fn stats(&self) -> LinkStats {
        let s = &self.inner.stats;
        LinkStats {
            offered: s.offered.get(),
            delivered: s.delivered.get(),
            dropped: s.dropped.get(),
            duplicated: s.duplicated.get(),
            reordered: s.reordered.get(),
            truncated: s.truncated.get(),
            corrupted: s.corrupted.get(),
        }
    }

    /// Registers a node and returns its endpoint.
    ///
    /// # Panics
    /// Panics when the id is already registered.
    pub fn join(&self, id: u64) -> Endpoint {
        let (tx, rx) = unbounded();
        let prev = self.inner.peers.lock().insert(id, tx);
        assert!(prev.is_none(), "node id {id} already registered");
        Endpoint {
            id,
            link: self.clone(),
            rx,
            pending: RefCell::new(Vec::new()),
        }
    }

    /// Number of registered nodes.
    pub fn peer_count(&self) -> usize {
        self.inner.peers.lock().len()
    }

    /// Applies the payload faults (truncation, bit flips) for one
    /// delivery; returns the possibly-damaged payload.
    fn damage_payload(
        &self,
        f: &FaultConfig,
        payload: &Bytes,
        msg_seq: u64,
        id: u64,
        copy: u64,
        trace: Option<TraceContext>,
    ) -> Bytes {
        let stats = &self.inner.stats;
        let mut damaged: Option<Vec<u8>> = None;
        if !payload.is_empty() && draw(self.inner.seed, msg_seq, id, 0x71 ^ copy) < f.truncate {
            // Keep a strict prefix: at least 0, at most len-1 bytes.
            let keep =
                (draw(self.inner.seed, msg_seq, id, 0x72 ^ copy) * payload.len() as f64) as usize;
            damaged = Some(payload[..keep.min(payload.len() - 1)].to_vec());
            stats.truncated.inc();
            if let Some(s) = &self.inner.spans {
                match trace {
                    Some(t) => s.event_args("link.truncate", t.args()),
                    None => s.event("link.truncate"),
                }
            }
        }
        let corrupt_len = damaged.as_ref().map_or(payload.len(), Vec::len);
        if corrupt_len > 0 && draw(self.inner.seed, msg_seq, id, 0x73 ^ copy) < f.corrupt {
            let buf = damaged.get_or_insert_with(|| payload.to_vec());
            for k in 0..f.corrupt_bits.max(1) as u64 {
                let bit = draw(self.inner.seed, msg_seq, id, 0x74 ^ copy ^ (k << 8));
                let pos = (bit * (buf.len() * 8) as f64) as usize;
                let byte = (pos / 8).min(buf.len() - 1);
                buf[byte] ^= 1 << (pos % 8);
            }
            stats.corrupted.inc();
            if let Some(s) = &self.inner.spans {
                match trace {
                    Some(t) => s.event_args("link.corrupt", t.args()),
                    None => s.event("link.corrupt"),
                }
            }
        }
        match damaged {
            Some(v) => Bytes::from(v),
            None => payload.clone(),
        }
    }

    fn broadcast(&self, from: u64, now_s: f64, payload: Bytes, trace: Option<TraceContext>) -> f64 {
        let latency = exchange_time_s(payload.len(), &self.inner.cfg);
        let arrival_s = now_s + latency;
        let msg_seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let base = *self.inner.faults.lock();
        let stats = &self.inner.stats;
        stats.payload_bytes.record(payload.len() as u64);
        let peers = self.inner.peers.lock();
        for (&id, tx) in peers.iter() {
            if id == from {
                continue;
            }
            let f = &self
                .inner
                .overrides
                .lock()
                .get(&id)
                .copied()
                .unwrap_or(base);
            stats.offered.inc();

            // Advance this receiver's Gilbert–Elliott chain one step, then
            // draw the per-state loss decision.
            let loss = {
                let mut states = self.inner.states.lock();
                let st = states.entry(id).or_default();
                let flip = draw(self.inner.seed, msg_seq, id, 0x01);
                if st.bad {
                    if flip < f.p_bad_to_good {
                        st.bad = false;
                    }
                } else if flip < f.p_good_to_bad {
                    st.bad = true;
                }
                if st.bad {
                    f.loss_bad
                } else {
                    f.loss_good
                }
            };
            if draw(self.inner.seed, msg_seq, id, 0x02) < loss {
                stats.dropped.inc();
                if let Some(s) = &self.inner.spans {
                    match trace {
                        Some(t) => s.event_args("link.drop", t.args()),
                        None => s.event("link.drop"),
                    }
                }
                continue;
            }

            // Number of copies: 1, plus one more under the duplication
            // fault. Each copy gets independent payload-damage and timing
            // draws, like genuinely re-received frames would.
            let copies = 1 + u64::from(draw(self.inner.seed, msg_seq, id, 0x03) < f.duplicate);
            for copy in 0..copies {
                let mut when =
                    arrival_s + draw(self.inner.seed, msg_seq, id, 0x04 ^ copy) * f.jitter_s;
                if draw(self.inner.seed, msg_seq, id, 0x05 ^ copy) < f.reorder {
                    when += f.reorder_delay_s;
                    stats.reordered.inc();
                    if let Some(s) = &self.inner.spans {
                        match trace {
                            Some(t) => s.event_args("link.reorder", t.args()),
                            None => s.event("link.reorder"),
                        }
                    }
                }
                let body = self.damage_payload(f, &payload, msg_seq, id, copy, trace);
                if copy > 0 {
                    stats.duplicated.inc();
                    if let Some(s) = &self.inner.spans {
                        match trace {
                            Some(t) => s.event_args("link.duplicate", t.args()),
                            None => s.event("link.duplicate"),
                        }
                    }
                }
                stats.delivered.inc();
                let _ = tx.send(Delivery {
                    from,
                    arrival_s: when,
                    payload: body,
                });
            }
        }
        arrival_s
    }
}

impl Default for V2vLink {
    fn default() -> Self {
        Self::new()
    }
}

impl Endpoint {
    /// Broadcasts a payload at simulated time `now_s`; returns the nominal
    /// arrival time at the receivers (send time + WSM transfer latency,
    /// before any fault-injected jitter).
    pub fn broadcast(&self, now_s: f64, payload: Bytes) -> f64 {
        self.link.broadcast(self.id, now_s, payload, None)
    }

    /// [`broadcast`](Self::broadcast) for a payload carrying a
    /// [`TraceContext`]: the link's fault events (`link.drop`,
    /// `link.corrupt`, …) for this transmission join the payload's causal
    /// trace, so a merged fleet trace shows *which* beacon the channel
    /// damaged. The payload bytes are untouched — the trace rides the
    /// encoded snapshot itself.
    pub fn broadcast_traced(&self, now_s: f64, payload: Bytes, trace: TraceContext) -> f64 {
        self.link.broadcast(self.id, now_s, payload, Some(trace))
    }

    /// Moves everything waiting on the channel into the pending buffer and
    /// sorts it by arrival time (stable, so equal arrivals keep send
    /// order).
    fn buffer_incoming(&self) {
        let mut pending = self.pending.borrow_mut();
        let before = pending.len();
        pending.extend(self.rx.try_iter());
        if pending.len() > before {
            pending.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        }
    }

    /// Surfaces every message whose arrival time has passed at simulated
    /// time `now_s`, in arrival order. Messages still "on the air" stay
    /// buffered for a later poll — this is the time-aware replacement for
    /// [`Endpoint::poll`], which would let a simulation look into the
    /// future.
    pub fn poll_until(&self, now_s: f64) -> Vec<Delivery> {
        self.buffer_incoming();
        let mut pending = self.pending.borrow_mut();
        let k = pending.partition_point(|d| d.arrival_s <= now_s);
        pending.drain(..k).collect()
    }

    /// Drains every message received so far, in arrival order, regardless
    /// of whether its arrival time has passed. Prefer
    /// [`Endpoint::poll_until`] in time-stepped simulations; `poll` is for
    /// threaded examples and tests that do not track simulated time.
    pub fn poll(&self) -> Vec<Delivery> {
        self.buffer_incoming();
        self.pending.borrow_mut().drain(..).collect()
    }

    /// Messages buffered but not yet surfaced (arrival time in the
    /// future at the last [`Endpoint::poll_until`]).
    pub fn pending_len(&self) -> usize {
        self.buffer_incoming();
        self.pending.borrow().len()
    }

    /// Blocks until a message arrives (for threaded examples/tests).
    /// Buffered messages are surfaced first, earliest arrival first.
    pub fn recv_blocking(&self) -> Option<Delivery> {
        {
            let mut pending = self.pending.borrow_mut();
            if !pending.is_empty() {
                return Some(pending.remove(0));
            }
        }
        self.rx.recv().ok()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.link.inner.peers.lock().remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let link = V2vLink::new();
        let a = link.join(1);
        let b = link.join(2);
        let c = link.join(3);
        assert_eq!(link.peer_count(), 3);
        let arrival = a.broadcast(10.0, Bytes::from_static(b"ctx"));
        assert!(arrival > 10.0);
        assert!(a.poll().is_empty(), "sender must not hear itself");
        let db = b.poll();
        let dc = c.poll();
        assert_eq!(db.len(), 1);
        assert_eq!(dc.len(), 1);
        assert_eq!(db[0].from, 1);
        assert_eq!(db[0].payload, Bytes::from_static(b"ctx"));
        assert_eq!(db[0].arrival_s, arrival);
    }

    #[test]
    fn arrival_time_includes_wsm_latency() {
        let link = V2vLink::new();
        let a = link.join(1);
        let _b = link.join(2);
        // 3000 bytes → 3 packets → 12 ms.
        let arrival = a.broadcast(0.0, Bytes::from(vec![0u8; 3000]));
        assert!((arrival - 0.012).abs() < 1e-9);
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let run = |seed: u64| {
            let link = V2vLink::with_faults(FaultConfig::iid_loss(0.5), seed);
            let a = link.join(1);
            let b = link.join(2);
            for i in 0..200 {
                a.broadcast(i as f64, Bytes::from_static(b"x"));
            }
            b.poll().len()
        };
        let n1 = run(7);
        let n2 = run(7);
        assert_eq!(n1, n2, "loss must be deterministic");
        assert!(n1 > 60 && n1 < 140, "≈50 % of 200 expected, got {n1}");
    }

    #[test]
    fn poll_until_respects_arrival_time() {
        let link = V2vLink::new();
        let a = link.join(1);
        let b = link.join(2);
        // Two messages in flight: one arriving at ~1.004, one at ~5.004.
        a.broadcast(1.0, Bytes::from_static(b"early"));
        a.broadcast(5.0, Bytes::from_static(b"late"));
        assert!(b.poll_until(0.5).is_empty(), "nothing has arrived yet");
        assert_eq!(b.pending_len(), 2);
        let first = b.poll_until(2.0);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].payload, Bytes::from_static(b"early"));
        assert_eq!(b.pending_len(), 1);
        // The later message only surfaces once time has passed it.
        assert!(b.poll_until(4.9).is_empty());
        let second = b.poll_until(6.0);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].payload, Bytes::from_static(b"late"));
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn reordering_inverts_send_order_but_not_arrival_order() {
        let faults = FaultConfig {
            reorder: 0.5,
            reorder_delay_s: 0.05,
            ..FaultConfig::ideal()
        };
        let link = V2vLink::with_faults(faults, 3);
        let a = link.join(1);
        let b = link.join(2);
        // Closely-spaced sends: a held-back message is overtaken by the
        // next few.
        for i in 0..50u8 {
            a.broadcast(i as f64 * 0.001, Bytes::from(vec![i]));
        }
        let all = b.poll_until(100.0);
        assert_eq!(all.len(), 50);
        assert!(
            all.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "poll_until must surface messages in arrival order"
        );
        let send_order: Vec<u8> = all.iter().map(|d| d.payload[0]).collect();
        assert!(
            send_order.windows(2).any(|w| w[0] > w[1]),
            "expected at least one overtaken message, got {send_order:?}"
        );
    }

    #[test]
    fn bursty_loss_is_bursty_and_deterministic() {
        // A chain that spends ~half its time in a bad state losing 90 %.
        let faults = FaultConfig::bursty(0.2, 0.2, 0.9);
        let run = |seed: u64| {
            let link = V2vLink::with_faults(faults, seed);
            let a = link.join(1);
            let b = link.join(2);
            let mut received = Vec::new();
            for i in 0..400 {
                a.broadcast(i as f64, Bytes::from_static(b"x"));
                received.push(!b.poll_until(i as f64 + 1.0).is_empty());
            }
            received
        };
        let r1 = run(11);
        let r2 = run(11);
        assert_eq!(r1, r2, "fault injection must be deterministic");
        let delivered = r1.iter().filter(|&&x| x).count();
        let expected = (1.0 - faults.expected_loss()) * 400.0;
        assert!(
            (delivered as f64 - expected).abs() < 80.0,
            "delivered {delivered}, expected ≈{expected}"
        );
        // Burstiness: consecutive losses must be far likelier than under
        // i.i.d. loss at the same rate. Count loss runs of length ≥ 3.
        let mut run_len = 0usize;
        let mut long_runs = 0usize;
        for &ok in &r1 {
            if ok {
                run_len = 0;
            } else {
                run_len += 1;
                if run_len == 3 {
                    long_runs += 1;
                }
            }
        }
        assert!(
            long_runs >= 5,
            "expected loss bursts, got {long_runs} runs ≥ 3"
        );
    }

    #[test]
    fn duplication_and_damage_counters() {
        let faults = FaultConfig {
            duplicate: 0.5,
            truncate: 0.3,
            corrupt: 0.3,
            ..FaultConfig::ideal()
        };
        let link = V2vLink::with_faults(faults, 99);
        let a = link.join(1);
        let b = link.join(2);
        for i in 0..200 {
            a.broadcast(i as f64, Bytes::from(vec![0xABu8; 64]));
        }
        let got = b.poll_until(1e9);
        let stats = link.stats();
        assert_eq!(stats.offered, 200);
        assert_eq!(stats.delivered as usize, got.len());
        assert!(got.len() > 200, "duplicates must inflate delivery count");
        assert!(stats.duplicated > 50, "stats {stats:?}");
        assert!(stats.truncated > 20, "stats {stats:?}");
        assert!(stats.corrupted > 20, "stats {stats:?}");
        // Damaged payloads really differ from the original.
        let pristine = Bytes::from(vec![0xABu8; 64]);
        let damaged = got.iter().filter(|d| d.payload != pristine).count();
        assert!(damaged > 20, "only {damaged} damaged payloads");
        // Truncation only ever shortens; nothing grows past the original.
        assert!(got.iter().all(|d| d.payload.len() <= 64));
        assert!(got.iter().any(|d| d.payload.len() < 64));
    }

    #[test]
    fn shared_registry_and_spans_see_fault_events() {
        let reg = Arc::new(Registry::new());
        let spans = Arc::new(SpanRecorder::new(256));
        let faults = FaultConfig {
            duplicate: 0.4,
            truncate: 0.2,
            reorder: 0.2,
            reorder_delay_s: 0.05,
            ..FaultConfig::iid_loss(0.3)
        };
        let link =
            V2vLink::with_faults_in(faults, 42, Arc::clone(&reg)).with_spans(Arc::clone(&spans));
        assert!(Arc::ptr_eq(link.registry(), &reg));
        let a = link.join(1);
        let b = link.join(2);
        let before = link.stats();
        for i in 0..150 {
            a.broadcast(i as f64, Bytes::from(vec![0x5Au8; 96]));
        }
        let _ = b.poll_until(1e9);
        let snap = reg.snapshot();
        let stats = link.stats();
        assert_eq!(snap.counter("rups_v2v_link_offered"), Some(stats.offered));
        assert_eq!(snap.counter("rups_v2v_link_dropped"), Some(stats.dropped));
        assert_eq!(
            snap.counter("rups_v2v_link_delivered"),
            Some(stats.delivered)
        );
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.truncated > 0);
        // Every broadcast records its payload size.
        let h = snap
            .histogram("rups_v2v_link_payload_bytes")
            .expect("payload histogram registered");
        assert_eq!(h.count, 150);
        // Delta brackets the burst exactly.
        let d = stats.delta(&before);
        assert_eq!(d.offered, 150);
        assert!(d.delivery_rate() > 0.0);
        if cfg!(feature = "obs") {
            let names: Vec<&str> = spans.recent().iter().map(|r| r.name).collect();
            assert!(names.contains(&"link.drop"));
            assert!(names.contains(&"link.duplicate"));
            assert!(names.contains(&"link.truncate"));
        }
    }

    #[test]
    fn set_faults_swaps_the_model_mid_run() {
        let link = V2vLink::with_faults(FaultConfig::ideal(), 21);
        let a = link.join(1);
        let b = link.join(2);
        for i in 0..100 {
            a.broadcast(i as f64, Bytes::from_static(b"x"));
        }
        assert_eq!(b.poll_until(1e9).len(), 100, "ideal phase is lossless");
        // Stage a total blackout, then recover.
        link.set_faults(FaultConfig::iid_loss(1.0)).unwrap();
        assert_eq!(link.faults().loss_good, 1.0);
        for i in 100..200 {
            a.broadcast(i as f64, Bytes::from_static(b"x"));
        }
        assert!(b.poll_until(1e9).is_empty(), "blackout phase drops all");
        link.set_faults(FaultConfig::ideal()).unwrap();
        for i in 200..300 {
            a.broadcast(i as f64, Bytes::from_static(b"x"));
        }
        assert_eq!(b.poll_until(1e9).len(), 100, "recovery is lossless");
        // An invalid swap is rejected and leaves the model untouched.
        let bad = FaultConfig {
            corrupt: 2.0,
            ..FaultConfig::ideal()
        };
        assert!(link.set_faults(bad).is_err());
        assert_eq!(link.faults(), FaultConfig::ideal());
    }

    #[test]
    fn receiver_override_targets_one_node() {
        let link = V2vLink::with_faults(FaultConfig::ideal(), 8);
        let a = link.join(1);
        let b = link.join(2);
        let c = link.join(3);
        link.set_receiver_faults(2, Some(FaultConfig::iid_loss(1.0)))
            .unwrap();
        for i in 0..80 {
            a.broadcast(i as f64, Bytes::from_static(b"x"));
        }
        assert!(b.poll_until(1e9).is_empty(), "targeted node hears nothing");
        assert_eq!(c.poll_until(1e9).len(), 80, "bystander unaffected");
        // Clearing the override restores the link-wide model.
        link.set_receiver_faults(2, None).unwrap();
        for i in 80..120 {
            a.broadcast(i as f64, Bytes::from_static(b"x"));
        }
        assert_eq!(b.poll_until(1e9).len(), 40);
        assert!(link
            .set_receiver_faults(
                2,
                Some(FaultConfig {
                    truncate: -1.0,
                    ..FaultConfig::ideal()
                })
            )
            .is_err());
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let faults = FaultConfig {
            jitter_s: 0.5,
            ..FaultConfig::ideal()
        };
        let link = V2vLink::with_faults(faults, 5);
        let a = link.join(1);
        let b = link.join(2);
        for _ in 0..50 {
            a.broadcast(0.0, Bytes::from_static(b"x"));
        }
        let got = b.poll_until(10.0);
        assert_eq!(got.len(), 50);
        let min = got.iter().map(|d| d.arrival_s).fold(f64::MAX, f64::min);
        let max = got.iter().map(|d| d.arrival_s).fold(f64::MIN, f64::max);
        assert!(max - min > 0.1, "jitter spread {}", max - min);
        assert!(max < 0.004 + 0.5 + 1e-9, "jitter bounded by jitter_s");
    }

    #[test]
    #[should_panic(expected = "invalid fault configuration")]
    fn invalid_fault_config_rejected() {
        let _ = V2vLink::with_faults(
            FaultConfig {
                corrupt: 2.0,
                ..FaultConfig::ideal()
            },
            0,
        );
    }

    #[test]
    fn departed_nodes_stop_receiving() {
        let link = V2vLink::new();
        let a = link.join(1);
        {
            let _b = link.join(2);
        } // b drops here
        assert_eq!(link.peer_count(), 1);
        a.broadcast(0.0, Bytes::from_static(b"x"));
        // No panic, nothing delivered anywhere.
        assert!(a.poll().is_empty());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_ids_rejected() {
        let link = V2vLink::new();
        let _a = link.join(1);
        let _dup = link.join(1);
    }

    #[test]
    fn threaded_exchange() {
        let link = V2vLink::new();
        let a = link.join(1);
        let b = link.join(2);
        let handle = std::thread::spawn(move || {
            let d = b.recv_blocking().expect("delivery");
            (d.from, d.payload.len())
        });
        a.broadcast(1.0, Bytes::from(vec![7u8; 512]));
        let (from, len) = handle.join().unwrap();
        assert_eq!(from, 1);
        assert_eq!(len, 512);
    }

    #[test]
    fn recv_blocking_surfaces_buffered_first() {
        let link = V2vLink::new();
        let a = link.join(1);
        let b = link.join(2);
        a.broadcast(5.0, Bytes::from_static(b"future"));
        // poll_until buffers the not-yet-arrived message...
        assert!(b.poll_until(0.0).is_empty());
        assert_eq!(b.pending_len(), 1);
        // ...and recv_blocking still hands it out rather than deadlocking.
        let d = b.recv_blocking().unwrap();
        assert_eq!(d.payload, Bytes::from_static(b"future"));
    }
}
