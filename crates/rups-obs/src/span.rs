//! A lightweight span/tracing facade with a ring-buffer recorder.
//!
//! A *span* is a named interval of wall-clock time; an *event* is a
//! zero-duration span. Completed records land in a fixed-capacity ring
//! buffer (newest overwrite oldest), cheap enough to leave enabled in
//! experiments while staying bounded. The whole facade is gated on the
//! `obs` feature: with it disabled, [`SpanRecorder::span`] returns an inert
//! guard, no clock is read, nothing is stored, and the types compile down
//! to nothing.
//!
//! ```
//! use rups_obs::SpanRecorder;
//!
//! let rec = SpanRecorder::new(64);
//! {
//!     let _s = rec.span("engine.query");
//!     // ... work ...
//! }
//! rec.event("link.drop");
//! # #[cfg(feature = "obs")]
//! assert_eq!(rec.recorded_total(), 2);
//! ```

use std::sync::Mutex;

/// A bounded bag of structured span arguments: up to [`SpanArgs::MAX`]
/// `(key, value)` pairs of static keys and integer values (neighbour ids,
/// epochs, window lengths, …). `Copy` and allocation-free so it rides along
/// in the span ring without widening the hot path; pairs pushed past the
/// cap are silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanArgs {
    entries: [(&'static str, i64); Self::MAX],
    len: u8,
}

impl SpanArgs {
    /// Maximum number of `(key, value)` pairs one record can carry.
    pub const MAX: usize = 4;

    /// An empty argument bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the bag with `(key, value)` appended (dropped when already
    /// at capacity), builder-style:
    /// `SpanArgs::new().with("neighbour", 7).with("epoch", 42)`.
    pub fn with(mut self, key: &'static str, value: i64) -> Self {
        if (self.len as usize) < Self::MAX {
            self.entries[self.len as usize] = (key, value);
            self.len += 1;
        }
        self
    }

    /// Number of pairs held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no pairs are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The held pairs, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.entries[..self.len as usize].iter().copied()
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<i64> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One completed span (or event, when `dur_ns == 0` by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, e.g. `"engine.context_rebuild"`.
    pub name: &'static str,
    /// Start offset in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for point events).
    pub dur_ns: u64,
    /// Structured arguments attached to the record (empty by default).
    pub args: SpanArgs,
}

#[cfg(feature = "obs")]
struct Ring {
    slots: Vec<SpanRecord>,
    /// Next write position.
    next: usize,
    /// Records ever written (so readers can tell wraparound from fill).
    total: u64,
}

/// Fixed-capacity recorder of completed spans.
pub struct SpanRecorder {
    capacity: usize,
    #[cfg(feature = "obs")]
    origin: std::time::Instant,
    #[cfg(feature = "obs")]
    ring: Mutex<Ring>,
    #[cfg(not(feature = "obs"))]
    _inert: Mutex<()>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("capacity", &self.capacity)
            .field("recorded_total", &self.recorded_total())
            .finish()
    }
}

impl SpanRecorder {
    /// A recorder keeping the most recent `capacity` records.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span ring needs at least one slot");
        SpanRecorder {
            capacity,
            #[cfg(feature = "obs")]
            origin: std::time::Instant::now(),
            #[cfg(feature = "obs")]
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity),
                next: 0,
                total: 0,
            }),
            #[cfg(not(feature = "obs"))]
            _inert: Mutex::new(()),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Opens a span; it records itself when the guard drops. Inert (no
    /// clock read, nothing stored) without the `obs` feature.
    #[inline]
    pub fn span<'a>(&'a self, name: &'static str) -> SpanGuard<'a> {
        self.span_args(name, SpanArgs::new())
    }

    /// Like [`span`](Self::span) but with structured arguments attached to
    /// the eventual record (the guard can add more via
    /// [`SpanGuard::set_args`] before it drops).
    #[inline]
    pub fn span_args<'a>(&'a self, name: &'static str, args: SpanArgs) -> SpanGuard<'a> {
        #[cfg(feature = "obs")]
        {
            SpanGuard {
                rec: self,
                name,
                start: std::time::Instant::now(),
                args,
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = (name, args);
            SpanGuard {
                _rec: std::marker::PhantomData,
            }
        }
    }

    /// Records a zero-duration event.
    #[inline]
    pub fn event(&self, name: &'static str) {
        self.event_args(name, SpanArgs::new());
    }

    /// Records a zero-duration event carrying structured arguments.
    #[inline]
    pub fn event_args(&self, name: &'static str, args: SpanArgs) {
        #[cfg(feature = "obs")]
        self.push(SpanRecord {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            args,
        });
        #[cfg(not(feature = "obs"))]
        let _ = (name, args);
    }

    /// Records ever written (including ones already overwritten). Always 0
    /// without the `obs` feature.
    pub fn recorded_total(&self) -> u64 {
        #[cfg(feature = "obs")]
        {
            self.ring.lock().expect("span ring poisoned").total
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }

    /// The retained records, oldest first. Empty without the `obs`
    /// feature.
    pub fn recent(&self) -> Vec<SpanRecord> {
        #[cfg(feature = "obs")]
        {
            let ring = self.ring.lock().expect("span ring poisoned");
            if ring.slots.len() < self.capacity {
                ring.slots.clone()
            } else {
                let mut out = Vec::with_capacity(self.capacity);
                out.extend_from_slice(&ring.slots[ring.next..]);
                out.extend_from_slice(&ring.slots[..ring.next]);
                out
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            Vec::new()
        }
    }

    /// The records written since a previous
    /// [`recorded_total`](Self::recorded_total) watermark, oldest first, plus the new
    /// watermark to pass next time. Records that already fell off the ring
    /// (more than `capacity` writes since the watermark) are lost — the
    /// returned watermark still advances past them, so a slow reader skips
    /// rather than stalls. `(watermark, empty)` without the `obs` feature.
    ///
    /// This is the feed for batch consumers such as
    /// [`TailSampler::ingest`](crate::TailSampler::ingest): poll it
    /// between epochs and hand the batch over, without adding anything to
    /// the record hot path.
    pub fn take_since(&self, watermark: u64) -> (u64, Vec<SpanRecord>) {
        #[cfg(feature = "obs")]
        {
            let ring = self.ring.lock().expect("span ring poisoned");
            let new = ring.total.saturating_sub(watermark);
            let avail = (new as usize).min(ring.slots.len());
            if avail == 0 {
                return (ring.total, Vec::new());
            }
            // Oldest-first view of the ring, then its `avail`-record tail.
            let mut out = Vec::with_capacity(avail);
            if ring.slots.len() < self.capacity {
                out.extend_from_slice(&ring.slots[ring.slots.len() - avail..]);
            } else {
                let ordered: Vec<SpanRecord> = ring.slots[ring.next..]
                    .iter()
                    .chain(ring.slots[..ring.next].iter())
                    .copied()
                    .collect();
                out.extend_from_slice(&ordered[ordered.len() - avail..]);
            }
            (ring.total, out)
        }
        #[cfg(not(feature = "obs"))]
        {
            (watermark, Vec::new())
        }
    }

    #[cfg(feature = "obs")]
    fn push(&self, record: SpanRecord) {
        let mut ring = self.ring.lock().expect("span ring poisoned");
        ring.total += 1;
        if ring.slots.len() < self.capacity {
            ring.slots.push(record);
            return;
        }
        let at = ring.next;
        ring.slots[at] = record;
        ring.next = (at + 1) % self.capacity;
    }
}

/// Guard for an open span; records it into the recorder on drop.
#[must_use = "a dropped guard closes the span immediately; bind it to a variable"]
pub struct SpanGuard<'a> {
    #[cfg(feature = "obs")]
    rec: &'a SpanRecorder,
    #[cfg(feature = "obs")]
    name: &'static str,
    #[cfg(feature = "obs")]
    start: std::time::Instant,
    #[cfg(feature = "obs")]
    args: SpanArgs,
    #[cfg(not(feature = "obs"))]
    _rec: std::marker::PhantomData<&'a SpanRecorder>,
}

impl SpanGuard<'_> {
    /// Replaces the arguments the record will carry when the guard drops
    /// (for values only known mid-span, e.g. a chosen window length).
    #[inline]
    pub fn set_args(&mut self, args: SpanArgs) {
        #[cfg(feature = "obs")]
        {
            self.args = args;
        }
        #[cfg(not(feature = "obs"))]
        let _ = args;
    }
}

#[cfg(feature = "obs")]
impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let start_ns = self.start.duration_since(self.rec.origin).as_nanos() as u64;
        self.rec.push(SpanRecord {
            name: self.name,
            start_ns,
            dur_ns,
            args: self.args,
        });
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_in_order() {
        let rec = SpanRecorder::new(8);
        {
            let _a = rec.span("a");
        }
        rec.event("b");
        let got = rec.recent();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "a");
        assert_eq!(got[1].name, "b");
        assert_eq!(got[1].dur_ns, 0, "events are zero-duration");
        assert!(got[0].start_ns <= got[1].start_ns);
        assert_eq!(rec.recorded_total(), 2);
    }

    #[test]
    fn ring_wraps_around_keeping_the_newest() {
        let rec = SpanRecorder::new(4);
        let names: [&'static str; 10] =
            ["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];
        for name in names {
            rec.event(name);
        }
        assert_eq!(rec.recorded_total(), 10);
        let got = rec.recent();
        assert_eq!(got.len(), 4, "capacity bounds retention");
        let kept: Vec<&str> = got.iter().map(|r| r.name).collect();
        assert_eq!(kept, ["e6", "e7", "e8", "e9"], "oldest first, newest kept");
        // Timestamps stay monotone across the wrap.
        assert!(got.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn wraparound_is_exact_at_capacity_boundaries() {
        let rec = SpanRecorder::new(3);
        rec.event("a");
        rec.event("b");
        rec.event("c"); // exactly full, no wrap yet
        assert_eq!(
            rec.recent().iter().map(|r| r.name).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        rec.event("d"); // first overwrite
        assert_eq!(
            rec.recent().iter().map(|r| r.name).collect::<Vec<_>>(),
            ["b", "c", "d"]
        );
    }

    #[test]
    fn single_slot_ring() {
        let rec = SpanRecorder::new(1);
        rec.event("x");
        rec.event("y");
        let got = rec.recent();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "y");
        assert_eq!(rec.recorded_total(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = SpanRecorder::new(0);
    }

    #[test]
    fn guard_measures_across_its_whole_scope() {
        // The `#[must_use]` on SpanGuard exists because `rec.span("x");`
        // drops immediately and records ~0 ns. Held across a scope doing
        // real work, the guard must measure that work.
        let rec = SpanRecorder::new(8);
        let sleep = std::time::Duration::from_millis(15);
        {
            let _g = rec.span("work");
            std::thread::sleep(sleep);
        }
        let got = rec.recent();
        assert_eq!(got.len(), 1);
        assert!(
            got[0].dur_ns >= sleep.as_nanos() as u64 / 2,
            "span must cover the slept scope, got {} ns",
            got[0].dur_ns
        );
    }

    #[test]
    fn args_ride_along_in_the_ring() {
        let rec = SpanRecorder::new(8);
        rec.event_args(
            "inbox.accept",
            SpanArgs::new().with("neighbour", 7).with("epoch", 42),
        );
        {
            let mut g = rec.span_args("engine.query", SpanArgs::new().with("neighbour", 7));
            g.set_args(
                SpanArgs::new()
                    .with("neighbour", 7)
                    .with("window_len_m", 85),
            );
        }
        let got = rec.recent();
        assert_eq!(got[0].args.get("neighbour"), Some(7));
        assert_eq!(got[0].args.get("epoch"), Some(42));
        assert_eq!(got[0].args.len(), 2);
        assert_eq!(got[1].args.get("window_len_m"), Some(85));
        assert_eq!(got[1].args.get("missing"), None);
    }

    #[test]
    fn take_since_reads_incrementally_and_skips_overwritten() {
        let rec = SpanRecorder::new(4);
        rec.event("a");
        rec.event("b");
        let (mark, batch) = rec.take_since(0);
        assert_eq!(mark, 2);
        assert_eq!(batch.iter().map(|r| r.name).collect::<Vec<_>>(), ["a", "b"]);
        // Nothing new: empty batch, watermark unchanged.
        let (mark2, batch2) = rec.take_since(mark);
        assert_eq!((mark2, batch2.len()), (2, 0));
        // Write past capacity since the watermark: the lost records are
        // skipped, only the retained tail comes back.
        for name in ["c", "d", "e", "f", "g"] {
            rec.event(name);
        }
        let (mark3, batch3) = rec.take_since(mark);
        assert_eq!(mark3, 7);
        assert_eq!(
            batch3.iter().map(|r| r.name).collect::<Vec<_>>(),
            ["d", "e", "f", "g"],
            "capacity bounds the catch-up"
        );
    }

    #[test]
    fn args_cap_drops_excess_pairs() {
        let mut a = SpanArgs::new();
        for i in 0..10 {
            a = a.with("k", i);
        }
        assert_eq!(a.len(), SpanArgs::MAX);
        assert!(!a.is_empty());
        assert_eq!(a.iter().count(), SpanArgs::MAX);
    }
}
