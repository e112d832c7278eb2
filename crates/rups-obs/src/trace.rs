//! Chrome trace-event JSON export of a [`SpanRecorder`](crate::SpanRecorder) ring.
//!
//! [`chrome_trace`] renders recorded spans into the Trace Event Format
//! that `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: one JSON object with a `traceEvents` array. Spans become
//! `ph: "X"` complete events (microsecond `ts`/`dur`), zero-duration
//! events become `ph: "i"` thread-scoped instants, and every component is
//! mapped onto its own named track (`ph: "M"` `thread_name` metadata)
//! keyed by the span-name prefix before the first `.` — so `engine.*`,
//! `inbox.*`, `link.*` and `codec.*` records land on separate rows of the
//! timeline. [`SpanArgs`] pairs surface as the event's `args` object.

use crate::skew::ClockModel;
use crate::span::{SpanArgs, SpanRecord};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// One event of the Chrome Trace Event Format. Only the fields this
/// exporter emits are modelled; viewers ignore whatever they don't need
/// (`dur` on instants, `s` on complete events).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeTraceEvent {
    /// Event name (the span name, or `thread_name` for metadata).
    pub name: String,
    /// Category: the component the event belongs to.
    pub cat: String,
    /// Phase: `"X"` complete, `"i"` instant, `"M"` metadata.
    pub ph: String,
    /// Start timestamp in microseconds since the recorder's origin.
    pub ts: f64,
    /// Duration in microseconds (0 for instants and metadata).
    pub dur: f64,
    /// Process id; this exporter uses a single process `1`.
    pub pid: u64,
    /// Thread id: one per component track.
    pub tid: u64,
    /// Instant scope (`"t"` thread-scoped for instants, empty otherwise).
    pub s: String,
    /// Structured arguments (`{}` when none).
    pub args: Value,
}

/// A loadable trace: the object form of the format, `{"traceEvents": […]}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(non_snake_case)]
pub struct ChromeTrace {
    /// The events, metadata first, then records oldest-first.
    pub traceEvents: Vec<ChromeTraceEvent>,
}

impl ChromeTrace {
    /// Events that represent recorded spans/instants (phases `X` and `i`),
    /// i.e. everything except per-track metadata.
    pub fn span_events(&self) -> impl Iterator<Item = &ChromeTraceEvent> {
        self.traceEvents.iter().filter(|e| e.ph != "M")
    }
}

/// The track a span name belongs to: the prefix before the first `.`
/// (`"engine.query"` → `"engine"`), or the whole name when undotted.
pub fn component_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders one span argument as a JSON value. Non-negative values map to
/// `UInt` — the variant the JSON parser produces for unsigned literals —
/// so an exported trace compares equal after a parse round-trip.
pub(crate) fn arg_value(v: i64) -> Value {
    match u64::try_from(v) {
        Ok(u) => Value::UInt(u),
        Err(_) => Value::Int(v),
    }
}

fn args_value(args: &SpanArgs) -> Value {
    Value::Map(
        args.iter()
            .map(|(k, v)| (k.to_string(), arg_value(v)))
            .collect(),
    )
}

/// Renders span records (oldest first, as
/// [`SpanRecorder::recent`](crate::SpanRecorder::recent)
/// returns them) into a loadable [`ChromeTrace`].
pub fn chrome_trace(records: &[SpanRecord]) -> ChromeTrace {
    // Stable track order: components sorted by name, tid assigned 1-based.
    let mut components: Vec<&str> = records.iter().map(|r| component_of(r.name)).collect();
    components.sort_unstable();
    components.dedup();
    let tid_of = |name: &str| -> u64 {
        let c = component_of(name);
        components.iter().position(|&x| x == c).unwrap_or(0) as u64 + 1
    };

    let mut events = Vec::with_capacity(components.len() + records.len());
    for (i, c) in components.iter().enumerate() {
        events.push(ChromeTraceEvent {
            name: "thread_name".into(),
            cat: "__metadata".into(),
            ph: "M".into(),
            ts: 0.0,
            dur: 0.0,
            pid: 1,
            tid: i as u64 + 1,
            s: String::new(),
            args: Value::Map(vec![("name".into(), Value::Str((*c).into()))]),
        });
    }
    for r in records {
        let instant = r.dur_ns == 0;
        events.push(ChromeTraceEvent {
            name: r.name.into(),
            cat: component_of(r.name).into(),
            ph: if instant { "i" } else { "X" }.into(),
            ts: r.start_ns as f64 / 1_000.0,
            dur: r.dur_ns as f64 / 1_000.0,
            pid: 1,
            tid: tid_of(r.name),
            s: if instant { "t" } else { "" }.into(),
            args: args_value(&r.args),
        });
    }
    ChromeTrace {
        traceEvents: events,
    }
}

/// One node's contribution to a merged fleet trace: its span ring, the
/// process identity it renders under, and the clock model mapping its
/// local timestamps onto the fleet timebase.
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// Process id in the merged trace — by convention the vehicle id.
    pub pid: u64,
    /// Human-readable process name (e.g. `"vehicle 3"`).
    pub name: String,
    /// This node's clock relative to the fleet timebase; records are
    /// aligned through [`ClockModel::to_fleet_ns`] before export.
    pub clock: ClockModel,
    /// The node's retained span records, oldest first.
    pub records: Vec<SpanRecord>,
}

impl NodeTrace {
    /// A node trace with a synchronised clock.
    pub fn new(pid: u64, name: impl Into<String>, records: Vec<SpanRecord>) -> Self {
        NodeTrace {
            pid,
            name: name.into(),
            clock: ClockModel::IDENTITY,
            records,
        }
    }

    /// The same trace with its clock model set.
    pub fn with_clock(mut self, clock: ClockModel) -> Self {
        self.clock = clock;
        self
    }
}

/// Output bounds for [`merged_chrome_trace_bounded`]: a fleet merge pulls
/// from N rings whose capacity the merging side does not control, so the
/// exporter caps what any one node can contribute — a pathological ring
/// (or a hostile process name) must not be able to produce an unloadable
/// multi-GB trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeLimits {
    /// Newest records kept per node; older ones are dropped.
    pub max_spans_per_node: usize,
    /// Longest process-name string emitted, in characters; longer names
    /// are truncated with a `…` marker.
    pub max_name_chars: usize,
}

impl Default for MergeLimits {
    /// Generous defaults: 64 Ki spans per node (a few MB of JSON each at
    /// most) and 256-character process names.
    fn default() -> Self {
        MergeLimits {
            max_spans_per_node: 65_536,
            max_name_chars: 256,
        }
    }
}

/// Truncates to at most `max_chars` characters (on a char boundary),
/// appending `…` when anything was cut.
fn truncate_chars(s: &str, max_chars: usize) -> String {
    match s.char_indices().nth(max_chars) {
        None => s.to_string(),
        Some((byte, _)) => {
            let mut out = String::with_capacity(byte + 3);
            out.push_str(&s[..byte]);
            out.push('…');
            out
        }
    }
}

/// Renders N per-node span rings into one multi-process Chrome trace:
/// every node becomes its own process (`pid` = vehicle id, named by a
/// `process_name` metadata event), components become per-process threads,
/// and every timestamp is aligned onto the fleet timebase through the
/// node's [`ClockModel`] — so one causal trace (events sharing a `trace`
/// arg minted by [`TraceContext`](crate::TraceContext)) reads as a single
/// left-to-right chain across vehicles. Span events are sorted by aligned
/// timestamp; aligned times before the fleet origin clamp to 0.
///
/// Equivalent to [`merged_chrome_trace_bounded`] with
/// [`MergeLimits::default`].
pub fn merged_chrome_trace(nodes: &[NodeTrace]) -> ChromeTrace {
    merged_chrome_trace_bounded(nodes, MergeLimits::default())
}

/// [`merged_chrome_trace`] under explicit output bounds: each node
/// contributes at most `limits.max_spans_per_node` of its *newest*
/// records, and process names longer than `limits.max_name_chars` are
/// truncated — so output size is `O(nodes × max_spans_per_node)` no
/// matter what the rings hold.
pub fn merged_chrome_trace_bounded(nodes: &[NodeTrace], limits: MergeLimits) -> ChromeTrace {
    let mut meta = Vec::new();
    let mut spans = Vec::new();
    for node in nodes {
        let tail_at = node
            .records
            .len()
            .saturating_sub(limits.max_spans_per_node.max(1));
        let records = &node.records[tail_at..];
        meta.push(ChromeTraceEvent {
            name: "process_name".into(),
            cat: "__metadata".into(),
            ph: "M".into(),
            ts: 0.0,
            dur: 0.0,
            pid: node.pid,
            tid: 0,
            s: String::new(),
            args: Value::Map(vec![(
                "name".into(),
                Value::Str(truncate_chars(&node.name, limits.max_name_chars.max(1))),
            )]),
        });
        let mut components: Vec<&str> = records.iter().map(|r| component_of(r.name)).collect();
        components.sort_unstable();
        components.dedup();
        for (i, c) in components.iter().enumerate() {
            meta.push(ChromeTraceEvent {
                name: "thread_name".into(),
                cat: "__metadata".into(),
                ph: "M".into(),
                ts: 0.0,
                dur: 0.0,
                pid: node.pid,
                tid: i as u64 + 1,
                s: String::new(),
                args: Value::Map(vec![("name".into(), Value::Str((*c).into()))]),
            });
        }
        for r in records {
            let instant = r.dur_ns == 0;
            let c = component_of(r.name);
            let tid = components.iter().position(|&x| x == c).unwrap_or(0) as u64 + 1;
            spans.push(ChromeTraceEvent {
                name: r.name.into(),
                cat: c.into(),
                ph: if instant { "i" } else { "X" }.into(),
                ts: node.clock.to_fleet_ns(r.start_ns as f64).max(0.0) / 1_000.0,
                dur: r.dur_ns as f64 / 1_000.0,
                pid: node.pid,
                tid,
                s: if instant { "t" } else { "" }.into(),
                args: args_value(&r.args),
            });
        }
    }
    spans.sort_by(|a, b| a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal));
    meta.extend(spans);
    ChromeTrace { traceEvents: meta }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                name: "engine.query",
                start_ns: 1_000,
                dur_ns: 250_000,
                args: SpanArgs::new().with("window_len_m", 85),
            },
            SpanRecord {
                name: "engine.context_hit",
                start_ns: 2_000,
                dur_ns: 0,
                args: SpanArgs::new(),
            },
            SpanRecord {
                name: "inbox.validate",
                start_ns: 5_000,
                dur_ns: 3_000,
                args: SpanArgs::new().with("neighbour", 7),
            },
            SpanRecord {
                name: "link.drop",
                start_ns: 9_500,
                dur_ns: 0,
                args: SpanArgs::new(),
            },
        ]
    }

    #[test]
    fn trace_shape_tracks_and_phases() {
        let trace = chrome_trace(&sample_records());
        // One thread_name metadata event per component.
        let meta: Vec<&ChromeTraceEvent> =
            trace.traceEvents.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(meta.len(), 3, "engine, inbox, link tracks");
        for m in &meta {
            assert_eq!(m.name, "thread_name");
            assert!(matches!(&m.args, Value::Map(kv) if kv.iter().any(|(k, _)| k == "name")));
        }
        // Spans are complete events, zero-duration records are instants.
        let x: Vec<&ChromeTraceEvent> = trace.span_events().filter(|e| e.ph == "X").collect();
        let i: Vec<&ChromeTraceEvent> = trace.span_events().filter(|e| e.ph == "i").collect();
        assert_eq!(x.len(), 2);
        assert_eq!(i.len(), 2);
        assert!(i.iter().all(|e| e.s == "t" && e.dur == 0.0));
        // Timestamps/durations are microseconds.
        assert_eq!(x[0].ts, 1.0);
        assert_eq!(x[0].dur, 250.0);
        // Same component → same tid; different components differ.
        assert_eq!(x[0].tid, i[0].tid, "engine events share a track");
        assert_ne!(x[0].tid, x[1].tid, "engine and inbox tracks differ");
    }

    #[test]
    fn trace_json_parses_and_roundtrips_span_counts() {
        let records = sample_records();
        let trace = chrome_trace(&records);
        let json = serde_json::to_string(&trace).unwrap();
        assert!(json.starts_with("{"), "object form, not bare array");
        let back: ChromeTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        assert_eq!(
            back.span_events().count(),
            records.len(),
            "every record must survive the round-trip"
        );
        // Args survive too.
        let q = back
            .span_events()
            .find(|e| e.name == "engine.query")
            .unwrap();
        assert!(matches!(
            &q.args,
            Value::Map(kv) if kv.iter().any(|(k, v)| k == "window_len_m" && v.as_i64() == Some(85))
        ));
    }

    #[test]
    fn merged_trace_aligns_clocks_and_separates_processes() {
        // Vehicle 3's clock runs 1 ms ahead of fleet time; vehicle 5 is
        // synchronised. The same fleet-time instant must export at the
        // same `ts` for both after alignment.
        let skewed = ClockModel {
            offset_ns: 1_000_000.0,
            drift_ppm: 0.0,
        };
        let nodes = vec![
            NodeTrace::new(
                3,
                "vehicle 3",
                vec![SpanRecord {
                    name: "v2v.beacon",
                    start_ns: 1_000_000 + 2_000, // fleet time 2 µs, local clock
                    dur_ns: 500,
                    args: SpanArgs::new().with("trace", 77),
                }],
            )
            .with_clock(skewed),
            NodeTrace::new(
                5,
                "vehicle 5",
                vec![
                    SpanRecord {
                        name: "inbox.validate",
                        start_ns: 2_000, // same fleet instant, true clock
                        dur_ns: 300,
                        args: SpanArgs::new().with("trace", 77),
                    },
                    SpanRecord {
                        name: "engine.query",
                        start_ns: 9_000,
                        dur_ns: 4_000,
                        args: SpanArgs::new().with("trace", 77),
                    },
                ],
            ),
        ];
        let trace = merged_chrome_trace(&nodes);
        // Process metadata: one process_name per node, pids are vehicle
        // ids.
        let procs: Vec<&ChromeTraceEvent> = trace
            .traceEvents
            .iter()
            .filter(|e| e.name == "process_name")
            .collect();
        assert_eq!(procs.len(), 2);
        let pids: Vec<u64> = procs.iter().map(|e| e.pid).collect();
        assert_eq!(pids, vec![3, 5]);
        // Thread metadata stays per-process.
        assert!(trace
            .traceEvents
            .iter()
            .filter(|e| e.name == "thread_name")
            .all(|e| e.pid == 3 || e.pid == 5));
        // Alignment: the skewed beacon and the true-clock validation land
        // on the same exported timestamp.
        let beacon = trace
            .span_events()
            .find(|e| e.name == "v2v.beacon")
            .unwrap();
        let validate = trace
            .span_events()
            .find(|e| e.name == "inbox.validate")
            .unwrap();
        assert!(
            (beacon.ts - validate.ts).abs() < 1e-9,
            "beacon {} vs validate {}",
            beacon.ts,
            validate.ts
        );
        assert_eq!(beacon.pid, 3);
        assert_eq!(validate.pid, 5);
        // Span events are globally sorted by aligned time.
        let ts: Vec<f64> = trace.span_events().map(|e| e.ts).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        // The causal trace arg survives on every hop.
        assert!(trace
            .span_events()
            .all(|e| matches!(&e.args, Value::Map(kv) if kv.iter().any(|(k, _)| k == "trace"))));
        // And the whole thing still parses as trace-event JSON.
        let json = serde_json::to_string(&trace).unwrap();
        let back: ChromeTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn merged_trace_clamps_pre_origin_times() {
        // A badly-estimated clock could map a record before fleet zero;
        // the export clamps instead of emitting negative timestamps.
        let n = NodeTrace::new(
            1,
            "v1",
            vec![SpanRecord {
                name: "engine.query",
                start_ns: 10,
                dur_ns: 5,
                args: SpanArgs::new(),
            }],
        )
        .with_clock(ClockModel {
            offset_ns: 1e9,
            drift_ppm: 0.0,
        });
        let trace = merged_chrome_trace(&[n]);
        let e = trace.span_events().next().unwrap();
        assert_eq!(e.ts, 0.0);
    }

    #[test]
    fn bounded_merge_caps_per_node_spans_and_truncates_names() {
        // A pathological node: a huge ring and a pathological name.
        let records: Vec<SpanRecord> = (0..10_000)
            .map(|i| SpanRecord {
                name: "engine.query",
                start_ns: i,
                dur_ns: 1,
                args: SpanArgs::new(),
            })
            .collect();
        let long_name: String = "véhicule ".repeat(200); // multi-byte chars
        let nodes = vec![
            NodeTrace::new(1, long_name.clone(), records),
            NodeTrace::new(
                2,
                "v2",
                vec![SpanRecord {
                    name: "inbox.validate",
                    start_ns: 99_999,
                    dur_ns: 1,
                    args: SpanArgs::new(),
                }],
            ),
        ];
        let limits = MergeLimits {
            max_spans_per_node: 100,
            max_name_chars: 16,
        };
        let trace = merged_chrome_trace_bounded(&nodes, limits);
        let node1_spans = trace.span_events().filter(|e| e.pid == 1).count();
        assert_eq!(node1_spans, 100, "per-node cap holds");
        // The cap keeps the NEWEST records.
        let max_ts = trace
            .span_events()
            .filter(|e| e.pid == 1)
            .map(|e| e.ts)
            .fold(0.0f64, f64::max);
        assert!((max_ts - 9_999.0 / 1_000.0).abs() < 1e-9, "{max_ts}");
        // The other node is untouched.
        assert_eq!(trace.span_events().filter(|e| e.pid == 2).count(), 1);
        // The process name is truncated on a char boundary with a marker.
        let proc1 = trace
            .traceEvents
            .iter()
            .find(|e| e.name == "process_name" && e.pid == 1)
            .unwrap();
        let Value::Map(kv) = &proc1.args else {
            panic!("process_name args must be a map");
        };
        let name = kv
            .iter()
            .find(|(k, _)| k == "name")
            .and_then(|(_, v)| v.as_str())
            .unwrap();
        assert_eq!(name.chars().count(), 17, "16 chars + ellipsis: {name:?}");
        assert!(name.ends_with('…'));
        assert!(long_name.starts_with(name.trim_end_matches('…')));
        // The default path keeps small traces intact.
        let small = merged_chrome_trace(&nodes[1..]);
        assert_eq!(small.span_events().count(), 1);
    }

    #[test]
    fn component_mapping() {
        assert_eq!(component_of("engine.kernel_scan"), "engine");
        assert_eq!(component_of("inbox.reject.stale"), "inbox");
        assert_eq!(component_of("bare"), "bare");
    }
}
