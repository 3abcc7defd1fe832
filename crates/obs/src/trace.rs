//! Chrome trace-event export: turn a [`MemRecorder`]'s buffers (or a
//! [`MergedTrace`]) into the JSON object format understood by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`.
//!
//! Mapping:
//! * span           → `"X"` complete event (`ts`/`dur` in µs) on `tid` =
//!   track id, with attributes under `args`
//! * event          → `"i"` instant event (thread- or global-scoped)
//! * counter sample → `"C"` counter event, rendered as a filled area chart
//! * track name     → `"M"` `thread_name` metadata event
//!
//! Everything lives in a single process (`pid` 0, named after the
//! simulation) so the timeline reads as one VM per lane.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::recorder::{AttrValue, EventRecord, MemRecorder, SpanRecord};
use crate::sharded::MergedTrace;

/// An attribute value as JSON.
pub(crate) fn attr_value_json(v: &AttrValue) -> Value {
    match v {
        AttrValue::U64(x) => json!(*x),
        AttrValue::I64(x) => json!(*x),
        AttrValue::F64(x) => json!(*x),
        AttrValue::Bool(x) => json!(*x),
        AttrValue::Str(s) => json!(*s),
        AttrValue::Owned(s) => json!(s.as_str()),
    }
}

/// A JSON object with its fields in the given order. Every value is
/// moved in: an already-built [`Value`] must never go through `json!`,
/// whose `to_value(&expr)` expansion deep-copies it.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A record's `args` object: its attributes in order, then `flag`.
fn args_json(attrs: &[(&'static str, AttrValue)], flag: Option<(&str, Value)>) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.to_string(), attr_value_json(v)))
            .chain(flag.map(|(k, v)| (k.to_string(), v)))
            .collect(),
    )
}

/// Build the full trace document for one recorded run, reading the
/// recorder's buffers in place.
///
/// Open spans (missing `span_end`, e.g. after a panic) are emitted as
/// zero-duration events flagged with `"unterminated": true` rather than
/// dropped, so partial traces remain inspectable.
pub fn chrome_trace(rec: &MemRecorder) -> Value {
    let buffers = rec.buffers();
    chrome_trace_parts(
        &buffers.spans,
        &buffers.events,
        &buffers.track_names,
        &buffers.series.sorted(),
        THREADED_MIN_EVENTS,
    )
}

impl MergedTrace {
    /// Same as [`chrome_trace`] for a merged view.
    pub fn chrome_trace(&self) -> Value {
        chrome_trace_parts(
            &self.spans,
            &self.events,
            &self.track_names,
            &self
                .counter_series
                .iter()
                .map(|(&name, points)| (name, points.as_slice()))
                .collect::<Vec<_>>(),
            THREADED_MIN_EVENTS,
        )
    }
}

/// Counter-sample series in name order, borrowed.
type SeriesView<'a> = [(&'static str, &'a [(u64, f64)])];

/// Traces with fewer events than this render on the calling thread
/// alone: starting a thread costs more than it saves on a small trace.
const THREADED_MIN_EVENTS: usize = 1 << 14;

/// Build the trace document from raw recorder buffers: the one Chrome
/// renderer. Each event is built once and moved into a `traceEvents`
/// vector sized exactly up front, so no part of the tree is copied.
///
/// A trace of at least `threaded_min_events` events renders in two parts
/// at once: the timeline (metadata, spans, instants) on the calling
/// thread and the counter samples on a scoped thread. The parts are
/// appended in that order, so the document is the same either way.
fn chrome_trace_parts(
    spans: &[SpanRecord],
    instants: &[EventRecord],
    track_names: &BTreeMap<u64, String>,
    counter_series: &SeriesView<'_>,
    threaded_min_events: usize,
) -> Value {
    let samples: usize = counter_series.iter().map(|(_, points)| points.len()).sum();
    let total = 1 + track_names.len() + spans.len() + instants.len() + samples;
    let timeline = || {
        let mut events = Vec::with_capacity(total);
        timeline_events(&mut events, spans, instants, track_names);
        events
    };
    let counters = || counter_events(counter_series, samples);
    let (mut events, counters) = if total >= threaded_min_events {
        std::thread::scope(|scope| {
            let counters = scope.spawn(counters);
            let events = timeline();
            let counters = counters
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (events, counters)
        })
    } else {
        (timeline(), counters())
    };
    events.extend(counters);

    object([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", json!("ms")),
    ])
}

/// The process and thread names, then every span and instant.
fn timeline_events(
    events: &mut Vec<Value>,
    spans: &[SpanRecord],
    instants: &[EventRecord],
    track_names: &BTreeMap<u64, String>,
) {
    events.push(object([
        ("ph", json!("M")),
        ("name", json!("process_name")),
        ("pid", json!(0)),
        ("tid", json!(0)),
        ("args", object([("name", json!("affinity-vc simulation"))])),
    ]));

    for (tid, name) in track_names {
        events.push(object([
            ("ph", json!("M")),
            ("name", json!("thread_name")),
            ("pid", json!(0)),
            ("tid", json!(tid)),
            ("args", object([("name", json!(name.as_str()))])),
        ]));
    }

    for span in spans {
        let (dur, unterminated) = match span.end_us {
            Some(end) => (end.saturating_sub(span.start_us), None),
            None => (0, Some(("unterminated", json!(true)))),
        };
        events.push(object([
            ("ph", json!("X")),
            ("name", json!(span.name)),
            ("pid", json!(0)),
            ("tid", json!(span.track.0)),
            ("ts", json!(span.start_us)),
            ("dur", json!(dur)),
            ("args", args_json(&span.attrs, unterminated)),
        ]));
    }

    for event in instants {
        let tid = event.track.map(|t| t.0).unwrap_or(0);
        let scope = if event.track.is_some() { "t" } else { "g" };
        events.push(object([
            ("ph", json!("i")),
            ("name", json!(event.name)),
            ("pid", json!(0)),
            ("tid", json!(tid)),
            ("ts", json!(event.t_us)),
            ("s", json!(scope)),
            ("args", args_json(&event.attrs, None)),
        ]));
    }
}

/// One `"C"` event per counter sample, series in name order.
fn counter_events(counter_series: &SeriesView<'_>, samples: usize) -> Vec<Value> {
    let mut events = Vec::with_capacity(samples);
    for &(name, series) in counter_series {
        for &(t_us, value) in series {
            events.push(object([
                ("ph", json!("C")),
                ("name", json!(name)),
                ("pid", json!(0)),
                ("tid", json!(0)),
                ("ts", json!(t_us)),
                ("args", object([("value", json!(value))])),
            ]));
        }
    }
    events
}

/// Write an already-built trace document to `path`.
///
/// Serialisation failures are surfaced as `InvalidData` I/O errors
/// rather than panics, so callers (the CLI in particular) can report
/// them with context instead of aborting.
pub fn save_trace_value(doc: &Value, path: &str) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("trace does not serialize: {e}"),
        )
    })?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TrackId};

    #[test]
    fn trace_shape() {
        let rec = MemRecorder::new();
        rec.track_name(TrackId(1), "vm1@node0");
        let s = rec.span_begin(TrackId(1), "map", 10, &[("task", AttrValue::U64(4))]);
        rec.span_end(s, 60);
        let open = rec.span_begin(TrackId(1), "reduce", 70, &[]);
        let _ = open; // deliberately left unterminated
        rec.event("speculative_launch", 30, Some(TrackId(1)), &[]);
        rec.counter_sample("queue.depth", 5, 2.0);

        let doc = chrome_trace(&rec);
        let events = doc["traceEvents"].as_array().unwrap();
        // process_name + thread_name + 2 spans + 1 instant + 1 counter
        assert_eq!(events.len(), 6);

        let map_span = events
            .iter()
            .find(|e| e["ph"] == json!("X") && e["name"] == json!("map"))
            .unwrap();
        assert_eq!(map_span["ts"], json!(10));
        assert_eq!(map_span["dur"], json!(50));
        assert_eq!(map_span["args"]["task"], json!(4));

        let reduce_span = events
            .iter()
            .find(|e| e["ph"] == json!("X") && e["name"] == json!("reduce"))
            .unwrap();
        assert_eq!(reduce_span["args"]["unterminated"], json!(true));

        let counter = events.iter().find(|e| e["ph"] == json!("C")).unwrap();
        assert_eq!(counter["args"]["value"], json!(2.0));

        // The whole document survives a print/parse cycle.
        let text = serde_json::to_string(&doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["traceEvents"].as_array().unwrap().len(), 6);
    }

    /// One recorder touching every renderer branch: named tracks (one
    /// name needing escapes), a terminated span with attrs of every
    /// `AttrValue` variant plus a late `span_attr`, an unterminated
    /// span, thread- and global-scoped instants, and two counter series.
    fn golden_recorder() -> MemRecorder {
        let rec = MemRecorder::new();
        rec.track_name(TrackId(1), "vm1@node0");
        rec.track_name(TrackId(7), "queue \"fifo\"");
        let map = rec.span_begin(
            TrackId(1),
            "map",
            10,
            &[
                ("task", AttrValue::U64(4)),
                ("skew", AttrValue::I64(-3)),
                ("frac", AttrValue::F64(0.25)),
                ("local", AttrValue::Bool(true)),
                ("locality", AttrValue::Str("node_local")),
                ("host", AttrValue::Owned("node0".to_string())),
            ],
        );
        rec.span_attr(map, "slowdown", AttrValue::F64(2.0));
        rec.span_end(map, 60);
        let _open = rec.span_begin(TrackId(7), "reduce", 70, &[("task", AttrValue::U64(1))]);
        rec.event(
            "speculative_launch",
            30,
            Some(TrackId(1)),
            &[("attempt", AttrValue::U64(2))],
        );
        rec.event("admit", 5, None, &[]);
        rec.counter_sample("queue.depth", 0, 1.0);
        rec.counter_sample("queue.depth", 40, 3.0);
        rec.counter_sample("net.util", 20, 0.5);
        rec
    }

    /// The golden recorder's compact Chrome trace. Any change to these
    /// bytes is a change to the `--trace-out` format.
    const GOLDEN: &str = concat!(
        r#"{"traceEvents":["#,
        r#"{"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"affinity-vc simulation"}},"#,
        r#"{"ph":"M","name":"thread_name","pid":0,"tid":1,"args":{"name":"vm1@node0"}},"#,
        r#"{"ph":"M","name":"thread_name","pid":0,"tid":7,"args":{"name":"queue \"fifo\""}},"#,
        r#"{"ph":"X","name":"map","pid":0,"tid":1,"ts":10,"dur":50,"args":{"task":4,"skew":-3,"#,
        r#""frac":0.25,"local":true,"locality":"node_local","host":"node0","slowdown":2.0}},"#,
        r#"{"ph":"X","name":"reduce","pid":0,"tid":7,"ts":70,"dur":0,"args":{"task":1,"unterminated":true}},"#,
        r#"{"ph":"i","name":"speculative_launch","pid":0,"tid":1,"ts":30,"s":"t","args":{"attempt":2}},"#,
        r#"{"ph":"i","name":"admit","pid":0,"tid":0,"ts":5,"s":"g","args":{}},"#,
        r#"{"ph":"C","name":"net.util","pid":0,"tid":0,"ts":20,"args":{"value":0.5}},"#,
        r#"{"ph":"C","name":"queue.depth","pid":0,"tid":0,"ts":0,"args":{"value":1.0}},"#,
        r#"{"ph":"C","name":"queue.depth","pid":0,"tid":0,"ts":40,"args":{"value":3.0}}"#,
        r#"],"displayTimeUnit":"ms"}"#,
    );

    #[test]
    fn golden_trace_is_byte_identical() {
        let rec = golden_recorder();
        assert_eq!(serde_json::to_string(&chrome_trace(&rec)).unwrap(), GOLDEN);
        let merged = golden_recorder().into_trace();
        assert_eq!(
            serde_json::to_string(&merged.chrome_trace()).unwrap(),
            GOLDEN
        );
    }

    /// A recorder past [`THREADED_MIN_EVENTS`], so `chrome_trace` takes
    /// the two-thread path: spans (some open, some with late attrs),
    /// instants and several interleaved counter series.
    fn large_recorder() -> MemRecorder {
        let rec = golden_recorder();
        let series = ["ts.b", "net.util", "ts.a"];
        for i in 0..THREADED_MIN_EVENTS as u64 / 2 {
            let span = rec.span_begin(TrackId(i % 5), "map", i, &[("task", AttrValue::U64(i))]);
            if i % 7 != 0 {
                rec.span_attr(span, "late", AttrValue::Bool(i % 2 == 0));
                rec.span_end(span, i + 3);
            }
            if i % 3 == 0 {
                rec.event("admit", i, None, &[]);
            }
            rec.counter_sample(series[i as usize % 3], i, i as f64 / 4.0);
        }
        rec
    }

    #[test]
    fn threaded_render_matches_inline_render() {
        let rec = large_recorder();
        let inline = {
            let buffers = rec.buffers();
            chrome_trace_parts(
                &buffers.spans,
                &buffers.events,
                &buffers.track_names,
                &buffers.series.sorted(),
                usize::MAX,
            )
        };
        let inline = serde_json::to_string(&inline).unwrap();
        let threaded = chrome_trace(&rec);
        assert!(threaded["traceEvents"].as_array().unwrap().len() >= THREADED_MIN_EVENTS);
        assert_eq!(serde_json::to_string(&threaded).unwrap(), inline);
        let merged = large_recorder().into_trace();
        assert_eq!(
            serde_json::to_string(&merged.chrome_trace()).unwrap(),
            inline
        );
    }

    #[test]
    fn golden_trace_parses_back_to_the_recorded_spans_and_events() {
        use crate::critical_path::TraceDump;

        let rec = golden_recorder();
        let parsed = TraceDump::from_chrome_value(&chrome_trace(&rec)).unwrap();
        let direct = TraceDump::from_mem(&rec);
        assert_eq!(parsed.spans.len(), 2);
        assert_eq!(parsed.events.len(), 2);
        for (p, d) in parsed.spans.iter().zip(&direct.spans) {
            assert_eq!(
                (p.track, &p.name, p.start_us, p.end_us, p.unterminated),
                (d.track, &d.name, d.start_us, d.end_us, d.unterminated)
            );
            // The Chrome form carries the open-span flag as an extra arg.
            let mut want = d.attrs.clone();
            if d.unterminated {
                want.push(("unterminated".to_string(), json!(true)));
            }
            assert_eq!(p.attrs, want);
        }
        assert_eq!(
            parsed
                .spans
                .iter()
                .map(|s| s.unterminated)
                .collect::<Vec<_>>(),
            [false, true]
        );
        for (p, d) in parsed.events.iter().zip(&direct.events) {
            assert_eq!(
                (&p.name, p.t_us, p.track, &p.attrs),
                (&d.name, d.t_us, d.track, &d.attrs)
            );
        }
        assert_eq!(parsed.events[0].track, Some(1));
        assert_eq!(parsed.events[1].track, None);
    }
}
