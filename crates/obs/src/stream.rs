//! [`StreamingRecorder`]: a bounded-memory recorder that streams its op
//! log to a JSONL sink instead of buffering it, plus the JSONL codec.
//!
//! Million-event runs cannot hold a [`MemRecorder`] — its buffers grow
//! with the trace. The streaming recorder is the op-log core of
//! [`crate::sharded`] with the [`JsonlSink`]: each shard encodes its
//! stamped ops into a small text buffer and spills it to the shared
//! writer past a threshold, so RSS stays flat no matter how long the
//! run is. Stamping, sequencing and span ids are the core's, so
//! [`replay_jsonl`] sorts by `(t_us, seq)` and replays through the same
//! code path as [`ShardedRecorder::merged`] — the replayed
//! [`MergedTrace`] equals the `MemRecorder` view of the same run bit
//! for bit (see `crates/obs/tests/props.rs`).
//!
//! Format (`encode_op` and its inverse `decode_line`): one JSON
//! object per line. `t`/`q` are the stamp; `o` tags the op (`c`
//! counter_add, `g` gauge_set, `m` gauge_max, `h` histogram_record, `s`
//! counter_sample, `tn` track_name, `e` event, `sb`/`se`/`sa` span
//! begin/end/attr). Floats are written with Rust's shortest-round-trip
//! `{}` formatting; non-finite values and negative zero fall back to a
//! `<key>b` bit-pattern field so replay is exact for every `f64`.
//!
//! [`MemRecorder`]: crate::recorder::MemRecorder
//! [`ShardedRecorder::merged`]: crate::sharded::ShardedRecorder::merged

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Mutex, OnceLock};

use crate::recorder::{Attr, AttrValue, TrackId};
use crate::sharded::{replay_ops, MergedTrace, Op, OpLog, OpSink, StampedOp};

/// Default per-thread buffer size before a flush to the sink.
pub const DEFAULT_FLUSH_BYTES: usize = 64 * 1024;

/// [`OpSink`] that encodes each op as one JSONL line into its shard's
/// text buffer and spills the buffer to the writer past `flush_bytes`.
#[derive(Debug)]
pub struct JsonlSink<W> {
    flush_bytes: usize,
    out: Mutex<Sink<W>>,
}

#[derive(Debug)]
struct Sink<W> {
    writer: W,
    /// First I/O error, surfaced by [`StreamingRecorder::finish`];
    /// later writes are dropped once set.
    error: Option<io::Error>,
}

impl<W: Write + Send> OpSink for JsonlSink<W> {
    type Buf = String;

    fn append(&self, buf: &mut String, op: StampedOp) -> Option<String> {
        encode_op(buf, &op);
        (buf.len() >= self.flush_bytes).then(|| std::mem::take(buf))
    }

    fn spill(&self, text: String) {
        let mut sink = self.out.lock().expect("stream sink poisoned");
        if sink.error.is_some() {
            return;
        }
        if let Err(e) = sink.writer.write_all(text.as_bytes()) {
            sink.error = Some(e);
        }
    }
}

/// Bounded-memory streaming recorder: the op-log core with the JSONL
/// sink; see the module docs.
pub type StreamingRecorder<W> = OpLog<JsonlSink<W>>;

impl<W: Write + Send> StreamingRecorder<W> {
    pub fn new(writer: W) -> Self {
        Self::with_flush_bytes(writer, DEFAULT_FLUSH_BYTES)
    }

    /// A recorder flushing each per-thread buffer once it exceeds
    /// `flush_bytes` (small values force frequent flushes in tests).
    pub fn with_flush_bytes(writer: W, flush_bytes: usize) -> Self {
        Self::with_sink(JsonlSink {
            flush_bytes: flush_bytes.max(1),
            out: Mutex::new(Sink {
                writer,
                error: None,
            }),
        })
    }

    /// Flush every remaining buffer and return the sink writer, or the
    /// first I/O error hit at any point during recording.
    pub fn finish(self) -> io::Result<W> {
        let (sink, texts) = self.into_parts();
        let Sink { mut writer, error } = sink.out.into_inner().expect("stream sink poisoned");
        if let Some(e) = error {
            return Err(e);
        }
        for text in texts {
            writer.write_all(text.as_bytes())?;
        }
        writer.flush()?;
        Ok(writer)
    }
}

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

/// JSON-escape `s` into `out`, quotes included.
fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write `"<key>":<value>` for an `f64`: shortest-round-trip decimal
/// when that parses back to the same bits, `"<key>b":<bits>` otherwise
/// (non-finite values, and `-0`, which JSON readers take as integer 0).
fn push_f64(out: &mut String, key: &str, v: f64) {
    if v.is_finite() && (v != 0.0 || v.is_sign_positive()) {
        let _ = write!(out, "\"{key}\":{v}");
    } else {
        let _ = write!(out, "\"{key}b\":{}", v.to_bits());
    }
}

fn push_attr_value(out: &mut String, value: &AttrValue) {
    out.push('{');
    match value {
        AttrValue::U64(n) => {
            let _ = write!(out, "\"u\":{n}");
        }
        AttrValue::I64(n) => {
            let _ = write!(out, "\"i\":{n}");
        }
        AttrValue::F64(f) => push_f64(out, "f", *f),
        AttrValue::Bool(b) => {
            let _ = write!(out, "\"b\":{b}");
        }
        AttrValue::Str(s) => {
            out.push_str("\"s\":");
            esc(out, s);
        }
        AttrValue::Owned(s) => {
            out.push_str("\"w\":");
            esc(out, s);
        }
    }
    out.push('}');
}

fn push_attrs(out: &mut String, attrs: &[Attr]) {
    out.push_str(",\"a\":[");
    for (i, (key, value)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        esc(out, key);
        out.push(',');
        push_attr_value(out, value);
        out.push(']');
    }
    out.push(']');
}

/// Write `,"o":"<tag>","n":<name>`.
fn push_tag_name(out: &mut String, tag: &str, name: &str) {
    out.push_str(",\"o\":\"");
    out.push_str(tag);
    out.push_str("\",\"n\":");
    esc(out, name);
}

/// Append `op` to `out` as one JSONL line (newline included). The
/// wire format is defined here and by its inverse, `decode_line`.
pub(crate) fn encode_op(out: &mut String, op: &StampedOp) {
    let _ = write!(out, "{{\"t\":{},\"q\":{}", op.t_us, op.seq);
    match &op.op {
        Op::CounterAdd { name, delta } => {
            push_tag_name(out, "c", name);
            let _ = write!(out, ",\"d\":{delta}");
        }
        Op::GaugeSet { name, value } => {
            push_tag_name(out, "g", name);
            out.push(',');
            push_f64(out, "v", *value);
        }
        Op::GaugeMax { name, value } => {
            push_tag_name(out, "m", name);
            out.push(',');
            push_f64(out, "v", *value);
        }
        Op::HistRecord { name, value } => {
            push_tag_name(out, "h", name);
            let _ = write!(out, ",\"d\":{value}");
        }
        Op::CounterSample { name, value } => {
            push_tag_name(out, "s", name);
            out.push(',');
            push_f64(out, "v", *value);
        }
        Op::TrackName { track, name } => {
            let _ = write!(out, ",\"o\":\"tn\",\"k\":{track},\"s\":");
            esc(out, name);
        }
        Op::Event { name, track, attrs } => {
            push_tag_name(out, "e", name);
            if let Some(track) = track {
                let _ = write!(out, ",\"k\":{}", track.0);
            }
            push_attrs(out, attrs);
        }
        Op::SpanBegin {
            id,
            track,
            name,
            attrs,
        } => {
            let _ = write!(out, ",\"o\":\"sb\",\"i\":{id},\"k\":{},\"n\":", track.0);
            esc(out, name);
            push_attrs(out, attrs);
        }
        Op::SpanEnd { id } => {
            let _ = write!(out, ",\"o\":\"se\",\"i\":{id}");
        }
        Op::SpanAttr { id, key, value } => {
            let _ = write!(out, ",\"o\":\"sa\",\"i\":{id},\"n\":");
            esc(out, key);
            out.push_str(",\"a\":[[\"v\",");
            push_attr_value(out, value);
            out.push_str("]]");
        }
    }
    out.push_str("}\n");
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

/// Intern a replayed name so it can live in the `&'static str` slots of
/// the op log. Leaks once per distinct string — bounded by the metric /
/// span-name vocabulary, not the stream length.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut pool = pool.lock().expect("intern pool poisoned");
    if let Some(&interned) = pool.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(s.to_string(), leaked);
    leaked
}

use serde_json::Value;

fn get_u64(obj: &Value, key: &str, line: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("line {line}: missing integer field `{key}`"))
}

fn get_str<'a>(obj: &'a Value, key: &str, line: usize) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| format!("line {line}: missing string field `{key}`"))
}

/// Read an `f64` written by `push_f64`: `<key>` or `<key>b` bits.
fn get_f64(obj: &Value, key: &str, line: usize) -> Result<f64, String> {
    if let Some(v) = obj.get(key).and_then(|v| v.as_f64()) {
        return Ok(v);
    }
    let bits_key = format!("{key}b");
    obj.get(bits_key.as_str())
        .and_then(|v| v.as_u64())
        .map(f64::from_bits)
        .ok_or_else(|| format!("line {line}: missing float field `{key}`"))
}

fn parse_attr_value(v: &Value, line: usize) -> Result<AttrValue, String> {
    if let Some(n) = v.get("u").and_then(|v| v.as_u64()) {
        Ok(AttrValue::U64(n))
    } else if let Some(n) = v.get("i").and_then(|v| v.as_i64()) {
        Ok(AttrValue::I64(n))
    } else if let Some(f) = v.get("f").and_then(|v| v.as_f64()) {
        Ok(AttrValue::F64(f))
    } else if let Some(bits) = v.get("fb").and_then(|v| v.as_u64()) {
        Ok(AttrValue::F64(f64::from_bits(bits)))
    } else if let Some(Value::Bool(b)) = v.get("b") {
        Ok(AttrValue::Bool(*b))
    } else if let Some(s) = v.get("s").and_then(|v| v.as_str()) {
        Ok(AttrValue::Str(intern(s)))
    } else if let Some(s) = v.get("w").and_then(|v| v.as_str()) {
        Ok(AttrValue::Owned(s.to_string()))
    } else {
        Err(format!("line {line}: unknown attr value shape"))
    }
}

fn parse_attrs(obj: &Value, line: usize) -> Result<Vec<Attr>, String> {
    let Some(list) = obj.get("a").and_then(|v| v.as_array()) else {
        return Err(format!("line {line}: missing attrs array `a`"));
    };
    let mut attrs = Vec::with_capacity(list.len());
    for entry in list {
        let pair = entry
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("line {line}: attr is not a [key, value] pair"))?;
        let key = pair[0]
            .as_str()
            .ok_or_else(|| format!("line {line}: attr key is not a string"))?;
        attrs.push((intern(key), parse_attr_value(&pair[1], line)?));
    }
    Ok(attrs)
}

/// Replay a JSONL op stream written by [`StreamingRecorder`] into the
/// same deterministic [`MergedTrace`] that [`ShardedRecorder::merged`]
/// produces: ops sorted by `(t_us, seq)` and applied through the shared
/// replay path. Any malformed, truncated, or unrecognized line is an
/// error carrying its 1-based line number.
///
/// [`ShardedRecorder::merged`]: crate::sharded::ShardedRecorder::merged
pub fn replay_jsonl(text: &str) -> Result<MergedTrace, String> {
    let mut ops: Vec<StampedOp> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        ops.extend(decode_line(raw, index + 1)?);
    }
    Ok(replay_ops(ops))
}

/// Decode one stream line written by [`encode_op`]. Blank lines and the
/// manifest header carry no op and decode to `None`.
fn decode_line(raw: &str, line: usize) -> Result<Option<StampedOp>, String> {
    if raw.trim().is_empty() {
        return Ok(None);
    }
    let obj: Value =
        serde_json::from_str(raw).map_err(|e| format!("line {line}: invalid JSON: {e}"))?;
    // A stream may open with a `{"manifest": {...}}` header line (see
    // `crate::manifest`); it carries no op and is skipped here.
    // `manifest_from_jsonl` reads it.
    if obj.get("o").is_none() && obj.get(crate::manifest::MANIFEST_KEY).is_some() {
        return Ok(None);
    }
    let t_us = get_u64(&obj, "t", line)?;
    let seq = get_u64(&obj, "q", line)?;
    let op = match get_str(&obj, "o", line)? {
        "c" => Op::CounterAdd {
            name: intern(get_str(&obj, "n", line)?),
            delta: get_u64(&obj, "d", line)?,
        },
        "g" => Op::GaugeSet {
            name: intern(get_str(&obj, "n", line)?),
            value: get_f64(&obj, "v", line)?,
        },
        "m" => Op::GaugeMax {
            name: intern(get_str(&obj, "n", line)?),
            value: get_f64(&obj, "v", line)?,
        },
        "h" => Op::HistRecord {
            name: intern(get_str(&obj, "n", line)?),
            value: get_u64(&obj, "d", line)?,
        },
        "s" => Op::CounterSample {
            name: intern(get_str(&obj, "n", line)?),
            value: get_f64(&obj, "v", line)?,
        },
        "tn" => Op::TrackName {
            track: get_u64(&obj, "k", line)?,
            name: get_str(&obj, "s", line)?.to_string(),
        },
        "e" => Op::Event {
            name: intern(get_str(&obj, "n", line)?),
            track: obj.get("k").and_then(|v| v.as_u64()).map(TrackId),
            attrs: parse_attrs(&obj, line)?,
        },
        "sb" => Op::SpanBegin {
            id: get_u64(&obj, "i", line)?,
            track: TrackId(get_u64(&obj, "k", line)?),
            name: intern(get_str(&obj, "n", line)?),
            attrs: parse_attrs(&obj, line)?,
        },
        "se" => Op::SpanEnd {
            id: get_u64(&obj, "i", line)?,
        },
        "sa" => {
            let id = get_u64(&obj, "i", line)?;
            let key = intern(get_str(&obj, "n", line)?);
            let attrs = parse_attrs(&obj, line)?;
            let (_, value) = attrs
                .into_iter()
                .next()
                .ok_or_else(|| format!("line {line}: span attr has no value"))?;
            Op::SpanAttr { id, key, value }
        }
        other => return Err(format!("line {line}: unknown op tag `{other}`")),
    };
    Ok(Some(StampedOp { t_us, seq, op }))
}

/// Extract the manifest JSON from a stream's header line, if the first
/// non-empty line is a `{"manifest": {...}}` header written by the CLI.
pub fn manifest_from_jsonl(text: &str) -> Option<Value> {
    let first = text.lines().find(|l| !l.trim().is_empty())?;
    let obj: Value = serde_json::from_str(first).ok()?;
    if obj.get("o").is_some() {
        return None;
    }
    obj.get(crate::manifest::MANIFEST_KEY).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{MemRecorder, Recorder};
    use proptest::prelude::*;

    /// Drive the same call sequence into any recorder.
    fn drive<R: Recorder>(r: &R) {
        r.track_name(TrackId(3), "vm3@node1");
        let s = r.span_begin(TrackId(3), "map", 100, &[("task", AttrValue::U64(0))]);
        r.span_attr(s, "locality", AttrValue::Str("node_local"));
        r.counter_add("mr.maps", 1);
        r.gauge_set("util", 0.25);
        r.gauge_max("peak", 7.5);
        r.histogram_record("lat_us", 150);
        r.span_end(s, 250);
        r.event(
            "admit",
            300,
            Some(TrackId(1)),
            &[
                ("id", AttrValue::U64(7)),
                ("why", AttrValue::Owned("fits \"rack\"\n".to_string())),
                ("neg", AttrValue::I64(-4)),
                ("frac", AttrValue::F64(0.1)),
                ("ok", AttrValue::Bool(true)),
            ],
        );
        r.counter_sample("ts.q", 310, 2.0);
        r.counter_sample("ts.q", 400, 1.0);
    }

    fn record_stream() -> String {
        let rec = StreamingRecorder::new(Vec::new());
        drive(&rec);
        String::from_utf8(rec.finish().unwrap()).unwrap()
    }

    #[test]
    fn replay_matches_mem_recorder() {
        let mem = MemRecorder::new();
        drive(&mem);
        let merged = replay_jsonl(&record_stream()).unwrap();
        assert_eq!(merged.metrics, mem.metrics());
        assert_eq!(merged.track_names, mem.track_names());
        assert_eq!(merged.counter_series, mem.counter_series());
        assert_eq!(merged.open_spans, 0);
        assert_eq!(format!("{:?}", merged.spans), format!("{:?}", mem.spans()));
        assert_eq!(
            format!("{:?}", merged.events),
            format!("{:?}", mem.events())
        );
    }

    #[test]
    fn tiny_flush_threshold_same_replay() {
        // Force a flush on nearly every op: the file contents must be
        // identical to the buffered-to-the-end recording.
        let rec = StreamingRecorder::with_flush_bytes(Vec::new(), 8);
        drive(&rec);
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        assert_eq!(text, record_stream());
    }

    #[test]
    fn nonfinite_floats_roundtrip_as_bits() {
        let rec = StreamingRecorder::new(Vec::new());
        rec.gauge_set("inf", f64::INFINITY);
        rec.gauge_set("ninf", f64::NEG_INFINITY);
        let text = String::from_utf8(rec.finish().unwrap()).unwrap();
        assert!(text.contains("\"vb\":"), "{text}");
        let merged = replay_jsonl(&text).unwrap();
        assert_eq!(merged.metrics.gauges["inf"], f64::INFINITY);
        assert_eq!(merged.metrics.gauges["ninf"], f64::NEG_INFINITY);
    }

    #[test]
    fn corrupt_and_truncated_lines_error_with_line_number() {
        let good = record_stream();
        // Truncate the final line mid-object.
        let truncated = &good[..good.len() - 4];
        let err = replay_jsonl(truncated).unwrap_err();
        assert!(err.contains("line"), "{err}");

        let corrupt = format!("{good}this is not json\n");
        let err = replay_jsonl(&corrupt).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");

        let unknown = "{\"t\":0,\"q\":0,\"o\":\"zz\"}\n";
        let err = replay_jsonl(unknown).unwrap_err();
        assert!(err.contains("unknown op tag"), "{err}");
    }

    #[test]
    fn manifest_header_is_skipped_and_extractable() {
        let body = record_stream();
        let header = "{\"manifest\":{\"seed\":7,\"policy\":\"affinity\"}}\n";
        let with_header = format!("{header}{body}");

        // Replay ignores the header: identical merged trace.
        let plain = replay_jsonl(&body).unwrap();
        let headed = replay_jsonl(&with_header).unwrap();
        assert_eq!(plain.metrics, headed.metrics);
        assert_eq!(
            format!("{:?}", plain.events),
            format!("{:?}", headed.events)
        );

        // The header is extractable; a headerless stream yields None.
        let m = manifest_from_jsonl(&with_header).unwrap();
        assert_eq!(m.get("seed").and_then(|v| v.as_u64()), Some(7));
        assert!(manifest_from_jsonl(&body).is_none());
    }

    #[test]
    fn streaming_is_sync_and_reports_io_errors() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<StreamingRecorder<Vec<u8>>>();

        #[derive(Debug)]
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let rec = StreamingRecorder::with_flush_bytes(FailingWriter, 1);
        rec.counter_add("c", 1);
        let err = rec.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    /// Characters that exercise every escape path plus multi-byte UTF-8.
    const PALETTE: &[char] = &[
        'a', 'Z', '0', ' ', '.', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}',
        'é', '日', '😀',
    ];

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..PALETTE.len(), 0..6)
            .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
    }

    /// Any `f64`, with the values a decimal round trip can lose (NaN
    /// payloads, infinities, negative zero) drawn often.
    fn float() -> impl Strategy<Value = f64> {
        (0..6u8, any::<u64>()).prop_map(|(kind, bits)| match kind {
            0 => f64::from_bits(0x7ff0_0000_0000_0001 | (bits & 0x800f_ffff_ffff_ffff)),
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            _ => f64::from_bits(bits),
        })
    }

    fn attr_value() -> impl Strategy<Value = AttrValue> {
        (0..6u8, any::<u64>(), float(), text()).prop_map(|(kind, n, f, s)| match kind {
            0 => AttrValue::U64(n),
            1 => AttrValue::I64(n as i64),
            2 => AttrValue::F64(f),
            3 => AttrValue::Bool(n & 1 == 1),
            4 => AttrValue::Str(intern(&s)),
            _ => AttrValue::Owned(s),
        })
    }

    fn attrs() -> impl Strategy<Value = Vec<Attr>> {
        proptest::collection::vec((text(), attr_value()), 0..4).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(key, value)| (intern(&key), value))
                .collect()
        })
    }

    /// A random op of every tag, with a random stamp.
    fn stamped_op() -> impl Strategy<Value = StampedOp> {
        (
            (0..10u8, any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), float()),
            (text(), attrs(), attr_value(), any::<bool>()),
        )
            .prop_map(
                |((tag, t_us, seq), (a, b, value), (s, attrs, av, tracked))| {
                    let name = intern(&s);
                    let op = match tag {
                        0 => Op::CounterAdd { name, delta: a },
                        1 => Op::GaugeSet { name, value },
                        2 => Op::GaugeMax { name, value },
                        3 => Op::HistRecord { name, value: a },
                        4 => Op::CounterSample { name, value },
                        5 => Op::TrackName { track: a, name: s },
                        6 => Op::Event {
                            name,
                            track: tracked.then_some(TrackId(b)),
                            attrs,
                        },
                        7 => Op::SpanBegin {
                            id: a,
                            track: TrackId(b),
                            name,
                            attrs,
                        },
                        8 => Op::SpanEnd { id: a },
                        _ => Op::SpanAttr {
                            id: a,
                            key: name,
                            value: av,
                        },
                    };
                    StampedOp { t_us, seq, op }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `decode_line` inverts `encode_op`: the decoded op equals the
        /// original, and re-encoding it reproduces the same bytes (which
        /// pins float bit patterns that `Debug` cannot tell apart).
        #[test]
        fn encode_decode_roundtrip(op in stamped_op()) {
            let mut line = String::new();
            encode_op(&mut line, &op);
            prop_assert!(line.ends_with('\n') && line.matches('\n').count() == 1, "{}", line);
            let back = decode_line(line.trim_end_matches('\n'), 1);
            prop_assert!(back.is_ok(), "{:?} for {}", back, line);
            let back = back.unwrap();
            prop_assert!(back.is_some(), "{}", line);
            let back = back.unwrap();
            prop_assert_eq!(format!("{back:?}"), format!("{op:?}"));
            let mut again = String::new();
            encode_op(&mut again, &back);
            prop_assert_eq!(again, line);
        }
    }
}
