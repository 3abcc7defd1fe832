//! The op-log recorder core: one thread-safe [`Recorder`] impl, two sinks.
//!
//! [`OpLog`] turns every recorder call into an `Op`, stamps it with a
//! sim-time and a recorder-wide sequence number, and hands it to the
//! calling thread's shard: a buffer behind a short-lived mutex that is
//! never contended across threads. Parallel code — notably the
//! Algorithm-1 seed scan workers in `vc-placement` — can therefore
//! record spans and counters without a global lock on the hot path.
//! Ops that carry no timestamp of their own (counters, span attributes)
//! inherit the shard's high-water timestamp. Span ids and the sequence
//! number come from shared atomics, so `(t_us, seq)` is a total order
//! consistent with each thread's program order *and* with any
//! cross-thread happens-before edge: a begin always replays before its
//! end.
//!
//! The only thing that varies is what a shard does with a stamped op
//! (its [`OpSink`]):
//!
//! * [`ShardedRecorder`] keeps the ops in memory ([`MemSink`]);
//!   [`ShardedRecorder::merged`] sorts and replays them into a
//!   [`MergedTrace`].
//! * [`StreamingRecorder`] encodes each op as one JSONL line and spills
//!   the text to a writer ([`JsonlSink`]), so memory stays flat;
//!   [`replay_jsonl`] decodes the file through the same replay.
//!
//! [`MergedTrace`] is the one read view of a recorded run; a
//! [`MemRecorder`] becomes one with [`MemRecorder::into_trace`].
//!
//! [`MemRecorder`]: crate::recorder::MemRecorder
//! [`MemRecorder::into_trace`]: crate::recorder::MemRecorder::into_trace
//! [`StreamingRecorder`]: crate::stream::StreamingRecorder
//! [`JsonlSink`]: crate::stream::JsonlSink
//! [`replay_jsonl`]: crate::stream::replay_jsonl

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::recorder::{
    Attr, AttrValue, EventRecord, Recorder, SampleSeries, SpanId, SpanRecord, TrackId,
};

/// One logged recorder call. Ops that carry no timestamp of their own
/// (counters, span attributes) inherit the shard's most recent
/// timestamp so the `(t_us, seq)` merge keeps them adjacent to the
/// surrounding timeline activity.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    CounterAdd {
        name: &'static str,
        delta: u64,
    },
    GaugeSet {
        name: &'static str,
        value: f64,
    },
    GaugeMax {
        name: &'static str,
        value: f64,
    },
    HistRecord {
        name: &'static str,
        value: u64,
    },
    CounterSample {
        name: &'static str,
        value: f64,
    },
    TrackName {
        track: u64,
        name: String,
    },
    Event {
        name: &'static str,
        track: Option<TrackId>,
        attrs: Vec<Attr>,
    },
    SpanBegin {
        id: u64,
        track: TrackId,
        name: &'static str,
        attrs: Vec<Attr>,
    },
    SpanEnd {
        id: u64,
    },
    SpanAttr {
        id: u64,
        key: &'static str,
        value: AttrValue,
    },
}

/// An `Op` with its merge key: the resolved timestamp and the
/// recorder-wide sequence number. Opaque outside this crate.
#[derive(Clone, Debug)]
pub struct StampedOp {
    pub(crate) t_us: u64,
    pub(crate) seq: u64,
    pub(crate) op: Op,
}

/// Sort an op log by `(t_us, seq)` and replay it into a [`MergedTrace`].
/// Shared by both sinks, so the in-memory merge and the JSONL stream
/// replay have identical semantics.
pub(crate) fn replay_ops(mut ops: Vec<StampedOp>) -> MergedTrace {
    // seq is globally unique, so this order is total and respects
    // both per-thread program order and cross-thread causality.
    ops.sort_by_key(|op| (op.t_us, op.seq));

    let mut out = MergedTrace::default();
    let mut metrics = MetricsRegistry::default();
    let mut series = SampleSeries::default();
    let mut open: HashMap<u64, usize> = HashMap::new();
    for StampedOp { t_us, op, .. } in ops {
        match op {
            Op::CounterAdd { name, delta } => metrics.counter_add(name, delta),
            Op::GaugeSet { name, value } => metrics.gauge_set(name, value),
            Op::GaugeMax { name, value } => metrics.gauge_max(name, value),
            Op::HistRecord { name, value } => metrics.histogram_record(name, value),
            Op::CounterSample { name, value } => {
                if series.push(name, t_us, value) {
                    metrics.gauge_set(name, value);
                }
            }
            Op::TrackName { track, name } => {
                out.track_names.insert(track, name);
            }
            Op::Event { name, track, attrs } => out.events.push(EventRecord {
                name,
                t_us,
                track,
                attrs,
            }),
            Op::SpanBegin {
                id,
                track,
                name,
                attrs,
            } => {
                open.insert(id, out.spans.len());
                out.spans.push(SpanRecord {
                    id: SpanId(id),
                    track,
                    name,
                    start_us: t_us,
                    end_us: None,
                    attrs,
                });
            }
            Op::SpanEnd { id } => {
                if let Some(index) = open.remove(&id) {
                    out.spans[index].end_us = Some(t_us);
                }
            }
            Op::SpanAttr { id, key, value } => {
                if let Some(&index) = open.get(&id) {
                    out.spans[index].attrs.push((key, value));
                }
            }
        }
    }
    out.open_spans = open.len();
    out.counter_series = series.into_map();
    out.metrics = metrics.snapshot();
    out
}

/// What an [`OpLog`] shard does with each stamped op. Implemented by
/// [`MemSink`] and [`JsonlSink`](crate::stream::JsonlSink).
pub trait OpSink: Sync {
    /// One thread's buffer, guarded by its shard's mutex.
    type Buf: Default + Send + std::fmt::Debug + 'static;

    /// Add `op` to this thread's buffer; runs under the shard lock. A
    /// returned buffer goes to [`OpSink::spill`] once the lock is
    /// released.
    fn append(&self, buf: &mut Self::Buf, op: StampedOp) -> Option<Self::Buf>;

    /// Take a full buffer handed back by [`OpSink::append`].
    fn spill(&self, _full: Self::Buf) {}
}

#[derive(Debug, Default)]
struct ShardBuf<B> {
    ops: B,
    /// High-water timestamp of this shard, inherited by untimestamped ops.
    last_t: u64,
}

type Shard<B> = Mutex<ShardBuf<B>>;

/// Identity counter so the thread-local shard cache can tell recorders
/// apart (a thread may touch several recorders over its lifetime).
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Fast path: the shard this thread last used, keyed by recorder id.
    /// Ids are unique across sinks, so a hit always downcasts.
    static SHARD_CACHE: RefCell<Option<(u64, Arc<dyn Any + Send + Sync>)>> =
        const { RefCell::new(None) };
}

/// The thread-safe op-log recorder; see the module docs.
#[derive(Debug)]
pub struct OpLog<S: OpSink> {
    id: u64,
    next_span: AtomicU64,
    next_seq: AtomicU64,
    shards: Mutex<HashMap<ThreadId, Arc<Shard<S::Buf>>>>,
    sink: S,
}

/// Deterministic merged view of a recorded run, shaped like the buffers
/// of a [`MemRecorder`](crate::recorder::MemRecorder).
#[derive(Debug, Default)]
pub struct MergedTrace {
    pub spans: Vec<SpanRecord>,
    pub events: Vec<EventRecord>,
    pub track_names: BTreeMap<u64, String>,
    pub counter_series: BTreeMap<&'static str, Vec<(u64, f64)>>,
    pub metrics: MetricsSnapshot,
    /// Spans begun but never ended at merge time.
    pub open_spans: usize,
}

impl<S: OpSink> OpLog<S> {
    pub(crate) fn with_sink(sink: S) -> Self {
        Self {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            next_span: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            shards: Mutex::new(HashMap::new()),
            sink,
        }
    }

    fn shard(&self) -> Arc<Shard<S::Buf>> {
        SHARD_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((id, shard)) = cache.as_ref() {
                if *id == self.id {
                    if let Ok(shard) = Arc::clone(shard).downcast() {
                        return shard;
                    }
                }
            }
            let shard = {
                let mut shards = self.shards.lock().expect("shard registry poisoned");
                Arc::clone(shards.entry(std::thread::current().id()).or_default())
            };
            *cache = Some((self.id, Arc::clone(&shard) as Arc<dyn Any + Send + Sync>));
            shard
        })
    }

    /// Stamp one op and hand it to this thread's shard. `t` is the op's
    /// own timestamp, if it has one.
    fn push(&self, t: Option<u64>, op: Op) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard();
        let mut buf = shard.lock().expect("shard poisoned");
        let t_us = match t {
            Some(t) => {
                buf.last_t = buf.last_t.max(t);
                t
            }
            None => buf.last_t,
        };
        let full = self.sink.append(&mut buf.ops, StampedOp { t_us, seq, op });
        drop(buf);
        if let Some(full) = full {
            self.sink.spill(full);
        }
    }

    /// The sink and every shard's remaining buffer.
    pub(crate) fn into_parts(self) -> (S, Vec<S::Buf>) {
        let shards = self.shards.into_inner().expect("shard registry poisoned");
        let bufs = shards
            .into_values()
            .map(|shard| std::mem::take(&mut shard.lock().expect("shard poisoned").ops))
            .collect();
        (self.sink, bufs)
    }
}

/// [`OpSink`] keeping every op in its shard until the merge.
#[derive(Debug, Default)]
pub struct MemSink;

impl OpSink for MemSink {
    type Buf = Vec<StampedOp>;

    fn append(&self, buf: &mut Vec<StampedOp>, op: StampedOp) -> Option<Vec<StampedOp>> {
        buf.push(op);
        None
    }
}

/// Thread-safe buffering recorder: the op-log core with the in-memory
/// sink; see the module docs.
pub type ShardedRecorder = OpLog<MemSink>;

impl Default for ShardedRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedRecorder {
    pub fn new() -> Self {
        Self::with_sink(MemSink)
    }

    /// Merge every shard into one deterministic trace. Non-destructive:
    /// the shards keep their logs, so repeated calls agree.
    pub fn merged(&self) -> MergedTrace {
        let mut ops: Vec<StampedOp> = Vec::new();
        {
            let shards = self.shards.lock().expect("shard registry poisoned");
            for shard in shards.values() {
                ops.extend(shard.lock().expect("shard poisoned").ops.iter().cloned());
            }
        }
        replay_ops(ops)
    }

    /// [`Self::merged`], consuming the recorder so no op is cloned.
    pub fn into_trace(self) -> MergedTrace {
        replay_ops(self.into_parts().1.into_iter().flatten().collect())
    }
}

impl<S: OpSink> Recorder for OpLog<S> {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.push(None, Op::CounterAdd { name, delta });
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        self.push(None, Op::GaugeSet { name, value });
    }

    fn gauge_max(&self, name: &'static str, value: f64) {
        self.push(None, Op::GaugeMax { name, value });
    }

    fn histogram_record(&self, name: &'static str, value: u64) {
        self.push(None, Op::HistRecord { name, value });
    }

    fn counter_sample(&self, name: &'static str, t_us: u64, value: f64) {
        self.push(Some(t_us), Op::CounterSample { name, value });
    }

    fn track_name(&self, track: TrackId, name: &str) {
        self.push(
            None,
            Op::TrackName {
                track: track.0,
                name: name.to_string(),
            },
        );
    }

    fn event(&self, name: &'static str, t_us: u64, track: Option<TrackId>, attrs: &[Attr]) {
        self.push(
            Some(t_us),
            Op::Event {
                name,
                track,
                attrs: attrs.to_vec(),
            },
        );
    }

    fn span_begin(&self, track: TrackId, name: &'static str, t_us: u64, attrs: &[Attr]) -> SpanId {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        self.push(
            Some(t_us),
            Op::SpanBegin {
                id,
                track,
                name,
                attrs: attrs.to_vec(),
            },
        );
        SpanId(id)
    }

    fn span_end(&self, span: SpanId, t_us: u64) {
        if span.is_null() {
            return;
        }
        self.push(Some(t_us), Op::SpanEnd { id: span.0 });
    }

    fn span_attr(&self, span: SpanId, key: &'static str, value: AttrValue) {
        if span.is_null() {
            return;
        }
        self.push(
            None,
            Op::SpanAttr {
                id: span.0,
                key,
                value,
            },
        );
    }

    fn as_sync(&self) -> Option<&(dyn Recorder + Sync)> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sync<T: Sync + Send>() {}

    #[test]
    fn sharded_is_sync() {
        assert_sync::<ShardedRecorder>();
    }

    #[test]
    fn single_thread_matches_mem_semantics() {
        let r = ShardedRecorder::new();
        r.track_name(TrackId(3), "vm3@node1");
        let s = r.span_begin(TrackId(3), "map", 100, &[("task", AttrValue::U64(0))]);
        assert!(!s.is_null());
        r.span_attr(s, "locality", AttrValue::Str("node_local"));
        r.span_end(s, 250);
        r.event("admit", 50, None, &[("id", AttrValue::U64(7))]);
        r.counter_add("c", 2);
        r.counter_sample("queue.depth", 10, 1.0);

        let m = r.merged();
        assert_eq!(m.spans.len(), 1);
        assert_eq!(m.spans[0].start_us, 100);
        assert_eq!(m.spans[0].end_us, Some(250));
        assert_eq!(m.spans[0].attrs.len(), 2);
        assert_eq!(m.open_spans, 0);
        assert_eq!(m.events.len(), 1);
        assert_eq!(m.track_names[&3], "vm3@node1");
        assert_eq!(m.metrics.counters["c"], 2);
        assert_eq!(m.counter_series["queue.depth"], vec![(10, 1.0)]);
    }

    #[test]
    fn records_from_scoped_threads() {
        let r = ShardedRecorder::new();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let r = &r;
                scope.spawn(move || {
                    let s = r.span_begin(TrackId(w), "scan", 10 * w, &[]);
                    r.counter_add("placement.seeds_scanned", w + 1);
                    r.span_end(s, 10 * w + 5);
                });
            }
        });
        let m = r.merged();
        assert_eq!(m.spans.len(), 4);
        assert_eq!(m.open_spans, 0);
        assert_eq!(m.metrics.counters["placement.seeds_scanned"], 1 + 2 + 3 + 4);
        // Deterministic order: sorted by start time.
        let starts: Vec<u64> = m.spans.iter().map(|s| s.start_us).collect();
        assert_eq!(starts, vec![0, 10, 20, 30]);
        // Span ids unique.
        let mut ids: Vec<u64> = m.spans.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn as_sync_views() {
        let sharded = ShardedRecorder::new();
        assert!(Recorder::as_sync(&sharded).is_some());
        let mem = crate::recorder::MemRecorder::new();
        assert!(Recorder::as_sync(&mem).is_none());
        let noop = crate::recorder::NoopRecorder;
        assert!(Recorder::as_sync(&noop).is_some());
        // Forwarding through &dyn.
        let dynrec: &dyn Recorder = &sharded;
        assert!(dynrec.as_sync().is_some());
    }
}
