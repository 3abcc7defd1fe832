//! Allocation-count guard for the `MemRecorder` hot path: once a name
//! has been seen, metric updates and span ends allocate nothing, and a
//! counter series allocates only to grow its point buffer. Counts are
//! deterministic, so this gates what host timing cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vc_obs::{MemRecorder, Recorder, TrackId};

/// The system allocator, counting allocations made by the current
/// thread (so tests running in parallel do not see each other's).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const CALLS: u64 = 100_000;

#[test]
fn metric_updates_allocate_nothing_after_first_touch() {
    let rec = MemRecorder::new();
    // Each literal is bound once: the compiler need not merge two
    // spellings of one literal, and each address is its own first touch.
    let (c, g, m, h) = ("obs.c", "obs.g", "obs.m", "obs.h");
    // The same text at a second address shares the literal's slot.
    let twin: &'static str = Box::leak(String::from(c).into_boxed_str());
    rec.counter_add(c, 1);
    rec.counter_add(twin, 1);
    rec.gauge_set(g, 0.0);
    rec.gauge_max(m, 0.0);
    rec.histogram_record(h, 4);

    let n = allocations(|| {
        for i in 0..CALLS {
            rec.counter_add(c, 1);
            rec.counter_add(twin, 1);
            rec.gauge_set(g, i as f64);
            rec.gauge_max(m, i as f64);
            // 4..=7 share one power-of-two bucket.
            rec.histogram_record(h, 4 + i % 4);
        }
    });
    assert_eq!(n, 0, "{n} allocations on the metric hot path");

    let snap = rec.metrics();
    assert_eq!(snap.counters["obs.c"], 2 * (CALLS + 1));
    assert_eq!(snap.gauges["obs.m"], (CALLS - 1) as f64);
    assert_eq!(snap.histograms["obs.h"].count, CALLS + 1);
}

#[test]
fn span_end_allocates_nothing() {
    let rec = MemRecorder::new();
    let spans: Vec<_> = (0..CALLS)
        .map(|t| rec.span_begin(TrackId(t % 4), "work", t, &[]))
        .collect();
    let n = allocations(|| {
        for (t, &span) in (0..CALLS).zip(&spans) {
            rec.span_end(span, t + 10);
        }
    });
    assert_eq!(n, 0, "{n} allocations ending spans");
    assert_eq!(rec.open_span_count(), 0);
}

#[test]
fn counter_sample_allocates_only_to_grow_its_series() {
    let rec = MemRecorder::new();
    let depth = "ts.depth";
    rec.counter_sample(depth, 0, 0.0);
    let n = allocations(|| {
        for t in 1..=CALLS {
            rec.counter_sample(depth, t, t as f64);
        }
    });
    // Doubling from a small buffer to 100k points takes ~16 steps.
    assert!(n <= 20, "{n} allocations for {CALLS} samples");
    assert_eq!(rec.metrics().gauges["ts.depth"], CALLS as f64);
}
