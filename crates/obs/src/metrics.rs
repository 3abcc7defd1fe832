//! Metrics registry: named counters, gauges, and log-bucketed histograms
//! with JSON and CSV snapshot export.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// Power-of-two bucketed histogram for non-negative integer samples
/// (latencies in µs, byte counts, queue depths).
///
/// Bucket 0 holds the value 0; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. 65 buckets cover the full `u64` domain.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    /// Smallest sample, or 0 when empty — a never-sampled histogram must
    /// not serialize a `u64::MAX` sentinel in snapshots; [`Self::record`]
    /// seeds it from the first sample instead.
    pub min: u64,
    pub max: u64,
    /// Sparse non-empty buckets as `(index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
}

/// Number of distinct bucket indices (0 plus one per bit position).
pub const NUM_BUCKETS: u32 = 65;

/// Map a sample to its bucket index. Monotone non-decreasing in `v`.
pub fn bucket_index(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

/// Smallest value that lands in bucket `i`. Strictly increasing in `i`.
pub fn bucket_lower_bound(i: u32) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        let idx = bucket_index(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile from bucket lower bounds (`q` in `[0, 1]`).
    /// Exact for the min/max endpoints; within one power of two elsewhere.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }
}

/// Hasher for [`Slots`]' `(address, length)` keys: one multiply per
/// word. The keys are addresses of the program's own strings, not
/// outside input, so SipHash's collision resistance buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

fn addr_key(name: &'static str) -> (usize, usize) {
    (name.as_ptr() as usize, name.len())
}

/// Dense storage for one kind of named value. Each name gets a fixed
/// slot on first touch; later touches find it by the `&'static str`'s
/// address and length, without hashing the text or allocating. A miss
/// falls back to the text, so equal text at two addresses (an interned
/// name and a literal) shares one slot. A `'static` string is never
/// freed, so an address cannot come back holding other text.
#[derive(Clone, Debug)]
pub(crate) struct Slots<T> {
    by_addr: HashMap<(usize, usize), usize, BuildHasherDefault<AddrHasher>>,
    /// Text → slot, and the name-sorted view exporters read.
    by_text: BTreeMap<&'static str, usize>,
    values: Vec<T>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Self {
            by_addr: HashMap::default(),
            by_text: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// The slot for `name`, created with `init` on the first touch.
    pub(crate) fn get_or_insert_with(
        &mut self,
        name: &'static str,
        init: impl FnOnce() -> T,
    ) -> &mut T {
        let index = match self.by_addr.get(&addr_key(name)) {
            Some(&index) => index,
            None => self.insert(name, init),
        };
        &mut self.values[index]
    }

    #[cold]
    fn insert(&mut self, name: &'static str, init: impl FnOnce() -> T) -> usize {
        let values = &mut self.values;
        let index = *self.by_text.entry(name).or_insert_with(|| {
            values.push(init());
            values.len() - 1
        });
        self.by_addr.insert(addr_key(name), index);
        index
    }

    pub(crate) fn get(&self, name: &str) -> Option<&T> {
        self.by_text.get(name).map(|&index| &self.values[index])
    }

    /// Every slot in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> {
        self.by_text
            .iter()
            .map(|(&name, &index)| (name, &self.values[index]))
    }

    /// Every slot, moved out, in no particular order.
    pub(crate) fn into_entries(self) -> impl Iterator<Item = (&'static str, T)> {
        let mut names = vec![""; self.values.len()];
        for (name, index) in self.by_text {
            names[index] = name;
        }
        names.into_iter().zip(self.values)
    }
}

/// Mutable registry of named metrics. Owned by a recorder during a run.
///
/// Each metric lives in a [`Slots`] slot, so once a name has been seen
/// every update is one address lookup with no allocation.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Slots<u64>,
    gauges: Slots<f64>,
    histograms: Slots<Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.get_or_insert_with(name, || 0) += delta;
    }

    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        *self.gauges.get_or_insert_with(name, || value) = value;
    }

    /// Track the running maximum of a gauge (e.g. peak queue depth).
    pub fn gauge_max(&mut self, name: &'static str, value: f64) {
        let slot = self.gauges.get_or_insert_with(name, || f64::MIN);
        if value > *slot {
            *slot = value;
        }
    }

    pub fn histogram_record(&mut self, name: &'static str, value: u64) {
        self.histograms
            .get_or_insert_with(name, Histogram::default)
            .record(value);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        fn owned<T: Clone>(slots: &Slots<T>) -> BTreeMap<String, T> {
            slots
                .iter()
                .map(|(name, v)| (name.to_string(), v.clone()))
                .collect()
        }
        MetricsSnapshot {
            counters: owned(&self.counters),
            gauges: owned(&self.gauges),
            histograms: owned(&self.histograms),
        }
    }
}

/// Immutable point-in-time copy of a [`MetricsRegistry`], exportable as
/// JSON (schema documented in `docs/metrics-schema.md`) or CSV.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Full-fidelity JSON document; round-trips through [`Self::from_json`].
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self)
    }

    pub fn from_json(v: &serde_json::Value) -> Result<Self, serde_json::Error> {
        <Self as serde::Deserialize>::from_value(v)
    }

    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    pub fn parse(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Flat CSV with one row per scalar:
    /// `kind,name,field,value`. Histograms expand to summary rows plus one
    /// `bucket_<lower_bound>` row per non-empty bucket.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},value,{v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge,{name},value,{v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("histogram,{name},count,{}\n", h.count));
            out.push_str(&format!("histogram,{name},sum,{}\n", h.sum));
            if h.count > 0 {
                out.push_str(&format!("histogram,{name},min,{}\n", h.min));
                out.push_str(&format!("histogram,{name},max,{}\n", h.max));
                out.push_str(&format!("histogram,{name},mean,{}\n", h.mean()));
                out.push_str(&format!("histogram,{name},p50,{}\n", h.quantile(0.5)));
                out.push_str(&format!("histogram,{name},p99,{}\n", h.quantile(0.99)));
            }
            for &(idx, n) in &h.buckets {
                out.push_str(&format!(
                    "histogram,{name},bucket_{},{n}\n",
                    bucket_lower_bound(idx)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i);
        }
    }

    #[test]
    fn histogram_aggregates() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 7, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1109);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert!(h.quantile(0.0) >= h.min && h.quantile(1.0) <= h.max);
    }

    #[test]
    fn empty_histogram_snapshot_has_zero_min() {
        // Regression: a never-sampled histogram used to serialize
        // `min: u64::MAX` in JSON/CSV snapshots.
        let h = Histogram::default();
        assert_eq!(h.min, 0);
        let mut reg = MetricsRegistry::new();
        reg.histograms.get_or_insert_with("empty", || h);
        let snap = reg.snapshot();
        assert!(!snap.to_json_string().contains(&u64::MAX.to_string()));
        assert!(!snap.to_csv().contains(&u64::MAX.to_string()));
        // And a first sample still seeds the minimum correctly.
        let mut h = Histogram::default();
        h.record(7);
        assert_eq!(h.min, 7);
        h.record(3);
        assert_eq!(h.min, 3);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("des.events", 42);
        reg.gauge_set("queue.depth", 3.5);
        reg.histogram_record("latency_us", 1234);
        reg.histogram_record("latency_us", 9);
        let snap = reg.snapshot();
        let text = snap.to_json_string();
        let back = MetricsSnapshot::parse(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn csv_has_all_rows() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("a", 1);
        reg.gauge_set("b", 2.0);
        reg.histogram_record("c", 3);
        let csv = reg.snapshot().to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,a,value,1"));
        assert!(csv.contains("gauge,b,value,2"));
        assert!(csv.contains("histogram,c,count,1"));
        assert!(csv.contains("histogram,c,bucket_2,1"));
    }
}
