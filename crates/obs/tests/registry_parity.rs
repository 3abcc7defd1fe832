//! `MetricsRegistry` against a reference model keyed by owned text:
//! random update sequences must give the same snapshot and the same
//! JSON, CSV and Prometheus output, including when two distinct
//! `&'static str` spell one name.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use vc_obs::metrics::Histogram;
use vc_obs::{to_prometheus, MetricsRegistry, MetricsSnapshot};

/// Name pool. Index 3 has the same text as index 0 at another address.
fn names() -> [&'static str; 5] {
    static TWIN: OnceLock<&'static str> = OnceLock::new();
    let a = "reg.a";
    let twin = *TWIN.get_or_init(|| Box::leak(String::from(a).into_boxed_str()));
    assert_ne!(
        a.as_ptr(),
        twin.as_ptr(),
        "the twin must be a second address"
    );
    [a, "reg.b", "reg_c", twin, "reg.a.x"]
}

/// The registry's specified semantics over `BTreeMap<String, _>`.
#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Model {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

proptest! {
    #[test]
    fn registry_matches_btreemap_model(
        ops in proptest::collection::vec((0usize..4, 0usize..5, any::<u64>()), 0..200)
    ) {
        let names = names();
        let mut reg = MetricsRegistry::new();
        let mut model = Model::default();
        for &(kind, i, v) in &ops {
            let name = names[i];
            let key = name.to_string();
            let x = (v % 2001) as f64 / 8.0 - 125.0;
            match kind {
                0 => {
                    reg.counter_add(name, v % 1000);
                    *model.counters.entry(key).or_insert(0) += v % 1000;
                }
                1 => {
                    reg.gauge_set(name, x);
                    model.gauges.insert(key, x);
                }
                2 => {
                    reg.gauge_max(name, x);
                    let slot = model.gauges.entry(key).or_insert(f64::MIN);
                    if x > *slot {
                        *slot = x;
                    }
                }
                _ => {
                    reg.histogram_record(name, v >> (v % 64));
                    model.histograms.entry(key).or_default().record(v >> (v % 64));
                }
            }
        }

        let want = model.snapshot();
        let got = reg.snapshot();
        for name in names {
            prop_assert_eq!(reg.counter(name), want.counters.get(name).copied().unwrap_or(0));
            prop_assert_eq!(reg.gauge(name), want.gauges.get(name).copied());
            prop_assert_eq!(reg.histogram(name), want.histograms.get(name));
        }
        prop_assert_eq!(got.to_json_string(), want.to_json_string());
        prop_assert_eq!(got.to_csv(), want.to_csv());
        prop_assert_eq!(to_prometheus(&got), to_prometheus(&want));
        prop_assert_eq!(got, want);
    }
}
