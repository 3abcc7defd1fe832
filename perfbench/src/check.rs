//! Output checks and digests of one run's simulated results.

use serde_json::Value;
use vc_cloudsim::sim::SimResult;
use vc_obs::{Fnv64, MetricsSnapshot, RunManifest};

/// Prefix of the per-rule critical alert counters.
const CRITICAL_PREFIX: &str = "alert.total.critical.";

/// Deterministic effort counters: equal on every recorded run of one
/// workload and seed, whatever the host.
const EFFORT_COUNTERS: &[&str] = &[
    "des.events_processed",
    "placement.requests_deferred",
    "placement.seeds_scanned",
    "placement.seeds_pruned",
    "placement.seeds_aborted",
    "prof.solver.solves",
    "prof.solver.flows",
    "prof.solver.links_touched",
    "prof.solver.flows_skipped",
];

/// The simulated statistics of a run, with a digest over every outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub served: u64,
    pub refused: u64,
    pub total_distance: u64,
    /// FNV-1a over the aggregates (served, refused, total and initial
    /// distance, mean wait, queue-level DES events) and every request's
    /// outcome, so any change to simulated behaviour changes it.
    pub outcome_digest: String,
}

pub fn summarize(r: &SimResult) -> Summary {
    let mut h = Fnv64::new();
    // One arrival per request and one departure per served request.
    let queue_events = (r.outcomes.len() + r.served) as u64;
    h.write_u64(r.served as u64)
        .write_u64(r.refused as u64)
        .write_u64(r.total_distance)
        .write_u64(r.total_initial_distance)
        .write_u64(r.mean_wait.as_micros())
        .write_u64(queue_events);
    let opt = |v: Option<u64>| v.map_or(u64::MAX, |x| x);
    for o in &r.outcomes {
        h.write_u64(o.id)
            .write_u64(opt(o.distance))
            .write_u64(opt(o.initial_distance))
            .write_u64(opt(o.center.map(u64::from)))
            .write_u64(opt(o.span.map(u64::from)))
            .write_u64(o.arrival.as_micros())
            .write_u64(opt(o.started.map(|t| t.as_micros())))
            .write_u64(opt(o.finished.map(|t| t.as_micros())))
            .write_u64(u64::from(o.refused))
            .write_u64(opt(o.job_runtime.map(|t| t.as_micros())));
    }
    Summary {
        served: r.served as u64,
        refused: r.refused as u64,
        total_distance: r.total_distance,
        outcome_digest: h.finish(),
    }
}

/// Conservation checks on one result: every offered request is served
/// or refused, and the per-outcome figures add up to the aggregates.
pub fn check_result(r: &SimResult, offered: usize) -> Vec<String> {
    let mut failures = Vec::new();
    if r.outcomes.len() != offered {
        failures.push(format!(
            "{} outcomes for {offered} offered requests",
            r.outcomes.len()
        ));
    }
    if r.served + r.refused != offered {
        failures.push(format!(
            "served {} + refused {} != offered {offered}",
            r.served, r.refused
        ));
    }
    let served = r.outcomes.iter().filter(|o| o.finished.is_some()).count();
    let refused = r.outcomes.iter().filter(|o| o.refused).count();
    if served != r.served || refused != r.refused {
        failures.push(format!(
            "outcomes count served {served} refused {refused}, result says {} / {}",
            r.served, r.refused
        ));
    }
    let total: u64 = r.outcomes.iter().filter_map(|o| o.distance).sum();
    if total != r.total_distance {
        failures.push(format!(
            "per-outcome distances sum to {total}, total_distance is {}",
            r.total_distance
        ));
    }
    let initial: u64 = r.outcomes.iter().filter_map(|o| o.initial_distance).sum();
    if initial != r.total_initial_distance {
        failures.push(format!(
            "per-outcome initial distances sum to {initial}, total_initial_distance is {}",
            r.total_initial_distance
        ));
    }
    failures
}

/// Check a written run document: it parses, and its manifest reads back
/// with a valid digest equal to the one written.
pub fn check_document(text: &str, manifest_digest: &str) -> Vec<String> {
    let doc: Value = match serde_json::from_str(text) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("run document does not parse: {e}")],
    };
    match RunManifest::from_document(&doc) {
        Ok(Some(m)) if m.digest() == manifest_digest => Vec::new(),
        Ok(Some(m)) => vec![format!(
            "run document manifest digest {} != written {manifest_digest}",
            m.digest()
        )],
        Ok(None) => vec!["run document has no manifest".to_string()],
        Err(e) => vec![format!("run document manifest: {e}")],
    }
}

/// Σ of the `alert.total.critical.*` counters.
pub fn critical_alerts(snap: &MetricsSnapshot) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with(CRITICAL_PREFIX))
        .map(|(_, v)| v)
        .sum()
}

/// Digest of the deterministic effort counters of a recorded run.
pub fn effort_digest(snap: &MetricsSnapshot) -> String {
    let mut h = Fnv64::new();
    for name in EFFORT_COUNTERS {
        h.write_str(name)
            .write_u64(snap.counters.get(*name).copied().unwrap_or(0));
    }
    h.finish()
}

/// Nearest-rank (p50, p99) of the values; (0, 0) when there are none.
pub fn quantiles(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return (0.0, 0.0);
    }
    v.sort_by(f64::total_cmp);
    let rank = |q: f64| v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
    (rank(0.5), rank(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use vc_cloudsim::sim::{self, PolicyMode, SimConfig};
    use vc_cloudsim::ArrivalProcess;
    use vc_model::{ClusterState, VmCatalog};
    use vc_placement::global::Admission;
    use vc_placement::online::ScanConfig;
    use vc_topology::{generate, DistanceTiers};

    fn small_run() -> SimResult {
        let topo = Arc::new(generate::uniform(2, 4, DistanceTiers::paper_experiment()));
        let state = ClusterState::uniform_capacity(topo, Arc::new(VmCatalog::ec2_table1()), 2);
        let trace = ArrivalProcess::paper_standard().generate(
            30,
            state.num_types(),
            &mut StdRng::seed_from_u64(3),
        );
        let mode = PolicyMode::GlobalBatch(Admission::FifoBlocking, ScanConfig::default());
        sim::run(&state, SimConfig::new(trace, mode, 3))
    }

    #[test]
    fn intact_result_passes_and_digest_repeats() {
        let r = small_run();
        assert!(r.served > 0);
        assert_eq!(check_result(&r, 30), Vec::<String>::new());
        assert_eq!(summarize(&r), summarize(&small_run()));
    }

    #[test]
    fn corrupted_distance_fails() {
        let mut r = small_run();
        let o = r
            .outcomes
            .iter_mut()
            .find(|o| o.distance.is_some())
            .unwrap();
        o.distance = o.distance.map(|d| d + 1);
        let failures = check_result(&r, 30);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("total_distance"));
    }

    #[test]
    fn lost_request_fails() {
        let mut r = small_run();
        r.served -= 1;
        assert!(!check_result(&r, 30).is_empty());
        assert!(!check_result(&small_run(), 31).is_empty());
    }

    #[test]
    fn changed_outcome_changes_digest() {
        let base = summarize(&small_run());
        let mut r = small_run();
        let o = r.outcomes.iter_mut().find(|o| o.center.is_some()).unwrap();
        o.center = o.center.map(|c| c + 1);
        assert_ne!(summarize(&r).outcome_digest, base.outcome_digest);
    }

    #[test]
    fn document_checks_manifest_digest() {
        let m = RunManifest::new("0", "simulate", 7, "p", 0, "t".into(), "w".into(), vec![]);
        let doc = serde_json::json!({ "manifest": m.to_json() }).to_string();
        assert!(check_document(&doc, &m.digest()).is_empty());
        assert!(!check_document(&doc, "0000000000000000").is_empty());
        assert!(!check_document("{\"counters\": {}}", &m.digest()).is_empty());
        assert!(!check_document("{\"manifest\": ", &m.digest()).is_empty());
        let tampered = doc.replace("\"seed\":7", "\"seed\":8");
        assert_ne!(tampered, doc);
        assert!(!check_document(&tampered, &m.digest()).is_empty());
    }

    #[test]
    fn critical_alerts_sum_only_critical() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("alert.total.critical.a".into(), 2);
        snap.counters.insert("alert.total.critical.b".into(), 1);
        snap.counters.insert("alert.total.warn.a".into(), 5);
        assert_eq!(critical_alerts(&snap), 3);
    }

    #[test]
    fn nearest_rank_quantiles() {
        assert_eq!(quantiles(std::iter::empty()), (0.0, 0.0));
        assert_eq!(quantiles([3.0].into_iter()), (3.0, 3.0));
        let v = (1..=100).rev().map(f64::from);
        assert_eq!(quantiles(v), (50.0, 99.0));
    }
}
