//! One measured run of a benchmark workload, in a process of its own.
//!
//! ```text
//! vc-perfbench --workload <name> --seed <n> --out <dir> [--traced]
//! ```
//!
//! The process builds the workload's cloud and request trace from the
//! seed, runs the cloud DES once, exports what the workload exports,
//! tears everything down, checks the results, and prints one JSON line.
//! A separate process per run keeps `VmHWM` (peak RSS) a whole-run
//! figure. `run.py` drives these processes and aggregates them.
//!
//! Untraced runs simulate what `affinity-vc simulate` does with the same
//! flags, with the same outcomes, but skip argument parsing, and record
//! nothing unless the workload exports a run document. A traced run first
//! runs the DES with a `NoopRecorder`, then again on the same trace
//! recording into a `MemRecorder` with detailed `prof.*` histograms, so
//! recording cost can be isolated, and reports per-layer metrics.

mod check;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use vc_cloudsim::sim::{self, PolicyMode, ServiceModel, SimConfig, SimResult};
use vc_cloudsim::{ArrivalProcess, CloudRequest, ServiceTime};
use vc_mapreduce::engine::SimParams;
use vc_mapreduce::{JobConfig, Workload as MrWorkload};
use vc_model::workload::RequestProfile;
use vc_model::{ClusterState, VmCatalog};
use vc_obs::{Fnv64, HealthPolicy, MemRecorder, MetricsSnapshot, RunManifest, TimeSeriesSet};
use vc_placement::global::Admission;
use vc_placement::online::{Parallelism, ScanConfig};
use vc_topology::{generate, DistanceTiers, Topology};

/// VM slots per (node, type), the `simulate` default.
const CAPACITY: u32 = 2;

/// One benchmark workload: an `affinity-vc simulate` configuration.
struct Workload {
    name: &'static str,
    racks: usize,
    nodes: usize,
    requests: usize,
    rate: f64,
    /// `--service mapreduce` (wordcount, 8 maps, 2 reducers) when true,
    /// `--service trace` otherwise.
    mapreduce: bool,
    /// Full observability: in-memory recording, `ts.*` windows of this
    /// many µs, the health watchdog, and the run document written out.
    observe_window_us: Option<u64>,
}

const WORKLOADS: &[Workload] = &[
    // --racks 3 --nodes 10 --requests 4000 --rate 4
    //   --metrics-out <file> --window-us 10000000 --health
    Workload {
        name: "paper_obs",
        racks: 3,
        nodes: 10,
        requests: 4000,
        rate: 4.0,
        mapreduce: true,
        observe_window_us: Some(10_000_000),
    },
    // --racks 400 --nodes 40 --requests 1000 --rate 10 --service trace
    Workload {
        name: "cloud_16k",
        racks: 400,
        nodes: 40,
        requests: 1000,
        rate: 10.0,
        mapreduce: false,
        observe_window_us: None,
    },
];

impl Workload {
    fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The `simulate` defaults: global policy (Algorithms 1 and 2, FIFO
    /// admission, pruned sequential seed scan), uniform 10–60 s holds.
    fn config(&self, trace: Vec<CloudRequest>, seed: u64) -> SimConfig {
        let scan = ScanConfig {
            prune: true,
            parallelism: Parallelism::Sequential,
        };
        let mode = PolicyMode::GlobalBatch(Admission::FifoBlocking, scan);
        let service = if self.mapreduce {
            ServiceModel::MapReduce {
                job: JobConfig {
                    workload: MrWorkload::wordcount(),
                    input_mb: 8.0 * 64.0,
                    split_mb: 64.0,
                    num_reducers: 2,
                    replication: 3,
                },
                params: SimParams::default(),
            }
        } else {
            ServiceModel::Trace
        };
        let mut config = SimConfig::new(trace, mode, seed).with_service(service);
        if let Some(w) = self.observe_window_us {
            config = config
                .with_timeseries(w)
                .with_health(HealthPolicy::default());
        }
        config
    }
}

/// A timed interval of this process: name, parent, start and end in
/// seconds since process start.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// The benchmark's own spans around each call into a layer. Kept in
/// memory; a traced run writes them out at the end.
struct Spans {
    t0: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn enter(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_s = self.t0.elapsed().as_secs_f64();
        self.list.push(Span {
            name,
            parent,
            start_s,
            end_s: start_s,
        });
        self.list.len() - 1
    }

    /// Close span `id` and return its duration in seconds.
    fn exit(&mut self, id: usize) -> f64 {
        let span = &mut self.list[id];
        span.end_s = self.t0.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    fn secs(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + (s.end_s - s.start_s))
    }

    fn to_json(&self) -> Value {
        Value::Array(
            self.list
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "name": s.name,
                        "parent": s.parent.map(|p| self.list[p].name),
                        "start_s": s.start_s,
                        "end_s": s.end_s,
                    })
                })
                .collect(),
        )
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), 0 where the
/// platform has none.
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .strip_prefix(':')?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

fn mib_from_kb(kb_after: u64, kb_before: u64) -> f64 {
    kb_after.saturating_sub(kb_before) as f64 / 1024.0
}

/// Topology identity for the run manifest, as `affinity-vc` computes it.
fn topology_digest(topo: &Topology) -> String {
    let mut h = Fnv64::new();
    h.write_u64(topo.num_nodes() as u64)
        .write_u64(topo.num_racks() as u64);
    for node in topo.node_ids() {
        h.write_u64(u64::from(topo.rack_of(node).0));
    }
    let tiers = topo.tiers();
    h.write_u64(u64::from(tiers.same_rack))
        .write_u64(u64::from(tiers.cross_rack))
        .write_u64(u64::from(tiers.cross_cloud));
    h.finish()
}

/// Request-trace identity for the run manifest.
fn trace_digest(trace: &[CloudRequest]) -> String {
    let mut h = Fnv64::new();
    h.write_u64(trace.len() as u64);
    for r in trace {
        h.write_u64(r.id)
            .write_u64(r.arrival.as_micros())
            .write_u64(r.service_time.as_micros());
        for &c in r.request.counts() {
            h.write_u64(u64::from(c));
        }
    }
    h.finish()
}

fn manifest(w: &Workload, seed: u64, config: &SimConfig, topo: &Topology) -> RunManifest {
    let mut entries = vec![
        ("racks".to_string(), w.racks.to_string()),
        ("nodes".to_string(), w.nodes.to_string()),
        ("capacity".to_string(), CAPACITY.to_string()),
        ("placement-threads".to_string(), "1".to_string()),
        ("rate".to_string(), w.rate.to_string()),
        ("workload".to_string(), "wordcount".to_string()),
    ];
    entries.extend(config.manifest_entries());
    RunManifest::new(
        env!("CARGO_PKG_VERSION"),
        "simulate",
        seed,
        &config.policy_name(),
        config.ts_window_us.unwrap_or(0),
        topology_digest(topo),
        trace_digest(&config.requests),
        entries,
    )
}

/// The run document `affinity-vc simulate --metrics-out` writes: the
/// metrics snapshot plus the manifest, per-job critical-path attribution
/// (from the Chrome trace, as the CLI derives it) and the `ts.*` series.
fn run_document(rec: &MemRecorder, manifest: &RunManifest) -> Result<Value, String> {
    let Value::Object(mut entries) = rec.metrics().to_json() else {
        return Err("metrics snapshot is not a JSON object".into());
    };
    entries.push((vc_obs::MANIFEST_KEY.to_string(), manifest.to_json()));
    let dump = vc_obs::TraceDump::from_chrome_value(&vc_obs::chrome_trace(rec))?;
    let jobs = vc_obs::analyze(&dump);
    entries.push((
        "attribution".to_string(),
        serde_json::json!({
            "jobs": Value::Array(jobs.iter().map(vc_obs::JobAttribution::to_json).collect()),
        }),
    ));
    if manifest.window_us > 0 {
        let set = TimeSeriesSet::from_counter_series(&rec.counter_series());
        let series = set
            .series
            .iter()
            .map(|(name, points)| {
                let rows = points
                    .iter()
                    .map(|&(t, v)| Value::Array(vec![Value::U64(t), Value::F64(v)]))
                    .collect();
                (name.clone(), Value::Array(rows))
            })
            .collect();
        entries.push((
            "timeseries".to_string(),
            serde_json::json!({
                "window_us": manifest.window_us,
                "series": Value::Object(series),
            }),
        ));
    }
    Ok(Value::Object(entries))
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn phase_s(snap: &MetricsSnapshot, phase: vc_obs::Phase) -> f64 {
    counter(snap, phase.wall_us) as f64 / 1e6
}

fn hist_p99(snap: &MetricsSnapshot, phase: vc_obs::Phase) -> f64 {
    snap.histograms
        .get(phase.hist_us)
        .map_or(0.0, |h| h.quantile(0.99) as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the recorded DES leaves for the per-layer report, taken before
/// teardown frees the recorder.
struct Recorded {
    snapshot: MetricsSnapshot,
    /// Spans, events and counter-series points buffered.
    ops: u64,
}

/// Host-side figures of one traced run that feed the per-layer table.
struct Measured<'a> {
    spans: &'a Spans,
    result: &'a SimResult,
    recorded: &'a Recorded,
    topology_rss_mib: f64,
    model_rss_mib: f64,
    export_bytes: usize,
    obs_rss_mib: f64,
}

/// The per-layer metrics of a traced run. `trace.overhead_pct` needs
/// the untraced runs and is added by `run.py`.
fn layer_metrics(m: &Measured) -> Vec<(&'static str, f64)> {
    use vc_obs::prof::{
        BOUND_PRECOMPUTE, CLOUDSIM_RUN, DES_POP, EXCHANGE, INDEX_COMMIT, MR_SERVICE, SEED_SCAN,
        SERVE,
    };
    let snap = &m.recorded.snapshot;
    let c = |name: &str| counter(snap, name) as f64;
    let r = m.result;
    let offered = r.outcomes.len() as f64;
    let served = r.served as f64;
    let deferred = c("placement.requests_deferred");
    let seeds =
        c("placement.seeds_scanned") + c("placement.seeds_pruned") + c("placement.seeds_aborted");
    let events = c("des.events_processed");
    let flows = c("prof.solver.flows");
    let skipped = c("prof.solver.flows_skipped");
    let mr_calls = c(MR_SERVICE.calls);
    let waits = check::quantiles(
        r.outcomes
            .iter()
            .filter_map(|o| o.wait())
            .map(|t| t.as_secs_f64()),
    );
    let jobs = check::quantiles(
        r.outcomes
            .iter()
            .filter_map(|o| o.job_runtime)
            .map(|t| t.as_secs_f64()),
    );
    vec![
        ("topology.build_s", m.spans.secs("topology.build")),
        ("topology.distance_mb", m.topology_rss_mib),
        ("model.cluster_build_s", m.spans.secs("model.cluster_build")),
        ("model.rss_delta_mb", m.model_rss_mib),
        ("cloudsim.trace_gen_s", m.spans.secs("cloudsim.trace_gen")),
        (
            "cloudsim.loop_self_s",
            phase_s(snap, CLOUDSIM_RUN) - phase_s(snap, SERVE) - phase_s(snap, DES_POP),
        ),
        (
            "cloudsim.host_us_per_event",
            ratio(c(CLOUDSIM_RUN.wall_us), events),
        ),
        ("cloudsim.teardown_s", m.spans.secs("teardown")),
        ("cloudsim.sim_wait_p50_s", waits.0),
        ("cloudsim.sim_wait_p99_s", waits.1),
        (
            "placement.serve_s",
            phase_s(snap, SERVE) - phase_s(snap, MR_SERVICE),
        ),
        ("placement.seed_scan_s", phase_s(snap, SEED_SCAN)),
        (
            "placement.bound_precompute_s",
            phase_s(snap, BOUND_PRECOMPUTE),
        ),
        ("placement.exchange_s", phase_s(snap, EXCHANGE)),
        ("placement.index_commit_s", phase_s(snap, INDEX_COMMIT)),
        ("placement.serve_p99_us", hist_p99(snap, SERVE)),
        ("placement.seeds_per_request", ratio(seeds, offered)),
        ("placement.deferrals_per_request", ratio(deferred, served)),
        ("placement.admit_ratio", ratio(served, served + deferred)),
        (
            "placement.exchange_gain",
            ratio(
                r.total_initial_distance as f64 - r.total_distance as f64,
                r.total_initial_distance as f64,
            ),
        ),
        ("mapreduce.service_s", phase_s(snap, MR_SERVICE)),
        (
            "mapreduce.host_us_per_job",
            ratio(c(MR_SERVICE.wall_us), mr_calls),
        ),
        ("mapreduce.job_p99_us", hist_p99(snap, MR_SERVICE)),
        ("mapreduce.sim_job_p50_s", jobs.0),
        ("mapreduce.sim_job_p99_s", jobs.1),
        ("netsim.solver_s", c("prof.solver.wall_us") / 1e6),
        ("netsim.solves", c("prof.solver.solves")),
        ("netsim.flows", flows),
        ("netsim.links_touched", c("prof.solver.links_touched")),
        (
            "netsim.flows_skipped_ratio",
            ratio(skipped, flows + skipped),
        ),
        ("des.pop_s", phase_s(snap, DES_POP)),
        ("des.events", events),
        (
            "obs.record_s",
            m.spans.secs("cloudsim.run") - m.spans.secs("bench.des_reference"),
        ),
        ("obs.export_s", m.spans.secs("obs.export")),
        ("obs.export_mb", m.export_bytes as f64 / (1024.0 * 1024.0)),
        ("obs.rss_delta_mb", m.obs_rss_mib),
        ("obs.ops", m.recorded.ops as f64),
        ("obs.alerts_critical", check::critical_alerts(snap) as f64),
    ]
}

/// Run workload `w` once and return the process's result line.
fn run(
    w: &Workload,
    seed: u64,
    traced: bool,
    out_dir: &Path,
    t0: Instant,
) -> Result<Value, String> {
    let mut spans = Spans {
        t0,
        list: Vec::new(),
    };
    let root = spans.enter("process", None);

    let setup = spans.enter("setup", Some(root));
    let rss_start = status_kb("VmRSS");
    let s = spans.enter("topology.build", Some(setup));
    let topo = Arc::new(generate::uniform(
        w.racks,
        w.nodes,
        DistanceTiers::paper_experiment(),
    ));
    spans.exit(s);
    let rss_topology = status_kb("VmRSS");
    let s = spans.enter("model.cluster_build", Some(setup));
    let state = ClusterState::uniform_capacity(topo, Arc::new(VmCatalog::ec2_table1()), CAPACITY);
    spans.exit(s);
    let rss_model = status_kb("VmRSS");
    let s = spans.enter("cloudsim.trace_gen", Some(setup));
    let arrivals = ArrivalProcess {
        rate_per_s: w.rate,
        profile: RequestProfile::standard(),
        service: ServiceTime::UniformMs(10_000, 60_000),
    };
    let trace = arrivals.generate(
        w.requests,
        state.num_types(),
        &mut StdRng::seed_from_u64(seed),
    );
    spans.exit(s);
    let config = w.config(trace, seed);
    let manifest = w
        .observe_window_us
        .map(|_| manifest(w, seed, &config, state.topology()));
    let setup_s = spans.exit(setup);
    let offered = config.requests.len();

    // The same trace without a recorder, so recording cost can be split
    // out of the traced DES time.
    let reference = traced.then(|| {
        let s = spans.enter("bench.des_reference", Some(root));
        let r = sim::run(&state, w.config(config.requests.clone(), seed));
        spans.exit(s);
        r
    });

    let recorder = (traced || manifest.is_some()).then(MemRecorder::new);
    vc_obs::prof::set_detailed(traced);
    let s = spans.enter("cloudsim.run", Some(root));
    let result = match &recorder {
        Some(rec) => sim::run_recorded(&state, config, rec),
        None => sim::run(&state, config),
    };
    let sim_s = spans.exit(s);
    let hwm_des_end = status_kb("VmHWM");

    let s = spans.enter("bench.collect", Some(root));
    let summary = check::summarize(&result);
    let mut failures = check::check_result(&result, offered);
    if let Some(reference) = &reference {
        let expected = check::summarize(reference);
        if expected.outcome_digest != summary.outcome_digest {
            failures.push(format!(
                "recorded and unrecorded runs differ: digest {} vs {}",
                summary.outcome_digest, expected.outcome_digest
            ));
        }
    }
    let recorded = recorder.as_ref().map(|rec| Recorded {
        snapshot: rec.metrics(),
        ops: if traced {
            let series: usize = rec.counter_series().values().map(Vec::len).sum();
            (rec.spans().len() + rec.events().len() + series) as u64
        } else {
            0
        },
    });
    spans.exit(s);

    let mut export = None;
    if let (Some(rec), Some(manifest)) = (&recorder, &manifest) {
        let s = spans.enter("obs.export", Some(root));
        let doc = run_document(rec, manifest)?;
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        let path = out_dir.join(format!("{}.run.json", w.name));
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        spans.exit(s);
        export = Some((path, text.len(), manifest.digest()));
    }

    let s = spans.enter("teardown", Some(root));
    drop(recorder);
    drop(reference);
    drop(state);
    spans.exit(s);
    spans.exit(root);
    let peak_kb = status_kb("VmHWM");
    // The benchmark's own bookkeeping is not part of the run.
    let total_s =
        spans.secs("process") - spans.secs("bench.des_reference") - spans.secs("bench.collect");

    if let Some((path, _, digest)) = &export {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        failures.extend(check::check_document(&text, digest));
    }
    let critical = recorded
        .as_ref()
        .map_or(0, |r| check::critical_alerts(&r.snapshot));
    if manifest.is_some() && critical > 0 {
        failures.push(format!("{critical} critical health alerts recorded"));
    }

    let mut fields = vec![
        ("workload", Value::Str(w.name.to_string())),
        ("seed", Value::U64(seed)),
        ("traced", Value::Bool(traced)),
        ("offered", Value::U64(offered as u64)),
        ("served", Value::U64(summary.served)),
        ("refused", Value::U64(summary.refused)),
        ("total_distance", Value::U64(summary.total_distance)),
        ("outcome_digest", Value::Str(summary.outcome_digest.clone())),
        (
            "effort_digest",
            recorded.as_ref().map_or(Value::Null, |r| {
                Value::Str(check::effort_digest(&r.snapshot))
            }),
        ),
        ("setup_s", Value::F64(setup_s)),
        ("sim_s", Value::F64(sim_s)),
        ("total_s", Value::F64(total_s)),
        ("peak_rss_kb", Value::U64(peak_kb)),
        (
            "failures",
            Value::Array(failures.into_iter().map(Value::Str).collect()),
        ),
    ];
    if traced {
        let recorded = recorded.as_ref().expect("traced runs record");
        let layers = layer_metrics(&Measured {
            spans: &spans,
            result: &result,
            recorded,
            topology_rss_mib: mib_from_kb(rss_topology, rss_start),
            model_rss_mib: mib_from_kb(rss_model, rss_topology),
            export_bytes: export.as_ref().map_or(0, |e| e.1),
            obs_rss_mib: mib_from_kb(peak_kb, hwm_des_end),
        });
        fields.push((
            "layers",
            Value::Object(
                layers
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::F64(v)))
                    .collect(),
            ),
        ));
        let path = out_dir.join(format!("{}.spans.json", w.name));
        let text = serde_json::to_string_pretty(&spans.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    ))
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut traced = false;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?;
            }
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            "--traced" => traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        traced,
        out_dir: out_dir.ok_or("missing --out")?,
    })
}

fn main() {
    let t0 = Instant::now();
    let outcome = parse_args().and_then(|a| {
        std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("{}: {e}", a.out_dir.display()))?;
        run(a.workload, a.seed, a.traced, &a.out_dir, t0)
    });
    match outcome {
        Ok(line) => println!(
            "{}",
            serde_json::to_string(&line).expect("shim serialisation is infallible")
        ),
        Err(e) => {
            eprintln!("vc-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
