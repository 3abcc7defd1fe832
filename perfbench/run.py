#!/usr/bin/env python3
"""End-to-end benchmark of the affinity-vc simulator.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the `vc-perfbench` binary from source (into $CARGO_TARGET_DIR,
default `.bench_build`), then starts one process per measured run of the
workload, over and over, for `--seconds` seconds. Each process builds the
workload's inputs from `--seed`, runs the simulator once and checks its
own results; this script checks that every run of the seed simulated the
same thing and reports medians.

With `--trace 0` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with `--trace 1` it alternates
untraced and traced processes and reports every per-layer metric instead. Lines before
it are a human-readable table. Raw per-run results go to `.bench_out/`.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Fewest untraced runs (or traced pairs) a measurement makes, even when
# they overrun --seconds.
MIN_RUNS = 3
# A single run takes under 10 s; anything near this is a hang.
RUN_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark itself could not run (build, crash, bad config)."""


def load_spec(path):
    """BENCHMARK.json, with every metric name checked against the grammar."""
    spec = json.loads(path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    for key in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[key]]
    bad = [n for n in names if not valid_name(n)]
    if bad:
        raise BenchError(f"invalid names in {path.name}: {bad}")
    if len(set(names)) != len(names):
        raise BenchError(f"duplicate names in {path.name}")
    return spec


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def build():
    """Build the release binary and return its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    return target / "release" / "vc-perfbench"


def run_once(binary, workload, seed, traced, out_dir):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--out", str(out_dir)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(binary, workload, seed, seconds, trace, out_dir):
    """Start runs until `seconds` have passed: untraced runs, or with
    `trace` pairs of one untraced and one traced run. Pairs alternate
    which side goes first, so a slow spell of the host hits both sides
    alike. Returns (untraced, traced)."""
    start = time.monotonic()
    untraced, traced = [], []

    def run(traced_run):
        out = traced if traced_run else untraced
        out.append(run_once(binary, workload, seed, traced_run, out_dir))

    while len(untraced) < MIN_RUNS or time.monotonic() - start < seconds:
        if trace:
            first = len(traced) % 2 == 1
            run(first)
            run(not first)
        else:
            run(False)
    return untraced, traced


def check_runs(runs):
    """Cross-run checks. Returns (failures, indices of failed runs).

    Every run of one workload and seed must simulate the same outcomes,
    and every recorded run must report the same effort counters."""
    failures, failed = [], set()
    for i, r in enumerate(runs):
        if r["failures"]:
            failures += [f"run {i}: {f}" for f in r["failures"]]
            failed.add(i)
    for key in ("outcome_digest", "effort_digest"):
        seen = {r[key] for r in runs if r[key] is not None}
        if len(seen) > 1:
            failures.append(f"{key} differs between runs: {sorted(seen)}")
            failed.update(range(len(runs)))
    return failures, failed


def operations(runs, failed):
    """(attempted, failed): offered requests, and those refused or in a
    run that failed a check."""
    attempted = sum(r["offered"] for r in runs)
    lost = sum(r["offered"] if i in failed else r["refused"] for i, r in enumerate(runs))
    return attempted, lost


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end(runs):
    """Per-run end-to-end figures, by metric name."""
    return {
        "setup_s": [r["setup_s"] for r in runs],
        "req_per_s": [r["offered"] / r["sim_s"] for r in runs],
        "total_s": [r["total_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in runs],
        "mean_distance": [r["total_distance"] / r["served"] for r in runs],
        "served_frac": [r["served"] / r["offered"] for r in runs],
    }


def per_layer(untraced, traced):
    """Per-run per-layer figures, by metric name. The tracing overhead is
    taken within each pair of adjacent untraced and traced runs."""
    samples = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    samples["trace.overhead_pct"] = [(t["total_s"] / u["total_s"] - 1) * 100
                                     for u, t in zip(untraced, traced)]
    return samples


def summarize(samples, declared):
    """Median of each declared metric; the produced set must match it."""
    if set(samples) != set(declared):
        raise BenchError(f"metrics {sorted(set(samples) ^ set(declared))} "
                         "are not both declared and produced")
    return {name: {"value": statistics.median(samples[name]), "unit": declared[name]}
            for name in declared}


def print_table(title, samples, declared):
    print(title)
    for name in declared:
        q1, med, q3 = quartiles(samples[name])
        print(f"  {name:34} {med:14.6g} {declared[name]:10} q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(samples[name])}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec(ROOT / "BENCHMARK.json")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        binary = build()
        out_dir = ROOT / ".bench_out"
        untraced, traced = collect(binary, args.workload, args.seed, args.seconds,
                                   args.trace == 1, out_dir)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    runs = untraced + traced
    raw = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps(runs, indent=1))

    failures, failed = check_runs(runs)
    attempted, lost = operations(runs, failed)
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    samples = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    try:
        metrics = summarize(samples, declared)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced runs, {os.cpu_count()} CPUs")
    print_table("median over runs:", samples, declared)
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": lost,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
