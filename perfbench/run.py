#!/usr/bin/env python3
"""The repo benchmark: one command that builds the code under test in
Release, runs a named workload, checks every answer, and prints every
metric by name with its unit.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare A.json B.json

Workloads: serve_read, serve_churn (the real `meshroutectl serve` over
loopback TCP) and paper_sweep (the Fig. 12 sweep through the sweep engine).
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced replay. The last stdout line is one JSON object
with exactly the keys correct, attempted, failed and metrics. Every result is
also kept, with its provenance, under .bench_build/results/. METRICS.md is
the glossary.

The build goes to .bench_build/perfbench (never the tier-1 build/ tree).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RESULTS = os.path.join(BUILD_ROOT, "results")
WORKLOADS = ("serve_read", "serve_churn", "paper_sweep")
RUN_TIMEOUT_S = 170
# Provenance keys that must agree before two results may be compared.
PROVENANCE_MUST_MATCH = ("build_type", "compiler", "simd_tier", "nproc", "workers")
# The end-to-end figures each workload prints for humans, under the names
# the glossary gives them (BENCHMARK.json tracks workload-neutral names).
WORKLOAD_FIGURES = {
    "serve_read": ["setup_s", "route_p50_us", "route_p99_us", "decide_p50_us", "decide_p99_us",
                   "read_capacity_qps", "peak_rss_mb", "error_rate"],
    "serve_churn": ["setup_s", "inject_p50_ms", "inject_p99_ms", "decide_p50_us",
                    "decide_p99_us", "route_p50_us", "route_p99_us", "publish_capacity_per_s",
                    "peak_rss_mb", "error_rate"],
    "paper_sweep": ["setup_s", "sweep_trials_per_s", "trial_p50_us", "trial_p99_us",
                    "peak_rss_mb", "error_rate"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_metrics():
    """The metric lists of the contract file, BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark package; exit 1 on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                log(f"perfbench: build failed (full log: {build_log})")
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD, ignore_errors=True)
                sys.exit(1)


def run_perfbench(args):
    """Run the perfbench binary in its own session; kill the whole group
    (server processes included) if it overruns. Returns the parsed report."""
    cmd = [os.path.join(BUILD, "perfbench")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run timed out")
        sys.exit(1)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"perfbench: binary exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the sources the build reads (the checkout may not be a
    git repository)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def measure(workload, seed, seconds, trace, tiny=False):
    """One benchmark run: the perfbench binary's report plus provenance."""
    args = [workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
            "1" if trace else "0", "--ctl", os.path.join(BUILD, "meshroutectl")]
    if tiny:
        args.append("--tiny")
    report = run_perfbench(args)
    info = report["info"]
    info["git_rev"] = git_rev()
    info["source_digest"] = source_digest()
    info.setdefault("workers", "1")  # serve: one server thread
    report.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    return report


def tracked(report, spec, trace):
    """The metrics BENCHMARK.json tracks for this mode."""
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = report["metrics"].get(m["name"])
        if got is None:
            raise KeyError(f"metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def print_human(report, spec, trace):
    info = report["info"]
    log(f"== {report['workload']} seed={report['seed']} trace={report['trace']}")
    log("provenance: " + ", ".join(f"{k}={info.get(k, '?')}" for k in
                                   ("git_rev", "source_digest", "build_type", "compiler",
                                    "simd_tier", "nproc", "workers")))
    names = ([m["name"] for m in spec["per_layer"]] if trace
             else WORKLOAD_FIGURES[report["workload"]])
    for name in names:
        m = report["metrics"].get(name)
        if m is not None:
            log(f"  {name:34s} {m['value']:>14.4f} {m['unit']}")
    for k in sorted(info):
        if k.endswith("_samples") or k in ("digest", "offered_rate", "server_lives",
                                           "decides_out_of_model", "batch"):
            log(f"  {k}: {info[k]}")
    for v in report.get("violations", []):
        log(f"  VIOLATION: {v}")


def save(report):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{report['workload']}-seed{report['seed']}-trace"
                                 f"{report['trace']}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return path


def run_one(args):
    spec = load_metrics()
    build()
    report = measure(args.workload, args.seed, args.seconds, args.trace)
    print_human(report, spec, args.trace)
    log(f"  saved: {save(report)}")
    metrics = tracked(report, spec, args.trace)
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)


def compare(path_a, path_b):
    """Per-metric ratio B/A, refused when the provenance differs."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            log(f"perfbench: refusing to compare: {key} differs ({a[key]} vs {b[key]})")
            return 2
    for key in PROVENANCE_MUST_MATCH:
        if a["info"].get(key) != b["info"].get(key):
            log(f"perfbench: refusing to compare: provenance {key} differs "
                f"({a['info'].get(key)} vs {b['info'].get(key)})")
            return 2
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        ratio = f"{vb / va:8.3f}" if va else "     n/a"
        print(f"{name:34s} {va:14.4f} {vb:14.4f} {ratio} {a['metrics'][name]['unit']}")
    return 0


def selftest():
    """Tiny-size run of every workload in both modes: every named metric is
    present with its unit and nothing failed."""
    spec = load_metrics()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    build()
    for workload in WORKLOADS:
        for trace in (False, True):
            report = measure(workload, 7, 2, trace, tiny=True)
            metrics = tracked(report, spec, trace)
            assert report["failed"] == 0, f"{workload}: {report['violations']}"
            assert report["metrics"]["error_rate"]["value"] == 0
            if trace:
                assert report["metrics"]["trace.nesting_violations"]["value"] == 0, report["info"]
                for name, m in metrics.items():  # every layer is measured
                    assert m["unit"] not in ("us", "ns") or m["value"] != 0, name
            else:
                for name in WORKLOAD_FIGURES[workload]:
                    assert name in report["metrics"], f"{workload}: {name} missing"
                for name, m in metrics.items():
                    assert m["value"] > 0, f"{workload}: {name} reads {m['value']}"
            log(f"selftest: {workload} trace={int(trace)} ok ({len(metrics)} metrics)")
    log("selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
