#!/usr/bin/env python3
"""TerraDir simulator benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, then launches one bench process per
repetition of the workload, one at a time.

--trace 0 repeats the workload in fresh processes until S seconds have
passed (at least MIN_REPS repetitions) and reports the end-to-end
metrics.  Repetitions cycle through TRAJECTORIES trajectories of the
seed.  Host metrics are the median over all repetitions; sim metrics,
which repeat exactly for one trajectory, are the median over the
trajectories.

--trace 1 runs the workload untraced PAIRS times at K=1 and PAIRS times
at K=2 engine domains, alternating, then once traced at K=1.  It prints
the traced process's report (spans, reconciliation) and the per-layer
metrics.

Every repetition must pass its output checks, and all repetitions of one
seed -- untraced, traced, K=1 and K=2 -- must produce the same trajectory
fingerprint.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Metric names and units
come from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
EVENTS_DIR = os.path.join(".bench_build", "runtime_events")
WORKLOADS = ("route_uniform", "hotspot_shift", "churn_lossy", "scale_sparse")
TRAJECTORIES = 3
MIN_REPS = TRAJECTORIES + 1  # so that at least one trajectory runs twice
PAIRS = 3
REP_TIMEOUT_S = 150
BUDGET_S = 165  # stop starting repetitions past this point of the run


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json from the checkout root: %s" % e)


def build():
    for needed in ("dune-project", os.path.join("lib", "terradir", "cluster.mli")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a source checkout" % needed)
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
           "./perfbench/bench.exe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=850)
    if proc.returncode != 0 or not os.path.exists(BENCH_EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed (exit %d)" % proc.returncode)


def run_rep(workload, seed, trajectory=0, domains=1, trace=False):
    """One bench process; returns (parsed last JSON line, other stdout lines)."""
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--trajectory", str(trajectory), "--domains", str(domains)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    os.makedirs(EVENTS_DIR, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(EVENTS_DIR)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(cmd), REP_TIMEOUT_S), 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s printed no result (exit %d)" % (" ".join(cmd), proc.returncode), 1)
    if proc.returncode != 0 and result.get("correct"):
        result["correct"] = False
        result["errors"].append("exit code %d" % proc.returncode)
    sys.stderr.write(proc.stderr)
    return result, lines[:-1]


def fingerprint_errors(reps):
    """Repetitions of one trajectory must agree byte for byte."""
    first = {}
    errors = []
    for r in reps:
        f = first.setdefault(r["trajectory"], r)
        if r["fingerprint"] != f["fingerprint"]:
            errors.append("trajectory %d of %s (K=%d) differs from %s (K=%d):\n  %s\n  %s" % (
                r["trajectory"], r["label"], r["domains"], f["label"], f["domains"],
                r["fingerprint"], f["fingerprint"]))
    return errors


# No metric may silently read zero: each per-layer metric must be non-zero
# on the workloads that exercise it.  Metrics not listed here are
# exercised by every workload.
EXERCISED_ON = {
    "net.lost": ("churn_lossy",),
    "net.retransmits_per_query": ("churn_lossy",),
    "net.late_replies": ("churn_lossy",),
    "fetch.success_share": ("churn_lossy",),
    "routing.stale_share": ("hotspot_shift", "churn_lossy"),
    "server.queue_wait_p99_s": ("route_uniform", "hotspot_shift", "churn_lossy"),
    "server.drop_fraction": ("route_uniform", "hotspot_shift", "churn_lossy"),
    "replication.sessions": ("route_uniform", "hotspot_shift", "churn_lossy"),
    "replication.replicas_created": ("route_uniform", "hotspot_shift", "churn_lossy"),
    "replication.replicas_per_session": ("route_uniform", "hotspot_shift", "churn_lossy"),
}


def zero_errors(workload, metrics):
    return ["per-layer metric %s reads zero on %s, which exercises it" % (name, workload)
            for name, m in metrics.items()
            if m["value"] == 0 and workload in EXERCISED_ON.get(name, WORKLOADS)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(correct, attempted, failed, metrics, errors):
    for e in errors:
        print("CHECK FAILED: " + e)
    for name, m in metrics.items():
        print("  %-34s %22.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def end_to_end(spec, args):
    start = time.monotonic()
    reps = []
    while True:
        r, _ = run_rep(args.workload, args.seed, trajectory=len(reps) % TRAJECTORIES)
        r["label"] = "repetition %d" % (len(reps) + 1)
        reps.append(r)
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and (elapsed >= args.seconds or elapsed + per_rep > BUDGET_S):
            break
    errors = [e for r in reps for e in r["errors"]] + fingerprint_errors(reps)
    correct = all(r["correct"] for r in reps) and not errors
    trajectories = reps[:TRAJECTORIES]
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name in reps[0]["host"]:
            value = statistics.median(r["host"][name] for r in reps)
        else:
            value = statistics.median(r["sim"][name] for r in trajectories)
        metrics[name] = metric(value, m["unit"])
    print("workload %s seed %d: %d repetitions of %d trajectories in %.1f s (host); "
          "resolved queries per trajectory: %s"
          % (args.workload, args.seed, len(reps), TRAJECTORIES, time.monotonic() - start,
             ", ".join(str(r["resolved"]) for r in trajectories)))
    report(correct, sum(r["attempted"] for r in reps), sum(r["failed"] for r in reps), metrics,
           errors)


def traced(spec, args):
    # Untraced runs alternate K=1 and K=2 (PAIRS of each) so that the
    # speed-up and the tracing overhead compare medians, not single runs.
    runs = {1: [], 2: []}
    for i in range(PAIRS):
        for k in (1, 2):
            r, _ = run_rep(args.workload, args.seed, domains=k)
            r["label"] = "untraced K=%d run %d" % (k, i + 1)
            runs[k].append(r)
    trace, lines = run_rep(args.workload, args.seed, trace=True)
    trace["label"] = "traced run"
    reps = runs[1] + runs[2] + [trace]
    for line in lines:
        print(line)
    run_s = {k: statistics.median(r["run_s"] for r in runs[k]) for k in runs}
    layers = dict(trace["layers"])
    layers["par_engine.speedup_k2"] = run_s[1] / run_s[2]
    layers["obs.trace_overhead"] = trace["run_s"] / run_s[1]
    errors = [e for r in reps for e in r["errors"]] + fingerprint_errors(reps)
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in layers:
            errors.append("per-layer metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = metric(layers[m["name"]], m["unit"])
    errors += zero_errors(args.workload, metrics)
    correct = all(r["correct"] for r in reps) and not errors
    report(correct, trace["attempted"], trace["failed"], metrics, errors)


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running bench process before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    build()
    if args.trace:
        traced(spec, args)
    else:
        end_to_end(spec, args)


if __name__ == "__main__":
    main()
