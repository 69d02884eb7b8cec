#!/usr/bin/env python3
"""Build and run the p2ql benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring_monitor [--seed 1] [--seconds 30] [--trace 0]

Workloads: ring_monitor, forensic_incident, deploy_churn (see
perfbench/README.md). The default seed is 1; seed 7919 is held out: a
claimed gain must also hold on it.

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). The program's human-readable
report goes to stdout; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end metrics BENCHMARK.json lists, with --trace 1 its
per-layer metrics; a listed metric the run did not compute fails the run.

Every run also checks its deterministic counter fingerprint against the
one recorded for the same workload, seed and binary; a mismatch is
nondeterminism and fails the run (exit code 3).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("ring_monitor", "forensic_incident", "deploy_churn")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    exe = os.path.join(target_dir(), "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"built binary missing: {exe}")
    return exe


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def steal_jiffies():
    """Host CPU time stolen from this machine so far (/proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def host_facts(shards):
    return {
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "-C", HERE, "rev-parse", "HEAD"]),
        "shards": shards,
        "machine": platform.machine(),
    }


def listed_metrics(trace):
    """Names of the metrics BENCHMARK.json lists for this kind of run."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    try:
        with open(path) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def check_fingerprint(workload, seed, exe, fingerprint):
    """Same workload, seed and binary must do exactly the same work."""
    with open(exe, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(target_dir(), "perfbench-fingerprints.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    key = f"{workload}:{seed}:{binary}"
    if key in known and known[key] != fingerprint:
        fail(f"nondeterminism: {workload} seed {seed} did different work than an "
             f"earlier run of the same binary:\n  before {known[key]}\n  now    {fingerprint}", 3)
    known[key] = fingerprint
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--spans-out",
                os.path.join(target_dir(), f"perfbench-spans-{a.workload}-{a.seed}.csv")]
    steal0 = steal_jiffies()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    steal1 = steal_jiffies()
    out = r.stdout
    lines = out.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {r.returncode}",
             r.returncode if r.returncode > 0 else 2)
    try:
        rec = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("benchmark printed no result record")
    for line in lines[:-1]:
        print(line)

    check_fingerprint(a.workload, a.seed, exe, rec["fingerprint"])
    # Exactly the metrics BENCHMARK.json lists, each measured by the run.
    names = listed_metrics(a.trace)
    unlisted = [k for k in names if k not in rec["metrics"]]
    if unlisted:
        fail(f"the run did not compute: {', '.join(unlisted)}")
    metrics = {k: rec["metrics"][k] for k in names}
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if missing:
        fail(f"metrics without a value (too few samples?): {', '.join(missing)}")

    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "host": dict(host_facts(rec["shards"]),
                     steal_jiffies=None if steal0 is None or steal1 is None else steal1 - steal0),
        "fingerprint": rec["fingerprint"],
        "figures": rec["report"],
        "metrics": metrics,
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
