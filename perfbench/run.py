"""Benchmark of spectralvol: Monte Carlo studies and desk series fits.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, untraced and traced
    python3 perfbench/run.py --workload desk_series --seed 5 --seconds 20 --trace 0

With ``--workload`` the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Without it every workload runs both ways, every metric is printed by name
with its unit and better direction, and the verifier's result follows.

Each workload runs in its own process with the BLAS pool pinned to one
thread.  ``setup_s`` is the median, over several fresh processes, of the time
from process start until ``import spectralvol`` has returned.  Every time is
reported at a reference host speed (hostspeed.py).  The program is imported
from ``src/`` of the current directory; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from machine import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)
import hostspeed  # noqa: E402

WORKLOAD_NAMES = ("mc_configs", "desk_series")
DEFAULT_SEED = 11
SETUP_PROBES = (6, 5)  # before and after the workload, to sample two moments
WORKER_TIMEOUT_S = 150


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def setup_samples(root: Path, count: int) -> list[float]:
    """Times from spawning a fresh interpreter to `import spectralvol` returning,
    at the reference host speed.

    Once ready, the probe times the host-speed kernel twice and prints both
    times, which scale the sample.  One untimed probe goes first so that every
    timed one finds the bytecode cache written.
    """
    samples = []
    for k in range(count + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "--probe"],
                                stdout=subprocess.PIPE, text=True, env=child_env(root), cwd=root)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        kernel = proc.stdout.readline()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            fail("set-up probe failed")
        if k:
            samples.append(hostspeed.scale(elapsed, *json.loads(kernel)))
    return samples


def run_worker(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(root),
                              cwd=root, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    before = [] if trace else setup_samples(root, SETUP_PROBES[0])
    result = run_worker(root, workload, seed, seconds, trace)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(before + setup_samples(root, SETUP_PROBES[1]))
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    info = result["info"]
    result["machine"]["commit"] = git_commit(root)
    correct = info["failed"] == 0 and info["verifier_selftest"]
    return {
        "workload": workload,
        "trace": trace,
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "better": {m["name"]: m["better"] for m in declared},
        "info": info,
        "machine": result["machine"],
    }


def print_result(r: dict) -> None:
    info = r["info"]
    print(f"== {r['workload']} (trace {r['trace']})")
    for name, m in r["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']:6s} {r['better'][name]} is better")
    if not r["trace"]:
        print(f"  latency_tail_ms is p{info['latency_tail_percentile']:.1f} "
              f"of {info['latency_samples']} samples")
    print(f"  verifier: attempted={r['attempted']} failed={r['failed']} "
          f"fail_ratio={r['failed'] / r['attempted']:.6g} failed_checks={info['failed_checks']} "
          f"selftest={'ok' if info['verifier_selftest'] else 'FAILED'} "
          f"reference_compared={info['reference_compared']} "
          f"bound_flags_false={info['bound_flags_false']}")
    print("  info: " + json.dumps(info, sort_keys=True))
    print("  machine: " + json.dumps(r["machine"], sort_keys=True))


def main(argv=None) -> int:
    root = Path.cwd()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every result to this JSON file")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite reference.json from this checkout at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)

    if not (root / "src" / "spectralvol" / "__init__.py").is_file() or not (root / "configs").is_dir():
        fail("run from the root of a spectralvol checkout (src/spectralvol and configs/ not found)")
    if args.record_reference:
        cmd = [sys.executable, str(HERE / "worker.py"), "--record-reference"]
        return subprocess.run(cmd, env=child_env(root), cwd=root).returncode
    spec = load_spec(root)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload:
        runs = [run_workload(root, spec, args.workload, args.seed, seconds, args.trace)]
    else:
        runs = [run_workload(root, spec, w, args.seed, seconds, trace)
                for w in WORKLOAD_NAMES for trace in (0, 1)]
    for r in runs:
        print_result(r)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
            fh.write("\n")
    if args.workload:
        summary = {k: runs[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {f"{r['workload']}.{name}": m for r in runs for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
