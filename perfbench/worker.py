"""One workload in its own process: timed untraced, or traced per layer.

Started by run.py with the BLAS pool pinned in the environment.  Prints one
JSON object as its last line of standard output.

    worker.py --probe
    worker.py --workload NAME --seed S --seconds T --trace 0|1
    worker.py --record-reference
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SELF_MS = [
    "market.simulate_latent", "market.observe", "market.derive_seed",
    "market.read_observations_csv", "basis.basis_columns", "cli.parse_config",
    "estimators.siml", "estimators.ina", "estimators.mm_fourier_complex",
    "estimators.noise_expectation_exact",
    "likelihood.spectral_transform", "likelihood.joint_mle", "experiments.run_experiment",
]
CALLS = ["market.simulate_latent", "market.derive_seed", "basis.basis_columns",
         "experiments.run_experiment"]


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, count).

    With fewer than eleven samples no such percentile exists and the maximum
    is reported as the 100th percentile.
    """
    ordered = sorted(latencies)
    if len(ordered) < 11:
        return ordered[-1], 100.0, len(ordered)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def run_calls(work, budget: float, min_calls: int) -> list:
    """Closed loop, one client: at least ``min_calls`` calls back to back, then
    more while another call as long as the last one fits in the budget.  The
    host-speed kernel runs between calls, outside their times.

    Returns [(call seconds at the reference speed, raw call seconds, output), ...].
    """
    import hostspeed

    calls = []
    hostspeed.kernel_seconds()  # warm-up
    before = hostspeed.kernel_seconds()
    start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - start + calls[-1][1] < budget:
        t0 = time.perf_counter()
        out = work.op(len(calls))
        raw = time.perf_counter() - t0
        after = hostspeed.kernel_seconds()
        calls.append((hostspeed.scale(raw, before, after), raw, out))
        before = after
    return calls


def typical_rate(work, calls: list, column: int = 0) -> float:
    """Operations per second of one pass made of each group's median call.

    Calls are grouped by what they compute (``work.group``): a config, a bar
    count.  The median leaves out the few desk_series
    fits that run all 500 sweeps.  ``column`` picks call times at the
    reference host speed (0) or raw ones (1).
    """
    times: dict = {}
    ops: dict = {}
    for call in calls:
        out = call[-1]
        key = work.group(out)
        times.setdefault(key, []).append(call[column])
        ops[key] = work.count(out)
    return sum(ops.values()) / sum(statistics.median(t) for t in times.values())


def latency_metrics(work, calls: list, column: int) -> tuple[float, float, float, int]:
    """(p50 seconds, tail seconds, tail percentile, sample count) of the first
    ``work.latency_calls`` calls, ``work.latency_unit`` calls to a sample.

    A fixed number of samples keeps the tail percentile the same from run to
    run; the latency mix of desk_series is three-modal.
    """
    timed, step = calls[: work.latency_calls], work.latency_unit
    latencies = [sum(c[column] for c in timed[k:k + step]) for k in range(0, len(timed), step)]
    tail, percentile, samples = tail_latency(latencies)
    return statistics.median(latencies), tail, percentile, samples


def verify_all(work, outputs: list) -> dict:
    attempted = failed = flags = 0
    checks: dict[str, int] = {}
    for out in outputs:
        attempted += work.count(out)
        bad, names = work.verify(out)
        failed += bad
        flags += work.bound_flags_false(out)
        for name in names:
            checks[name] = checks.get(name, 0) + 1
    unconverged = getattr(work, "unconverged_at_maximum", 0)
    # The verifier's self-test: a corrupted copy of a real output must count.
    corrupted, _ = work.verify(work.corrupt(outputs[0]))
    return {"attempted": attempted, "failed": failed, "failed_checks": checks,
            "bound_flags_false": flags, "mle_unconverged_at_maximum": unconverged,
            "verifier_selftest": corrupted > 0}


def untraced(work, seconds: float) -> dict:
    calls = run_calls(work, seconds, work.latency_calls)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50, tail, percentile, samples = latency_metrics(work, calls, 0)
    raw_p50, raw_tail, _, _ = latency_metrics(work, calls, 1)
    metrics = {
        "ops_per_s": typical_rate(work, calls),
        "latency_p50_ms": 1e3 * p50,
        "latency_tail_ms": 1e3 * tail,
        "peak_rss_mib": peak_rss_mib,
    }
    scaled, raw = sum(c[0] for c in calls), sum(c[1] for c in calls)
    info = {"latency_tail_percentile": percentile, "latency_samples": samples,
            "calls": len(calls),
            "host_speed": raw and scaled / raw,
            "raw": {"ops_per_s": typical_rate(work, calls, 1), "latency_p50_ms": 1e3 * raw_p50,
                    "latency_tail_ms": 1e3 * raw_tail}}
    # Untimed calls whose outputs the verifier needs (mc_configs: --threads 2).
    outputs = [c[-1] for c in calls] + [work.op(i, True) for i in work.check_calls]
    return {"metrics": metrics, "info": info, "outputs": outputs}


def layer_metrics(spans: list) -> dict:
    from tracer import self_times

    own = self_times(spans)
    self_ms = dict.fromkeys(SELF_MS, 0.0)
    calls = dict.fromkeys(CALLS, 0)
    sweeps = []
    for span in spans:
        name = span[1]
        if name in self_ms:
            self_ms[name] += 1e3 * own[span[0]]
        if name in calls:
            calls[name] += 1
        if name == "likelihood.joint_mle":
            sweeps.append(span[7])
    out = {f"{name}.self_ms": value for name, value in self_ms.items()}
    out.update({f"{name}.calls": value for name, value in calls.items()})
    out["likelihood.joint_mle.sweeps_sum"] = sum(s["sweeps"] for s in sweeps)
    out["likelihood.joint_mle.sweeps_max"] = max((s["sweeps"] for s in sweeps), default=0)
    out["likelihood.joint_mle.unconverged"] = sum(1 for s in sweeps if not s["converged"])
    return out


def traced(work, seconds: float, spans_path: Path) -> dict:
    """Pairs of one untraced and one traced pass over the same fixed calls.

    An untimed pass warms the process up first, and the order inside a pair
    alternates, so that neither side always pays first-call costs.
    """
    from tracer import Tracer

    for i, two_threads in work.trace_calls:
        work.op(i, two_threads)
    tracer = Tracer()
    tracer.install()
    passes, ratios, outputs, threads2 = [], [], [], []
    start = time.perf_counter()
    try:
        while True:
            walls = {}
            for traced_pass in (False, True) if len(passes) % 2 == 0 else (True, False):
                tracer.reset()
                t0 = time.perf_counter()
                for request, (i, two_threads) in enumerate(work.trace_calls):
                    if traced_pass:
                        with tracer.request(request):
                            outputs.append(work.op(i, two_threads))
                    else:
                        t_call = time.perf_counter()
                        outputs.append(work.op(i, two_threads))
                        if two_threads:
                            threads2.append(work.count(outputs[-1]) / (time.perf_counter() - t_call))
                walls[traced_pass] = time.perf_counter() - t0
                if traced_pass:
                    passes.append(layer_metrics(tracer.spans))
                    spans = tracer.spans
            ratios.append(walls[True] / walls[False])
            # Stop before a pair that would end past the budget.
            if time.perf_counter() - start + walls[True] + walls[False] > seconds:
                break
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "request", "thread", "attrs"],
                   "spans": spans}, fh)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["experiments.threads2_ops_per_s"] = statistics.median(threads2) if threads2 else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    info = {"traced_passes": len(passes), "spans_file": str(spans_path)}
    return {"metrics": metrics, "info": info, "outputs": outputs}


def record_reference(root: Path) -> None:
    import workloads

    seed = workloads.DEFAULT_SEED
    values = {
        "seed": seed,
        "mc_configs": workloads.McConfigs(seed, root).reference_values(),
        "desk_series": workloads.DeskSeries(seed, root).reference_values(),
    }
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(values, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import spectralvol

    if args.probe:
        print("ready", flush=True)
        import hostspeed

        hostspeed.kernel_seconds()  # warm-up
        print(json.dumps([hostspeed.kernel_seconds(), hostspeed.kernel_seconds()]), flush=True)
        return 0
    root = Path.cwd()
    if Path(spectralvol.__file__).resolve().parent != (root / "src" / "spectralvol").resolve():
        print(f"spectralvol was imported from {spectralvol.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(root)
        return 0

    import machine
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, root)
    if args.seed == workloads.DEFAULT_SEED:
        work.reference = workloads.load_reference()
    if args.trace:
        spans_path = Path(".bench_out") / f"spans-{args.workload}-{args.seed}.json"
        result = traced(work, args.seconds, spans_path)
    else:
        result = untraced(work, args.seconds)
    result["info"].update(verify_all(work, result.pop("outputs")))
    result["info"]["reference_compared"] = work.reference is not None
    result["machine"] = machine.describe(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
