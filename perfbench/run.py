#!/usr/bin/env python3
"""Benchmark entry point: one workload per invocation, from the repo root.

    python3 perfbench/run.py --workload campaign-faulty --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper
installed.  ``--trace 1`` gives the per-layer split instead: it runs
the first half of ``--seconds`` untraced, re-runs the same passes with
every layer wrapped (the difference is the tracing overhead), then
repeats the first pass in a fresh context and checks that every work
count comes out identical.  The last line of standard output is the
result as one JSON object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Thread pools pinned to one thread: numpy links a threaded OpenBLAS.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")
#: Switches that slow the program down for checking; never benchmarked.
UNSET = ("REPRO_TSAN", "REPRO_VERIFY_GRAPHS", "REPRO_SERVICE_CHAOS",
         "REPRO_SANITIZE_SEED")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> None:
    """Pin thread pools and worker counts before numpy is imported."""
    for name in PINNED_THREADS:
        os.environ[name] = "1"
    os.environ["REPRO_MAX_WORKERS"] = str(cpu_count())
    for name in UNSET:
        os.environ.pop(name, None)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment_record() -> dict:
    import numpy
    import scipy
    return {"cpus": cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {n: os.environ[n] for n in PINNED_THREADS},
            "REPRO_MAX_WORKERS": os.environ["REPRO_MAX_WORKERS"]}


# ----------------------------------------------------------------------
# untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def run_passes(workload, ctx, seed, tally, seconds, until_enough,
               first=0, count=None, before_pass=None, calibrate=False):
    """Run passes ``first, first+1, ...`` until ``seconds`` have passed
    (and, with ``until_enough``, the minimum samples are in) or until
    ``count`` passes are done.  ``before_pass(tally)`` runs before
    each pass.  With ``calibrate``, the host's speed is probed before
    the first pass, after the last, and every ``PROBE_EVERY_S`` seconds
    between passes, each time once the workload has gone quiet."""
    from workloads import MAX_SECONDS, PROBE_EVERY_S, pass_seed
    started = time.perf_counter()
    probed = -math.inf
    index = first

    def take_probe():
        nonlocal probed
        workload.quiesce(ctx)
        tally.probe()
        probed = time.perf_counter()

    while True:
        if calibrate and time.perf_counter() - probed >= PROBE_EVERY_S:
            take_probe()
        if before_pass is not None:
            before_pass(tally)
        tally.begin_pass()
        workload.run_pass(ctx, pass_seed(seed, index), tally)
        tally.end_pass()
        index += 1
        if count is not None:
            done = index - first >= count
        else:
            elapsed = time.perf_counter() - started
            done = elapsed >= seconds and (
                not until_enough or tally.enough(workload.min_trials))
            if not done and elapsed >= MAX_SECONDS:
                tally.check(False, f"stopped after {elapsed:.0f} s short "
                                   f"of the minimum samples")
                done = True
        if done:
            if calibrate:
                take_probe()
            return


def setup_context(workload, work: Path, label: str):
    if hasattr(workload, "prime") and not (work / "primed").exists():
        workload.prime(work)
    return workload.setup(work / label)


def untraced_guard(tally) -> None:
    import layers
    wrapped = layers.wrapped_targets()
    tally.check(not wrapped, f"tracer wrappers active in an untraced "
                             f"run: {wrapped}")


def run_untraced(workload, seed, seconds, work):
    """The end-to-end metrics.  Set-up is timed in throwaway contexts
    every ``SETUP_EVERY_S`` seconds between passes, so that its median
    spans the run rather than the host's speed in its first second."""
    from workloads import SETUP_EVERY_S, Tally
    ctx, took = setup_context(workload, work, "main")
    setups = [took]
    last_setup = time.perf_counter()

    def before_pass(tally):
        nonlocal last_setup
        untraced_guard(tally)
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            spare, took = setup_context(workload, work,
                                        f"setup{len(setups)}")
            workload.close(spare)
            setups.append(took)
            last_setup = time.perf_counter()

    tally = Tally()
    try:
        run_passes(workload, ctx, seed, tally, seconds, until_enough=True,
                   before_pass=before_pass, calibrate=True)
        extra = (workload.service_metrics(ctx)
                 if hasattr(workload, "service_metrics") else {})
    finally:
        workload.close(ctx)
    workload.verify(ctx, tally)
    slowdowns = tally.slowdowns()
    metrics = tally.end_to_end(slowdowns)
    # Set-up samples are spread over the run like the probes.
    metrics["setup_s"] = statistics.median(setups) / statistics.median(
        slowdowns)
    unscaled = tally.end_to_end([1.0] * tally.passes)
    unscaled["setup_s"] = statistics.median(setups)
    report = {"setup_s_each": setups, "service": extra,
              "slowdown_p50": statistics.median(slowdowns),
              "probes": len(tally.probes), "unscaled": unscaled,
              "samples": {"trials": len(tally.trial_s),
                          "cold_jobs": len(tally.cold_job_s),
                          "warm_jobs": len(tally.warm_job_s),
                          "passes": tally.passes}}
    return metrics, tally, report


# ----------------------------------------------------------------------
# traced run: the per-layer metrics
# ----------------------------------------------------------------------
def work_counts(layers_snapshot, counters) -> dict:
    counts = {f"{layer}.calls": calls
              for layer, (calls, _) in layers_snapshot.items()}
    counts.update(counters)
    return dict(sorted(counts.items()))


def run_traced(workload, seed, seconds, work):
    import layers
    from tracer import Tracer
    from workloads import Tally

    # 1. untraced half: the same passes the traced phase re-runs
    ctx, _ = setup_context(workload, work, "untraced")
    plain = Tally()
    try:
        run_passes(workload, ctx, seed, plain, seconds / 2,
                   until_enough=False, before_pass=untraced_guard)
    finally:
        workload.close(ctx)
    workload.verify(ctx, plain)

    # 2. traced: fresh context, the same passes; counts of the first
    tracer = Tracer()
    layers.install(tracer)
    traced = Tally()
    repeat = Tally()
    service = {}
    try:
        ctx = traced_ctx = setup_context(workload, work, "traced")[0]
        try:
            run_passes(workload, ctx, seed, traced, 0, until_enough=False,
                       count=1)
            first = work_counts(*tracer.snapshot())
            first_trials = traced.cold_trials
            if plain.passes > 1:
                run_passes(workload, ctx, seed, traced, 0,
                           until_enough=False, first=1,
                           count=plain.passes - 1)
            totals, counters = tracer.snapshot()
            if hasattr(workload, "service_metrics"):
                service = workload.service_metrics(ctx)
        finally:
            workload.close(ctx)
        # 3. the first pass again in a fresh context: counts must match
        tracer.reset()
        ctx, _ = setup_context(workload, work, "repeat")
        try:
            run_passes(workload, ctx, seed, repeat, 0, until_enough=False,
                       count=1)
            second = work_counts(*tracer.snapshot())
        finally:
            workload.close(ctx)
    finally:
        tracer.uninstall()
    traced.check(not layers.wrapped_targets(),
                 "tracer wrappers left installed after the traced run")
    workload.verify(traced_ctx, traced)
    differ = sorted(k for k in set(first) | set(second)
                    if first.get(k) != second.get(k))
    traced.check(not differ, f"work counts differ between two traced "
                             f"runs of the first pass: {differ}")

    total_self = sum(s for _, s in totals.values())
    metrics = {}
    for layer in layers.LAYERS:
        calls = first.get(f"{layer}.calls", 0)
        self_s = totals.get(layer, (0, 0.0))[1]
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_ms_per_trial"] = (
            1e3 * self_s / max(1, traced.cold_trials))
        for name in layers.COUNTERS.get(layer, ()):
            if name not in ("gets", "hits"):
                metrics[f"{layer}.{name}"] = first.get(f"{layer}.{name}", 0)
    gets = counters.get("campaign.store.gets", 0)
    metrics["campaign.store.hit_ratio"] = (
        counters.get("campaign.store.hits", 0) / gets if gets else 0.0)
    metrics["runtime.scheduler.calls_per_trial"] = (
        first.get("runtime.scheduler.calls", 0) / max(1, first_trials))
    for name in ("submit_ms_p50", "queue_wait_ms_p50", "exec_ms_p50",
                 "cache_hit_ratio", "handler_errors"):
        metrics[f"service.{name}"] = service.get(name, 0)
    untraced_tps = plain.end_to_end([1.0] * plain.passes)["trials_per_s"]
    traced_tps = traced.end_to_end([1.0] * traced.passes)["trials_per_s"]
    metrics["trace.overhead_pct"] = 100.0 * (untraced_tps / traced_tps - 1)

    tally = Tally(attempted=plain.attempted + traced.attempted
                  + repeat.attempted,
                  failures=plain.failures + traced.failures
                  + repeat.failures)
    report = {"untraced_trials_per_s": untraced_tps,
              "traced_trials_per_s": traced_tps,
              "passes": plain.passes,
              "self_pct": {layer: 100.0 * totals.get(layer, (0, 0.0))[1]
                           / total_self for layer in layers.LAYERS},
              "traced_total_s": total_self,
              "traced_trials": traced.cold_trials,
              "work_counts": first, "service": service}
    return metrics, tally, report


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def result_line(contract, key, metrics, tally) -> dict:
    """The final JSON object; every metric of ``contract[key]`` must be
    present and finite, otherwise the run counts it as a failure."""
    out = {}
    for entry in contract[key]:
        name = entry["name"]
        value = metrics.get(name)
        if value is None or not math.isfinite(value):
            tally.check(False, f"metric {name} could not be computed "
                               f"({value!r})")
            value = 0.0
        out[name] = {"value": value, "unit": entry["unit"]}
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import build_workloads

    contract = load_contract()
    table = build_workloads(workers=cpu_count())
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    work = Path.cwd() / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, tally, report = run_traced(workload, args.seed,
                                                args.seconds, work)
            key = "per_layer"
        else:
            metrics, tally, report = run_untraced(workload, args.seed,
                                                  args.seconds, work)
            key = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = result_line(contract, key, metrics, tally)
    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    print(f"# env {json.dumps(environment_record(), sort_keys=True)}")
    print(f"# report {json.dumps(report, sort_keys=True, default=str)}")
    for message in tally.failures:
        print(f"# FAILED {message}")
    print(f"# failed_frac {len(tally.failures) / max(1, tally.attempted)}")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
