"""One benchmark run: set-up, correctness gates, measurement and report.

A run generates the workload's instances several times (``setup_s`` is the
median), checks the capacity-chain toy against the extensive-form oracle,
and then trains every instance in turn and rolls its policy out the
workload's ``eval_rounds`` times, repeating the whole cycle while another
one fits in ``--seconds``.  Time metrics are medians over the instances;
``oos_utility`` pools the test paths of all of them.  An instance whose
training or rollout raises, or runs past ``INSTANCE_SECONDS``, counts as
one failed operation and is left out of the metrics.  With ``--trace 1``
the run instead trains and rolls out the first few instances once
untraced and once under ``tracing.Tracer``, checks that both give the same
bounds and out-of-sample objectives, and reports the per-layer metrics.

Each metric is printed as ``metric <workload> <name> <value> <unit>``; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
the result and, for traced runs, every span are written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.  The exit code is
1 when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics, spans_table
from workloads import (
    WORKLOADS,
    bound_violations,
    evaluate,
    late_iteration_seconds,
    make_inputs,
    toy_oracle_violations,
    train,
)

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Set-up repeats at least this often, and keeps repeating while it is cheap.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 100
# A traced run covers the first few instances only: per-layer shares settle
# quickly, and each instance runs twice there.
TRACE_INSTANCES = 3
# An instance normally trains and rolls out in under 10 s.  One that is still
# running after this long is abandoned and counts as failed, so a single
# pathological solve cannot push the run past its time limit.
INSTANCE_SECONDS = 30.0


class InstanceTimeout(BaseException):
    """Raised into an instance that overran ``INSTANCE_SECONDS``.

    A ``BaseException``, so that the solver's own ``except RuntimeError``
    retry path cannot swallow it.
    """


@contextmanager
def time_limit(seconds: float):
    """Raise ``InstanceTimeout`` into the block if it runs ``seconds`` or longer."""

    def expire(signum, frame):
        raise InstanceTimeout(f"still running after {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def environment(args, blas_thread_vars) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in blas_thread_vars},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Counts operations and collects gate violations for one benchmark run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []

    def train(self, inputs, label: str):
        result = train(inputs)
        self.attempted += len(result.records)
        self.problems += bound_violations(result.records, f"{self.workload.name} {label}")
        return result

    def evaluate(self, policy, inputs):
        result = evaluate(policy, inputs)
        self.attempted += result.report.n_paths
        self.failed += result.report.n_failed
        return result

    def raised(self, label: str, exc: BaseException) -> None:
        """A solver breakdown or overrun fails one operation; the run goes on without it."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{self.workload.name} {label}: {exc}")

    def same_outcome(self, a, b, what: str) -> None:
        """Repeated or traced runs of one input must agree bit for bit."""
        if a != b:
            self.problems.append(f"{self.workload.name}: {what} differ: {a!r} vs {b!r}")


def outcome(trained, evaluated) -> tuple:
    """Final bounds and gap, and the out-of-sample objectives (NaN for a failed path)."""
    last = trained.records[-1]
    objectives = tuple(repr(float(v)) for v in evaluated.report.objectives)
    return (last.lower_bound, last.upper_bound, last.gap, objectives)


def set_up(seed: int, workload):
    """The workload's inputs and the median time it takes to generate them."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        started = time.perf_counter()
        inputs = make_inputs(workload, seed)
        times.append(time.perf_counter() - started)
    return inputs, statistics.median(times)


def measure(run: Run, instances, seconds: float) -> tuple[dict, dict]:
    """Train and roll out every instance; repeat the cycle while another fits.

    Returns the end-to-end metrics and the figures that are only printed.
    A rollout can be short enough that one timing of it is mostly machine
    noise, so each trained policy is rolled out ``eval_rounds`` times right
    after its training; its rollout time is the median of those, and every
    rollout must reproduce the first one's objectives.  An instance whose
    training or rollout raises, or runs past ``INSTANCE_SECONDS``, counts as
    one failed operation and is left out of the metrics.  Policies are
    dropped after their rollouts, so peak memory does not grow with the
    number of cycles.
    """
    train_s, late_s, eval_s, objectives = [], [], [], []
    first: dict[int, tuple] = {}
    cycles = 0
    started = time.perf_counter()
    while True:
        for i, inputs in enumerate(instances):
            try:
                with time_limit(INSTANCE_SECONDS):
                    trained = run.train(inputs, f"instance {i}")
                    rollouts = [
                        run.evaluate(trained.policy, inputs)
                        for _ in range(run.workload.eval_rounds)
                    ]
            except (RuntimeError, InstanceTimeout) as exc:
                run.raised(f"instance {i}", exc)
                continue
            train_s.append(trained.seconds)
            late_s.append(late_iteration_seconds(trained.records))
            eval_s.append(statistics.median(r.seconds for r in rollouts))
            for evaluated in rollouts:
                if i in first:
                    run.same_outcome(
                        first[i], outcome(trained, evaluated), f"repeats of instance {i}"
                    )
                else:
                    first[i] = outcome(trained, evaluated)
                    objectives += [v for v in evaluated.report.objectives if math.isfinite(v)]
        cycles += 1
        if (time.perf_counter() - started) * (cycles + 1) / cycles > seconds:
            break
    if not objectives:
        run.problems.append(f"{run.workload.name}: no instance completed")
        return {}, {}
    metrics = {
        "train_s": (statistics.median(train_s), "s"),
        "iter_s_late": (statistics.median(late_s), "s"),
        "eval_s": (statistics.median(eval_s), "s"),
        "oos_utility": (-statistics.fmean(objectives), "utility"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    printed = {
        "final_gap": (statistics.median(o[2] for o in first.values()), "ratio"),
        "cycles": (cycles, "count"),
    }
    return metrics, printed


def traced(run: Run, instances) -> tuple[dict, dict]:
    """Each instance untraced, then traced: per-layer metrics and spans.

    Alternating the two per instance keeps slow drifts of machine speed out
    of ``trace.overhead_frac``.
    """
    tracer = Tracer()
    plain_s, traced_s, eval_s, gaps, cuts, per_node, points = [], [], [], [], [], [], []
    for i, inputs in enumerate(instances):
        mark = len(tracer.spans)
        try:
            with time_limit(INSTANCE_SECONDS):
                plain = run.train(inputs, f"instance {i} untraced")
                plain_eval = run.evaluate(plain.policy, inputs)
                with tracer:
                    with tracer.span("train"):
                        trained = run.train(inputs, f"instance {i} traced")
                    with tracer.span("eval"):
                        evaluated = run.evaluate(trained.policy, inputs)
        except (RuntimeError, InstanceTimeout) as exc:
            # An abandoned instance's partial spans would skew the layer sums.
            del tracer.spans[mark:]
            run.raised(f"instance {i}", exc)
            continue
        run.same_outcome(
            outcome(plain, plain_eval), outcome(trained, evaluated), f"instance {i} traced and untraced"
        )
        plain_s.append(plain.seconds)
        traced_s.append(trained.seconds)
        eval_s.append(evaluated.seconds)
        gaps.append(trained.records[-1].gap)
        pools, T = trained.policy.pools, trained.policy.trajectories.horizon_T
        nodes = [None, *range(trained.policy.trajectories.n_paths)]
        cuts.append(pools.n_cuts())
        per_node.append(max(len(pools.cuts(t, j)) for t in range(2, T + 1) for j in nodes))
        points.append(trained.policy.store.n_points())
    if not gaps:
        run.problems.append(f"{run.workload.name}: no instance completed")
        return {}, spans_table(tracer.spans)
    metrics = layer_metrics(tracer.spans)
    metrics.update(
        {
            "approximations.cuts_total": (sum(cuts), "count"),
            "approximations.cuts_per_node_max": (max(per_node), "count"),
            "approximations.envelope_points_total": (sum(points), "count"),
            "driver.final_gap": (statistics.median(gaps), "ratio"),
            "trace.train_s": (statistics.median(traced_s), "s"),
            "trace.eval_s": (statistics.median(eval_s), "s"),
            "trace.overhead_frac": (sum(traced_s) / sum(plain_s) - 1.0, "ratio"),
        }
    )
    return metrics, spans_table(tracer.spans)


def main(argv=None, blas_thread_vars=()) -> int:
    parser = argparse.ArgumentParser(description="sddpkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    env = environment(args, blas_thread_vars)
    print("env " + json.dumps(env, sort_keys=True))
    run = Run(WORKLOADS[args.workload])
    record: dict = {"env": env}
    metrics, printed = {}, {}
    try:
        instances, setup_s = set_up(args.seed, run.workload)
        run.problems += toy_oracle_violations(REPO_ROOT, args.seed)
        if args.trace:
            metrics, record["spans"] = traced(run, instances[:TRACE_INSTANCES])
        else:
            metrics, printed = measure(run, instances, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
    except RuntimeError as exc:
        # Outside the instances (the toy oracle check) a breakdown fails the run.
        run.raised("run", exc)
        run.problems.append(f"raised {exc!r}")
    printed["failed_frac"] = (run.failed / run.attempted, "ratio")
    for name, (value, unit) in sorted({**metrics, **printed}.items()):
        print(f"metric {args.workload} {name} {value!r} {unit}")
    for error in run.errors:
        print(f"FAILED: {error}")
    for problem in run.problems:
        print(f"GATE FAILED: {problem}")

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in sorted(metrics.items())},
    }
    record.update(result=result, printed=printed, problems=run.problems, errors=run.errors)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1
