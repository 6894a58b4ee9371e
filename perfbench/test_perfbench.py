"""Tests of the benchmark itself: tracing, attribution, inputs and gates.

Run from the repository root with ``python -m pytest perfbench``.
"""

import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
for _path in (REPO_ROOT / "src", BENCH_DIR):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import pytest  # noqa: E402

from sddpkit import (  # noqa: E402
    Algorithm,
    AmbiguityParams,
    ConditionalWeights,
    IterationRecord,
    SolveConfig,
    evaluate_policy_out_of_sample,
    run,
)
from sddpkit.scenarios import ForwardScenario  # noqa: E402
import bench  # noqa: E402
from tracing import LP_KINDS, TARGETS, Tracer, layer_metrics, self_seconds  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Inputs,
    _load_toys,
    bound_violations,
    make_inputs,
    toy_oracle_violations,
)

ITERATIONS = 3


def _toy(seed=0, horizon_T=3, n_paths=3):
    return _load_toys(REPO_ROOT).make_toy(seed, horizon_T=horizon_T, n_paths=n_paths)


def _rdd_config():
    return SolveConfig(
        algorithm=Algorithm.RDD,
        epsilon=1e-12,
        max_iterations=ITERATIONS,
        ambiguity=AmbiguityParams(rho=0.1, nominal=ConditionalWeights.uniform(1)),
    )


def _traced_toy_run():
    traj, template = _toy()
    test, _ = _toy(seed=1, n_paths=2)
    with Tracer() as tracer:
        with tracer.span("train") as train_span:
            policy, records, _ = run(traj, template, _rdd_config())
        with tracer.span("eval"):
            report = evaluate_policy_out_of_sample(policy, test)
    return tracer, tracer.spans.index(train_span), records, report


def test_wrappers_restore_the_original_functions():
    originals = [(m, a, getattr(m, a)) for m, a, _ in TARGETS]
    with pytest.raises(RuntimeError):
        with Tracer():
            for module, attr, original in originals:
                assert getattr(module, attr) is not original
                assert getattr(module, attr).__wrapped__ is original
            raise RuntimeError("leave the block early")
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_traced_run_reproduces_the_untraced_outcome():
    tracer, _, records, report = _traced_toy_run()
    traj, template = _toy()
    test, _ = _toy(seed=1, n_paths=2)
    policy, plain, _ = run(traj, template, _rdd_config())
    assert [(r.lower_bound, r.upper_bound) for r in plain] == [
        (r.lower_bound, r.upper_bound) for r in records
    ]
    assert evaluate_policy_out_of_sample(policy, test).mean == report.mean


def test_span_attribution_fits_inside_training():
    tracer, root, _, _ = _traced_toy_run()
    spans = tracer.spans
    for span in spans:
        assert span.end >= span.start
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert min(self_seconds(spans)) >= 0.0
    metrics = layer_metrics(spans)
    assert 0.0 <= metrics["driver.other_s"][0] <= spans[root].seconds
    assert metrics["robust.inner_max_primal.self_s"][0] <= metrics["robust.inner_max_primal.s"][0]


def test_lp_kinds_follow_the_driver_call_sites():
    tracer, _, records, _ = _traced_toy_run()
    metrics = layer_metrics(tracer.spans)
    calls = {kind: metrics[f"lp.solve.{kind}.calls"][0] for kind in LP_KINDS}
    T, N, k = 3, 3, len(records)
    assert calls["root_lower"] == k + 1
    assert calls["root_upper"] == k
    assert calls["fwd"] == k * (T - 2)
    assert calls["bwd_lower"] == k * N * (T - 1)
    assert calls["bwd_upper"] == k * N * (T - 2)
    assert calls["inner_max"] == metrics["robust.inner_max_primal.calls"][0]
    assert calls["eval"] == 2 * (T - 1)
    assert sum(calls.values()) == metrics["lp.solve.calls"][0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    a, b, other = make_inputs(workload, 7), make_inputs(workload, 7), make_inputs(workload, 8)
    assert len(a) == len(b) == workload.instances
    for x, y, z in zip(a, b, other):
        assert x.train == y.train and x.test == y.test and x.config == y.config
        assert x.train != z.train and x.test != z.test
        assert x.test.n_paths == workload.test_paths
    assert a[0].train != a[1].train


def _record(k, lb, ub):
    return IterationRecord(k, lb, ub, ub - lb, 0.0, 0, 0, ForwardScenario((0,), 0))


def test_bound_gate_flags_each_violation():
    assert bound_violations([_record(1, -1.0, 0.0), _record(2, -0.5, -0.1)], "ok") == []
    assert len(bound_violations([_record(1, 0.5, 0.0)], "crossed")) == 1
    assert len(bound_violations([_record(1, -1.0, 0.0), _record(2, -1.1, 0.0)], "lb")) == 1
    assert len(bound_violations([_record(1, -1.0, 0.0), _record(2, -1.0, 0.1)], "ub")) == 1


def test_toy_oracle_gate_passes():
    assert toy_oracle_violations(REPO_ROOT, seed=0) == []


def test_a_raising_instance_counts_as_one_failure(monkeypatch):
    traj, template = _toy()
    test, _ = _toy(seed=1, n_paths=2)
    config = SolveConfig(epsilon=1e-12, max_iterations=ITERATIONS)
    instances = [Inputs(traj, test, template, config) for _ in range(3)]
    calls = []
    original = bench.train

    def train_or_break(inputs):
        calls.append(inputs)
        if len(calls) == 2:
            raise RuntimeError("simplex pivot limit exceeded")
        return original(inputs)

    monkeypatch.setattr(bench, "train", train_or_break)
    run_ = bench.Run(WORKLOADS["dd_train"])
    metrics, printed = bench.measure(run_, instances, seconds=1e-9)
    assert run_.failed == 1 and len(run_.errors) == 1
    assert run_.problems == []
    assert set(metrics) == {"train_s", "iter_s_late", "eval_s", "oos_utility", "peak_rss_mb"}
    assert printed["cycles"] == (1, "count")


def test_an_overrunning_instance_is_abandoned_as_one_failure(monkeypatch):
    traj, template = _toy()
    test, _ = _toy(seed=1, n_paths=2)
    config = SolveConfig(epsilon=1e-12, max_iterations=ITERATIONS)
    instances = [Inputs(traj, test, template, config) for _ in range(3)]
    calls = []
    original = bench.train

    def train_or_hang(inputs):
        calls.append(inputs)
        if len(calls) == 2:
            time.sleep(60)
        return original(inputs)

    monkeypatch.setattr(bench, "train", train_or_hang)
    monkeypatch.setattr(bench, "INSTANCE_SECONDS", 0.2)
    run_ = bench.Run(WORKLOADS["dd_train"])
    started = time.perf_counter()
    metrics, _ = bench.measure(run_, instances, seconds=1e-9)
    assert time.perf_counter() - started < 30
    assert run_.failed == 1 and "still running" in run_.errors[0]
    assert run_.problems == [] and "eval_s" in metrics
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_every_rollout_round_is_counted_and_checked():
    traj, template = _toy()
    test, _ = _toy(seed=1, n_paths=2)
    config = SolveConfig(epsilon=1e-12, max_iterations=ITERATIONS)
    workload = WORKLOADS["rdd_train"]
    run_ = bench.Run(workload)
    bench.measure(run_, [Inputs(traj, test, template, config)], seconds=1e-9)
    trained = bench.train(Inputs(traj, test, template, config))
    assert run_.attempted == len(trained.records) + workload.eval_rounds * test.n_paths
    assert run_.problems == []
