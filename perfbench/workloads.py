"""Workload definitions, input generation and correctness gates.

Both workloads train on instances of one portfolio problem (K=3 assets,
T=4 stages, fees 0.5%, N=20 training paths) and then roll each trained
policy out over fresh test paths, as a user would:

* ``dd_train``   DD training: many small stage LPs whose cut rows grow
                 every iteration; the robust inner max is never called.
                 Its rollout is the large-LP case: one weighted epigraph
                 block over all N cut pools per stage.
* ``rdd_train``  RDD training (rho = 0.1): the LP-based inner max owns
                 most of the time.

Every rollout weights the trained cut pools with the nominal kernel
weights, the RDD policy's too.  The robust rollout, which splices the
ambiguity set's dual block into each stage LP, is left out: on these
instances its LPs can exhaust the simplex pivot limit and raise, and the
benchmark runs only operations that succeed.

How long a stage LP takes depends a lot on the instance's data, so a run
averages over several instances, each with its own training and test
paths.  All inputs derive from the workload seed; ``sddpkit`` only ever
receives the generated ``TrajectorySet`` objects.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sddpkit import (
    Algorithm,
    AmbiguityParams,
    ConditionalWeights,
    IterationRecord,
    Policy,
    PolicyReport,
    SolveConfig,
    SyntheticSpec,
    TrajectorySet,
    build_portfolio_instance,
    evaluate_policy_out_of_sample,
    extensive_form_oracle,
    generate_synthetic_markov,
    run,
)
from sddpkit.stages import InstanceTemplate

K_ASSETS = 3
HORIZON_T = 4
N_TRAIN = 20
FEES = (0.005, 0.005)
RHO = 0.1
# The gap test must never end a run early: each run does a fixed amount of
# work and reports the gap it reached.
EPSILON = 1e-12

# Capacity-chain toy checked against the extensive-form oracle.
TOY_T = 3
TOY_N = 12
TOY_ITERATIONS = 20

# Tolerances of the bound gates, relative to max(1, |bound|).
LB_MONOTONE_TOL = 1e-9
UB_MONOTONE_TOL = 1e-12
SANDWICH_TOL = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: Algorithm
    iterations: int
    instances: int
    test_paths: int  # per instance
    eval_rounds: int  # rollouts of each trained policy


# Budgets fit one pass over all instances into about 40 s on two cores.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dd_train",
            algorithm=Algorithm.DD,
            iterations=20,
            instances=8,
            test_paths=1,
            eval_rounds=1,
        ),
        Workload(
            name="rdd_train",
            algorithm=Algorithm.RDD,
            iterations=3,
            instances=8,
            test_paths=16,
            eval_rounds=3,
        ),
    )
}


@dataclass
class Inputs:
    train: TrajectorySet
    test: TrajectorySet
    template: InstanceTemplate
    config: SolveConfig


def _sub_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def portfolio_spec(template: InstanceTemplate) -> SyntheticSpec:
    """AR(1) returns xi' = 0.505 + 0.5 xi + eps, eps ~ N(0, 0.05^2 I), clipped."""
    return SyntheticSpec(
        mu=np.full(K_ASSETS, 0.505),
        phi=0.5 * np.eye(K_ASSETS),
        noise_cov=0.05**2 * np.eye(K_ASSETS),
        xi1=np.ones(K_ASSETS),
        box_lower=np.full(K_ASSETS, 0.8),
        box_upper=np.full(K_ASSETS, 1.2),
        datum_builder=template.datum_builder,
    )


def solve_config(workload: Workload, seed: int) -> SolveConfig:
    ambiguity = None
    if workload.algorithm is Algorithm.RDD:
        ambiguity = AmbiguityParams(rho=RHO, nominal=ConditionalWeights.uniform(1))
    return SolveConfig(
        algorithm=workload.algorithm,
        epsilon=EPSILON,
        max_iterations=workload.iterations,
        seed=seed,
        ambiguity=ambiguity,
    )


def make_inputs(workload: Workload, seed: int) -> list[Inputs]:
    """One set of training and test trajectories per instance, all from ``seed``."""
    template = build_portfolio_instance(K_ASSETS, HORIZON_T, fees=FEES)
    spec = portfolio_spec(template)
    inputs = []
    for i in range(workload.instances):
        train = generate_synthetic_markov(
            spec, HORIZON_T, N_TRAIN, rng_seed=_sub_seed(seed, i, 0)
        )
        test = generate_synthetic_markov(
            spec, HORIZON_T, workload.test_paths, rng_seed=_sub_seed(seed, i, 1)
        )
        inputs.append(Inputs(train, test, template, solve_config(workload, _sub_seed(seed, i, 2))))
    return inputs


@dataclass
class TrainResult:
    policy: Policy
    records: list[IterationRecord]
    seconds: float


@dataclass
class EvalResult:
    report: PolicyReport
    seconds: float


def train(inputs: Inputs) -> TrainResult:
    started = time.perf_counter()
    policy, records, _ = run(inputs.train, inputs.template, inputs.config)
    return TrainResult(policy, records, time.perf_counter() - started)


def evaluate(policy: Policy, inputs: Inputs) -> EvalResult:
    """Nominal rollout over the test paths (see the module docstring)."""
    nominal = dataclasses.replace(policy, algorithm=Algorithm.DD)
    started = time.perf_counter()
    report = evaluate_policy_out_of_sample(nominal, inputs.test)
    return EvalResult(report, time.perf_counter() - started)


def late_iteration_seconds(records) -> float:
    """Median wall time of the last ten iterations (fewer if the run is shorter)."""
    return float(np.median([r.wall_time for r in records[-10:]]))


# ---------------------------------------------------------------------------
# Correctness gates: each returns a list of violation messages.
# ---------------------------------------------------------------------------


def _scale(*values: float) -> float:
    return max(1.0, *(abs(v) for v in values))


def bound_violations(records, label: str) -> list[str]:
    """LB <= UB at every iteration, LB never decreases, UB never increases."""
    problems = []
    prev = None
    for rec in records:
        lb, ub = rec.lower_bound, rec.upper_bound
        if not (math.isfinite(lb) and math.isfinite(ub)):
            problems.append(f"{label} k={rec.k}: non-finite bounds LB={lb!r} UB={ub!r}")
        elif lb > ub + SANDWICH_TOL * _scale(lb, ub):
            problems.append(f"{label} k={rec.k}: LB={lb!r} exceeds UB={ub!r}")
        if prev is not None:
            if lb < prev.lower_bound - LB_MONOTONE_TOL * _scale(lb):
                problems.append(
                    f"{label} k={rec.k}: LB fell from {prev.lower_bound!r} to {lb!r}"
                )
            if ub > prev.upper_bound + UB_MONOTONE_TOL * _scale(ub):
                problems.append(
                    f"{label} k={rec.k}: UB rose from {prev.upper_bound!r} to {ub!r}"
                )
        prev = rec
    return problems


def _load_toys(repo_root: Path):
    path = repo_root / "tests" / "_toys.py"
    spec = importlib.util.spec_from_file_location("_perfbench_toys", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toy_oracle_violations(repo_root: Path, seed: int) -> list[str]:
    """Train DD on the capacity-chain toy and check its bounds against the oracle."""
    toys = _load_toys(repo_root)
    traj, template = toys.make_toy(_sub_seed(seed, 3), horizon_T=TOY_T, n_paths=TOY_N)
    target = extensive_form_oracle(traj, template)
    _, records, _ = run(
        traj,
        template,
        SolveConfig(max_iterations=TOY_ITERATIONS, seed=_sub_seed(seed, 4)),
    )
    problems = bound_violations(records, "toy_oracle")
    tol = SANDWICH_TOL * _scale(target)
    for rec in records:
        if rec.lower_bound > target + tol or rec.upper_bound < target - tol:
            problems.append(
                f"toy_oracle k={rec.k}: oracle {target!r} outside "
                f"[{rec.lower_bound!r}, {rec.upper_bound!r}]"
            )
    return problems
