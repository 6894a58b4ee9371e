"""Solve orchestration: forward sampling, backward passes, bounds, policies.

One iteration samples a forward path through the empirical scenario sets,
then walks backward from the last stage: at each stage it solves the N
realization subproblems at the visited state, aggregates their values and
state gradients (-B^T y on the structural rows' duals y) into one new cut
and one new envelope point per conditioning node (per stage-(t-1)
realization, or the root), and finally
re-solves the root problem against both approximations to report a
deterministic lower and upper bound.

Approximations are stored per stage: the stage-t cost-to-go conditioned
on each stage-(t-1) node j, with j = None at the root, as arrays with one
row per node.  The backward pass at stage t reads the (t+1, i) pools and
writes one slice of stage t's arrays: the same N subproblem solves, weighted
by the rows of the stage's weight matrix, give every conditioning node's
cut and envelope value in one matrix product each.

The robust variant replaces each node's nominal weighting with the
worst-case weights of its ambiguity set, both for cut aggregation (any
fixed member of the set yields a valid under-estimator; the maximizer
makes it tight at the anchor) and for envelope values (the worst-case
combination of per-realization upper values dominates the robust
cost-to-go).  Out-of-sample policies embed the full dual block instead,
since test covariates are not anchors.

The reported upper bound is the running minimum over iterations: each
root envelope solve is individually valid, while the penalty scale that
keeps the envelope honest can grow as new cut gradients are observed.

Training re-solves the same LPs every iteration with a new incoming state
and one more cut row or envelope column, so each starts from the last
optimal basis of its family (``lp.Basis``).  A family is one bound's LP
at one (t, i): the cut LP of stage t under realization i, which the
forward and the backward pass share, and its envelope LP; plus the two
root LPs.  The N realization LPs of one backward stage share their row
layout and incoming state.  So when a stage's anchor differs from the
one of its last backward pass, or it has none, each realization after
the first starts both bounds' LPs from the bases the realization before
it just ended at ("bunching": Wets, "Large scale linear programming
techniques in stochastic programming", 1988), not from its own, which
was solved at another anchor: its holders become copies of the whole
holders of the realization before, so a kept basis inverse travels with
its basis.  When the anchor repeats, every family starts from its own
basis.

The rollout keeps one basis per stage for a whole
``evaluate_policy_out_of_sample`` call: every stage LP, nominal or robust,
over all test paths and rounds, starts from the last optimal basis of its
stage.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .approximations import (
    CutLowerTerms,
    CutPool,
    CutRows,
    EnvelopeStore,
    EnvelopeUpperTerms,
    WeightedLowerTerms,
    aggregate_backward,
    stack_cut_rows,
)
from .kernel import ConditionalWeights, KernelConfig, nw_weights
from .lp import Basis, LinearProgram, LpScaleError, LpStatus, solve
from .robust import (
    AmbiguityParams,
    DroLowerTerms,
    RhoRule,
    inner_max_primal,  # unused here; the benchmark tracer resolves it in this module
    rate_scaled_rho,
    sanitize_nominal,
    worst_case,
)
from .scenarios import (
    DimensionMismatchError,
    ForwardScenario,
    StageDatum,
    TrajectorySet,
    sample_forward,
)
from .stages import (
    InstanceTemplate,
    StageInfeasibleError,
    assemble_stage_lp,
    state_gradient,
)

__all__ = [
    "Algorithm",
    "GapMode",
    "SolveConfig",
    "IterationRecord",
    "Policy",
    "PolicyReport",
    "CrossValidationResult",
    "run",
    "gap_converged",
    "evaluate_policy_out_of_sample",
    "extensive_form_oracle",
    "generalization_bound",
    "cross_validate_rho",
]


class Algorithm(Enum):
    DD = "DD"
    RDD = "RDD"


class GapMode(Enum):
    ABSOLUTE = "Absolute"
    RELATIVE = "Relative"


@dataclass(frozen=True)
class SolveConfig:
    """Knobs of one solver run.

    ``ambiguity`` is only consulted when ``algorithm`` is RDD; its nominal
    field is a placeholder that gets replaced per conditioning node, and
    with a RateScaled rule the radius is re-derived from the coefficient
    at run start using the training N and the effective bandwidth.
    """

    algorithm: Algorithm = Algorithm.DD
    epsilon: float = 1e-6
    gap_mode: GapMode = GapMode.RELATIVE
    max_iterations: int = 200
    forward_paths_per_iter: int = 1
    seed: int = 0
    kernel: KernelConfig = field(default_factory=KernelConfig)
    ambiguity: AmbiguityParams | None = None
    M_override: float | None = None

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.forward_paths_per_iter < 1:
            raise ValueError("forward_paths_per_iter must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.algorithm is Algorithm.RDD and self.ambiguity is None:
            raise ValueError("RDD requires ambiguity parameters")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    lower_bound: float
    upper_bound: float
    gap: float
    wall_time: float
    cuts_added: int
    envelope_points_added: int
    forward_scenario: ForwardScenario


@dataclass
class Policy:
    """Everything needed to act greedily after training."""

    algorithm: Algorithm
    trajectories: TrajectorySet
    kernel: KernelConfig
    rho: float
    pools: CutPool
    store: EnvelopeStore
    root_decision: np.ndarray
    root_lower_bound: float


@dataclass(frozen=True)
class PolicyReport:
    """Per-path realized objectives and their summary statistics.

    Failed paths (recourse breakdown on out-of-sample data) carry NaN
    objectives and are excluded from the statistics.  ``mean_utility``
    is the negated mean objective (objectives are costs); ``sharpe`` is
    mean utility over the across-path standard deviation.
    """

    objectives: np.ndarray
    n_paths: int
    n_failed: int
    mean: float
    variance: float
    std: float
    mean_utility: float
    sharpe: float


def _summarize(objectives: list[float], n_paths: int) -> PolicyReport:
    arr = np.array(objectives, dtype=float)
    ok = arr[np.isfinite(arr)]
    n_failed = n_paths - ok.size
    if ok.size == 0:
        mean = var = std = math.nan
    else:
        mean = float(ok.mean())
        var = float(ok.var())
        std = math.sqrt(var)
    utility = -mean if ok.size else math.nan
    if ok.size and std > 0:
        sharpe = utility / std
    elif ok.size:
        sharpe = math.inf if utility > 0 else (-math.inf if utility < 0 else 0.0)
    else:
        sharpe = math.nan
    return PolicyReport(
        objectives=arr,
        n_paths=n_paths,
        n_failed=n_failed,
        mean=mean,
        variance=var,
        std=std,
        mean_utility=utility,
        sharpe=sharpe,
    )


# ---------------------------------------------------------------------------
# Core solver
# ---------------------------------------------------------------------------


def _conditional_rows(traj: TrajectorySet, kernel: KernelConfig) -> dict[int, np.ndarray]:
    """P[t][j, i]: the weight of stage-t realization i given the stage-(t-1)
    node j, for t = 2..T.  Stage 1 is one node, so P[2] is one uniform row."""
    P = {2: np.full((1, traj.n_paths), 1.0 / traj.n_paths)}
    for t in range(3, traj.horizon_T + 1):
        anchors = traj.features(t - 1)
        P[t] = np.vstack([nw_weights(q, anchors, kernel).weights for q in anchors])
    return P


class _Runner:
    def __init__(self, traj: TrajectorySet, template: InstanceTemplate, config: SolveConfig):
        if traj.horizon_T != template.horizon_T:
            raise DimensionMismatchError(
                f"trajectories span T={traj.horizon_T}, template T={template.horizon_T}"
            )
        x0 = np.asarray(template.initial_state, dtype=float).reshape(-1)
        if x0.shape[0] != traj.stage1.dim_in:
            raise DimensionMismatchError(
                f"initial state has {x0.shape[0]} entries, stage 1 expects "
                f"{traj.stage1.dim_in}"
            )
        self.traj = traj
        self.config = config
        self.x0 = x0
        self.N = traj.n_paths
        self.T = traj.horizon_T
        self.p = traj.feature_dim
        self.h = config.kernel.effective_h(self.N, self.p)
        self.P = _conditional_rows(traj, config.kernel)
        self.pools = CutPool()
        self.store = EnvelopeStore(penalty_override=config.M_override)
        self.rho = 0.0
        if config.algorithm is Algorithm.RDD:
            amb = config.ambiguity
            assert amb is not None
            if amb.rho_rule is RhoRule.RATE_SCALED:
                self.rho = rate_scaled_rho(amb.c_coefficient, self.N, self.h, self.p)
            else:
                self.rho = amb.rho
        # The rows of P[t] as the inner max takes them; P is fixed for the run.
        self.sanitized = {
            t: np.vstack([sanitize_nominal(row).weights for row in rows])
            for t, rows in self.P.items()
            if self.rho != 0.0
        }
        self.root_decision: np.ndarray | None = None
        self.best_upper = math.inf
        # Last optimal basis per LP family: ("lower" or "upper", t, i).  When
        # stage t's backward anchor moves, realization i's two holders are
        # first replaced by copies of realization i-1's, which its LPs just
        # ended at.
        self.bases: defaultdict[tuple[str, int, int | None], Basis] = defaultdict(Basis)

    # -- helpers ------------------------------------------------------------

    def _solve_checked(self, lp: LinearProgram, bound: str, k: int, t: int, i: int | None):
        sol = solve(lp, start=self.bases[bound, t, i])
        if sol.status is LpStatus.OPTIMAL:
            return sol
        where = f"iteration k={k}, stage t={t}" + ("" if i is None else f", scenario i={i + 1}")
        if sol.status is LpStatus.INFEASIBLE:
            raise StageInfeasibleError(f"{where}: in-sample subproblem is infeasible")
        raise RuntimeError(f"{where}: solver returned {sol.status.value}")

    def _lower_terms(self, t: int, i: int | None) -> CutLowerTerms | None:
        """Cost-to-go epigraph of the stage-t subproblem under realization i;
        None at the last stage, and while the pool is empty (the first
        forward pass and the first root solve), whose cost-to-go of -inf
        would leave the LP unbounded."""
        if t >= self.T:
            return None
        cuts = self.pools.cuts(t + 1, i)
        return CutLowerTerms(cuts) if len(cuts) else None

    def _weights(self, values: np.ndarray, t: int) -> np.ndarray:
        """Stage t's nominal weight rows, or for rho > 0 the worst case of the
        values under each sanitized row, all rows in one batch."""
        if self.rho == 0.0:
            return self.P[t]
        _, worst = worst_case(values, self.sanitized[t], self.rho)
        return worst / worst.sum(axis=1, keepdims=True)

    # -- passes ---------------------------------------------------------

    def root_solve_lower(self, k: int):
        lp = assemble_stage_lp(self.traj.stage1, self.x0, extra_terms=self._lower_terms(1, None))
        sol = self._solve_checked(lp, "lower", k, 1, None)
        self.root_decision = sol.primal[: self.traj.stage1.dim_out].copy()
        return sol

    def root_solve_upper(self, k: int) -> float:
        anchors, values = self.store.points(2, None)
        lp = assemble_stage_lp(
            self.traj.stage1,
            self.x0,
            extra_terms=EnvelopeUpperTerms(anchors, values, self.store.penalty(2)),
        )
        return float(self._solve_checked(lp, "upper", k, 1, None).objective_value)

    def forward_pass(self, k: int, m: int) -> tuple[ForwardScenario, list[np.ndarray]]:
        seed = int(np.random.SeedSequence((self.config.seed, k, m)).generate_state(1)[0])
        scenario = sample_forward([self.P[t] for t in range(2, self.T + 1)], seed)
        assert self.root_decision is not None
        states = [self.root_decision]
        for t in range(2, self.T):
            i = scenario.indices[t - 2]
            datum = self.traj.stage_data(t)[i]
            lp = assemble_stage_lp(datum, states[-1], extra_terms=self._lower_terms(t, i))
            sol = self._solve_checked(lp, "lower", k, t, i)
            states.append(sol.primal[: datum.dim_out].copy())
        return scenario, states

    def backward_pass(self, k: int, states: list[np.ndarray]) -> int:
        """Add one cut and one envelope point to every node of stages T..2;
        returns how many of each."""
        added = 0
        for t in range(self.T, 1, -1):
            anchor = states[t - 2]
            last = self.store.anchors(t)
            moved = not len(last) or not np.array_equal(anchor, last[-1])
            bounds = ("lower", "upper") if t < self.T else ("lower",)
            lower_vals = np.empty(self.N)
            upper_vals = np.empty(self.N)
            grads = []
            for i, datum in enumerate(self.traj.stage_data(t)):
                if moved and i > 0:
                    for bound in bounds:
                        self.bases[bound, t, i] = self.bases[bound, t, i - 1].copy()
                sol = self._solve_checked(
                    assemble_stage_lp(datum, anchor, extra_terms=self._lower_terms(t, i)),
                    "lower",
                    k,
                    t,
                    i,
                )
                lower_vals[i] = sol.objective_value
                grads.append(state_gradient(datum, sol.duals))
                if t < self.T:
                    anchors, values = self.store.points(t + 1, i)
                    ub_sol = self._solve_checked(
                        assemble_stage_lp(
                            datum,
                            anchor,
                            extra_terms=EnvelopeUpperTerms(
                                anchors, values, self.store.penalty(t + 1)
                            ),
                        ),
                        "upper",
                        k,
                        t,
                        i,
                    )
                    upper_vals[i] = ub_sol.objective_value
            w_lower = self._weights(lower_vals, t)
            if t == self.T:  # no cost-to-go: the upper values are the lower ones
                upper_vals, w_upper = lower_vals, w_lower
            else:
                w_upper = self._weights(upper_vals, t)
            cuts, point_values = aggregate_backward(
                anchor, grads, w_lower, lower_vals, w_upper, upper_vals
            )
            self.pools.add(t, cuts)
            self.store.note_gradient(t, cuts.gradients)
            self.store.add(t, anchor, point_values)
            added += len(cuts)
        return added

    def iterate(self, k: int) -> IterationRecord:
        started = time.perf_counter()
        if self.root_decision is None:
            self.root_solve_lower(k)
        scenario = None
        added = 0
        for m in range(self.config.forward_paths_per_iter):
            sc, states = self.forward_pass(k, m)
            scenario = scenario or sc
            added += self.backward_pass(k, states)
        lb = float(self.root_solve_lower(k).objective_value)
        self.best_upper = min(self.best_upper, self.root_solve_upper(k))
        gap = self._gap(lb, self.best_upper)
        assert scenario is not None
        return IterationRecord(
            k=k,
            lower_bound=lb,
            upper_bound=self.best_upper,
            gap=gap,
            wall_time=time.perf_counter() - started,
            cuts_added=added,
            envelope_points_added=added,
            forward_scenario=scenario,
        )

    def _gap(self, lb: float, ub: float) -> float:
        spread = abs(ub - lb)
        if self.config.gap_mode is GapMode.ABSOLUTE:
            return spread
        return spread / max(min(abs(lb), abs(ub)), 1e-9)


def gap_converged(config: SolveConfig, lower_bound: float, upper_bound: float) -> bool:
    """Termination test: absolute spread, or relative to the smaller bound
    magnitude with a 1e-9 absolute floor so zero-valued optima terminate."""
    spread = abs(upper_bound - lower_bound)
    if config.gap_mode is GapMode.ABSOLUTE:
        return spread <= config.epsilon
    return spread <= max(config.epsilon * min(abs(lower_bound), abs(upper_bound)), 1e-9)


def run(
    traj: TrajectorySet, instance: InstanceTemplate, config: SolveConfig
) -> tuple[Policy, list[IterationRecord], np.ndarray]:
    """Train on the given trajectories until the gap closes or the budget ends.

    Returns the greedy policy handle, the per-iteration telemetry, and the
    final first-stage decision.
    """
    runner = _Runner(traj, instance, config)
    records: list[IterationRecord] = []
    for k in range(1, config.max_iterations + 1):
        rec = runner.iterate(k)
        records.append(rec)
        if gap_converged(config, rec.lower_bound, rec.upper_bound):
            break
    assert runner.root_decision is not None
    policy = Policy(
        algorithm=config.algorithm,
        trajectories=traj,
        kernel=config.kernel,
        rho=runner.rho,
        pools=runner.pools,
        store=runner.store,
        root_decision=runner.root_decision.copy(),
        root_lower_bound=records[-1].lower_bound,
    )
    return policy, records, runner.root_decision.copy()


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------


# A cut outside the working set is violated when it exceeds its node's
# working maximum at the decision by more than this, relative to 1 + |max|.
SEPARATION_TOL = 1e-12


def _node_max(values: np.ndarray, node: np.ndarray, n_nodes: int) -> np.ndarray:
    """Largest value per node; -inf for a node without values."""
    top = np.full(n_nodes, -np.inf)
    np.maximum.at(top, node, values)
    return top


def evaluate_policy_out_of_sample(
    policy: Policy, test_traj: TrajectorySet
) -> PolicyReport:
    """Greedy rollout of the trained approximations over test trajectories.

    At each realized stage the conditional weights are recomputed against
    the training anchors; the expected (or robust) cost-to-go over the
    per-scenario cut pools then drives the stage decision.  A path whose
    stage LP is infeasible, or unbounded (an empty pool on which the
    weights, or every weight vector of the ambiguity set, put positive
    weight), or on which the solver breaks down, is reported as failed,
    not fatal.

    The nominal stage LP is solved on a working set of cut rows rather
    than on every cut of every pool.  Each stage keeps one working set for
    the whole call, shared by every test path: a list of cuts in the order
    they joined, whose rows the stage LP carries in that order.  A path
    first appends each node's highest cut at its incoming state, unless
    it is already in.  After each solve, every cut is evaluated at the
    decision x (one matvec over the stacked pools), and every cut of a
    node with positive weight that lies above the node's working maximum
    by more than ``SEPARATION_TOL`` is appended.  Each round adds a row
    that was not in the set, so the loop ends; when it does, no left-out
    cut binds at x, so x is optimal for the full LP and the two optima
    agree.  A working LP that comes back unbounded is re-solved with every
    cut appended.

    The robust stage LP carries every cut of every pool in its dual block,
    so within one call its rows and columns stay fixed; only the nominal
    weights, the costs and the rhs change.  Each stage keeps one
    ``lp.Basis`` for the call, and every stage LP, over all paths and
    rounds, starts from the last optimal basis of its stage: working rows
    only grow at the end, and the robust and last-stage LPs keep their
    shape.  A start that breaks down falls back to the cold run inside
    ``lp.solve``.
    """
    train = policy.trajectories
    if test_traj.horizon_T != train.horizon_T:
        raise DimensionMismatchError(
            f"test horizon T={test_traj.horizon_T}, training T={train.horizon_T}"
        )
    T = train.horizon_T
    n_train = train.n_paths
    robust = policy.algorithm is Algorithm.RDD
    pools = {t: [policy.pools.cuts(t + 1, i) for i in range(n_train)] for t in range(2, T)}
    # Stage t's cuts, every pool stacked: node and rows.
    stacked = {t: stack_cut_rows(pools[t]) for t in pools}
    # Stage t's working set: the stacked indices in the order they joined,
    # and which cuts are in.
    order = {t: np.zeros(0, dtype=np.int64) for t in pools}
    active = {t: np.zeros(len(stacked[t][1]), dtype=bool) for t in pools}
    bases = {t: Basis() for t in range(2, T + 1)}
    anchors = {t: train.features(t) for t in pools}
    x1 = policy.root_decision
    stage1_cost = float(train.stage1.c @ x1)
    objectives: list[float] = []
    for path in range(test_traj.n_paths):
        x_prev = x1
        total = stage1_cost
        failed = False
        for t in range(2, T + 1):
            datum = test_traj.stage_data(t)[path]
            extra = None
            working = False
            if t < T:
                w = nw_weights(datum.feature, anchors[t], policy.kernel).weights
                if robust:
                    extra = DroLowerTerms(
                        AmbiguityParams(rho=policy.rho, nominal=sanitize_nominal(w)), pools[t]
                    )
                else:
                    working = True
                    node, cuts = stacked[t]
                    start = x_prev if x_prev.shape[0] == datum.dim_out else np.zeros(datum.dim_out)
                    values = cuts.values(start)
                    joins = ~active[t] & (values == _node_max(values, node, n_train)[node])
            while True:
                if working:
                    order[t] = np.concatenate([order[t], np.flatnonzero(joins)])
                    active[t] |= joins
                    on = order[t]
                    extra = WeightedLowerTerms(
                        w, node[on], CutRows(cuts.gradients[on], cuts.offsets[on])
                    )
                lp = assemble_stage_lp(datum, x_prev, extra_terms=extra)
                try:
                    sol = solve(lp, start=bases[t])
                except RuntimeError:  # the simplex gave up on degenerate data
                    sol = None
                if not working or sol is None:
                    break
                if sol.status is LpStatus.UNBOUNDED and not active[t].all():
                    joins = ~active[t]
                    continue
                if sol.status is not LpStatus.OPTIMAL:
                    break
                values = cuts.values(sol.primal[: datum.dim_out])
                top = _node_max(values[active[t]], node[active[t]], n_train)[node]
                joins = (
                    ~active[t]
                    & (w[node] > 0)
                    & (values > top + SEPARATION_TOL * (1.0 + np.abs(top)))
                )
                if not joins.any():
                    break
            if sol is None or sol.status is not LpStatus.OPTIMAL:
                failed = True
                break
            x_t = sol.primal[: datum.dim_out]
            total += float(datum.c @ x_t)
            x_prev = x_t
        objectives.append(math.nan if failed else total)
    return _summarize(objectives, test_traj.n_paths)


# ---------------------------------------------------------------------------
# Extensive-form oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_LEAVES = 256


def extensive_form_oracle(
    traj: TrajectorySet,
    instance: InstanceTemplate,
    kernel: KernelConfig | None = None,
) -> float:
    """Optimal value of the nominal discretized problem, solved monolithically.

    Enumerates the recombining tree (uniform root weights, conditional
    weights along every path) and solves the one big LP.  Only for tiny
    instances: N^(T-1) leaves capped at 256.
    """
    kernel = kernel or KernelConfig()
    N, T = traj.n_paths, traj.horizon_T
    if N ** (T - 1) > _ORACLE_MAX_LEAVES:
        raise LpScaleError(
            f"extensive form would have {N ** (T - 1)} leaves; cap is {_ORACLE_MAX_LEAVES}"
        )
    x0 = np.asarray(instance.initial_state, dtype=float).reshape(-1)
    P = _conditional_rows(traj, kernel)

    # Flat node enumeration: data/parents/probs are indexed by node id,
    # assigned level by level so a node's parent always precedes it.
    data: list[StageDatum] = []
    parents: list[int] = []
    probs: list[float] = []
    data.append(traj.stage1)
    parents.append(-1)
    probs.append(1.0)
    # (node id, scenario index); the root is row 0 of P[2].
    prev_level: list[tuple[int, int]] = [(0, 0)]
    for t in range(2, T + 1):
        level: list[tuple[int, int]] = []
        for parent_id, parent_i in prev_level:
            weights = P[t][parent_i]
            for i in range(N):
                data.append(traj.stage_data(t)[i])
                parents.append(parent_id)
                probs.append(probs[parent_id] * float(weights[i]))
                level.append((len(data) - 1, i))
        prev_level = level

    offset = 0
    cols: list[tuple[int, int]] = []  # (column offset, width) per node id
    for d in data:
        cols.append((offset, d.dim_out))
        offset += d.dim_out
    n_vars = offset
    n_rows = sum(d.n_rows for d in data)
    A = np.zeros((n_rows, n_vars))
    b = np.zeros(n_rows)
    c = np.zeros(n_vars)
    r0 = 0
    for node, d in enumerate(data):
        o, w = cols[node]
        c[o : o + w] = probs[node] * d.c
        A[r0 : r0 + d.n_rows, o : o + w] = d.A
        if parents[node] < 0:
            b[r0 : r0 + d.n_rows] = d.b - d.B @ x0
        else:
            po, pw = cols[parents[node]]
            A[r0 : r0 + d.n_rows, po : po + pw] = d.B
            b[r0 : r0 + d.n_rows] = d.b
        r0 += d.n_rows
    sol = solve(LinearProgram(objective=c, eq_matrix=A, eq_rhs=b))
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"extensive form came back {sol.status.value}")
    return float(sol.objective_value)


# ---------------------------------------------------------------------------
# Generalization bound
# ---------------------------------------------------------------------------


def generalization_bound(
    sigmas,
    lipschitz_constants,
    diameters,
    state_dims,
    g_min: float,
    deltas,
    eta: float,
    n_samples: int,
    h: float,
    p: int,
    horizon_T: int,
) -> float:
    """Evaluate the out-of-sample error bound

        sum_{t=2}^{T} sqrt(sigma_t^2 * log(N^(t-2) prod_{s<t}(D_s/eta)^{d_s} / delta_t)
                           / (N h^p g_min))  +  2 L_t eta,

    with the absolute constants taken as 1.  ``sigmas``, ``lipschitz_constants``
    and ``deltas`` are indexed by t = 2..T; ``diameters`` and ``state_dims``
    by s = 1..T-1.  Purely diagnostic.
    """
    T = int(horizon_T)
    if T < 2:
        raise ValueError("horizon_T must be at least 2")
    sig = np.asarray(sigmas, dtype=float).reshape(-1)
    lip = np.asarray(lipschitz_constants, dtype=float).reshape(-1)
    dia = np.asarray(diameters, dtype=float).reshape(-1)
    dim = np.asarray(state_dims, dtype=float).reshape(-1)
    del_ = np.asarray(deltas, dtype=float).reshape(-1)
    if not (len(sig) == len(lip) == len(del_) == T - 1):
        raise ValueError("sigmas, lipschitz_constants, deltas must have length T-1")
    if not (len(dia) == len(dim) == T - 1):
        raise ValueError("diameters and state_dims must have length T-1")
    if np.any(sig < 0) or np.any(lip < 0):
        raise ValueError("sigmas and lipschitz_constants must be nonnegative")
    if np.any(dia <= 0) or np.any(dim <= 0):
        raise ValueError("diameters and state_dims must be positive")
    if np.any(del_ <= 0) or np.any(del_ >= 1):
        raise ValueError("deltas must lie in (0, 1)")
    if eta <= 0 or g_min <= 0 or h <= 0 or n_samples < 1 or p < 1:
        raise ValueError("eta, g_min, h must be positive; n_samples, p at least 1")
    total = 0.0
    denom = n_samples * h**p * g_min
    for t in range(2, T + 1):
        term = 2.0 * float(lip[t - 2]) * eta
        s_t = float(sig[t - 2])
        if s_t > 0.0:
            log_arg = (t - 2) * math.log(n_samples) - math.log(float(del_[t - 2]))
            for s in range(1, t):
                log_arg += float(dim[s - 1]) * math.log(float(dia[s - 1]) / eta)
            inner = s_t * s_t * log_arg / denom
            if inner < 0:
                raise ValueError(
                    f"bound undefined at t={t}: negative value {inner:.3g} under the root"
                )
            term += math.sqrt(inner)
        total += term
    return total


# ---------------------------------------------------------------------------
# Radius cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossValidationResult:
    best_c: float
    best_rho: float
    scores: tuple[tuple[float, float], ...]  # (coefficient, mean validation objective)


def _subset(traj: TrajectorySet, idx: np.ndarray) -> TrajectorySet:
    return TrajectorySet(
        horizon_T=traj.horizon_T,
        n_paths=len(idx),
        stage1=traj.stage1,
        data=[[stage[i] for i in idx] for stage in traj.data],
    )


def cross_validate_rho(
    traj: TrajectorySet,
    instance: InstanceTemplate,
    config: SolveConfig,
    c_grid=None,
    n_folds: int = 5,
) -> CrossValidationResult:
    """Pick the radius coefficient C of rho = C / sqrt(N h^p) by k-fold CV.

    Each candidate trains the robust solver on the out-of-fold paths and
    scores the mean realized objective on the held-out paths; the lowest
    mean across folds wins.  Ties go to the smaller coefficient.  A fold
    on which any held-out path fails scores inf, so a candidate cannot gain
    from the paths its policy breaks down on.
    """
    if c_grid is None:
        c_grid = np.logspace(-3.0, 1.0, 10)
    n_folds = min(n_folds, traj.n_paths)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(traj.n_paths)
    folds = np.array_split(perm, n_folds)
    scores = []
    for c in c_grid:
        fold_scores = []
        for f in range(n_folds):
            test_idx = folds[f]
            train_idx = np.concatenate([folds[g] for g in range(n_folds) if g != f])
            train = _subset(traj, train_idx)
            test = _subset(traj, test_idx)
            nominal_stub = ConditionalWeights.uniform(1)
            cfg = replace(
                config,
                algorithm=Algorithm.RDD,
                ambiguity=AmbiguityParams.rate_scaled(
                    float(c),
                    train.n_paths,
                    config.kernel.effective_h(train.n_paths, traj.feature_dim),
                    traj.feature_dim,
                    nominal_stub,
                ),
            )
            policy, _, _ = run(train, instance, cfg)
            report = evaluate_policy_out_of_sample(policy, test)
            fold_scores.append(math.inf if report.n_failed else report.mean)
        scores.append((float(c), float(np.mean(fold_scores))))
    best_c, _ = min(scores, key=lambda cv: (cv[1], cv[0]))
    h_full = config.kernel.effective_h(traj.n_paths, traj.feature_dim)
    return CrossValidationResult(
        best_c=best_c,
        best_rho=rate_scaled_rho(best_c, traj.n_paths, h_full, traj.feature_dim),
        scores=tuple(scores),
    )
