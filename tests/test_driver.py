"""Driver tests: bound behavior, oracle agreement, policies, diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

import sddpkit.driver
import sddpkit.lp
import sddpkit.robust
from sddpkit.approximations import CutPool, CutRows, EnvelopeStore
from sddpkit.driver import (
    Algorithm,
    GapMode,
    Policy,
    SolveConfig,
    cross_validate_rho,
    evaluate_policy_out_of_sample,
    extensive_form_oracle,
    generalization_bound,
    run,
)
from sddpkit.kernel import KernelConfig, nw_weights
from sddpkit.lp import Basis, LinearProgram, LpScaleError, LpStatus, solve
from sddpkit.robust import (
    AmbiguityParams,
    RhoRule,
    inner_max_primal,
    rate_scaled_rho,
    sanitize_nominal,
    worst_case,
)
from sddpkit.scenarios import (
    DimensionMismatchError,
    StageDatum,
    SyntheticSpec,
    TrajectorySet,
    generate_synthetic_markov,
)
from sddpkit.stages import (
    InstanceTemplate,
    StageInfeasibleError,
    assemble_stage_lp,
    build_portfolio_instance,
)

from _blocks import robust_pools, weighted_pools
from _highs import highs_solve, highs_value
from _kkt import assert_kkt
from _toys import STATE_DIM, make_toy

_KERNEL = KernelConfig(bandwidth_h=0.5)


def _config(algorithm=Algorithm.DD, rho=None, **overrides):
    ambiguity = None
    if algorithm is Algorithm.RDD:
        ambiguity = AmbiguityParams(rho=float(rho))
    settings = dict(
        algorithm=algorithm,
        epsilon=1e-8,
        gap_mode=GapMode.ABSOLUTE,
        max_iterations=50,
        seed=7,
        kernel=_KERNEL,
        ambiguity=ambiguity,
    )
    settings.update(overrides)
    return SolveConfig(**settings)


def test_two_stage_gap_closes_within_n_plus_one_iterations():
    """With T=2 the backward pass is exact at each visited state, so the
    sandwich closes after at most N+1 root solves."""
    for seed in (0, 1, 2):
        traj, template = make_toy(seed, horizon_T=2, n_paths=3)
        _, records, _ = run(traj, template, _config(max_iterations=4))
        assert len(records) <= traj.n_paths + 1
        assert records[-1].gap <= 1e-8


def test_toy_bounds_match_extensive_oracle():
    """Both final bounds land on the monolithic tree LP's optimal value."""
    for seed in range(5):
        traj, template = make_toy(seed, horizon_T=3, n_paths=2)
        policy, records, _ = run(traj, template, _config())
        target = extensive_form_oracle(traj, template, kernel=_KERNEL)
        last = records[-1]
        assert last.gap <= 1e-8
        assert last.lower_bound == pytest.approx(target, abs=1e-6)
        assert last.upper_bound == pytest.approx(target, abs=1e-6)


def test_bound_records_are_monotone_and_sandwich_the_oracle():
    traj, template = make_toy(3, horizon_T=3, n_paths=3)
    _, records, _ = run(traj, template, _config())
    target = extensive_form_oracle(traj, template, kernel=_KERNEL)
    for prev, rec in zip(records, records[1:]):
        assert rec.lower_bound >= prev.lower_bound - 1e-9
        assert rec.upper_bound <= prev.upper_bound + 1e-12
    for rec in records:
        assert rec.lower_bound <= rec.upper_bound + 1e-7
        assert rec.lower_bound <= target + 1e-7
        assert rec.upper_bound >= target - 1e-7


def test_rdd_with_zero_radius_reproduces_dd_sequences():
    """A zero ambiguity radius collapses the robust solver onto the nominal
    one: identical bound sequences iteration by iteration, bit for bit."""
    for seed in range(8):
        traj, template = make_toy(seed, horizon_T=3, n_paths=4)
        _, dd, _ = run(traj, template, _config())
        _, rdd, _ = run(traj, template, _config(algorithm=Algorithm.RDD, rho=0.0))
        assert [(r.lower_bound, r.upper_bound) for r in dd] == [
            (r.lower_bound, r.upper_bound) for r in rdd
        ]


def test_rdd_lower_bound_dominates_dd_at_convergence():
    """Worst case over a weight set containing the nominal costs at least
    as much as the nominal expectation."""
    for seed in (0, 1, 4):
        traj, template = make_toy(seed, horizon_T=3, n_paths=2)
        _, dd, _ = run(traj, template, _config())
        _, rdd, _ = run(traj, template, _config(algorithm=Algorithm.RDD, rho=0.3))
        assert dd[-1].gap <= 1e-8 and rdd[-1].gap <= 1e-8
        assert rdd[-1].lower_bound >= dd[-1].lower_bound - 1e-8


def test_rate_scaled_rule_trains_as_its_radius_given_by_hand():
    """A run under the RateScaled rule derives rho = C / sqrt(N h^p) from its
    coefficient, and trains bit for bit like a run given that rho by hand,
    as ``cross_validate_rho`` gives each fold's radius."""
    traj, template = make_toy(3, horizon_T=3, n_paths=4)
    h = _KERNEL.effective_h(traj.n_paths, traj.feature_dim)
    rho = rate_scaled_rho(2.0, traj.n_paths, h, traj.feature_dim)
    rule = AmbiguityParams(rho=0.0, rho_rule=RhoRule.RATE_SCALED, c_coefficient=2.0)
    scaled, by_rule, _ = run(traj, template, _config(Algorithm.RDD, rho=0.0, ambiguity=rule))
    manual, by_hand, _ = run(traj, template, _config(Algorithm.RDD, rho=rho))
    assert scaled.rho == manual.rho == rho > 0.0
    assert [(r.lower_bound, r.upper_bound) for r in by_rule] == [
        (r.lower_bound, r.upper_bound) for r in by_hand
    ]


def test_m_override_is_every_envelope_penalty(monkeypatch):
    """With ``M_override`` set, every envelope block of training, at the
    root and in the backward pass, charges exactly that penalty."""
    seen = []
    block = sddpkit.driver.EnvelopeUpperTerms

    def spy(anchors, values, penalty_m):
        seen.append(penalty_m)
        return block(anchors, values, penalty_m)

    monkeypatch.setattr(sddpkit.driver, "EnvelopeUpperTerms", spy)
    traj, template = make_toy(3, horizon_T=3, n_paths=3)
    run(traj, template, _config(max_iterations=3, M_override=3.5))
    assert seen and all(m == 3.5 for m in seen)


def _check_rdd_training_against_the_lp_inner_max(monkeypatch, traj, template, config):
    """Train RDD with every batched inner max checked against the LP one, row
    by row, and every nominal row against sanitize_nominal of the kernel (or
    root) weights it came from; returns the number of rows checked."""
    raw = [np.full((1, traj.n_paths), 1.0 / traj.n_paths)] + [
        np.vstack([nw_weights(q, traj.features(t), config.kernel).weights for q in traj.features(t)])
        for t in range(2, traj.horizon_T)
    ]
    sanitized = {
        np.vstack([sanitize_nominal(row) for row in rows]).tobytes() for rows in raw
    }
    rows_checked = 0

    def checked(z, nominal, rho):
        nonlocal rows_checked
        values, worst = worst_case(z, nominal, rho)
        assert nominal.tobytes() in sanitized
        for value, row in zip(values, nominal):
            oracle, _ = inner_max_primal(z, row, rho)
            assert abs(value - oracle) <= 1e-12 * (1.0 + abs(oracle))
            rows_checked += 1
        return values, worst

    monkeypatch.setattr(sddpkit.driver, "worst_case", checked)
    _, records, _ = run(traj, template, config)
    for prev, rec in zip(records, records[1:]):
        assert rec.lower_bound >= prev.lower_bound - 1e-9
        assert rec.upper_bound <= prev.upper_bound
    for rec in records:
        assert rec.lower_bound <= rec.upper_bound + 1e-9
    return rows_checked


def test_rdd_training_inner_max_matches_the_lp_on_toys(monkeypatch):
    rows = 0
    for seed in range(8):
        traj, template = make_toy(seed, horizon_T=4, n_paths=4)
        for rho in (0.1, 0.5):
            config = _config(Algorithm.RDD, rho, max_iterations=10, epsilon=1e-12)
            rows += _check_rdd_training_against_the_lp_inner_max(
                monkeypatch, traj, template, config
            )
    assert rows > 0


def test_rdd_training_inner_max_matches_the_lp_on_portfolio(monkeypatch):
    traj, template = _portfolio(3, 8)
    config = _config(Algorithm.RDD, 0.1, max_iterations=4, epsilon=1e-12)
    assert _check_rdd_training_against_the_lp_inner_max(monkeypatch, traj, template, config) > 0


def test_stage_lp_solves_carry_kkt_certificates(monkeypatch):
    """Every Optimal solve of DD and RDD training, and of the nominal and
    robust rollouts, passes a primal-dual optimality check."""
    checked = {"train": 0, "nominal": 0, "robust": 0}
    phase = "train"

    def certified(lp, start=None):
        sol = solve(lp, start)
        if sol.status is LpStatus.OPTIMAL:
            assert_kkt(lp, sol)
            checked[phase] += 1
        return sol

    monkeypatch.setattr(sddpkit.driver, "solve", certified)
    monkeypatch.setattr(sddpkit.robust, "solve", certified)
    for seed in range(3):
        traj, template = make_toy(seed, horizon_T=4, n_paths=4)
        test_traj, _ = make_toy(seed + 50, horizon_T=4, n_paths=6)
        for algorithm, rho in ((Algorithm.DD, None), (Algorithm.RDD, 0.3)):
            phase = "train"
            config = _config(algorithm, rho, max_iterations=10, epsilon=1e-12)
            policy, _, _ = run(traj, template, config)
            rollouts = [("nominal", dataclasses.replace(policy, algorithm=Algorithm.DD))]
            if algorithm is Algorithm.RDD:
                rollouts.append(("robust", policy))
            for phase, rolled in rollouts:
                assert evaluate_policy_out_of_sample(rolled, test_traj).n_failed == 0
    assert min(checked.values()) > 0


def test_stage_lp_solves_match_highs(monkeypatch):
    """Every stage LP of DD and RDD (rho 0.3) training on a toy, and of its
    nominal and robust rollouts, gets the status HiGHS finds for it and,
    when Optimal, HiGHS' value to 1e-9 (1 + |v|)."""
    solved = {"train": [], "nominal": [], "robust": []}
    phase = "train"

    def recording(lp, start=None):
        sol = solve(lp, start)
        solved[phase].append((lp, sol.status, sol.objective_value))
        return sol

    monkeypatch.setattr(sddpkit.driver, "solve", recording)
    traj, template = make_toy(1, horizon_T=4, n_paths=4)
    test_traj, _ = make_toy(51, horizon_T=4, n_paths=4)
    for algorithm, rho in ((Algorithm.DD, None), (Algorithm.RDD, 0.3)):
        phase = "train"
        policy, _, _ = run(traj, template, _config(algorithm, rho, max_iterations=6, epsilon=1e-12))
        rollouts = [("nominal", dataclasses.replace(policy, algorithm=Algorithm.DD))]
        if algorithm is Algorithm.RDD:
            rollouts.append(("robust", policy))
        for phase, rolled in rollouts:
            evaluate_policy_out_of_sample(rolled, test_traj)
    for lps in solved.values():
        assert lps
        for lp, status, value in lps:
            reference_status, reference = highs_solve(lp)
            assert status is reference_status
            if status is LpStatus.OPTIMAL:
                assert abs(value - reference) <= 1e-9 * (1.0 + abs(reference))


def test_warm_started_training_matches_cold_training(monkeypatch):
    """Starting each training LP from its family's last optimal basis, or
    at a new backward anchor from the basis its sibling realization just
    ended at, changes how the LPs are solved, not their values.

    Every solve of a warm run returns the status and objective of a cold
    solve of the same LP.  On the toys (DD and RDD) and the portfolio (DD),
    the bounds match, iteration by iteration, a run whose every solve
    starts cold, and the DD toy bounds sandwich the extensive form.  RDD on
    the portfolio is compared solve by solve only: warm and cold values
    differ in the last bits, and tied worst-case maximizers then pick
    other, equally valid cuts.
    """
    warm_solves = 0

    def checked(lp, start=None):
        nonlocal warm_solves
        warm_solves += start is not None and start.cols is not None
        sol, cold = solve(lp, start), solve(lp)
        assert sol.status is cold.status
        if cold.status is LpStatus.OPTIMAL:
            v = cold.objective_value
            assert abs(sol.objective_value - v) <= 1e-9 * (1.0 + abs(v))
        return sol

    cases = [make_toy(seed, horizon_T=4, n_paths=4) + (True,) for seed in range(8)]
    cases.append(_portfolio(3, 8) + (False,))
    for traj, template, toy in cases:
        target = extensive_form_oracle(traj, template, kernel=_KERNEL) if toy else None
        for algorithm, rho in ((Algorithm.DD, None), (Algorithm.RDD, 0.3)):
            config = _config(algorithm, rho, max_iterations=10 if toy else 5, epsilon=1e-12)
            with monkeypatch.context() as patch:
                patch.setattr(sddpkit.driver, "solve", checked)
                _, warm, _ = run(traj, template, config)
                patch.setattr(sddpkit.driver, "solve", lambda lp, start=None: solve(lp))
                _, cold, _ = run(traj, template, config)
            if toy or algorithm is Algorithm.DD:
                assert len(warm) == len(cold)
                for w, c in zip(warm, cold):
                    for got, want in ((w.lower_bound, c.lower_bound), (w.upper_bound, c.upper_bound)):
                        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
            if toy and algorithm is Algorithm.DD:
                for rec in warm:
                    assert rec.lower_bound <= target + 1e-7
                    assert rec.upper_bound >= target - 1e-7
    assert warm_solves > 0


def test_kept_inverses_do_not_change_training_bounds(monkeypatch):
    """A warm start that takes the inverse its holder kept, instead of
    inverting its basis matrix, gives the same bits: DD and RDD runs on the
    toys and the portfolio reach bit-identical bounds and forward paths when
    every solve starts from a fresh holder that carries only the basis."""
    reused = 0
    carried_inverse = sddpkit.lp._carried_inverse

    def counted(held, B):
        nonlocal reused
        Binv = carried_inverse(held, B)
        reused += Binv is not None
        return Binv

    def cols_only(lp, start=None):
        if start is None:
            return solve(lp)
        plain = Basis(None if start.cols is None else start.cols.copy())
        sol = solve(lp, plain)
        start.cols = plain.cols
        return sol

    cases = [make_toy(seed, horizon_T=4, n_paths=4) for seed in range(8)]
    cases.append(_portfolio(3, 8))
    for traj, template in cases:
        for algorithm, rho in ((Algorithm.DD, None), (Algorithm.RDD, 0.3)):
            config = _config(algorithm, rho, max_iterations=10, epsilon=1e-12)
            with monkeypatch.context() as patch:
                patch.setattr(sddpkit.lp, "_carried_inverse", counted)
                _, kept, _ = run(traj, template, config)
            with monkeypatch.context() as patch:
                patch.setattr(sddpkit.driver, "solve", cols_only)
                _, fresh, _ = run(traj, template, config)
            assert [
                (r.lower_bound.hex(), r.upper_bound.hex(), r.forward_scenario.indices) for r in kept
            ] == [
                (r.lower_bound.hex(), r.upper_bound.hex(), r.forward_scenario.indices)
                for r in fresh
            ]
    assert reused > 100


@pytest.mark.parametrize("algorithm, rho", [(Algorithm.DD, None), (Algorithm.RDD, 0.3)])
def test_cold_simplex_runs_do_not_grow_with_realizations(monkeypatch, algorithm, rho):
    """Only the first solve of a stage's backward LPs at a new anchor may run
    cold: realization i starts from the basis realization i-1 just ended at.

    So three training iterations run the cold simplex at most once for each
    of the root LPs, the forward stage LPs, and the first realization's
    lower and upper LPs at every backward stage, however many realizations there are.
    """
    runs = 0
    cold_run = sddpkit.lp._Simplex.run

    def counted(self):
        nonlocal runs
        runs += 1
        return cold_run(self)

    monkeypatch.setattr(sddpkit.lp._Simplex, "run", counted)
    T = 4
    # root lower and upper; forward stages 2..T-1; backward lower at 2..T and upper at 2..T-1
    limit = 2 + (T - 2) + (T - 1) + (T - 2)
    for n_paths in (4, 8, 16):
        traj, template = _portfolio(5, n_paths)
        runs = 0
        _, records, _ = run(traj, template, _config(algorithm, rho, max_iterations=3, epsilon=1e-12))
        assert len(records) == 3
        assert runs <= limit


def test_in_sample_policy_mean_equals_root_lower_bound_for_t2():
    """Evaluating the trained policy on its own training paths reproduces
    the root bound exactly when the last stage has no cost-to-go."""
    traj, template = make_toy(11, horizon_T=2, n_paths=4)
    policy, records, _ = run(traj, template, _config(max_iterations=10))
    assert records[-1].gap <= 1e-8
    report = evaluate_policy_out_of_sample(policy, traj)
    assert report.n_failed == 0
    assert report.mean == pytest.approx(policy.root_lower_bound, abs=1e-6)


def test_policy_evaluation_is_deterministic():
    """Each call starts its working sets and bases afresh, so two calls on
    one policy agree bit for bit, on the toy and on a DD and an RDD
    (robust rollout) portfolio policy rolled out over 16 paths."""
    traj, template = make_toy(5, horizon_T=3, n_paths=3)
    toy_test, _ = make_toy(5, horizon_T=3, n_paths=6)
    portfolio, portfolio_template = _portfolio(2, 10)
    portfolio_test, _ = _portfolio(102, 16)
    robust = _config(Algorithm.RDD, 0.3, max_iterations=5, epsilon=1e-12)
    for train, instance, test_traj, config in (
        (traj, template, toy_test, _config(max_iterations=15)),
        (portfolio, portfolio_template, portfolio_test, _config(max_iterations=15)),
        (portfolio, portfolio_template, portfolio_test, robust),
    ):
        policy, _, _ = run(train, instance, config)
        first = evaluate_policy_out_of_sample(policy, test_traj)
        second = evaluate_policy_out_of_sample(policy, test_traj)
        assert first.n_failed == 0
        assert first.objectives.tobytes() == second.objectives.tobytes()
        assert first.mean == second.mean and first.variance == second.variance


def test_policy_failure_paths_are_reported_not_fatal():
    """An out-of-sample path whose stage LP is infeasible shows up as a NaN
    objective and a failure count, while the other paths still score."""
    traj, template = make_toy(2, horizon_T=3, n_paths=2)
    policy, _, _ = run(traj, template, _config(max_iterations=15))
    test_traj, _ = make_toy(2, horizon_T=3, n_paths=3)
    broken = test_traj.stage_data(3)[1]
    test_traj.stage_data(3)[1] = StageDatum(
        c=broken.c, A=broken.A, B=broken.B, b=np.array([1.2, -0.5]), feature=broken.feature
    )
    report = evaluate_policy_out_of_sample(policy, test_traj)
    assert report.n_failed == 1
    assert np.isnan(report.objectives[1])
    assert math.isfinite(report.mean)


def test_solver_breakdown_fails_only_its_own_path(monkeypatch):
    """A RuntimeError from the simplex on one path's stage LP counts that
    path as failed; the paths before and after it still score."""
    import sddpkit.driver

    traj, template = make_toy(2, horizon_T=3, n_paths=2)
    policy, _, _ = run(traj, template, _config(max_iterations=15))
    test_traj, _ = make_toy(2, horizon_T=3, n_paths=3)
    healthy = evaluate_policy_out_of_sample(policy, test_traj)
    calls = []

    def breaks_on_path_1(lp, start=None):
        calls.append(lp)
        if len(calls) == 3:  # two stage LPs per path: path 1's first
            raise RuntimeError("simplex failed on degenerate data")
        return solve(lp, start)

    monkeypatch.setattr(sddpkit.driver, "solve", breaks_on_path_1)
    report = evaluate_policy_out_of_sample(policy, test_traj)
    assert report.n_failed == 1
    assert np.isnan(report.objectives[1])
    assert report.objectives[0] == healthy.objectives[0]
    assert report.objectives[2] == healthy.objectives[2]


def _full_pool_terms(policy, datum, t):
    """Every cut of every pool, weighted by the kernel weights: the oracle's block."""
    train = policy.trajectories
    if t == train.horizon_T:
        return None
    w = nw_weights(datum.feature, train.features(t), policy.kernel).weights
    return weighted_pools(
        [(float(w[i]), policy.pools.cuts(t + 1, i)) for i in range(train.n_paths)]
    )


def _full_pool_rollout(policy, test_traj):
    """The rollout with every cut in every stage LP, one solve per stage."""
    train = policy.trajectories
    objectives = []
    for path in range(test_traj.n_paths):
        x_prev = policy.root_decision
        total = float(train.stage1.c @ x_prev)
        for t in range(2, train.horizon_T + 1):
            datum = test_traj.stage_data(t)[path]
            sol = solve(assemble_stage_lp(datum, x_prev, _full_pool_terms(policy, datum, t)))
            if sol.status is not LpStatus.OPTIMAL:
                total = math.nan
                break
            x_prev = sol.primal[: datum.dim_out]
            total += float(datum.c @ x_prev)
        objectives.append(total)
    return np.array(objectives)


def _full_pool_cost(policy, datum, t, x):
    """The full stage LP's objective at decision x: c.x plus the weighted cut maxima."""
    train = policy.trajectories
    w = nw_weights(datum.feature, train.features(t), policy.kernel).weights
    cost = float(datum.c @ x)
    for i in range(train.n_paths):
        cuts = policy.pools.cuts(t + 1, i)
        top = float(np.max(cuts.offsets + cuts.gradients @ x)) if len(cuts) else -math.inf
        cost += float(w[i]) * top
    return cost


def _check_rollout_against_full_pools(monkeypatch, policy, test_traj):
    """Every path's objective matches the full-pool rollout, at least one of
    them finite, and every stage decision the rollout takes is optimal for
    its full-pool stage LP.  Each round of a working set adds at most one
    cut row per node, unless the LP before it was Unbounded, and no LP
    carries two equal rows of one node.  Returns the row counts of the
    rollout's stage LPs that carry cuts."""
    calls = []
    assemble, solve_lp = sddpkit.driver.assemble_stage_lp, sddpkit.driver.solve

    def recording_assemble(datum, incoming_state, extra_terms=None):
        lp = assemble(datum, incoming_state, extra_terms=extra_terms)
        calls.append([datum, np.array(incoming_state), lp, None])
        return lp

    def recording_solve(lp, start=None):
        calls[-1][3] = solve_lp(lp, start)
        return calls[-1][3]

    with monkeypatch.context() as patch:
        patch.setattr(sddpkit.driver, "assemble_stage_lp", recording_assemble)
        patch.setattr(sddpkit.driver, "solve", recording_solve)
        report = evaluate_policy_out_of_sample(policy, test_traj)
    oracle = _full_pool_rollout(policy, test_traj)
    assert np.array_equal(np.isnan(report.objectives), np.isnan(oracle))
    ok = ~np.isnan(oracle)
    assert ok.any()
    assert np.all(np.abs(report.objectives[ok] - oracle[ok]) <= 1e-9 * (1.0 + np.abs(oracle[ok])))

    T = test_traj.horizon_T
    stage_of = {id(d): t for t in range(2, T + 1) for d in test_traj.stage_data(t)}
    # A stage's decision comes from its last solve: the next call is another stage.
    for (datum, x_prev, _, sol), after in zip(calls, calls[1:] + [[None]]):
        t = stage_of[id(datum)]
        if after[0] is datum or t == T or sol.status is not LpStatus.OPTIMAL:
            continue
        x = sol.primal[: datum.dim_out]
        assert np.max(np.abs(datum.A @ x - (datum.b - datum.B @ x_prev))) <= 1e-9
        assert np.min(x) >= -1e-9
        full = solve(assemble_stage_lp(datum, x_prev, _full_pool_terms(policy, datum, t)))
        target = full.objective_value
        assert abs(_full_pool_cost(policy, datum, t, x) - target) <= 1e-9 * (1.0 + abs(target))

    n_nodes = policy.trajectories.n_paths
    # Two LPs in a row of one datum are two rounds of one working set.
    for (datum, _, lp, _), (before, _, lp_before, sol_before) in zip(calls[1:], calls):
        if datum is before and sol_before.status is not LpStatus.UNBOUNDED:
            assert 0 < lp.n_rows - lp_before.n_rows <= n_nodes
    for datum, _, lp, _ in calls:
        m, d = datum.A.shape
        # A cut row's node shows in its epigraph columns, the cut in x and the rhs.
        rows = np.column_stack([lp.eq_matrix[m:, : d + n_nodes], lp.eq_rhs[m:]])
        assert len(np.unique(rows, axis=0)) == len(rows)
    return [lp.n_rows for datum, _, lp, _ in calls if stage_of[id(datum)] < T]


def _portfolio(seed, n_paths):
    template = build_portfolio_instance(3, 4, fees=(0.005, 0.005))
    spec = SyntheticSpec(
        mu=np.full(3, 0.505),
        phi=0.5 * np.eye(3),
        noise_cov=0.05**2 * np.eye(3),
        xi1=np.ones(3),
        box_lower=np.full(3, 0.8),
        box_upper=np.full(3, 1.2),
        datum_builder=template.datum_builder,
    )
    return generate_synthetic_markov(spec, 4, n_paths, rng_seed=seed), template


def _sub_seed(*entropy):
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@pytest.mark.parametrize("seed, instance", [(72, 6), (76, 7), (90, 1)])
def test_warm_robust_rollout_solves_every_path_the_cold_one_loses(monkeypatch, seed, instance):
    """RDD policies on whose robust rollouts cold solves lose a path, one
    to a singular basis and two to a false Unbounded.  Started from its
    stage's last optimal basis, every stage LP solves, and each path agrees
    with the cold rollout wherever that one is finite."""
    train, template = _portfolio(_sub_seed(seed, instance, 0), 20)
    test_traj, _ = _portfolio(_sub_seed(seed, instance, 1), 16)
    config = SolveConfig(
        algorithm=Algorithm.RDD,
        epsilon=1e-12,
        max_iterations=3,
        seed=_sub_seed(seed, instance, 2),
        ambiguity=AmbiguityParams(rho=0.1),
    )
    policy, _, _ = run(train, template, config)
    warm = evaluate_policy_out_of_sample(policy, test_traj)
    monkeypatch.setattr(sddpkit.driver, "solve", lambda lp, start=None: solve(lp))
    cold = evaluate_policy_out_of_sample(policy, test_traj).objectives
    assert warm.n_failed == 0
    ok = np.isfinite(cold)
    assert np.all(np.abs(warm.objectives[ok] - cold[ok]) <= 1e-9 * (1.0 + np.abs(cold[ok])))


def test_robust_rollout_runs_the_cold_simplex_at_most_once_per_stage(monkeypatch):
    """Every robust stage LP after a stage's first starts from that stage's
    last optimal basis, so the cold runs do not grow with the test paths."""
    runs = 0
    cold_run = sddpkit.lp._Simplex.run

    def counted(self):
        nonlocal runs
        runs += 1
        return cold_run(self)

    traj, template = _portfolio(3, 8)
    policy, _, _ = run(traj, template, _config(Algorithm.RDD, 0.3, max_iterations=5, epsilon=1e-12))
    monkeypatch.setattr(sddpkit.lp._Simplex, "run", counted)
    for n_paths in (4, 16):
        test_traj, _ = _portfolio(103, n_paths)
        runs = 0
        assert evaluate_policy_out_of_sample(policy, test_traj).n_failed == 0
        assert runs <= traj.horizon_T - 1


def test_working_set_rollout_matches_full_pools_on_portfolio(monkeypatch):
    for seed in (0, 1):
        traj, template = _portfolio(seed, 10)
        policy, _, _ = run(traj, template, _config(epsilon=1e-12, max_iterations=10))
        # 16 paths: each stage's working set and basis carry over from path to path.
        test_traj, _ = _portfolio(seed + 100, 16)
        rows = _check_rollout_against_full_pools(monkeypatch, policy, test_traj)
        full_rows = 4 + 10 * 10  # structural rows plus every cut of every node
        assert min(rows) < full_rows


def test_working_set_rollout_matches_full_pools_on_toys(monkeypatch):
    for seed in range(3):
        traj, template = make_toy(seed, horizon_T=4, n_paths=5)
        policy, _, _ = run(traj, template, _config(max_iterations=15, epsilon=1e-12))
        test_traj, _ = make_toy(seed + 50, horizon_T=4, n_paths=8)
        _check_rollout_against_full_pools(monkeypatch, policy, test_traj)


def test_working_set_rollout_with_zero_kernel_weights(monkeypatch):
    kernel = KernelConfig(bandwidth_h=1e-3)
    traj, template = make_toy(7, horizon_T=4, n_paths=6)
    policy, _, _ = run(traj, template, _config(max_iterations=12, kernel=kernel))
    test_traj, _ = make_toy(8, horizon_T=4, n_paths=8)
    weights = [
        nw_weights(test_traj.stage_data(t)[p].feature, traj.features(t), kernel).weights
        for t in (2, 3)
        for p in range(test_traj.n_paths)
    ]
    assert any(np.min(w) == 0.0 for w in weights)
    _check_rollout_against_full_pools(monkeypatch, policy, test_traj)


def test_working_set_rollout_of_a_one_iteration_policy(monkeypatch):
    traj, template = make_toy(4, horizon_T=4, n_paths=4)
    policy, records, _ = run(traj, template, _config(max_iterations=1))
    assert len(records) == 1
    assert all(len(policy.pools.cuts(t, i)) == 1 for t in (3, 4) for i in range(4))
    test_traj, _ = make_toy(5, horizon_T=4, n_paths=6)
    _check_rollout_against_full_pools(monkeypatch, policy, test_traj)


def _trimmed_pools(
    trained: Policy, cuts: slice, nodes: dict[int, int], copies: int = 1
) -> CutPool:
    """A pool with the trained cuts ``cuts`` of stages 3 and 4, each added
    ``copies`` times in a row, for the first ``nodes[t]`` nodes of stage t;
    the other nodes have none."""
    pools = CutPool()
    for t in (3, 4):
        stage = trained.pools.stage(t)
        for k in range(stage.offsets.shape[1])[cuts]:
            for _ in range(copies):
                pools.add(
                    t, CutRows(stage.gradients[: nodes[t], k], stage.offsets[: nodes[t], k])
                )
    return pools


def test_working_set_rollout_with_single_cuts(monkeypatch):
    """At stages 3 and 4 every node keeps only its newest cut."""
    traj, template = make_toy(6, horizon_T=4, n_paths=4)
    trained, _, _ = run(traj, template, _config(max_iterations=10))
    pools = _trimmed_pools(trained, slice(-1, None), {3: 4, 4: 4})
    policy = dataclasses.replace(trained, pools=pools)
    test_traj, _ = make_toy(7, horizon_T=4, n_paths=6)
    _check_rollout_against_full_pools(monkeypatch, policy, test_traj)


def test_working_set_rollout_with_duplicate_cuts(monkeypatch):
    """At stages 3 and 4 every trained cut is in its pool twice in a row,
    so every node's maximum is a tie; no working LP takes both copies."""
    traj, template = make_toy(6, horizon_T=4, n_paths=4)
    trained, _, _ = run(traj, template, _config(max_iterations=10))
    pools = _trimmed_pools(trained, slice(None), {3: 4, 4: 4}, copies=2)
    policy = dataclasses.replace(trained, pools=pools)
    test_traj, _ = make_toy(7, horizon_T=4, n_paths=6)
    _check_rollout_against_full_pools(monkeypatch, policy, test_traj)


@pytest.mark.parametrize("algorithm, rho", [(Algorithm.DD, None), (Algorithm.RDD, 0.5)])
def test_an_empty_pool_of_positive_weight_fails_the_path(algorithm, rho):
    """A node without cuts has cost-to-go -inf.  With the last stage-4
    node's pool emptied, exactly the test paths whose stage-3 LP puts
    weight on it fail: every path of positive nominal weight there in the
    nominal rollout, every path with sqrt(w_hat) > rho in the robust one.
    With every pool filled, no path fails."""
    traj, template = make_toy(6, horizon_T=4, n_paths=4)
    trained, _, _ = run(traj, template, _config(algorithm, rho, max_iterations=5))
    test_traj, _ = make_toy(7, horizon_T=4, n_paths=12)
    assert evaluate_policy_out_of_sample(trained, test_traj).n_failed == 0
    policy = dataclasses.replace(trained, pools=_trimmed_pools(trained, slice(None), {3: 4, 4: 3}))
    report = evaluate_policy_out_of_sample(policy, test_traj)
    # Each test path's stage-3 weight on the emptied node.
    w = np.array([
        nw_weights(datum.feature, traj.features(3), trained.kernel).weights
        for datum in test_traj.stage_data(3)
    ])
    if algorithm is Algorithm.DD:
        fails = w[:, -1] > 0.0
    else:
        fails = np.array([math.sqrt(sanitize_nominal(row)[-1]) > rho for row in w])
    assert fails.any()
    # The robust paths' sqrt(w_hat) lie on either side of rho.
    assert algorithm is Algorithm.DD or not fails.all()
    assert np.array_equal(np.isnan(report.objectives), fails)
    assert report.n_failed == fails.sum()


@pytest.mark.parametrize("pools", ["full", "trimmed", "doubled"])
def test_robust_rollout_stage_lps_match_the_per_node_pools(monkeypatch, pools):
    """Every robust stage LP of the rollout is, array for array and bit for
    bit, the one built from the node pools ``policy.pools.cuts(t + 1, i)``
    stacked node after node under the sanitized kernel weights: with the
    trained pools, with the last stage-4 node's pool emptied, and with
    every cut in its pool twice.  Each stage LP of a path is solved once."""
    traj, template = make_toy(6, horizon_T=4, n_paths=4)
    trained, _, _ = run(traj, template, _config(Algorithm.RDD, 0.5, max_iterations=5))
    policy = {
        "full": trained,
        "trimmed": dataclasses.replace(
            trained, pools=_trimmed_pools(trained, slice(None), {3: 4, 4: 3})
        ),
        "doubled": dataclasses.replace(
            trained, pools=_trimmed_pools(trained, slice(None), {3: 4, 4: 4}, copies=2)
        ),
    }[pools]
    test_traj, _ = make_toy(7, horizon_T=4, n_paths=12)
    calls = []
    assemble = sddpkit.driver.assemble_stage_lp

    def recording(datum, incoming_state, extra_terms=None):
        lp = assemble(datum, incoming_state, extra_terms=extra_terms)
        calls.append((datum, np.array(incoming_state), lp))
        return lp

    monkeypatch.setattr(sddpkit.driver, "assemble_stage_lp", recording)
    report = evaluate_policy_out_of_sample(policy, test_traj)
    assert (report.n_failed > 0) == (pools == "trimmed")
    T = test_traj.horizon_T
    stage_of = {id(d): t for t in range(2, T + 1) for d in test_traj.stage_data(t)}
    # Each (path, stage) datum is its own object: one assembly, one solve.
    assert len({id(datum) for datum, _, _ in calls}) == len(calls)
    assert sum(stage_of[id(datum)] == 2 for datum, _, _ in calls) == test_traj.n_paths
    robust_lps = 0
    for datum, x_prev, lp in calls:
        t = stage_of[id(datum)]
        if t == T:
            continue
        w = nw_weights(datum.feature, traj.features(t), policy.kernel).weights
        node_pools = [policy.pools.cuts(t + 1, i) for i in range(traj.n_paths)]
        terms = robust_pools(sanitize_nominal(w), policy.rho, node_pools)
        reference = assemble_stage_lp(datum, x_prev, extra_terms=terms)
        for got, want in (
            (lp.objective, reference.objective),
            (lp.eq_matrix, reference.eq_matrix),
            (lp.eq_rhs, reference.eq_rhs),
            (lp.free_mask, reference.free_mask),
        ):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        robust_lps += 1
    # Only stage 4's pools lose a node, so every path reaches stage 3.
    assert robust_lps == 2 * test_traj.n_paths


def test_unbounded_working_set_falls_back_to_every_cut():
    """The start cut leaves x1 free to grow, so the first working LP is
    unbounded; with both cuts the optimum is x1 = 2.5.  The incoming state
    is 1-dimensional and the decision 2-dimensional, so the start cut is
    the highest one at the origin."""
    stage1 = StageDatum(c=[0.0], A=[[1.0]], B=[[0.0]], b=[1.0], feature=[0.0])
    stage2 = StageDatum(c=[0.1, 0.0], A=[[1.0, -1.0]], B=[[0.0]], b=[0.0], feature=[0.0])
    stage3 = StageDatum(c=[1.0], A=[[1.0]], B=[[0.0, 0.0]], b=[1.0], feature=[0.0])
    traj = TrajectorySet(horizon_T=3, n_paths=1, stage1=stage1, data=[[stage2], [stage3]])
    pools = CutPool()
    # At the origin 5 - x1 = 5 beats x1 = 0, so it starts alone.
    pools.add(3, CutRows(np.array([[-1.0, 0.0]]), np.array([5.0])))
    pools.add(3, CutRows(np.array([[1.0, 0.0]]), np.array([0.0])))
    policy = Policy(
        algorithm=Algorithm.DD,
        trajectories=traj,
        kernel=_KERNEL,
        rho=0.0,
        pools=pools,
        store=EnvelopeStore(),
        root_decision=np.array([1.0]),
        root_lower_bound=0.0,
    )
    report = evaluate_policy_out_of_sample(policy, traj)
    assert report.n_failed == 0
    assert report.objectives[0] == pytest.approx(0.1 * 2.5 + 1.0, abs=1e-12)


def test_first_forward_pass_solves_the_stage_lps_without_a_block(monkeypatch):
    """Before the first backward pass every pool is empty, so the first root
    solve and the first forward pass append no block: their decisions are
    bit for bit those of the bare stage LPs, solved cold."""
    passes = []
    forward_pass = sddpkit.driver._Runner.forward_pass

    def recording(self, k, m):
        passes.append(forward_pass(self, k, m))
        return passes[-1]

    monkeypatch.setattr(sddpkit.driver._Runner, "forward_pass", recording)
    traj, template = make_toy(2, horizon_T=4, n_paths=3)
    run(traj, template, _config(max_iterations=1))
    scenario, states = passes[0]
    root = solve(assemble_stage_lp(traj.stage1, template.initial_state)).primal
    expected = [root[: traj.stage1.dim_out]]
    for t, i in zip(range(2, traj.horizon_T), scenario.indices):
        datum = traj.stage_data(t)[i]
        expected.append(solve(assemble_stage_lp(datum, expected[-1])).primal[: datum.dim_out])
    assert [x.tobytes() for x in states] == [x.tobytes() for x in expected]


def test_iteration_counters_and_forward_scenario_shape():
    """Each iteration adds one cut and one envelope point per conditioning
    node: N per stage t >= 3 plus the root."""
    traj, template = make_toy(1, horizon_T=4, n_paths=3)
    _, records, _ = run(traj, template, _config(max_iterations=5, epsilon=1e-15))
    per_iter = (traj.horizon_T - 2) * traj.n_paths + 1
    for pos, rec in enumerate(records):
        assert rec.k == pos + 1
        assert rec.cuts_added == per_iter
        assert rec.envelope_points_added == per_iter
        assert len(rec.forward_scenario.indices) == traj.horizon_T - 1
        assert all(0 <= i < traj.n_paths for i in rec.forward_scenario.indices)
        assert rec.wall_time >= 0.0


@pytest.mark.parametrize("algorithm, rho", [(Algorithm.DD, None), (Algorithm.RDD, 0.3)])
def test_policy_counts_match_the_iteration_records(algorithm, rho):
    """What the benchmark reads from a trained policy: the per-node pool
    sizes sum to ``n_cuts()`` and to the cuts the records report, and the
    store holds every envelope point the records report."""
    traj, template = make_toy(2, horizon_T=4, n_paths=3)
    policy, records, _ = run(
        traj, template, _config(algorithm, rho, max_iterations=4, forward_paths_per_iter=2)
    )
    nodes = [None, *range(traj.n_paths)]
    per_node = sum(
        len(policy.pools.cuts(t, j)) for t in range(2, traj.horizon_T + 1) for j in nodes
    )
    assert per_node == policy.pools.n_cuts() == sum(r.cuts_added for r in records) > 0
    assert policy.store.n_points() == sum(r.envelope_points_added for r in records)


def test_forward_path_batching_multiplies_cut_counts():
    traj, template = make_toy(1, horizon_T=3, n_paths=2)
    _, records, _ = run(
        traj, template, _config(max_iterations=2, epsilon=1e-15, forward_paths_per_iter=3)
    )
    assert records[0].cuts_added == 3 * ((traj.horizon_T - 2) * traj.n_paths + 1)


def test_runs_are_reproducible_across_calls():
    traj, template = make_toy(9, horizon_T=3, n_paths=3)
    _, first, x_first = run(traj, template, _config())
    _, second, x_second = run(traj, template, _config())
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.lower_bound == b.lower_bound
        assert a.upper_bound == b.upper_bound
        assert a.forward_scenario.indices == b.forward_scenario.indices
    assert np.array_equal(x_first, x_second)


def test_first_iteration_always_runs_and_budget_caps_the_rest():
    traj, template = make_toy(0, horizon_T=3, n_paths=2)
    _, records, _ = run(traj, template, _config(max_iterations=1))
    assert len(records) == 1
    _, records, _ = run(traj, template, _config(max_iterations=3, epsilon=1e-300))
    assert len(records) <= 3


def test_infeasible_subproblem_reports_iteration_stage_scenario():
    stage1 = StageDatum(
        c=np.array([0.0]),
        A=np.array([[1.0]]),
        B=np.array([[1.0]]),
        b=np.array([2.0]),
        feature=np.array([0.0]),
    )
    stage2 = StageDatum(
        c=np.array([1.0]),
        A=np.array([[1.0]]),
        B=np.array([[1.0]]),
        b=np.array([1.0]),
        feature=np.array([0.0]),
    )
    traj = TrajectorySet(horizon_T=2, n_paths=1, stage1=stage1, data=[[stage2]])
    template = InstanceTemplate(
        horizon_T=2,
        initial_state=np.zeros(1),
        datum_builder=lambda t, f: stage1,
    )
    with pytest.raises(StageInfeasibleError, match=r"k=1.*t=2.*i=1"):
        run(traj, template, _config(max_iterations=2))


def test_run_rejects_mismatched_horizon():
    traj, _ = make_toy(0, horizon_T=3, n_paths=2)
    _, template = make_toy(0, horizon_T=4, n_paths=2)
    with pytest.raises(DimensionMismatchError):
        run(traj, template, _config())


def _stacked_deterministic_value(template: InstanceTemplate, horizon_T: int) -> float:
    """Chain all stages of the zero-noise instance into one LP directly."""
    data = [template.datum_builder(t, np.zeros(1)) for t in range(1, horizon_T + 1)]
    offsets = np.concatenate([[0], np.cumsum([d.dim_out for d in data])])
    n = int(offsets[-1])
    rows = sum(d.n_rows for d in data)
    A = np.zeros((rows, n))
    b = np.zeros(rows)
    c = np.zeros(n)
    r = 0
    for k, d in enumerate(data):
        o = int(offsets[k])
        c[o : o + d.dim_out] = d.c
        A[r : r + d.n_rows, o : o + d.dim_out] = d.A
        if k == 0:
            b[r : r + d.n_rows] = d.b - d.B @ np.asarray(template.initial_state)
        else:
            po = int(offsets[k - 1])
            A[r : r + d.n_rows, po : po + data[k - 1].dim_out] = d.B
            b[r : r + d.n_rows] = d.b
        r += d.n_rows
    sol = solve(LinearProgram(objective=c, eq_matrix=A, eq_rhs=b))
    return float(sol.objective_value)


def test_extensive_oracle_equals_stacked_lp_when_deterministic():
    """With zero process noise every path is the same, so the tree LP and
    the plain deterministic chain agree."""
    traj, template = make_toy(4, horizon_T=3, n_paths=2, noise_std=0.0)
    target = _stacked_deterministic_value(template, 3)
    assert extensive_form_oracle(traj, template, kernel=_KERNEL) == pytest.approx(
        target, abs=1e-9
    )


@pytest.mark.parametrize("seed", [0, 14, 55])
def test_extensive_oracle_matches_highs(monkeypatch, seed):
    """The oracle's tree LP has the value HiGHS finds for it, on the
    capacity-chain toys (T = 3, N = 12) that perfbench's toy_oracle gate
    derives from these seeds."""
    traj, template = make_toy(
        int(np.random.SeedSequence((seed, 3)).generate_state(1)[0]), horizon_T=3, n_paths=12
    )
    lps = []
    solve_lp = sddpkit.driver.solve

    def recording_solve(lp, start=None):
        lps.append(lp)
        return solve_lp(lp, start)

    monkeypatch.setattr(sddpkit.driver, "solve", recording_solve)
    value = extensive_form_oracle(traj, template)
    (lp,) = lps
    reference = highs_value(lp)
    assert abs(value - reference) <= 1e-9 * (1.0 + abs(reference))


def test_extensive_oracle_scale_cap():
    traj, template = make_toy(0, horizon_T=6, n_paths=4)
    with pytest.raises(LpScaleError):
        extensive_form_oracle(traj, template, kernel=_KERNEL)


def test_generalization_bound_zero_noise_and_lipschitz_gives_zero():
    value = generalization_bound(
        sigmas=[0.0, 0.0],
        lipschitz_constants=[0.0, 0.0],
        diameters=[1.0, 1.0],
        state_dims=[1, 1],
        g_min=1.0,
        deltas=[0.1, 0.1],
        eta=0.01,
        n_samples=100,
        h=0.4,
        p=1,
        horizon_T=3,
    )
    assert value == 0.0


def test_generalization_bound_frozen_spot_value():
    value = generalization_bound(
        sigmas=[1.0, 1.0],
        lipschitz_constants=[1.0, 1.0],
        diameters=[1.0, 1.0],
        state_dims=[1, 1],
        g_min=1.0,
        deltas=[0.1, 0.1],
        eta=0.01,
        n_samples=100,
        h=0.4,
        p=1,
        horizon_T=3,
    )
    assert value == pytest.approx(1.0903498452347289, abs=1e-12)


def test_generalization_bound_monotone_in_samples_and_horizon():
    def bound(n, T):
        k = T - 1
        return generalization_bound(
            sigmas=[1.0] * k,
            lipschitz_constants=[1.0] * k,
            diameters=[1.0] * k,
            state_dims=[1] * k,
            g_min=1.0,
            deltas=[0.1] * k,
            eta=0.01,
            n_samples=n,
            h=0.4,
            p=1,
            horizon_T=T,
        )

    assert bound(200, 3) < bound(100, 3)
    assert bound(400, 3) < bound(200, 3)
    assert bound(100, 4) > bound(100, 3)
    assert bound(100, 5) > bound(100, 4)


def test_generalization_bound_rejects_bad_domains():
    good = dict(
        sigmas=[1.0],
        lipschitz_constants=[1.0],
        diameters=[1.0],
        state_dims=[1],
        g_min=1.0,
        deltas=[0.1],
        eta=0.01,
        n_samples=100,
        h=0.4,
        p=1,
        horizon_T=2,
    )
    for key, bad in [
        ("deltas", [1.2]),
        ("deltas", [0.0]),
        ("eta", 0.0),
        ("g_min", -1.0),
        ("h", 0.0),
        ("sigmas", [1.0, 1.0]),
        ("diameters", [-1.0]),
    ]:
        with pytest.raises(ValueError):
            generalization_bound(**{**good, key: bad})


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolveConfig(forward_paths_per_iter=0)
    with pytest.raises(ValueError):
        SolveConfig(seed=-1)
    with pytest.raises(ValueError):
        SolveConfig(algorithm=Algorithm.RDD)


def test_cross_validate_rho_scores_the_grid():
    traj, template = make_toy(6, horizon_T=2, n_paths=6)
    result = cross_validate_rho(
        traj,
        template,
        _config(max_iterations=8),
        c_grid=[0.01, 1.0],
        n_folds=2,
    )
    assert len(result.scores) == 2
    assert result.best_c in (0.01, 1.0)
    assert result.best_rho >= 0.0
    assert all(math.isfinite(s) for _, s in result.scores)


def test_cross_validate_rho_scores_a_fold_with_a_failed_path_inf(monkeypatch):
    """A single held-out path whose rollout solve raises makes its fold, and
    so its candidate, score inf, rather than leaving that path out of the
    fold's mean; the other candidate keeps its score and wins."""
    traj, template = make_toy(6, horizon_T=2, n_paths=6)
    args = (traj, template, _config(max_iterations=8))
    clean = cross_validate_rho(*args, c_grid=[0.01, 1.0], n_folds=2)
    real_rollout, real_solve = sddpkit.driver.evaluate_policy_out_of_sample, sddpkit.driver.solve
    calls = {"rollouts": 0, "raised": 0}

    def counting_rollout(policy, test_traj):
        calls["rollouts"] += 1
        return real_rollout(policy, test_traj)

    def solve_failing_once_in_the_first_rollout(lp, start=None):
        if calls["rollouts"] == 1 and not calls["raised"]:
            calls["raised"] += 1
            raise RuntimeError("simplex basis became singular; data is ill-conditioned")
        return real_solve(lp, start=start)

    monkeypatch.setattr(sddpkit.driver, "evaluate_policy_out_of_sample", counting_rollout)
    monkeypatch.setattr(sddpkit.driver, "solve", solve_failing_once_in_the_first_rollout)
    result = cross_validate_rho(*args, c_grid=[0.01, 1.0], n_folds=2)
    assert calls == {"rollouts": 4, "raised": 1}
    assert result.scores[0] == (0.01, math.inf)
    assert result.scores[1] == clean.scores[1]
    assert math.isfinite(clean.scores[0][1])
    assert result.best_c == 1.0
