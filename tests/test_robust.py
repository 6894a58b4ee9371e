"""Tests for the ambiguity set: the closed-form inner max, its LP oracles,
LP blocks, variance regularization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _blocks import cut_rows, lp_block, random_cut, robust_pools, weighted_pools
from _highs import highs_solve, highs_value
from sddpkit.approximations import CutLowerTerms, CutRows
from sddpkit.kernel import ConditionalWeights
from sddpkit.lp import LinearProgram, LpStatus, solve
from sddpkit.robust import (
    AmbiguityParams,
    DegenerateWeightError,
    DroLowerTerms,
    RhoRule,
    inner_max_primal,
    rate_scaled_rho,
    sanitize_nominal,
    worst_case,
)
from sddpkit.scenarios import DimensionMismatchError, StageDatum
from sddpkit.stages import assemble_stage_lp


def _primal_lp(z, w_hat, rho):
    """Oracle: max { w^T z : w in the set } as the primal LP, solved directly.

    Columns w, Delta (free), d, u1, u2, the 1-norm slack and one slack per
    d_i <= rho row; w = w_hat + sqrt(w_hat) Delta and d >= |Delta|.
    Returns the value and the maximizing weights.
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    s = np.sqrt(w_hat)
    eye = np.eye(n)
    zero = np.zeros((n, n))
    col = np.zeros((n, 1))
    A = np.block([
        [np.ones((1, n)), np.zeros((1, 5 * n + 1))],
        [eye, -np.diag(s), zero, zero, zero, col, zero],
        [zero, eye, -eye, eye, zero, col, zero],
        [zero, eye, eye, zero, -eye, col, zero],
        [np.zeros((1, 2 * n)), np.ones((1, n)), np.zeros((1, 2 * n)), np.ones((1, 1)),
         np.zeros((1, n))],
        [zero, zero, eye, zero, zero, col, eye],
    ])
    b = np.concatenate([[1.0], w_hat, np.zeros(2 * n), [np.sqrt(n) * rho], np.full(n, rho)])
    c = np.concatenate([-z, np.zeros(5 * n + 1)])
    free = np.zeros(6 * n + 1, dtype=bool)
    free[n : 2 * n] = True
    sol = solve(LinearProgram(objective=c, eq_matrix=A, eq_rhs=b, free_mask=free))
    assert sol.status is LpStatus.OPTIMAL
    return -sol.objective_value, sol.primal[:n]


def _in_set(w, w_hat, rho, tol=1e-9):
    n = w_hat.shape[0]
    dev = np.abs(w - w_hat) / np.sqrt(w_hat)
    return (
        np.min(w) >= -tol
        and abs(w.sum() - 1.0) <= tol
        and dev.sum() <= np.sqrt(n) * rho + tol
        and dev.max() <= rho + tol
    )


def test_zero_radius_returns_nominal():
    nominal = ConditionalWeights(np.array([0.2, 0.3, 0.5]))
    z = np.array([1.0, -2.0, 4.0])
    value, worst = inner_max_primal(z, nominal.weights, 0.0)
    assert value == pytest.approx(float(nominal.weights @ z), abs=1e-12)
    np.testing.assert_allclose(worst, nominal.weights, atol=1e-12)


def test_inner_max_solves_the_block_its_terms_write(monkeypatch):
    """The inner max LP, assembled on a stage with no decisions and no rows,
    holds byte for byte the block ``DroLowerTerms`` writes on its own."""
    solved = []

    def recording(lp, start=None):
        solved.append(lp)
        return solve(lp, start)

    monkeypatch.setattr("sddpkit.robust.solve", recording)
    z, w_hat, rho = np.array([0.3, -1.2, 0.7, 0.1]), np.array([0.4, 0.1, 0.3, 0.2]), 0.25
    inner_max_primal(z, w_hat, rho)
    (lp,) = solved
    scaled = (z - z.max()) / (z.max() - z.min())
    block = lp_block(DroLowerTerms(w_hat, rho, np.arange(4), CutRows(np.zeros((4, 0)), scaled)), 0)
    for got, want in (
        (lp.objective, block.cost),
        (lp.eq_matrix, block.rows),
        (lp.eq_rhs, block.rhs),
        (lp.free_mask, block.free),
    ):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_constant_values_are_radius_invariant():
    nominal = ConditionalWeights.uniform(4)
    for rho in (0.0, 0.1, 5.0):
        value, _ = inner_max_primal(np.full(4, 3.25), nominal.weights, rho)
        assert value == pytest.approx(3.25, abs=1e-10)


def test_two_scenario_worst_case_by_hand():
    """With rho=0.2 the 1-norm row binds at |w - 0.5| = 0.1, value 0.6."""
    value, worst = inner_max_primal(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.2)
    assert value == pytest.approx(0.6, abs=1e-9)
    np.testing.assert_allclose(worst, [0.4, 0.6], atol=1e-9)


def test_exact_zero_nominal_is_rejected():
    nominal = ConditionalWeights(np.array([1.0, 0.0]))
    with pytest.raises(DegenerateWeightError):
        inner_max_primal(np.array([1.0, 2.0]), nominal.weights, 0.1)
    with pytest.raises(DegenerateWeightError):
        lp_block(robust_pools(nominal.weights, 0.1, [cut_rows(()), cut_rows(())]), 1)


def test_sanitize_nominal_floors_and_renormalizes():
    fixed = sanitize_nominal(np.array([1.0, 0.0]))
    assert fixed[1] > 0.0
    value, _ = inner_max_primal(np.array([5.0, -5.0]), fixed, 0.1)
    assert value == pytest.approx(5.0, abs=1e-9)


def test_dual_matches_primal_on_frozen_examples():
    for z, w_hat, rho, expected in (
        ([0.0, 1.0], [0.5, 0.5], 0.2, 0.6),
        ([2.0, -1.0], [0.7, 0.3], 0.0, 0.7 * 2.0 - 0.3),
        ([0.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3], 0.4, 0.0),
    ):
        w_hat = np.array(w_hat)
        value, _ = inner_max_primal(np.array(z), w_hat, rho)
        assert value == pytest.approx(expected, abs=1e-9)
        assert _primal_lp(np.array(z), w_hat, rho)[0] == pytest.approx(expected, abs=1e-9)


def test_primal_dual_agreement_and_set_membership():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        w_hat = rng.uniform(0.05, 1.0, size=n)
        w_hat /= w_hat.sum()
        nominal = ConditionalWeights(w_hat / w_hat.sum())
        z = rng.normal(scale=3.0, size=n)
        rho = float(rng.uniform(0.0, 1.0))
        dv, worst = inner_max_primal(z, nominal.weights, rho)
        pv, _ = _primal_lp(z, nominal.weights, rho)
        assert abs(pv - dv) <= 1e-8 * (1.0 + abs(pv))
        assert _in_set(worst, nominal.weights, rho)
        assert worst @ z == pytest.approx(dv, abs=1e-8)
        (cv,), _ = worst_case(z, nominal.weights[None, :], rho)
        assert abs(cv - pv) <= 1e-9 * (1.0 + abs(pv))


def _draw(rng):
    """Values with ties over a nominal with entries floored at 1e-12..1e-300."""
    n = int(rng.integers(2, 9))
    w_hat = rng.uniform(0.05, 1.0, size=n)
    tiny = rng.random(n) < 0.4
    tiny[rng.integers(n)] = True
    w_hat[tiny] = 10.0 ** -rng.uniform(12.0, 300.0)
    nominal = w_hat / w_hat.sum()
    # Few distinct levels, so values tie across scenarios.
    z = rng.choice(rng.normal(scale=3.0, size=3), size=n)
    rho = float(rng.choice([0.0, 0.05, 0.3, 2.0, 1e4, rng.uniform(0.0, 1e4)]))
    return z, nominal, rho


def test_inner_max_matches_primal_oracle_on_tiny_weights_and_ties():
    """Both inner maxes against the primal LP.  The draws are seeded rather
    than drawn by hypothesis: the LPs are the in-house simplex, which misses
    the optimum on some nominals with entries near 1e-16 and below."""
    rng = np.random.default_rng(27)
    for _ in range(200):
        z, w_hat, rho = _draw(rng)
        value, worst = inner_max_primal(z, w_hat, rho)
        oracle, _ = _primal_lp(z, w_hat, rho)
        assert abs(value - oracle) <= 1e-9 * (1.0 + abs(oracle))
        assert _in_set(worst, w_hat, rho)
        assert worst @ z == pytest.approx(value, abs=1e-8)
        (closed,), _ = worst_case(z, w_hat[None, :], rho)
        assert abs(closed - oracle) <= 1e-9 * (1.0 + abs(oracle))


def test_value_nondecreasing_in_radius():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        w_hat = rng.uniform(0.1, 1.0, size=n)
        nominal = ConditionalWeights(w_hat / w_hat.sum())
        z = rng.normal(size=n)
        rhos = np.sort(rng.uniform(0.0, 1.5, size=4))
        vals = [
            inner_max_primal(z, nominal.weights, float(r))[0]
            for r in rhos
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_values_tied_up_to_rounding():
    """Backward-pass values of an RDD training run (perfbench rdd_train seed 81,
    instance 7) that differ only in the last bit; solved on the raw values the
    block left the simplex with a near-singular basis and a false "Unbounded"."""
    z = np.array([
        -0.6162666466938563, -0.6162666466938563, -0.6162666466938564,
        -0.6162666466938566, -0.6162666466938564, -0.6162666466938564,
        -0.6162666466938566, -0.6162666466938566, -0.6162666466938564,
        -0.6162666466938563, -0.6162666466938566, -0.6162666466938564,
        -0.6162666466938563, -0.6162666466938564, -0.6162666466938566,
        -0.6162666466938564, -0.6162666466938566, -0.6162666466938566,
        -0.6162666466938563, -0.6162666466938566
    ])
    w_hat = np.array([
        0.047428042277870584, 0.0482973068463341, 0.054757656981222,
        0.051390014468179174, 0.04863285743728387, 0.04709200917223341,
        0.050872431822320575, 0.04899716375708311, 0.05140770597803957,
        0.046757408017109384, 0.04933214768183744, 0.051420600879163975,
        0.051159125848246494, 0.045579680422297944, 0.04960533473504016,
        0.05140770291184243, 0.050710759440692005, 0.04906522074553489,
        0.05277429907002982, 0.053312531507639115
    ])
    value, worst = inner_max_primal(z, w_hat, 0.1)
    assert abs(value - _primal_lp(z, w_hat, 0.1)[0]) <= 1e-12
    assert _in_set(worst, w_hat, 0.1)


def test_worst_case_matches_highs_where_the_block_lp_overshoots():
    """A draw on which the in-house simplex returns -1.1080682444327552 for
    the dual block, above the true maximum; HiGHS (``scipy.optimize.linprog``
    on the primal in delta, run outside the test suite) gives the value below."""
    z = np.array([float.fromhex(h) for h in (
        "0x1.c061d7436e8b0p-1", "-0x1.1baa68919e53fp+0", "0x1.632c5e5aaada4p+0")])
    w_hat = np.array([float.fromhex(h) for h in (
        "0x1.9954e6a12d7bep-43", "0x1.ffffffffff99bp-1", "0x1.cd94ee6f3081ap-665")])
    reference = -1.108068554021573
    values, worst = worst_case(z, w_hat[None, :], 0.5)
    assert abs(values[0] - reference) <= 1e-15 * abs(reference)
    assert _in_set(worst[0], w_hat, 0.5, tol=1e-12)


def test_worst_case_at_the_top_value_orders_items_beyond_it():
    """z = (1, 0), w_hat = (0.9, 0.1), rho = 0.2: the box row of the second
    weight binds, so the worst case is 0.9 + 0.2 sqrt(0.1).  The minimizing
    gamma is max z, and the greedy order just right of it changes again at
    the kink (s_1 z_1 - s_2 z_2) / (s_1 - s_2) > max z; without that kink
    the value comes out about 2.5e-3 low."""
    values, worst = worst_case(np.array([1.0, 0.0]), np.array([[0.9, 0.1]]), 0.2)
    assert values[0] == pytest.approx(0.9 + 0.2 * math.sqrt(0.1), abs=1e-15)
    assert _in_set(worst[0], np.array([0.9, 0.1]), 0.2, tol=1e-12)


def _knapsack(c, s, rho):
    """max sum_i c_i d_i over -min(rho, s_i) <= d_i <= rho, sum |d_i| <= sqrt(N) rho,
    one item at a time by |c_i|, largest first."""
    budget = math.sqrt(len(c)) * rho
    total = 0.0
    for i in sorted(range(len(c)), key=lambda i: -abs(c[i])):
        take = min(rho if c[i] > 0 else min(rho, s[i]), budget)
        budget -= take
        total += abs(c[i]) * take
    return total


def _dual_bound(z, w_hat, rho):
    """min over gamma of w_hat.z + g(gamma), g the knapsack value on
    c = sqrt(w_hat) (z - gamma): an upper bound on the inner max for every
    gamma, attained at one of g's kinks, which are all tried."""
    s = np.sqrt(w_hat)
    kinks = list(z)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            kinks.append((s[i] * z[i] + s[j] * z[j]) / (s[i] + s[j]))
            if s[i] != s[j]:
                kinks.append((s[i] * z[i] - s[j] * z[j]) / (s[i] - s[j]))
    return min(float(w_hat @ z) + _knapsack(s * (z - g), s, rho) for g in kinks)


@st.composite
def _batches(draw, max_rows=3):
    """Values with 1-4 distinct levels (or none shared) over 1 to max_rows
    sanitized nominal rows, some entries floored at 1e-300, and a radius."""
    n = draw(st.integers(1, 8))
    value = st.floats(-10.0, 10.0)
    if draw(st.booleans()):
        z = draw(st.lists(value, min_size=n, max_size=n))
    else:
        levels = draw(st.lists(value, min_size=1, max_size=4))
        z = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        raw = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=n, max_size=n)))
        if raw.sum() == 0.0:
            raw[0] = 1.0
        rows.append(sanitize_nominal(raw / raw.sum()))
    rho = draw(st.sampled_from([0.0, 1e-12, 0.1, 1e4]) | st.floats(0.0, 10.0))
    return np.array(z), np.array(rows), rho


@settings(max_examples=150, deadline=None)
@given(batch=_batches())
def test_worst_case_weights_are_feasible_and_attain_the_dual_bound(batch):
    """Feasible weights whose value equals an upper bound: optimal, no LP
    needed.  The maximizer is not unique, so only its value is compared."""
    z, rows, rho = batch
    values, worst = worst_case(z, rows, rho)
    tol = 1e-12 * max(1.0, math.sqrt(z.shape[0]) * rho)
    for value, w, row in zip(values, worst, rows):
        assert _in_set(w, row, rho, tol=tol)
        assert abs(w @ z - value) <= 1e-12 * (1.0 + abs(value))
        assert abs(_dual_bound(z, row, rho) - value) <= 1e-12 * (1.0 + abs(value))


@settings(max_examples=60, deadline=None)
@given(batch=_batches(max_rows=5))
def test_worst_case_rows_do_not_depend_on_the_batch(batch):
    z, rows, rho = batch
    values, worst = worst_case(z, rows, rho)
    for m in range(rows.shape[0]):
        alone_value, alone = worst_case(z, rows[m : m + 1], rho)
        assert alone_value.tobytes() == values[m : m + 1].tobytes()
        assert alone.tobytes() == worst[m : m + 1].tobytes()


@settings(max_examples=40, deadline=None)
@given(batch=_batches(), bad=st.sampled_from(["zero", "nan", "inf", "short", "flat"]))
def test_worst_case_rejects_bad_input_with_its_own_errors(batch, bad):
    z, rows, rho = batch
    expected = {
        "zero": DegenerateWeightError,
        "nan": ValueError,
        "inf": ValueError,
        "short": DimensionMismatchError,
        "flat": DimensionMismatchError,
    }[bad]
    if bad == "zero":
        rows[-1, -1] = 0.0
    elif bad in ("nan", "inf"):
        z[-1] = math.nan if bad == "nan" else -math.inf
    elif bad == "short":
        z = z[1:]
    else:
        rows = rows[0]
    with pytest.raises(expected) as raised:
        worst_case(z, rows, rho)
    assert type(raised.value) is expected


def test_fixed_decision_block_prices_the_inner_max_of_the_cut_values():
    """With x pinned by its rows, the robust stage LP costs c.x plus the
    worst-case expectation of each scenario's cut maximum at x, on nominal
    weights down to 1e-300 and with scenarios sharing a pool (ties)."""
    rng = np.random.default_rng(28)
    for _ in range(100):
        _, w_hat, rho = _draw(rng)
        x = rng.uniform(0.0, 2.0, size=2)
        datum = StageDatum(
            c=rng.normal(size=2), A=np.eye(2), B=np.eye(2), b=x + 1.0, feature=[0.0]
        )
        shared = [
            [random_cut(rng, 2) for _ in range(int(rng.integers(1, 4)))] for _ in range(3)
        ]
        pools = [shared[k] for k in rng.integers(0, 3, size=len(w_hat))]
        terms = robust_pools(w_hat, rho, [cut_rows(cuts) for cuts in pools])
        sol = solve(assemble_stage_lp(datum, np.ones(2), extra_terms=terms))
        z = np.array([
            max(offset + float(g @ x) for g, offset in cuts) for cuts in pools
        ])
        expected = float(datum.c @ x) + _primal_lp(z, w_hat, rho)[0]
        assert sol.status is LpStatus.OPTIMAL
        assert abs(sol.objective_value - expected) <= 1e-8 * (1.0 + abs(expected))


def _recorded_robust_lp(name: str) -> tuple[dict, LinearProgram]:
    """The record in ``data/<name>.json`` and the robust stage LP it rebuilds."""
    data = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    datum = StageDatum(**data["datum"])
    pools = [
        cut_rows([(cut["gradient"], cut["offset"]) for cut in cuts]) for cuts in data["cuts"]
    ]
    terms = robust_pools(data["nominal"], data["rho"], pools)
    return data, assemble_stage_lp(datum, data["state"], extra_terms=terms)


def _assert_recorded_robust_rollout_lp_solves(name: str) -> None:
    """Rebuild the robust rollout stage LP recorded in ``data/<name>.json``
    and check that it solves to the value HiGHS reported, which a live
    HiGHS solve must still give."""
    data, lp = _recorded_robust_lp(name)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(data["reference_value"], abs=1e-9)
    assert highs_value(lp) == pytest.approx(data["reference_value"], abs=1e-9)


def test_recorded_robust_rollout_lp_solves():
    """A rollout stage LP of an RDD policy on which the unscaled block made
    the simplex raise; its value is the one HiGHS reports."""
    _assert_recorded_robust_rollout_lp_solves("robust_rollout_lp")


def test_singular_robust_rollout_lp_solves():
    """An 84x132 rollout stage LP of an RDD policy (perfbench rdd_train seed
    76, instance 7, test path 5).  While the simplex split the free gamma
    column in two, the Harris ratio test took a pivot element of 1.3e-6
    against a column maximum of 1 late in phase two, and the basis went
    singular at the exit refactor, so the path was lost.  Its value is the
    one HiGHS reports."""
    _assert_recorded_robust_rollout_lp_solves("singular_robust_rollout_lp")


def test_falsely_unbounded_robust_rollout_lp_solves():
    """An 84x132 rollout stage LP of an RDD policy (perfbench rdd_train seed
    72, instance 6, test path 2) that the in-house simplex reported
    Unbounded while it split the free gamma column in two, so the path was
    lost.  HiGHS finds a finite optimum, the recorded value."""
    _assert_recorded_robust_rollout_lp_solves("unbounded_robust_rollout_lp")


@pytest.mark.xfail(strict=True, reason="the simplex stops 2.5e-5 short of the HiGHS optimum")
def test_tiny_weight_robust_lp_solves_to_the_highs_value():
    """A 22x36 robust stage LP over six scenarios, four of nominal weight
    4.07e-19, with rho = 1e4 (draw 96 of the generator of
    ``test_fixed_decision_block_prices_the_inner_max_of_the_cut_values``
    at seed 38).  The in-house simplex returns 2.3018475864750836, where
    HiGHS finds the recorded 2.3018727029193875."""
    _, lp = _recorded_robust_lp("tiny_weight_robust_lp")
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert abs(sol.objective_value - highs_value(lp)) <= 1e-5


def test_tiny_weight_robust_lp_value_is_the_primal_inner_max():
    """On that LP, HiGHS gives the recorded value, and so, to 1e-5, does
    c.x plus the primal inner max of the scenarios' cut maxima at the
    pinned decision x."""
    data, lp = _recorded_robust_lp("tiny_weight_robust_lp")
    datum = StageDatum(**data["datum"])
    x = datum.b - datum.B @ np.array(data["state"])  # A is the identity
    z = np.array([max(cut["offset"] + float(np.dot(cut["gradient"], x)) for cut in cuts)
                  for cuts in data["cuts"]])
    expected = float(datum.c @ x) + _primal_lp(z, np.array(data["nominal"]), data["rho"])[0]
    value = highs_value(lp)
    assert value == pytest.approx(data["reference_value"], abs=1e-9)
    assert abs(value - expected) <= 1e-5


def _stage_with_pools(rng, n_scen):
    datum = StageDatum(
        c=[1.0, 0.5], A=[[1.0, 1.0]], B=[[1.0]], b=[3.0], feature=[0.0]
    )
    pools = []
    for _ in range(n_scen):
        pools.append(cut_rows([random_cut(rng, 2) for _ in range(int(rng.integers(1, 4)))]))
    return datum, pools


def test_zero_radius_splice_equals_weighted_splice():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        datum, pools = _stage_with_pools(rng, n)
        w_hat = rng.uniform(0.1, 1.0, size=n)
        nominal = ConditionalWeights(w_hat / w_hat.sum())
        robust = solve(
            assemble_stage_lp(datum, [1.0], extra_terms=robust_pools(nominal.weights, 0.0, pools))
        )
        plain = solve(
            assemble_stage_lp(
                datum,
                [1.0],
                extra_terms=weighted_pools(
                    [(float(w), cuts) for w, cuts in zip(nominal.weights, pools)]
                ),
            )
        )
        assert robust.objective_value == pytest.approx(
            plain.objective_value, abs=1e-8
        )


def test_single_scenario_ignores_radius():
    rng = np.random.default_rng(24)
    datum, pools = _stage_with_pools(rng, 1)
    nominal = ConditionalWeights.uniform(1)
    base = solve(
        assemble_stage_lp(datum, [1.0], extra_terms=CutLowerTerms(pools[0]))
    ).objective_value
    for rho in (0.0, 0.3, 10.0):
        val = solve(
            assemble_stage_lp(datum, [1.0], extra_terms=robust_pools(nominal.weights, rho, pools))
        ).objective_value
        assert val == pytest.approx(base, abs=1e-8)


def test_huge_radius_approaches_max_scenario():
    """With the whole simplex reachable, the block prices the worst scenario."""
    rng = np.random.default_rng(25)
    datum, pools = _stage_with_pools(rng, 3)
    nominal = ConditionalWeights.uniform(3)
    robust = solve(
        assemble_stage_lp(datum, [1.0], extra_terms=robust_pools(nominal.weights, 1e4, pools))
    ).objective_value
    every_cut = CutRows(
        np.vstack([p.gradients for p in pools]), np.concatenate([p.offsets for p in pools])
    )
    union = solve(
        assemble_stage_lp(datum, [1.0], extra_terms=CutLowerTerms(every_cut))
    ).objective_value
    assert robust == pytest.approx(union, abs=1e-7)


def test_empty_pool_scenario_is_unbounded_exactly_when_its_weight_root_exceeds_rho():
    """A scenario without cuts has cost-to-go -inf.  The worst case keeps
    its weight at least sqrt(w_hat_i) (sqrt(w_hat_i) - rho), so the LP is
    Unbounded when sqrt(w_hat_i) > rho, as HiGHS finds too.  Otherwise the
    worst case drops the scenario, and the value is that of HiGHS and of
    the primal inner max with a value far below the others in its place."""
    datum = StageDatum(c=[1.0], A=[[1.0]], B=[[1.0]], b=[2.0], feature=[0.0])
    w_hat = np.array([0.2, 0.3, 0.5])  # sqrt: 0.447, 0.548, 0.707
    cuts = [([0.5], 1.0), ([-1.0], 2.0), ([0.0], 0.5)]
    for empty in range(3):
        pools = [cut_rows([] if i == empty else [cuts[i]]) for i in range(3)]
        for rho in (0.05, 0.3, 0.6, 2.0):
            lp = assemble_stage_lp(datum, [1.0], extra_terms=robust_pools(w_hat, rho, pools))
            sol = solve(lp)
            status, value = highs_solve(lp)
            assert sol.status is status
            if math.sqrt(w_hat[empty]) > rho:
                assert status is LpStatus.UNBOUNDED
                continue
            assert status is LpStatus.OPTIMAL
            assert sol.objective_value == pytest.approx(value, abs=1e-9)
            # The LP pins x = 1, where cut (g, o) is worth g + o.
            z = np.array([-1e6 if i == empty else g[0] + o for i, (g, o) in enumerate(cuts)])
            assert value == pytest.approx(1.0 + _primal_lp(z, w_hat, rho)[0], abs=1e-9)


def _variance(z, weights):
    """Weighted variance sum w z^2 - (sum w z)^2, clamped at zero."""
    w = weights.weights
    return max(float(w @ (z**2) - (w @ z) ** 2), 0.0)


def _vr_sandwich(z, weights, rho, u_bar):
    """Both sides of mean + rho*sqrt(var) <= robust value + rho^2 * u_bar.

    For nonnegative z and u_bar >= max(z) the inequality is exact: the
    variance direction is feasible for both norm rows by Cauchy-Schwarz,
    and whenever nonnegativity truncates it the slack rho^2 * u_bar
    already covers the shortfall.  Returns the two sides, the nominal mean,
    the rho*std term and the robust value.
    """
    dro, _ = inner_max_primal(z, weights.weights, rho)
    mean = float(weights.weights @ z)
    std_term = rho * math.sqrt(_variance(z, weights))
    return mean + std_term, dro + rho * rho * u_bar, mean, std_term, dro


def _holds(lhs, rhs):
    return lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def test_variance_examples():
    assert _variance(np.full(3, 2.5), ConditionalWeights.uniform(3)) == pytest.approx(
        0.0, abs=1e-15
    )
    assert _variance(np.array([0.0, 1.0]), ConditionalWeights.uniform(2)) == pytest.approx(0.25)
    assert _variance(
        np.array([3.0, 100.0]), ConditionalWeights(np.array([1.0, 0.0]))
    ) == pytest.approx(0.0)
    assert _variance(np.full(5, 1e8), ConditionalWeights.uniform(5)) >= 0.0


def test_vr_sandwich_degenerate_cases():
    w = ConditionalWeights.uniform(3)
    lhs, rhs, mean, _, dro = _vr_sandwich(np.array([1.0, 2.0, 3.0]), w, rho=0.0, u_bar=3.0)
    assert _holds(lhs, rhs)
    assert lhs == pytest.approx(mean)
    assert rhs == pytest.approx(dro)
    lhs, rhs, _, std_term, _ = _vr_sandwich(
        np.full(4, 2.0), ConditionalWeights.uniform(4), 0.3, 2.0
    )
    assert _holds(lhs, rhs)
    assert std_term == pytest.approx(0.0, abs=1e-12)


def test_vr_sandwich_random_draws_never_violate():
    rng = np.random.default_rng(26)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        w_hat = rng.uniform(0.05, 1.0, size=n)
        weights = ConditionalWeights(w_hat / w_hat.sum())
        z = rng.uniform(0.0, 10.0, size=n)
        rho = float(rng.uniform(0.0, 0.5))
        assert _holds(*_vr_sandwich(z, weights, rho, u_bar=float(z.max()))[:2])


def test_rate_scaled_radius():
    assert rate_scaled_rho(2.0, 4, 0.5, 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        AmbiguityParams(rho=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
def test_radius_and_coefficient_must_be_finite_and_nonnegative(bad):
    """The condition of ``worst_case``, 0 <= rho < inf, holds wherever a
    radius or its coefficient enters, so a NaN fails before training."""
    with pytest.raises(ValueError, match="rho"):
        AmbiguityParams(rho=bad)
    with pytest.raises(ValueError, match="c_coefficient"):
        AmbiguityParams(rho=0.1, rho_rule=RhoRule.RATE_SCALED, c_coefficient=bad)
    with pytest.raises(ValueError, match="coefficient"):
        rate_scaled_rho(bad, 4, 0.5, 2)
    with pytest.raises(ValueError, match="rho"):
        inner_max_primal(np.array([0.0, 1.0]), np.array([0.5, 0.5]), bad)
    with pytest.raises(ValueError, match="rho"):
        worst_case(np.array([0.0, 1.0]), np.array([[0.5, 0.5]]), bad)


def test_sanitize_nominal_of_a_stack_is_its_rows_bit_for_bit():
    """Each row of an (M, N) matrix, or of an (L, M, N) stack, comes out as
    ``sanitize_nominal`` of that row alone: rows with exact zeros, a row
    that underflowed entirely, and one of subnormal weights."""
    rng = np.random.default_rng(30)
    for m, n in ((1, 1), (3, 2), (5, 7), (4, 20), (3, 300)):
        w = rng.uniform(size=(m, n))
        w /= w.sum(axis=1, keepdims=True)
        w[rng.random((m, n)) < 0.3] = 0.0
        w[0] = 0.0
        w[-1] = rng.uniform(size=n) * 1e-310
        fixed = sanitize_nominal(w)
        rows = np.vstack([sanitize_nominal(row) for row in w])
        assert fixed.shape == rows.shape and fixed.tobytes() == rows.tobytes()
        assert np.all(fixed > 0.0)
        np.testing.assert_allclose(fixed[0], np.full(n, 1.0 / n), rtol=1e-15)
        stack = np.stack([w, w[::-1]])
        assert sanitize_nominal(stack).tobytes() == np.stack([rows, rows[::-1]]).tobytes()
