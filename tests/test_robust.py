"""Tests for the ambiguity set: inner max, duality, LP blocks, variance checks."""

import numpy as np
import pytest

from sddpkit.approximations import Cut, CutLowerTerms, WeightedLowerTerms
from sddpkit.kernel import ConditionalWeights
from sddpkit.lp import solve
from sddpkit.robust import (
    AmbiguityParams,
    DegenerateWeightError,
    DroLowerTerms,
    RhoRule,
    check_vr_sandwich,
    dualize_inner,
    empirical_conditional_variance,
    inner_max_primal,
    rate_scaled_rho,
    sanitize_nominal,
)
from sddpkit.scenarios import StageDatum
from sddpkit.stages import assemble_stage_lp


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
    value, worst = inner_max_primal(z, AmbiguityParams(rho=0.0, nominal=nominal))
    assert value == pytest.approx(float(nominal.weights @ z), abs=1e-12)
    np.testing.assert_allclose(worst, nominal.weights, atol=1e-12)


def test_constant_values_are_radius_invariant():
    nominal = ConditionalWeights.uniform(4)
    for rho in (0.0, 0.1, 5.0):
        value, _ = inner_max_primal(
            np.full(4, 3.25), AmbiguityParams(rho=rho, nominal=nominal)
        )
        assert value == pytest.approx(3.25, abs=1e-10)


def test_two_scenario_worst_case_by_hand():
    """With rho=0.2 the 1-norm row binds at |w - 0.5| = 0.1, value 0.6."""
    params = AmbiguityParams(rho=0.2, nominal=ConditionalWeights.uniform(2))
    value, worst = inner_max_primal(np.array([0.0, 1.0]), params)
    assert value == pytest.approx(0.6, abs=1e-9)
    np.testing.assert_allclose(worst, [0.4, 0.6], atol=1e-9)


def test_exact_zero_nominal_is_rejected():
    nominal = ConditionalWeights(np.array([1.0, 0.0]))
    params = AmbiguityParams(rho=0.1, nominal=nominal)
    with pytest.raises(DegenerateWeightError):
        inner_max_primal(np.array([1.0, 2.0]), params)
    with pytest.raises(DegenerateWeightError):
        dualize_inner(np.array([1.0, 2.0]), params)


def test_sanitize_nominal_floors_and_renormalizes():
    fixed = sanitize_nominal(np.array([1.0, 0.0]))
    assert fixed.weights[1] > 0.0
    params = AmbiguityParams(rho=0.1, nominal=fixed)
    value, _ = inner_max_primal(np.array([5.0, -5.0]), params)
    assert value == pytest.approx(5.0, abs=1e-9)


def test_dual_matches_primal_on_frozen_examples():
    params = AmbiguityParams(rho=0.2, nominal=ConditionalWeights.uniform(2))
    value, duals = dualize_inner(np.array([0.0, 1.0]), params)
    assert value == pytest.approx(0.6, abs=1e-8)
    zero = AmbiguityParams(rho=0.0, nominal=ConditionalWeights(np.array([0.7, 0.3])))
    value0, _ = dualize_inner(np.array([2.0, -1.0]), zero)
    assert value0 == pytest.approx(0.7 * 2.0 - 0.3, abs=1e-9)
    vz, _ = dualize_inner(np.zeros(3), AmbiguityParams(rho=0.4, nominal=ConditionalWeights.uniform(3)))
    assert vz == pytest.approx(0.0, abs=1e-9)


def test_primal_dual_agreement_and_set_membership():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        w_hat = rng.uniform(0.05, 1.0, size=n)
        w_hat /= w_hat.sum()
        nominal = ConditionalWeights(w_hat / w_hat.sum())
        z = rng.normal(scale=3.0, size=n)
        rho = float(rng.uniform(0.0, 1.0))
        params = AmbiguityParams(rho=rho, nominal=nominal)
        pv, worst = inner_max_primal(z, params)
        dv, dual_vars = dualize_inner(z, params)
        assert abs(pv - dv) <= 1e-8 * (1.0 + abs(pv))
        assert _in_set(worst, nominal.weights, rho)
        assert worst @ z == pytest.approx(pv, abs=1e-8)
        resid = np.max(
            np.abs(dual_vars.mu + dual_vars.zeta - dual_vars.psi - dual_vars.beta / np.sqrt(n))
        )
        assert resid <= 1e-7


def test_value_nondecreasing_in_radius():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        w_hat = rng.uniform(0.1, 1.0, size=n)
        nominal = ConditionalWeights(w_hat / w_hat.sum())
        z = rng.normal(size=n)
        rhos = np.sort(rng.uniform(0.0, 1.5, size=4))
        vals = [
            inner_max_primal(z, AmbiguityParams(rho=float(r), nominal=nominal))[0]
            for r in rhos
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def _stage_with_pools(rng, n_scen):
    datum = StageDatum(
        c=[1.0, 0.5], A=[[1.0, 1.0]], B=[[1.0]], b=[3.0], feature=[0.0]
    )
    pools = []
    for _ in range(n_scen):
        cuts = tuple(
            Cut(
                gradient=rng.normal(size=2),
                intercept=float(rng.normal()),
                anchor=rng.normal(size=2),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        pools.append(cuts)
    return datum, pools


def test_zero_radius_splice_equals_weighted_splice():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        datum, pools = _stage_with_pools(rng, n)
        w_hat = rng.uniform(0.1, 1.0, size=n)
        nominal = ConditionalWeights(w_hat / w_hat.sum())
        params = AmbiguityParams(rho=0.0, nominal=nominal)
        robust = solve(
            assemble_stage_lp(datum, [1.0], extra_terms=DroLowerTerms(params, pools))
        )
        plain = solve(
            assemble_stage_lp(
                datum,
                [1.0],
                extra_terms=WeightedLowerTerms(
                    node_cuts=[(float(w), cuts) for w, cuts in zip(nominal.weights, pools)]
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
        params = AmbiguityParams(rho=rho, nominal=nominal)
        val = solve(
            assemble_stage_lp(datum, [1.0], extra_terms=DroLowerTerms(params, pools))
        ).objective_value
        assert val == pytest.approx(base, abs=1e-8)


def test_huge_radius_approaches_max_scenario():
    """With the whole simplex reachable, the block prices the worst scenario."""
    rng = np.random.default_rng(25)
    datum, pools = _stage_with_pools(rng, 3)
    nominal = ConditionalWeights.uniform(3)
    params = AmbiguityParams(rho=1e4, nominal=nominal)
    robust = solve(
        assemble_stage_lp(datum, [1.0], extra_terms=DroLowerTerms(params, pools))
    ).objective_value
    union = solve(
        assemble_stage_lp(
            datum, [1.0], extra_terms=CutLowerTerms(tuple(c for cs in pools for c in cs))
        )
    ).objective_value
    assert robust == pytest.approx(union, abs=1e-7)


def test_empty_pool_scenario_uses_sentinel():
    datum = StageDatum(c=[1.0], A=[[1.0]], B=[[1.0]], b=[2.0], feature=[0.0])
    params = AmbiguityParams(rho=0.0, nominal=ConditionalWeights.uniform(2))
    lp = assemble_stage_lp(
        datum, [1.0], extra_terms=DroLowerTerms(params, [(), ()], lower_box=-1e9)
    )
    sol = solve(lp)
    assert sol.objective_value == pytest.approx(1.0 - 1e9)


def test_variance_examples():
    assert empirical_conditional_variance(
        np.full(3, 2.5), ConditionalWeights.uniform(3)
    ) == pytest.approx(0.0, abs=1e-15)
    assert empirical_conditional_variance(
        np.array([0.0, 1.0]), ConditionalWeights.uniform(2)
    ) == pytest.approx(0.25)
    assert empirical_conditional_variance(
        np.array([3.0, 100.0]), ConditionalWeights(np.array([1.0, 0.0]))
    ) == pytest.approx(0.0)
    assert (
        empirical_conditional_variance(
            np.full(5, 1e8), ConditionalWeights.uniform(5)
        )
        >= 0.0
    )


def test_vr_sandwich_degenerate_cases():
    w = ConditionalWeights.uniform(3)
    z = np.array([1.0, 2.0, 3.0])
    rep = check_vr_sandwich(z, w, rho=0.0, u_bar=3.0)
    assert rep.holds
    assert rep.lhs == pytest.approx(rep.nominal_mean)
    assert rep.rhs == pytest.approx(rep.dro_value)
    const = check_vr_sandwich(np.full(4, 2.0), ConditionalWeights.uniform(4), 0.3, 2.0)
    assert const.holds
    assert const.std_term == pytest.approx(0.0, abs=1e-12)


def test_vr_sandwich_random_draws_never_violate():
    rng = np.random.default_rng(26)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        w_hat = rng.uniform(0.05, 1.0, size=n)
        weights = ConditionalWeights(w_hat / w_hat.sum())
        z = rng.uniform(0.0, 10.0, size=n)
        rho = float(rng.uniform(0.0, 0.5))
        rep = check_vr_sandwich(z, weights, rho, u_bar=float(z.max()))
        assert rep.holds


def test_vr_sandwich_requires_value_bound():
    with pytest.raises(ValueError):
        check_vr_sandwich(
            np.array([0.0, 5.0]), ConditionalWeights.uniform(2), 0.1, u_bar=1.0
        )


def test_rate_scaled_radius():
    assert rate_scaled_rho(2.0, 4, 0.5, 2) == pytest.approx(2.0)
    params = AmbiguityParams.rate_scaled(
        2.0, 4, 0.5, 2, ConditionalWeights.uniform(4)
    )
    assert params.rho == pytest.approx(2.0)
    assert params.rho_rule is RhoRule.RATE_SCALED
    with pytest.raises(ValueError):
        AmbiguityParams(rho=-0.1, nominal=ConditionalWeights.uniform(2))
