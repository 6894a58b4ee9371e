"""Tests for the dense LP core: solve(), duals, and the vertex-enumeration oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

from sddpkit.lp import (
    LinearProgram,
    LpInputError,
    LpScaleError,
    LpStatus,
    enumerate_vertices,
    solve,
)


def test_forced_single_variable():
    """min x s.t. x = 1, x >= 0 has the unique solution x = 1 with dual 1."""
    lp = LinearProgram(objective=[1.0], eq_matrix=[[1.0]], eq_rhs=[1.0])
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.primal, [1.0], atol=1e-12)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sol.duals, [1.0], atol=1e-12)


def test_contradictory_rhs_is_infeasible():
    """x = -1 with x >= 0 admits no feasible point."""
    lp = LinearProgram(objective=[1.0], eq_matrix=[[1.0]], eq_rhs=[-1.0])
    sol = solve(lp)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.primal is None


def test_three_variable_simplex_face():
    """min -x1-x2 over x1+x2+s = 1 attains -1 on the face x1+x2 = 1."""
    lp = LinearProgram(
        objective=[-1.0, -1.0, 0.0],
        eq_matrix=[[1.0, 1.0, 1.0]],
        eq_rhs=[1.0],
    )
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-12)
    assert sol.primal[0] + sol.primal[1] == pytest.approx(1.0, abs=1e-12)


def test_enumerate_three_variable_lp():
    """All three bases of the 1x3 system are feasible; the best value is -1."""
    lp = LinearProgram(
        objective=[-1.0, -1.0, 0.0],
        eq_matrix=[[1.0, 1.0, 1.0]],
        eq_rhs=[1.0],
    )
    verts = enumerate_vertices(lp)
    assert len(verts) == 3
    values = sorted(v for _, v in verts)
    assert values[0] == pytest.approx(-1.0, abs=1e-12)
    points = {tuple(np.round(x, 9)) for x, _ in verts}
    assert points == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}


def test_enumerate_singleton():
    lp = LinearProgram(objective=[1.0], eq_matrix=[[1.0]], eq_rhs=[1.0])
    verts = enumerate_vertices(lp)
    assert len(verts) == 1
    np.testing.assert_allclose(verts[0][0], [1.0])
    assert verts[0][1] == pytest.approx(1.0)


def test_enumerate_infeasible_returns_empty():
    lp = LinearProgram(objective=[1.0], eq_matrix=[[1.0]], eq_rhs=[-1.0])
    assert enumerate_vertices(lp) == []


def test_enumerate_scale_cap():
    lp = LinearProgram(
        objective=np.zeros(13),
        eq_matrix=np.ones((1, 13)),
        eq_rhs=[1.0],
    )
    with pytest.raises(LpScaleError):
        enumerate_vertices(lp)


def test_unbounded_without_rows():
    lp = LinearProgram(objective=[-1.0], eq_matrix=np.zeros((0, 1)), eq_rhs=[])
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_unbounded_ray_through_row():
    """min -x with x - y = 0 lets both grow without bound."""
    lp = LinearProgram(
        objective=[-1.0, 0.0],
        eq_matrix=[[1.0, -1.0]],
        eq_rhs=[0.0],
    )
    assert solve(lp).status is LpStatus.UNBOUNDED


def test_free_variable_attains_negative_value():
    lp = LinearProgram(
        objective=[1.0],
        eq_matrix=[[1.0]],
        eq_rhs=[-3.0],
        free_mask=[True],
    )
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    np.testing.assert_allclose(sol.primal, [-3.0], atol=1e-12)
    np.testing.assert_allclose(sol.duals, [1.0], atol=1e-12)


def test_nonzero_lower_bound_shift():
    lp = LinearProgram(
        objective=[1.0, 1.0],
        eq_matrix=[[1.0, 1.0]],
        eq_rhs=[4.0],
        var_lower=[1.5, 0.0],
    )
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(4.0, abs=1e-12)
    assert sol.primal[0] >= 1.5 - 1e-12


def test_redundant_row_keeps_strong_duality():
    """A duplicated constraint must not corrupt the duals."""
    lp = LinearProgram(
        objective=[1.0, 2.0],
        eq_matrix=[[1.0, 1.0], [1.0, 1.0]],
        eq_rhs=[1.0, 1.0],
    )
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    gap = abs(sol.objective_value - float(np.dot(sol.duals, lp.eq_rhs)))
    assert gap <= 1e-8 * (1.0 + abs(sol.objective_value))


def test_shape_mismatch_raises():
    with pytest.raises(LpInputError):
        LinearProgram(objective=[1.0, 2.0], eq_matrix=[[1.0]], eq_rhs=[1.0])
    with pytest.raises(LpInputError):
        LinearProgram(objective=[1.0], eq_matrix=[[1.0]], eq_rhs=[1.0, 2.0])
    with pytest.raises(LpInputError):
        LinearProgram(objective=[np.nan], eq_matrix=[[1.0]], eq_rhs=[1.0])


def _random_lp(rng: np.random.Generator) -> LinearProgram:
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 5))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = rng.integers(-4, 5, size=m).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    return LinearProgram(objective=c, eq_matrix=A, eq_rhs=b)


def test_random_lps_match_enumeration_oracle():
    """solve() agrees with brute-force vertex enumeration on small random LPs.

    Integer data in a small range makes degenerate and redundant systems
    common, which is exactly what the pivot logic needs to survive.
    """
    rng = np.random.default_rng(20260822)
    n_optimal = 0
    for _ in range(300):
        lp = _random_lp(rng)
        sol = solve(lp)
        verts = enumerate_vertices(lp)
        if sol.status is LpStatus.INFEASIBLE:
            assert verts == []
        elif sol.status is LpStatus.OPTIMAL:
            n_optimal += 1
            assert verts, "optimal LP must have at least one vertex"
            best = min(v for _, v in verts)
            assert abs(sol.objective_value - best) <= 1e-9 * (1.0 + abs(best))
            # strong duality
            dual_val = float(np.dot(sol.duals, lp.eq_rhs))
            assert abs(sol.objective_value - dual_val) <= 1e-8 * (
                1.0 + abs(sol.objective_value)
            )
            # primal feasibility and complementary slackness
            resid = np.max(np.abs(lp.eq_matrix @ sol.primal - lp.eq_rhs))
            assert resid <= 1e-7
            rc = lp.objective - lp.eq_matrix.T @ sol.duals
            assert np.min(rc) >= -1e-7
            assert np.max(np.abs(rc * sol.primal)) <= 1e-6
    assert n_optimal > 50  # the generator must actually exercise the solver


def test_solve_is_deterministic():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lp = _random_lp(rng)
        a = solve(lp)
        b = solve(lp)
        assert a.status is b.status
        if a.status is LpStatus.OPTIMAL:
            np.testing.assert_array_equal(a.primal, b.primal)
            np.testing.assert_array_equal(a.duals, b.duals)


def test_drifted_basic_column_is_not_entered():
    """A 15x44 envelope LP from DD training on the portfolio instance.

    Product-form drift once left a basic column with a reduced cost below
    -opt_tol; Bland's rule kept entering it and pivoting on its own row
    until the pivot limit, and the jittered retry then failed too.
    HiGHS reports the optimum -0.6275637057056452.
    """
    data = json.loads((Path(__file__).parent / "data" / "stalled_envelope_lp.json").read_text())
    lp = LinearProgram(**data)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-0.6275637057056452, abs=1e-9)
    assert np.max(np.abs(lp.eq_matrix @ sol.primal - lp.eq_rhs)) <= 1e-9
    assert np.min(sol.primal) >= 0.0


@pytest.mark.xfail(strict=True, raises=RuntimeError, reason="simplex breaks down on this LP")
def test_degenerate_envelope_lp_solves():
    """A 15x46 envelope LP from DD training on the portfolio instance
    (workload seed 2001, instance 5, iteration 16, stage 2, scenario 2).

    The simplex raises "simplex failed on degenerate data" on it, and the
    training run that needs it is lost.  ``reference_value`` is the
    optimum HiGHS reports (``scipy.optimize.linprog``).
    """
    data = json.loads((Path(__file__).parent / "data" / "degenerate_envelope_lp.json").read_text())
    reference = data.pop("reference_value")
    lp = LinearProgram(**data)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(reference, abs=1e-9)
    assert np.max(np.abs(lp.eq_matrix @ sol.primal - lp.eq_rhs)) <= 1e-9
    assert np.min(sol.primal) >= 0.0
