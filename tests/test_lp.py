"""Tests for the dense LP core: solve(), duals, and the vertex-enumeration oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

from sddpkit.approximations import EnvelopeUpperTerms, WeightedLowerTerms
from sddpkit.lp import (
    Basis,
    LinearProgram,
    LpInputError,
    LpScaleError,
    LpStatus,
    enumerate_vertices,
    solve,
)
from sddpkit.stages import (
    assemble_stage_lp,
    build_portfolio_instance,
    exponential_utility_segments,
)

from _blocks import cut_rows
from _highs import highs_value
from _kkt import assert_kkt
from _toys import STATE_DIM, toy_builder


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
    HiGHS reports the optimum -0.6275637057056452, and a live HiGHS solve
    must agree.
    """
    data = json.loads((Path(__file__).parent / "data" / "stalled_envelope_lp.json").read_text())
    lp = LinearProgram(**data)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-0.6275637057056452, abs=1e-9)
    assert sol.objective_value == pytest.approx(highs_value(lp), abs=1e-9)
    assert np.max(np.abs(lp.eq_matrix @ sol.primal - lp.eq_rhs)) <= 1e-9
    assert np.min(sol.primal) >= 0.0


def test_degenerate_envelope_lp_solves():
    """A 15x46 envelope LP from DD training on the portfolio instance
    (workload seed 2001, instance 5, iteration 16, stage 2, scenario 2).

    The textbook ratio test ended its run at a basis whose vertex was not
    primal feasible, and the training run that needed the LP was lost; the
    Harris ratio test solves it in one run.  ``reference_value`` is the
    optimum HiGHS reports (``scipy.optimize.linprog``), and a live HiGHS
    solve must agree.
    """
    data = json.loads((Path(__file__).parent / "data" / "degenerate_envelope_lp.json").read_text())
    reference = data.pop("reference_value")
    lp = LinearProgram(**data)
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(reference, abs=1e-9)
    assert highs_value(lp) == pytest.approx(reference, abs=1e-9)
    assert np.max(np.abs(lp.eq_matrix @ sol.primal - lp.eq_rhs)) <= 1e-9
    assert np.min(sol.primal) >= 0.0


def test_phase_one_passes_over_a_column_without_a_leaving_row(monkeypatch):
    """A 23x41 robust stage LP (``DroLowerTerms`` over eight scenarios, five
    of nominal weight 1.1e-16, rho = 2).  In phase one, with the free gamma
    column basic, a column prices at -1.4e-8 through entries of about
    1.5e-8 on artificials' rows, below the pivot tolerance next to its
    entries of magnitude 7e7 on other bounded rows, so it finds no leaving
    row.
    Phase one passes it over instead of stopping, and the solve reaches
    the optimum HiGHS reported (``reference_value``), which a live HiGHS
    solve still finds."""
    import sddpkit.lp as lp_module

    passed_over = 0
    real_iterate = lp_module._Simplex._iterate

    def spy_iterate(self, cost, allowed=None):
        nonlocal passed_over
        status = real_iterate(self, cost, allowed)
        passed_over += status is LpStatus.UNBOUNDED and cost is not self.c_true
        return status

    monkeypatch.setattr(lp_module._Simplex, "_iterate", spy_iterate)
    data = json.loads((Path(__file__).parent / "data" / "phase_one_passover_lp.json").read_text())
    reference = data.pop("reference_value")
    # Recorded when LPs carried lower bounds; every one of them is zero.
    assert not any(data.pop("var_lower"))
    lp = LinearProgram(**data)
    sol = solve(lp)
    assert passed_over >= 1
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(reference, abs=1e-9)
    assert highs_value(lp) == pytest.approx(reference, abs=1e-9)
    assert_kkt(lp, sol)


def _random_lp_with_unit_columns(rng: np.random.Generator) -> LinearProgram:
    """Dense integer columns mixed with +-e_i columns, in shuffled order.

    Rows get up to two unit columns of either sign, rhs entries are often
    zero before a shift by A l for a sparse integer l on the bounded
    columns, and some variables are free.  The LP has at most 12 columns
    once each free column is split in two, the most
    :func:`enumerate_vertices` takes.
    """
    m = int(rng.integers(1, 5))
    dense = rng.integers(-3, 4, size=(m, int(rng.integers(1, 4)))).astype(float)
    units = [
        sign * np.eye(m)[:, i]
        for i in range(m)
        for sign in rng.choice([-1.0, 1.0], size=int(rng.integers(0, 3)))
    ]
    A = np.column_stack([dense, *units])[:, rng.permutation(dense.shape[1] + len(units))]
    n = A.shape[1]
    free = rng.random(n) < 0.25
    free[np.nonzero(free)[0][12 - n :]] = False  # at most 12 columns once split
    shift = np.where(free | (rng.random(n) < 0.7), 0.0, rng.integers(-1, 2, size=n))
    c = rng.integers(-3, 4, size=n).astype(float)
    b = rng.integers(-2, 3, size=m).astype(float) * (rng.random(m) < 0.7)
    return LinearProgram(objective=c, eq_matrix=A, eq_rhs=b - A @ shift, free_mask=free)


def _split_columns(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """The LP's columns with each free variable's negative part appended,
    and the matching costs."""
    free = lp.free_mask
    A = np.hstack([lp.eq_matrix, -lp.eq_matrix[:, free]])
    c = np.concatenate([lp.objective, -lp.objective[free]])
    return A, c


def _has_descent_ray(lp: LinearProgram) -> bool:
    """Whether some d >= 0 with A d = 0 and sum(d) = 1 has c.d < 0 (free
    columns split), decided by enumerating the vertices of that normalized
    cone."""
    A, c = _split_columns(lp)
    cone = LinearProgram(
        objective=c,
        eq_matrix=np.vstack([A, np.ones(A.shape[1])]),
        eq_rhs=np.append(np.zeros(A.shape[0]), 1.0),
    )
    return any(v < -1e-9 for _, v in enumerate_vertices(cone))


def _unit_start_cases(lp: LinearProgram) -> set[str]:
    """Which starting-basis situations the LP's rows present, read off its data."""
    A, free, b = lp.eq_matrix, lp.free_mask, lp.eq_rhs
    single = np.count_nonzero(A, axis=0) == 1
    cases = set()
    for i in range(lp.n_rows):
        cols = np.nonzero(single & (np.abs(A[i]) == 1.0))[0]
        sign = A[i, cols] * b[i]
        eligible = cols[(sign >= 0.0) | free[cols]]
        if cols.size and b[i] == 0.0:
            cases.add("zero rhs")
        if np.any(sign > 0.0):
            cases.add("right sign")
        if np.any(sign < 0.0):
            cases.add("wrong sign")
        if eligible.size >= 2:
            cases.add("two eligible")
        if eligible.size == 1 and A[i, eligible[0]] * b[i] < 0.0:
            # The row's only start is a free column at a negative value.
            cases.add("free column of the wrong sign only")
        cases.add("covered" if eligible.size else "uncovered")
    return cases


def test_unit_column_start_matches_enumeration_oracle(monkeypatch):
    """solve() agrees with vertex enumeration on LPs whose rows carry their
    own +-e_i columns, which the simplex starts from in place of artificials.

    Optimal verdicts must match the best vertex and carry a dual
    certificate; Infeasible ones must have no vertex; Unbounded ones must
    have a vertex and a descent ray.  Each cold solve, whatever its
    verdict, is exactly one simplex run.  The generator must produce every
    starting-basis case at least once, and Infeasible and Unbounded LPs
    with covered rows.
    """
    import sddpkit.lp as lp_module

    runs = []
    real_run = lp_module._Simplex.run

    def spy_run(self):
        runs.append(self)
        return real_run(self)

    monkeypatch.setattr(lp_module._Simplex, "run", spy_run)
    rng = np.random.default_rng(20261019)
    seen: set[str] = set()
    statuses = {status: 0 for status in LpStatus}
    for _ in range(400):
        lp = _random_lp_with_unit_columns(rng)
        cases = _unit_start_cases(lp)
        seen |= cases
        runs.clear()
        sol = solve(lp)
        assert len(runs) == 1, sol.status
        statuses[sol.status] += 1
        verts = enumerate_vertices(lp)
        if sol.status is LpStatus.INFEASIBLE:
            assert verts == []
            if "covered" in cases:
                seen.add("infeasible, rows covered")
            continue
        assert verts, "a feasible LP must have at least one vertex"
        if sol.status is LpStatus.UNBOUNDED:
            assert _has_descent_ray(lp)
            if "covered" in cases:
                seen.add("unbounded, rows covered")
            continue
        assert not _has_descent_ray(lp)
        best = min(v for _, v in verts)
        assert abs(sol.objective_value - best) <= 1e-9 * (1.0 + abs(best))
        assert_kkt(lp, sol)
        if "uncovered" not in cases:
            seen.add("optimal, every row covered")
    assert seen >= {
        "zero rhs",
        "right sign",
        "wrong sign",
        "two eligible",
        "free column of the wrong sign only",
        "covered",
        "uncovered",
        "infeasible, rows covered",
        "unbounded, rows covered",
        "optimal, every row covered",
    }
    assert min(statuses.values()) > 20


def _random_lp_with_free_columns(rng: np.random.Generator) -> LinearProgram:
    """Up to 10 rows and 24 columns of integer data, past the enumeration
    caps, with every column free with probability 0.3 and each row given a
    slack or surplus column half of the time.  The costs are A^T y plus an
    integer in 0..2 on each bounded column, so every feasible one is bounded."""
    m = int(rng.integers(2, 11))
    n = int(rng.integers(m, 2 * m + 5))
    A = np.hstack([rng.integers(-3, 4, size=(m, n)), np.diag(rng.choice([-1.0, 1.0], size=m))])
    A = A[:, np.r_[:n, n + np.nonzero(rng.random(m) < 0.5)[0]]]
    free = rng.random(A.shape[1]) < 0.3
    return LinearProgram(
        objective=A.T @ rng.integers(-2, 3, size=m) + rng.integers(0, 3, size=free.size) * ~free,
        eq_matrix=A,
        eq_rhs=rng.integers(-4, 5, size=m).astype(float),
        free_mask=free,
    )


def test_free_columns_match_the_split_lp():
    """solve() on LPs with free columns returns the status and objective of
    solve() on the same LP with each free column split into a positive and
    a negative part, and its Optimal verdicts carry a KKT certificate."""
    rng = np.random.default_rng(20261022)
    statuses = {status: 0 for status in LpStatus}
    for k in range(600):
        lp = (_random_lp_with_unit_columns if k % 2 else _random_lp_with_free_columns)(rng)
        if not lp.free_mask.any():
            continue
        A, c = _split_columns(lp)
        sol, split = solve(lp), solve(LinearProgram(objective=c, eq_matrix=A, eq_rhs=lp.eq_rhs))
        statuses[sol.status] += 1
        assert sol.status is split.status
        if sol.status is LpStatus.OPTIMAL:
            v = split.objective_value
            assert abs(sol.objective_value - v) <= 1e-9 * (1.0 + abs(v))
            assert_kkt(lp, sol)
    assert min(statuses.values()) > 20, statuses


def _relative(rng: np.random.Generator, lp: LinearProgram, change: str) -> LinearProgram:
    """A member of the LP's family: new rhs, one more row with its surplus
    column, one more column, or new costs."""
    A, b, c, free = lp.eq_matrix, lp.eq_rhs, lp.objective, lp.free_mask
    m, n = A.shape
    if change == "rhs":
        b = b + rng.integers(-2, 3, size=m)
    elif change == "row":
        A = np.block([[A, np.zeros((m, 1))], [rng.integers(-3, 4, size=(1, n)), -np.ones((1, 1))]])
        b, c = np.append(b, rng.integers(-3, 4)), np.append(c, 0.0)
        free = np.append(free, False)
    elif change == "column":
        A = np.hstack([A, rng.integers(-3, 4, size=(m, 1))])
        c = np.append(c, rng.integers(-3, 4))
        free = np.append(free, rng.random() < 0.25)
    else:
        c = c + rng.integers(-2, 3, size=n)
    return LinearProgram(objective=c, eq_matrix=A, eq_rhs=b, free_mask=free)


def _assert_same_bytes(a, b) -> None:
    """Two solutions with the same status and, on Optimal, the same bytes."""
    assert a.status is b.status
    if a.status is LpStatus.OPTIMAL:
        assert a.primal.tobytes() == b.primal.tobytes()
        assert a.duals.tobytes() == b.duals.tobytes()
        assert a.objective_value.hex() == b.objective_value.hex()


def _assert_warm_matches_cold(lp: LinearProgram, start: Basis) -> LpStatus:
    """The warm solve returns the cold solve's verdict, and the bytes of the
    same solve from a holder that carries only the start's columns, so it
    must invert its basis afresh: a kept inverse never changes an output."""
    plain = Basis(None if start.cols is None else start.cols.copy())
    warm, cold = solve(lp, start), solve(lp)
    _assert_same_bytes(warm, solve(lp, plain))
    assert (start.cols is None and plain.cols is None) or np.array_equal(start.cols, plain.cols)
    assert warm.status is cold.status
    if cold.status is LpStatus.OPTIMAL:
        v = cold.objective_value
        assert abs(warm.objective_value - v) <= 1e-9 * (1.0 + abs(v))
        assert_kkt(lp, warm)
        # None only when an artificial column stayed basic (a redundant row).
        assert start.cols is None or start.cols.shape == (lp.n_rows,)
    return cold.status


def _spy_warm_paths(monkeypatch) -> dict[str, int]:
    """Count the path each warm start takes: the dual simplex on the true
    costs, the dual simplex on shifted costs, phase two alone, or the
    fallback to the cold path; and, whatever its path, whether it started
    from the inverse its holder kept instead of inverting.  Every dual
    simplex run must start dual feasible for its costs."""
    import sddpkit.lp as lp_module

    paths = {"dual": 0, "shifted": 0, "primal": 0, "fallback": 0, "reused": 0}
    dual_costs, reused = [], []
    real_dual, real_warm = lp_module._Simplex._dual, lp_module._warm_solve
    real_carried = lp_module._carried_inverse

    def spy_dual(self, tol, cost):
        dual_costs.append(cost)
        # The dual simplex starts from a basis that is dual feasible for its costs.
        rc = cost - self._y(cost) @ self.A
        rc[self.basis] = 0.0
        assert not self._either_way(rc, lp_module._OPT_TOL).any()
        return real_dual(self, tol, cost)

    def spy_carried(held, B):
        Binv = real_carried(held, B)
        reused.append(Binv is not None)
        return Binv

    def spy_warm(lp, start):
        dual_costs.clear()
        reused.clear()
        sim = real_warm(lp, start)
        paths["reused"] += any(reused)
        if sim is None:
            paths["fallback"] += 1
        elif any(not np.array_equal(cost, lp.objective) for cost in dual_costs):
            paths["shifted"] += 1
        elif dual_costs:
            paths["dual"] += 1
        elif sim.pivots:
            paths["primal"] += 1
        return sim

    monkeypatch.setattr(lp_module._Simplex, "_dual", spy_dual)
    monkeypatch.setattr(lp_module, "_carried_inverse", spy_carried)
    monkeypatch.setattr(lp_module, "_warm_solve", spy_warm)
    return paths


def test_warm_starts_match_the_cold_solve_across_lp_families(monkeypatch):
    """A solve started from a family member's optimal basis returns the cold
    solve's status and, on Optimal, its objective with a KKT certificate.

    Each chain starts from a random LP and changes its rhs, appends a row
    with its surplus column, appends a column or changes its costs, step
    after step, warm-starting each step from the one before.  Stale starts
    (a basis with too many rows, a singular one, one naming an artificial
    column, one naming a negative index, one from another LP) must give
    the cold answer too; one with a negative index, once the negative
    part of a free column, falls back to the cold run.  Spies on the
    private paths show the dual simplex, phase two and the fallback to the
    cold path are each taken.
    """
    paths = _spy_warm_paths(monkeypatch)
    rng = np.random.default_rng(20261020)
    changes = ("rhs", "row", "column", "cost")
    optimal = 0
    for _ in range(150):
        lp = _random_lp_with_unit_columns(rng)
        start = Basis()
        _assert_warm_matches_cold(lp, start)
        for change in rng.choice(changes, size=6):
            # The chain moves on from Optimal members only, as training does.
            member = _relative(rng, lp, str(change))
            if _assert_warm_matches_cold(member, start) is LpStatus.OPTIMAL:
                lp = member
                optimal += 1
        # Stale starts: too many rows; a column basic twice; a zero column
        # (an exactly singular basis); an artificial column's index; a
        # negative index.
        m, n = lp.n_rows, lp.n_vars
        with_zero = LinearProgram(
            objective=np.append(lp.objective, 1.0),
            eq_matrix=np.hstack([lp.eq_matrix, np.zeros((m, 1))]),
            eq_rhs=lp.eq_rhs,
            free_mask=np.append(lp.free_mask, False),
        )
        for stale_lp, cols in (
            (lp, np.arange(m + 1)),
            (lp, np.zeros(m, dtype=np.int64)),
            (with_zero, np.array([n])),
            (lp, np.array([n])),
            (lp, np.array([-1])),
        ):
            fallbacks = paths["fallback"]
            _assert_warm_matches_cold(stale_lp, Basis(cols))
            if cols.min() < 0:
                # Both warm solves fall back to the cold run.
                assert paths["fallback"] == fallbacks + 2
        # A start from an unrelated LP.
        held = Basis()
        solve(_random_lp_with_unit_columns(rng), held)
        _assert_warm_matches_cold(lp, held)
    assert optimal > 200
    assert min(paths["dual"], paths["primal"], paths["fallback"], paths["reused"]) > 20, paths


def _stage_lp_chain(rng: np.random.Generator, family: str):
    """Stage LPs of one family whose rhs and costs change together, step
    after step: a new realization (new costs on the toy, new returns on
    the portfolio) at a new incoming state, and either new kernel weights
    over cut pools that gain a cut now and then, or an envelope that gains
    a point and a new penalty.  Every member is feasible and bounded."""
    if rng.random() < 0.5:
        builder, d_in = toy_builder(int(rng.integers(1000))), STATE_DIM
        draw = lambda: rng.uniform(-1.0, 1.0, size=1)
    else:
        builder, d_in = build_portfolio_instance(3, 4, fees=(0.005, 0.005)).datum_builder, 10
        draw = lambda: rng.uniform(0.8, 1.2, size=3)
    d = builder(2, draw()).dim_out
    n_nodes = int(rng.integers(1, 6))
    # Cut rows in the order they arrive, as the rollout appends them.
    node, cuts = np.zeros(0, dtype=np.int64), []
    anchors, values = [], []
    for _ in range(8):
        datum = builder(2, draw())
        state = rng.uniform(0.0, 1.0, size=d_in)
        if family == "lower":
            if rng.random() < 0.6:
                node = np.append(node, rng.integers(n_nodes))
                g, value = rng.normal(size=d), float(rng.normal())
                cuts.append((g, value - float(g @ rng.uniform(size=d))))
            weights = rng.dirichlet(np.ones(n_nodes)) * (rng.random(n_nodes) < 0.8)
            # A node's weight is zero until it has a cut, as a positive
            # weight on an empty pool makes the LP unbounded.
            weights *= np.isin(np.arange(n_nodes), node)
            terms = WeightedLowerTerms(weights, node, cut_rows(cuts))
        else:
            anchors.append(rng.uniform(size=d))
            values.append(float(rng.normal()))
            terms = EnvelopeUpperTerms(
                np.array(anchors), np.array(values), float(rng.uniform(0.5, 5.0))
            )
        yield assemble_stage_lp(datum, state, extra_terms=terms)


def test_warm_starts_match_the_cold_solve_on_stage_lp_chains(monkeypatch):
    """Warm starts of rollout-like and envelope-like stage LP chains, whose
    stored basis is often neither primal nor dual feasible for the next
    member, return the cold solve's verdict with a KKT certificate, and
    take the shifted-cost start more than 20 times."""
    paths = _spy_warm_paths(monkeypatch)
    rng = np.random.default_rng(20261021)
    for _ in range(40):
        for family in ("lower", "upper"):
            start = Basis()
            for lp in _stage_lp_chain(rng, family):
                assert _assert_warm_matches_cold(lp, start) is LpStatus.OPTIMAL
    assert min(paths["shifted"], paths["reused"]) > 20, paths


def test_a_kept_inverse_is_reused_only_for_the_same_basis_matrix(monkeypatch):
    """Two last-stage portfolio LPs share A and c and differ in their rhs.
    Solved one after the other through one holder, the second keeps the
    first one's basis, so it starts from the inverse the holder kept and
    makes no ``np.linalg.inv`` call; its point, duals and objective equal
    byte for byte those of the same solve from that basis alone.  A copy of
    the holder of a sibling LP, whose utility, and so whose basis matrix,
    differs, inverts afresh and matches the same way."""
    inversions = 0
    real_inv = np.linalg.inv

    def counted(a):
        nonlocal inversions
        inversions += 1
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    positions = np.zeros(10)
    first, second = (
        assemble_stage_lp(
            build_portfolio_instance(3, 4).datum_builder(4, np.array(returns)),
            np.concatenate([state, np.zeros(6)]),
        )
        for returns, state in (
            ((1.1, 0.9, 1.05), (0.3, 0.3, 0.2, 0.2)),
            ((1.08, 0.93, 1.02), (0.32, 0.28, 0.2, 0.21)),
        )
    )
    assert np.array_equal(first.eq_matrix, second.eq_matrix)
    assert np.array_equal(first.objective, second.objective)
    assert not np.array_equal(first.eq_rhs, second.eq_rhs)

    held = Basis()
    solve(first, held)
    cols = held.cols.copy()
    # The cold run pivoted, so it ended on a freshly inverted basis.
    assert held.B is not None
    inversions = 0
    sol = solve(second, held)
    assert np.array_equal(held.cols, cols)
    assert inversions == 0
    _assert_same_bytes(sol, solve(second, Basis(cols.copy())))

    steeper = build_portfolio_instance(3, 4, utility_slopes=exponential_utility_segments(5, 2.0))
    sibling = Basis()
    solve(assemble_stage_lp(steeper.datum_builder(4, np.array([1.1, 0.9, 1.05])), positions), sibling)
    assert not np.array_equal(second.eq_matrix[:, sibling.cols], sibling.B)
    copied = sibling.copy()
    assert copied.B is not sibling.B and np.array_equal(copied.Binv, sibling.Binv)
    inversions = 0
    sol = solve(second, copied)
    assert inversions >= 1
    _assert_same_bytes(sol, solve(second, Basis(sibling.cols.copy())))
