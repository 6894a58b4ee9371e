"""Tests for stage LP assembly, state gradients, and the portfolio builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddpkit.lp import LinearProgram, LpStatus, solve
from sddpkit.scenarios import DimensionMismatchError, StageDatum
from sddpkit.stages import (
    ExtraTerms,
    InvalidUtilityError,
    assemble_stage_lp,
    build_portfolio_instance,
    exponential_utility_segments,
    state_gradient,
)


def _simple_datum():
    return StageDatum(c=[1.0], A=[[1.0]], B=[[1.0]], b=[2.0], feature=[0.0])


def test_state_gradient_is_state_derivative():
    """min{x : x = 2 - xbar} at xbar=1 gives x=1 and d(value)/d(xbar) = -1."""
    datum = _simple_datum()
    sol = solve(assemble_stage_lp(datum, [1.0]))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
    assert state_gradient(datum, sol.duals)[0] == pytest.approx(-1.0, abs=1e-12)


def test_recourse_violation_surfaces_as_infeasible():
    datum = StageDatum(c=[1.0], A=[[1.0]], B=[[1.0]], b=[1.0], feature=[0.0])
    sol = solve(assemble_stage_lp(datum, [2.0]))
    assert sol.status is LpStatus.INFEASIBLE


def test_wrong_state_dimension_raises():
    with pytest.raises(DimensionMismatchError):
        assemble_stage_lp(_simple_datum(), [1.0, 2.0])


class _VacuousCut(ExtraTerms):
    """Appends a costed epigraph variable pinned at zero."""

    def shape(self, x_dim):
        return 1, 2

    def write(self, x_dim, out):
        # columns ell (cost 1) and surplus; row ell - surplus = 0
        out.rows[0, x_dim:] = [1.0, -1.0]
        out.cost[0] = 1.0


def test_inactive_extra_term_leaves_objective_unchanged():
    datum = _simple_datum()
    plain = solve(assemble_stage_lp(datum, [1.0]))
    spliced = solve(assemble_stage_lp(datum, [1.0], extra_terms=_VacuousCut()))
    assert spliced.objective_value == pytest.approx(plain.objective_value, abs=1e-12)


class _RowByRow:
    """Reference assembly: one column and one dict row at a time."""

    def __init__(self, datum, xbar):
        self.d = datum.dim_out
        self.costs = [float(v) for v in datum.c]
        self.frees = [False] * self.d
        rhs = datum.b - datum.B @ np.asarray(xbar, dtype=float)
        self.rows = [({j: float(datum.A[r, j]) for j in range(self.d)}, float(rhs[r]))
                     for r in range(datum.n_rows)]

    def var(self, cost=0.0, free=False):
        self.costs.append(float(cost))
        self.frees.append(free)
        return len(self.costs) - 1

    def cut_row(self, head, cut, scale=1.0):
        """Row head - surplus >= cut(x), the cut's coefficients and rhs times scale."""
        coeffs = dict(head)
        gradient, offset = cut
        for j, g in enumerate(gradient):
            if g != 0.0:
                coeffs[j] = -float(g) * scale
        coeffs[self.var()] = -1.0
        self.rows.append((coeffs, float(offset * scale)))

    def weighted(self, weights, pools):
        """Every ell first, all free; then the cut rows, node after node."""
        ells = [self.var(cost=w, free=True) for w in weights]
        for ell, cuts in zip(ells, pools):
            for cut in cuts:
                self.cut_row({ell: 1.0}, cut)

    def envelope(self, terms):
        anchors, values = np.atleast_2d(terms.anchors), np.asarray(terms.values)
        k = values.size
        y_pos = [self.var(cost=terms.penalty_m) for _ in range(self.d)]
        y_neg = [self.var(cost=terms.penalty_m) for _ in range(self.d)]
        theta = [self.var(cost=v) for v in values]
        for i in range(self.d):
            coeffs = {theta[j]: float(anchors[j, i]) for j in range(k)}
            coeffs.update({y_pos[i]: 1.0, y_neg[i]: -1.0, i: -1.0})
            self.rows.append((coeffs, 0.0))
        self.rows.append(({t: 1.0 for t in theta}, 1.0))

    def dro(self, params, pools):
        w_hat = params.nominal.weights
        n, s, rho = w_hat.size, np.sqrt(w_hat), params.rho
        gamma, beta = self.var(cost=1.0, free=True), self.var(cost=rho)
        mu = [self.var(cost=s[i]) for i in range(n)]
        zeta = [self.var(cost=-s[i]) for i in range(n)]
        psi = [self.var(cost=rho) for _ in range(n)]
        for i in range(n):
            couple = {mu[i]: 1.0, zeta[i]: 1.0, psi[i]: -1.0, beta: -1.0 / np.sqrt(n)}
            self.rows.append((couple, 0.0))
            head = {gamma: s[i], mu[i]: 1.0, zeta[i]: -1.0}
            for cut in pools[i]:
                self.cut_row(head, cut, s[i])

    def arrays(self):
        A = np.zeros((len(self.rows), len(self.costs)))
        for r, (coeffs, _) in enumerate(self.rows):
            for j, v in coeffs.items():
                A[r, j] = v
        return (np.array(self.costs), A, np.array([b for _, b in self.rows]),
                np.array(self.frees, dtype=bool))


def test_block_assembly_matches_row_by_row_reference():
    """Same arrays, bit for bit (signed zeros included), as one row at a time."""
    from _blocks import cut_rows, weighted_pools
    from sddpkit.approximations import EnvelopeUpperTerms
    from sddpkit.kernel import ConditionalWeights
    from sddpkit.robust import AmbiguityParams, DroLowerTerms

    rng = np.random.default_rng(17)
    for _ in range(20):
        datum = _random_recourse_problem(rng)
        xbar = rng.normal(size=2)
        d = datum.dim_out

        def pool():
            # Some gradient entries are exactly zero, as in the portfolio.
            cuts = []
            for _ in range(int(rng.integers(0, 4))):
                g = rng.normal(size=d) * (rng.random(d) < 0.6)
                value = float(rng.normal())
                cuts.append((g, value - float(g @ rng.normal(size=d))))
            return cuts

        n = int(rng.integers(1, 5))
        pools = [pool() for _ in range(n)]
        rows = [cut_rows(cuts) for cuts in pools]
        w = rng.uniform(0.1, 1.0, size=n)
        weights = [float(wi) for wi in w / w.sum()]
        params = AmbiguityParams(0.3, ConditionalWeights(w / w.sum()))
        k = int(rng.integers(0, 4))
        envelope = EnvelopeUpperTerms(rng.normal(size=(k, d)), rng.normal(size=k), 7.5)
        # The reference builds each cut's row from its (gradient, offset) pair.
        for terms, method, args in (
            (None, None, ()),
            (weighted_pools(list(zip(weights, rows))), "weighted", (weights, pools)),
            (envelope, "envelope", (envelope,)),
            (DroLowerTerms(params, rows), "dro", (params, pools)),
        ):
            ref = _RowByRow(datum, xbar)
            if method is not None:
                getattr(ref, method)(*args)
            lp = assemble_stage_lp(datum, xbar, extra_terms=terms)
            got = (lp.objective, lp.eq_matrix, lp.eq_rhs, lp.free_mask)
            for a, b in zip(got, ref.arrays()):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _kinked_datum():
    """value(xbar) = 2(1-xbar)+ + 3(xbar-1)-, kink at xbar = 1."""
    return StageDatum(c=[2.0, 3.0], A=[[1.0, -1.0]], B=[[1.0]], b=[1.0], feature=[0.0])


def test_dual_matches_closed_form_slopes():
    datum = _kinked_datum()
    left = solve(assemble_stage_lp(datum, [0.5]))
    assert state_gradient(datum, left.duals)[0] == pytest.approx(-2.0, abs=1e-10)
    right = solve(assemble_stage_lp(datum, [2.0]))
    assert state_gradient(datum, right.duals)[0] == pytest.approx(3.0, abs=1e-10)


def _random_recourse_problem(rng, m=2, k=3, d_in=2):
    """Always-feasible stage: A = [R | I | -I] with costed surplus columns."""
    R = rng.normal(size=(m, k))
    A = np.hstack([R, np.eye(m), -np.eye(m)])
    c = np.concatenate([rng.uniform(0.5, 2.0, size=k), np.zeros(m), rng.uniform(1.0, 3.0, size=m)])
    B = rng.normal(size=(m, d_in))
    b = rng.normal(size=m)
    return StageDatum(c=c, A=A, B=B, b=b, feature=[0.0])


def _stage_value(datum, xbar):
    sol = solve(assemble_stage_lp(datum, xbar))
    assert sol.status is LpStatus.OPTIMAL
    return sol.objective_value


def test_stage_value_is_convex_in_incoming_state():
    rng = np.random.default_rng(15)
    for _ in range(20):
        datum = _random_recourse_problem(rng)
        xa = rng.normal(size=2)
        xb = rng.normal(size=2)
        alpha = float(rng.uniform(0.1, 0.9))
        mid = alpha * xa + (1 - alpha) * xb
        lhs = _stage_value(datum, mid)
        rhs = alpha * _stage_value(datum, xa) + (1 - alpha) * _stage_value(datum, xb)
        assert lhs <= rhs + 1e-8


def _finite_difference_slopes(datum, xbar):
    """Central differences of the stage value, or None on a kink."""
    step = 1e-6 * max(1.0, float(np.max(np.abs(xbar))))
    here = _stage_value(datum, xbar)
    fd = np.zeros(xbar.shape[0])
    for j in range(xbar.shape[0]):
        e = np.zeros(xbar.shape[0])
        e[j] = step
        up = _stage_value(datum, xbar + e)
        dn = _stage_value(datum, xbar - e)
        # One-sided slopes must agree or the point sits on a kink.  The value
        # is piecewise linear, so off a kink they agree to rounding; the
        # tolerance is on the slopes, so a kink shows however small the step.
        if abs((up - here) - (here - dn)) > 1e-6 * step * (1.0 + abs(here)):
            return None
        fd[j] = (up - dn) / (2 * step)
    return fd


def test_state_gradient_matches_finite_differences_where_smooth():
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 25:
        datum = _random_recourse_problem(rng)
        xbar = rng.normal(size=2)
        sol = solve(assemble_stage_lp(datum, xbar))
        grad = state_gradient(datum, sol.duals)
        fd = _finite_difference_slopes(datum, xbar)
        if fd is None:
            continue
        np.testing.assert_allclose(grad, fd, atol=1e-5, rtol=1e-5)
        checked += 1


def _copy_row_gradient(datum, xbar):
    """Reference: duals of copy rows z = xbar on free columns z, in
    min c x  s.t.  A x + B z = b,  z = xbar."""
    m, d = datum.A.shape
    k = datum.dim_in
    A = np.block([[datum.A, datum.B], [np.zeros((k, d)), np.eye(k)]])
    lp = LinearProgram(
        objective=np.concatenate([datum.c, np.zeros(k)]),
        eq_matrix=A,
        eq_rhs=np.concatenate([datum.b, xbar]),
        free_mask=np.concatenate([np.zeros(d, dtype=bool), np.ones(k, dtype=bool)]),
    )
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    return sol.objective_value, sol.duals[m:]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kink=st.booleans(),
    xbar=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
)
def test_state_gradient_agrees_with_copy_row_oracle(seed, kink, xbar):
    rng = np.random.default_rng(seed)
    datum = _random_recourse_problem(rng)
    xbar = np.array(xbar)
    if kink:
        # Put xbar where row 0 has a zero rhs, so the recourse of that row
        # switches between its two surplus columns: a degenerate vertex.
        B0 = datum.B[0]
        xbar = xbar + (datum.b[0] - B0 @ xbar) / (B0 @ B0) * B0
    sol = solve(assemble_stage_lp(datum, xbar))
    assert sol.status is LpStatus.OPTIMAL
    grad = state_gradient(datum, sol.duals)
    ref_value, ref_grad = _copy_row_gradient(datum, xbar)
    assert sol.objective_value == pytest.approx(ref_value, abs=1e-9)
    fd = _finite_difference_slopes(datum, xbar)
    if fd is not None:
        np.testing.assert_allclose(grad, ref_grad, atol=1e-8, rtol=1e-8)
    # Both are subgradients everywhere, kinks included, though at a kink they
    # may differ: V(y) >= V(xbar) + g.(y - xbar).
    for y in rng.normal(size=(5, 2)) * 2.0:
        for g in (grad, ref_grad):
            assert _stage_value(datum, y) >= sol.objective_value + g @ (y - xbar) - 1e-8 * (
                1.0 + abs(sol.objective_value)
            )


# ---------------------------------------------------------------------------
# Portfolio instance
# ---------------------------------------------------------------------------


def _stack_deterministic(template, features_by_stage, x0):
    """Extensive LP of the single deterministic path defined by the features."""
    T = template.horizon_T
    data = [template.datum_builder(1, np.ones(len(features_by_stage[2])))]
    for t in range(2, T + 1):
        data.append(template.datum_builder(t, features_by_stage[t]))
    offs = np.cumsum([0] + [d.dim_out for d in data])
    n = int(offs[-1])
    rows = sum(d.n_rows for d in data)
    A = np.zeros((rows, n))
    b = np.zeros(rows)
    c = np.zeros(n)
    r0 = 0
    for k, d in enumerate(data):
        sl = slice(offs[k], offs[k + 1])
        c[sl] = d.c
        A[r0 : r0 + d.n_rows, sl] = d.A
        if k == 0:
            b[r0 : r0 + d.n_rows] = d.b - d.B @ np.asarray(x0, dtype=float)
        else:
            A[r0 : r0 + d.n_rows, offs[k - 1] : offs[k]] = d.B
            b[r0 : r0 + d.n_rows] = d.b
        r0 += d.n_rows
    return solve(LinearProgram(objective=c, eq_matrix=A, eq_rhs=b))


@pytest.mark.parametrize("r", [1.1, 1.02])
def test_deterministic_compounding_matches_closed_form(r):
    """With one asset, no fees and linear utility, wealth is max(r, r_f)^(T-1)."""
    r_f = 1.05
    template = build_portfolio_instance(
        K=1, T=3, fees=(0.0, 0.0), r_f=r_f, utility_slopes=[(1.0, 0.0)]
    )
    sol = _stack_deterministic(template, {2: [r], 3: [r]}, [1.0])
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(-max(r, r_f) ** 2, abs=1e-9)


def test_full_fees_force_hold_policy():
    template = build_portfolio_instance(
        K=1, T=3, fees=(1.0, 1.0), r_f=1.05, utility_slopes=[(1.0, 0.0)]
    )
    sol = _stack_deterministic(template, {2: [1.2], 3: [1.2]}, [1.0])
    assert sol.objective_value == pytest.approx(-1.05**2, abs=1e-9)


def test_zero_initial_wealth_has_zero_utility():
    template = build_portfolio_instance(K=2, T=3, fees=(0.01, 0.01), r_f=1.02)
    sol = _stack_deterministic(
        template, {2: [1.1, 0.9], 3: [1.0, 1.0]}, [0.0]
    )
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(0.0, abs=1e-10)


def test_utility_validation():
    with pytest.raises(InvalidUtilityError):
        build_portfolio_instance(K=1, T=3, utility_slopes=[(1.0, 0.0), (2.0, -1.0)])
    with pytest.raises(InvalidUtilityError):
        build_portfolio_instance(K=1, T=3, utility_slopes=[(-0.5, 0.0)])


def test_default_utility_interpolates_exponential():
    segs = exponential_utility_segments()
    assert len(segs) == 5
    w = np.linspace(0.0, 3.0, 6)
    for wk in w:
        pwl = min(a * wk + d for a, d in segs)
        assert pwl == pytest.approx(1.0 - np.exp(-wk), abs=1e-12)
    mid = 0.3
    assert min(a * mid + d for a, d in segs) <= 1.0 - np.exp(-mid) + 1e-12
    slopes = [a for a, _ in segs]
    assert all(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:]))


def test_terminal_utility_saturates_beyond_fit_range():
    """Past the last breakpoint the utility continues with the final slope."""
    template = build_portfolio_instance(K=1, T=2, fees=(0.0, 0.0), r_f=4.0)
    sol = _stack_deterministic(template, {2: [1.0]}, [1.0])
    segs = exponential_utility_segments()
    expected = -min(a * 4.0 + d for a, d in segs)
    assert sol.objective_value == pytest.approx(expected, abs=1e-9)
