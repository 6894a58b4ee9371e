"""Tests for cut pools, envelope stores, and their stage LP blocks."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddpkit.approximations import (
    Cut,
    CutLowerTerms,
    CutPool,
    CutRows,
    EnvelopeStore,
    EnvelopeUpperTerms,
    WeightedLowerTerms,
    aggregate_backward,
    envelope_value,
    lower_value,
    stack_cut_rows,
)
from sddpkit.kernel import ConditionalWeights
from sddpkit.lp import LpStatus, solve
from sddpkit.scenarios import DimensionMismatchError, StageDatum
from sddpkit.stages import assemble_stage_lp, state_gradient


def test_constant_cut_floors_everywhere():
    pool = CutPool()
    pool.add(2, 0, Cut(gradient=[0.0], intercept=5.0, anchor=[0.0]))
    for x in (-3.0, 0.0, 11.5):
        assert pool.value(2, 0, [x]) == pytest.approx(5.0)


def test_two_cuts_recover_absolute_value():
    pool = CutPool()
    pool.add(2, 0, Cut(gradient=[1.0], intercept=0.0, anchor=[0.0]))
    pool.add(2, 0, Cut(gradient=[-1.0], intercept=0.0, anchor=[0.0]))
    for x in (-2.0, -0.5, 0.0, 1.25, 4.0):
        assert pool.value(2, 0, [x]) == pytest.approx(abs(x))


def test_duplicate_cut_changes_nothing():
    pool = CutPool()
    cut = Cut(gradient=[1.0], intercept=2.0, anchor=[1.0])
    pool.add(2, None, cut)
    before = [pool.value(2, None, [x]) for x in np.linspace(-2, 2, 9)]
    pool.add(2, None, cut)
    after = [pool.value(2, None, [x]) for x in np.linspace(-2, 2, 9)]
    np.testing.assert_allclose(after, before)


def test_empty_pool_reports_sentinel():
    pool = CutPool()
    assert pool.value(3, 1, [0.0]) == -1e9


def test_cut_dimension_mismatch():
    pool = CutPool()
    pool.add(2, 0, Cut(gradient=[1.0], intercept=0.0, anchor=[0.0]))
    with pytest.raises(DimensionMismatchError):
        pool.add(2, 0, Cut(gradient=[1.0, 2.0], intercept=0.0, anchor=[0.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        Cut(gradient=[1.0, 2.0], intercept=0.0, anchor=[0.0])


def test_aggregate_identical_items():
    cut = aggregate_backward(
        values=np.full(4, 7.0),
        duals=[np.array([2.0])] * 4,
        weights=ConditionalWeights.uniform(4),
        anchor=[0.5],
    )
    np.testing.assert_allclose(cut.gradient, [2.0])
    assert cut.intercept == pytest.approx(7.0)


def test_aggregate_hand_arithmetic():
    cut = aggregate_backward(
        values=np.array([4.0, 8.0]),
        duals=[np.array([1.0]), np.array([2.0])],
        weights=ConditionalWeights(np.array([0.25, 0.75])),
        anchor=[0.0],
    )
    np.testing.assert_allclose(cut.gradient, [1.75])
    assert cut.intercept == pytest.approx(7.0)


def test_aggregate_degenerate_weight():
    cut = aggregate_backward(
        values=np.array([3.0, 99.0]),
        duals=[np.array([5.0]), np.array([-5.0])],
        weights=ConditionalWeights(np.array([1.0, 0.0])),
        anchor=[0.0],
    )
    np.testing.assert_allclose(cut.gradient, [5.0])
    assert cut.intercept == pytest.approx(3.0)


def test_aggregate_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        aggregate_backward(
            values=np.array([1.0]),
            duals=[np.array([1.0])],
            weights=ConditionalWeights.uniform(2),
            anchor=[0.0],
        )


def test_empty_envelope_is_infinite():
    store = EnvelopeStore()
    assert store.value(2, 0, [0.0]) == math.inf


def test_single_point_envelope_pays_penalty():
    """One point (0, 2) with M = 10 gives 2 + 10*|1 - 0| = 12 at x = 1."""
    store = EnvelopeStore(penalty_override=10.0)
    store.add(2, 0, [0.0], 2.0)
    assert store.value(2, 0, [1.0]) == pytest.approx(12.0, abs=1e-9)


def test_two_point_envelope_interpolates():
    """Points (0,0) and (2,2) with huge M give the chord value 1 at x = 1."""
    store = EnvelopeStore(penalty_override=1e6)
    store.add(2, 0, [0.0], 0.0)
    store.add(2, 0, [2.0], 2.0)
    assert store.value(2, 0, [1.0]) == pytest.approx(1.0, abs=1e-9)


def test_envelope_value_at_stored_anchor_never_exceeds_stored_value():
    rng = np.random.default_rng(5)
    store = EnvelopeStore(penalty_override=50.0)
    pts = [(rng.normal(size=2), float(rng.uniform(0, 5))) for _ in range(6)]
    for a, v in pts:
        store.add(3, 1, a, v)
    for a, v in pts:
        assert store.value(3, 1, a) <= v + 1e-9


def test_envelope_monotone_nonincreasing_as_points_arrive():
    rng = np.random.default_rng(6)
    store = EnvelopeStore(penalty_override=20.0)
    grid = [rng.normal(size=1) for _ in range(7)]
    prev = [math.inf] * len(grid)
    for _ in range(5):
        store.add(2, None, rng.normal(size=1), float(rng.uniform(0, 4)))
        now = [store.value(2, None, g) for g in grid]
        assert all(n <= p + 1e-9 for n, p in zip(now, prev))
        prev = now


def test_lower_value_monotone_nondecreasing_as_cuts_arrive():
    """Valid minorants of f(x) = x^2 only push the pointwise max up."""
    rng = np.random.default_rng(7)
    pool = CutPool()
    grid = np.linspace(-2, 2, 9)
    prev = [pool.value(2, 0, [g]) for g in grid]
    for _ in range(6):
        a = float(rng.uniform(-2, 2))
        pool.add(2, 0, Cut(gradient=[2 * a], intercept=a * a, anchor=[a]))
        now = [pool.value(2, 0, [g]) for g in grid]
        assert all(n >= p - 1e-12 for n, p in zip(now, prev))
        assert all(n <= g * g + 1e-12 for n, g in zip(now, grid))
        prev = now


def test_midpoint_convexity_of_both_approximations():
    rng = np.random.default_rng(8)
    pool = CutPool()
    store = EnvelopeStore(penalty_override=30.0)
    for _ in range(5):
        a = rng.normal(size=2)
        pool.add(2, 0, Cut(gradient=rng.normal(size=2), intercept=float(rng.normal()), anchor=a))
        store.add(2, 0, a, float(rng.uniform(0, 3)))
    for _ in range(20):
        xa, xb = rng.normal(size=2), rng.normal(size=2)
        mid = 0.5 * (xa + xb)
        lo = pool.value(2, 0, mid)
        assert lo <= 0.5 * (pool.value(2, 0, xa) + pool.value(2, 0, xb)) + 1e-8
        hi = store.value(2, 0, mid)
        assert hi <= 0.5 * (store.value(2, 0, xa) + store.value(2, 0, xb)) + 1e-8


def test_penalty_tracks_observed_gradients():
    store = EnvelopeStore()
    assert store.penalty(2) == 0.0
    store.note_gradient(2, np.array([0.5, -3.0]))
    assert store.penalty(2) == pytest.approx(30.0)
    store.note_gradient(2, np.array([1.0, 1.0]))
    assert store.penalty(2) == pytest.approx(30.0)
    fixed = EnvelopeStore(penalty_override=7.0)
    fixed.note_gradient(2, np.array([100.0]))
    assert fixed.penalty(2) == 7.0


def _one_var_stage():
    return StageDatum(c=[1.0], A=[[1.0]], B=[[1.0]], b=[2.0], feature=[0.0])


def test_splice_lower_empty_pool_hits_sentinel():
    datum = _one_var_stage()
    lp = assemble_stage_lp(datum, [1.0], extra_terms=CutLowerTerms(()))
    sol = solve(lp)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(1.0 - 1e9)


def test_weighted_multi_node_splice():
    """Two constant cuts with weights (0.3, 0.7) add 0.3*5 + 0.7*9 to the stage."""
    datum = _one_var_stage()
    terms = WeightedLowerTerms(
        node_cuts=[
            (0.3, (Cut(gradient=[0.0], intercept=5.0, anchor=[0.0]),)),
            (0.7, (Cut(gradient=[0.0], intercept=9.0, anchor=[0.0]),)),
        ]
    )
    sol = solve(assemble_stage_lp(datum, [1.0], extra_terms=terms))
    assert sol.objective_value == pytest.approx(1.0 + 0.3 * 5 + 0.7 * 9, abs=1e-9)


def test_one_backward_pass_closes_gap_at_anchor():
    """After cutting and enveloping the same solve, LB = UB at the anchor."""
    # Next-stage value function: V(xbar) = min{x : x = 2 - xbar} = 2 - xbar.
    nxt = _one_var_stage()
    anchor = 1.0
    nxt_sol = solve(assemble_stage_lp(nxt, [anchor]))
    v_bar = nxt_sol.objective_value
    pi = state_gradient(nxt, nxt_sol.duals)
    cut = Cut(gradient=pi, intercept=v_bar, anchor=[anchor])
    store = EnvelopeStore()
    store.note_gradient(3, pi)
    store.add(3, 0, [anchor], v_bar)

    # Current stage forces x = anchor and has zero immediate cost.
    cur = StageDatum(c=[0.0], A=[[1.0]], B=[[0.0]], b=[anchor], feature=[0.0])
    lo = solve(assemble_stage_lp(cur, [0.0], extra_terms=CutLowerTerms((cut,))))
    anchors, values = store.points(3, 0)
    hi = solve(
        assemble_stage_lp(
            cur,
            [0.0],
            extra_terms=EnvelopeUpperTerms(anchors, values, store.penalty(3)),
        )
    )
    assert lo.objective_value == pytest.approx(v_bar, abs=1e-9)
    assert abs(hi.objective_value - lo.objective_value) <= 1e-8


def test_envelope_upper_terms_empty_uses_upper_box():
    datum = _one_var_stage()
    terms = EnvelopeUpperTerms(np.zeros((0, 0)), np.zeros(0), 10.0)
    sol = solve(assemble_stage_lp(datum, [1.0], extra_terms=terms))
    assert sol.objective_value == pytest.approx(1.0 + 1e9)


def test_cut_pool_dump_format():
    pool = CutPool()
    pool.add(2, None, Cut(gradient=[1.0, -2.0], intercept=3.0, anchor=[0.0, 0.0], iteration_k=4))
    pool.add(3, 1, Cut(gradient=[0.5], intercept=-1.0, anchor=[2.0], iteration_k=5))
    buf = io.StringIO()
    pool.dump(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "2,root,4,3.0,1.0,-2.0"
    assert lines[1] == "3,1,5,-1.0,0.5"


# Entries with exact and signed zeros, as in portfolio cut gradients.
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, width=64))
_KEYS = [(2, None), (3, 0), (3, 1), (4, 0)]


@settings(max_examples=60, deadline=None)
@given(
    adds=st.lists(
        st.tuples(
            st.sampled_from(_KEYS),
            st.lists(_ENTRY, min_size=6, max_size=6),
            _ENTRY,
            st.integers(0, 99),
        ),
        max_size=25,
    )
)
def test_pool_arrays_stack_the_cuts_bit_for_bit(adds):
    """After any sequence of adds, each node's arrays are its cuts' gradients
    and offsets stacked, byte for byte, and arrays handed out before an add
    stay as they were."""
    pool = CutPool()
    snapshots = []
    for (t, j), entries, intercept, k in adds:
        d = t - 1  # a fixed dimension per stage
        cut = Cut(gradient=entries[:d], intercept=intercept, anchor=entries[3 : 3 + d],
                  iteration_k=k)
        snapshots.append((pool.rows(t, j), pool.cuts(t, j)))
        pool.add(t, j, cut)
    for t, j in _KEYS:
        rows, cuts = pool.rows(t, j), pool.cuts(t, j)
        assert len(rows) == len(cuts)
        if not cuts:
            continue
        d = t - 1
        grads = np.array([c.gradient for c in cuts])
        offsets = np.array([c.intercept - float(c.gradient @ c.anchor) for c in cuts])
        assert rows.gradients.shape == grads.shape and rows.gradients.tobytes() == grads.tobytes()
        assert rows.offsets.tobytes() == offsets.tobytes()
        # Stage LP rows from the arrays equal those from the Cut objects.
        for a, b in zip(stack_cut_rows([rows], d), stack_cut_rows([cuts], d)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for rows, cuts in snapshots:
        assert len(rows) == len(cuts)
        if cuts:
            assert rows.gradients.tobytes() == np.array([c.gradient for c in cuts]).tobytes()


def test_lower_value_reads_the_arrays():
    cuts = (
        Cut(gradient=[1.0, 0.0], intercept=0.0, anchor=[0.0, 0.0]),
        Cut(gradient=[-1.0, 2.0], intercept=1.0, anchor=[1.0, 0.0]),
    )
    rows = CutRows.of(cuts)
    for x in ([0.0, 0.0], [2.0, -1.0], [-3.0, 0.5]):
        expected = max(c.intercept + float(c.gradient @ (np.array(x) - c.anchor)) for c in cuts)
        assert lower_value(rows, x) == pytest.approx(expected, abs=1e-12)
        assert lower_value(cuts, x) == lower_value(rows, x)
    assert CutRows.of(rows) is rows
    assert lower_value(CutRows.of(()), [0.0]) == -1e9
