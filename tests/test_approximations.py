"""Tests for cut pools, envelope stores, and their stage LP blocks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _blocks import block_value, cut_rows, weighted_pools
from _highs import highs_solve
from sddpkit.approximations import (
    PENALTY_SAFETY,
    CutLowerTerms,
    CutPool,
    CutRows,
    EnvelopeStore,
    EnvelopeUpperTerms,
    aggregate_backward,
    cut_x_rows,
    stack_cut_rows,
)
from sddpkit.lp import LpStatus, solve
from sddpkit.robust import sanitize_nominal, worst_case
from sddpkit.scenarios import DimensionMismatchError, StageDatum
from sddpkit.stages import assemble_stage_lp, state_gradient


def _lower(pool, t, j, x):
    """The pool's highest cut at x, or -inf when it has none."""
    rows = pool.cuts(t, j)
    if not len(rows):
        return -math.inf
    return float(np.max(rows.offsets + rows.gradients @ np.asarray(x, dtype=float)))


def _upper(store, t, j, x):
    """The envelope's value at x: the stage LP's upper block with x pinned."""
    return block_value(EnvelopeUpperTerms(*store.points(t, j), store.penalty(t)), x)


def _root_cut(gradient, value, anchor):
    """One cut for stage 2's only node, the root: value at ``anchor`` and gradient."""
    g = np.asarray(gradient, dtype=float)
    return cut_rows([(g, value - float(g @ np.asarray(anchor, dtype=float)))])


def test_constant_cut_floors_everywhere():
    pool = CutPool()
    pool.add(2, _root_cut([0.0], 5.0, [0.0]))
    for x in (-3.0, 0.0, 11.5):
        assert _lower(pool, 2, None, [x]) == pytest.approx(5.0)


def test_two_cuts_recover_absolute_value():
    pool = CutPool()
    pool.add(2, _root_cut([1.0], 0.0, [0.0]))
    pool.add(2, _root_cut([-1.0], 0.0, [0.0]))
    for x in (-2.0, -0.5, 0.0, 1.25, 4.0):
        assert _lower(pool, 2, None, [x]) == pytest.approx(abs(x))


def test_duplicate_cut_changes_nothing():
    pool = CutPool()
    cut = _root_cut([1.0], 2.0, [1.0])
    pool.add(2, cut)
    before = [_lower(pool, 2, None, [x]) for x in np.linspace(-2, 2, 9)]
    pool.add(2, cut)
    after = [_lower(pool, 2, None, [x]) for x in np.linspace(-2, 2, 9)]
    np.testing.assert_allclose(after, before)


def test_empty_pool_reads_minus_infinity():
    pool = CutPool()
    assert len(pool.cuts(3, 1)) == 0
    assert _lower(pool, 3, 1, [0.0]) == -math.inf


def test_nodes_a_stage_never_had_read_empty():
    """Stage 2's one node is the root, j = None; a later stage's nodes are
    0..n-1.  Any other key reads no cuts and no points."""
    pool, store = CutPool(), EnvelopeStore()
    pool.add(2, _root_cut([1.0], 0.0, [0.0]))
    pool.add(3, cut_rows([([1.0, 2.0], 0.0), ([3.0, 4.0], 1.0)]))
    store.add(2, [0.0], [1.0])
    store.add(3, [0.0, 1.0], [1.0, 2.0])
    for t, j in ((2, 0), (3, None), (3, 2), (3, -1), (4, 0), (4, None)):
        assert len(pool.cuts(t, j)) == 0
        anchors, values = store.points(t, j)
        assert anchors.size == values.size == 0
    assert len(pool.cuts(2, None)) == len(pool.cuts(3, 1)) == 1
    assert store.points(3, 1)[1].tolist() == [2.0]
    assert pool.n_cuts() == store.n_points() == 3


def test_cut_dimension_mismatch():
    pool = CutPool()
    pool.add(2, _root_cut([1.0], 0.0, [0.0]))
    with pytest.raises(DimensionMismatchError):
        pool.add(2, _root_cut([1.0, 2.0], 0.0, [0.0, 0.0]))
    # Every add gives every node of the stage one cut.
    with pytest.raises(DimensionMismatchError):
        pool.add(2, cut_rows([([1.0], 0.0), ([2.0], 0.0)]))
    assert len(pool.cuts(2, None)) == 1
    # A gradient and an anchor of different widths make no cut.
    with pytest.raises(DimensionMismatchError):
        aggregate_backward([0.0], [[1.0, 2.0]], [[1.0]], [0.0], [[1.0]], [0.0])


def _aggregate(values, duals, weights, anchor):
    """The stage slice with the same weights and values on both sides."""
    return aggregate_backward(anchor, duals, weights, values, weights, values)


def test_aggregate_identical_items():
    cuts, points = _aggregate(np.full(4, 7.0), [np.array([2.0])] * 4, np.full((1, 4), 0.25), [0.5])
    np.testing.assert_allclose(cuts.gradients, [[2.0]])
    np.testing.assert_allclose(cuts.offsets, [7.0 - 2.0 * 0.5])
    np.testing.assert_allclose(points, [7.0])


def test_aggregate_hand_arithmetic():
    """Node 0 weights the realizations (0.25, 0.75), node 1 (1, 0)."""
    cuts, points = _aggregate(
        np.array([4.0, 8.0]),
        [np.array([1.0]), np.array([2.0])],
        np.array([[0.25, 0.75], [1.0, 0.0]]),
        [2.0],
    )
    np.testing.assert_allclose(cuts.gradients, [[1.75], [1.0]])
    np.testing.assert_allclose(cuts.offsets, [7.0 - 3.5, 4.0 - 2.0])
    np.testing.assert_allclose(points, [7.0, 4.0])


def test_aggregate_degenerate_weight():
    cuts, _ = _aggregate(
        np.array([3.0, 99.0]),
        [np.array([5.0]), np.array([-5.0])],
        np.array([[1.0, 0.0]]),
        [0.0],
    )
    np.testing.assert_allclose(cuts.gradients, [[5.0]])
    assert cuts.offsets[0] == pytest.approx(3.0)


def test_aggregate_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        _aggregate(np.array([1.0]), [np.array([1.0])], np.full((1, 2), 0.5), [0.0])
    with pytest.raises(DimensionMismatchError):
        _aggregate(np.array([1.0, 2.0]), [np.array([1.0])], np.full((1, 2), 0.5), [0.0])
    # The two weight matrices must give the same nodes.
    with pytest.raises(DimensionMismatchError):
        aggregate_backward(
            [0.0], [[1.0]] * 2, np.full((2, 2), 0.5), [1.0, 2.0], [[0.5, 0.5]], [1.0, 2.0]
        )


def test_single_point_envelope_pays_penalty():
    """One point (0, 2) with M = 10 gives 2 + 10*|1 - 0| = 12 at x = 1."""
    store = EnvelopeStore(penalty_override=10.0)
    store.add(2, [0.0], [2.0])
    assert _upper(store, 2, None, [1.0]) == pytest.approx(12.0, abs=1e-9)


def test_two_point_envelope_interpolates():
    """Points (0,0) and (2,2) with huge M give the chord value 1 at x = 1."""
    store = EnvelopeStore(penalty_override=1e6)
    store.add(2, [0.0], [0.0])
    store.add(2, [2.0], [2.0])
    assert _upper(store, 2, None, [1.0]) == pytest.approx(1.0, abs=1e-9)


def test_envelope_value_at_stored_anchor_never_exceeds_stored_value():
    rng = np.random.default_rng(5)
    store = EnvelopeStore(penalty_override=50.0)
    pts = [(rng.normal(size=2), rng.uniform(0, 5, size=2)) for _ in range(6)]
    for a, v in pts:
        store.add(3, a, v)
    for a, v in pts:
        for j in (0, 1):
            assert _upper(store, 3, j, a) <= v[j] + 1e-9


def test_envelope_rejects_non_finite_values():
    store = EnvelopeStore()
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            store.add(3, [0.0], [1.0, bad])
    assert store.n_points() == 0


def test_envelope_monotone_nonincreasing_as_points_arrive():
    rng = np.random.default_rng(6)
    store = EnvelopeStore(penalty_override=20.0)
    grid = [rng.normal(size=1) for _ in range(7)]
    prev = [math.inf] * len(grid)
    for _ in range(5):
        store.add(2, rng.normal(size=1), [float(rng.uniform(0, 4))])
        now = [_upper(store, 2, None, g) for g in grid]
        assert all(n <= p + 1e-9 for n, p in zip(now, prev))
        prev = now


def test_lower_value_monotone_nondecreasing_as_cuts_arrive():
    """Valid minorants of f(x) = x^2 only push the pointwise max up."""
    rng = np.random.default_rng(7)
    pool = CutPool()
    grid = np.linspace(-2, 2, 9)
    prev = [_lower(pool, 2, None, [g]) for g in grid]
    for _ in range(6):
        a = float(rng.uniform(-2, 2))
        pool.add(2, _root_cut([2 * a], a * a, [a]))
        now = [_lower(pool, 2, None, [g]) for g in grid]
        assert all(n >= p - 1e-12 for n, p in zip(now, prev))
        assert all(n <= g * g + 1e-12 for n, g in zip(now, grid))
        prev = now


def test_midpoint_convexity_of_both_approximations():
    rng = np.random.default_rng(8)
    pool = CutPool()
    store = EnvelopeStore(penalty_override=30.0)
    for _ in range(5):
        a = rng.normal(size=2)
        pool.add(2, _root_cut(rng.normal(size=2), float(rng.normal()), a))
        store.add(2, a, [float(rng.uniform(0, 3))])
    for _ in range(20):
        xa, xb = rng.normal(size=2), rng.normal(size=2)
        mid = 0.5 * (xa + xb)
        lo = _lower(pool, 2, None, mid)
        assert lo <= 0.5 * (_lower(pool, 2, None, xa) + _lower(pool, 2, None, xb)) + 1e-8
        hi = _upper(store, 2, None, mid)
        assert hi <= 0.5 * (_upper(store, 2, None, xa) + _upper(store, 2, None, xb)) + 1e-8


def test_penalty_tracks_observed_gradients():
    store = EnvelopeStore()
    assert store.penalty(2) == 0.0
    store.note_gradient(2, np.array([[0.5, -3.0], [1.0, 2.0]]))
    assert store.penalty(2) == pytest.approx(30.0)
    store.note_gradient(2, np.array([[1.0, 1.0]]))
    assert store.penalty(2) == pytest.approx(30.0)
    fixed = EnvelopeStore(penalty_override=7.0)
    fixed.note_gradient(2, np.array([[100.0]]))
    assert fixed.penalty(2) == 7.0


def _one_var_stage():
    return StageDatum(c=[1.0], A=[[1.0]], B=[[1.0]], b=[2.0], feature=[0.0])


def _check_against_highs(lp, status, value):
    """``solve`` and HiGHS both give ``status`` and, when Optimal, ``value``."""
    sol = solve(lp)
    highs_status, highs_objective = highs_solve(lp)
    assert sol.status is status and highs_status is status
    if status is LpStatus.OPTIMAL:
        assert sol.objective_value == pytest.approx(value, abs=1e-9)
        assert highs_objective == pytest.approx(value, abs=1e-9)


def test_empty_cut_pool_makes_the_stage_lp_unbounded():
    """An empty pool's cost-to-go is -inf: with a positive weight on it the
    stage LP is Unbounded, and with a zero weight its free epigraph
    variable is inert."""
    datum = _one_var_stage()
    five = cut_rows([([0.0], 5.0)])
    for terms, status in (
        (CutLowerTerms(cut_rows(())), LpStatus.UNBOUNDED),
        (weighted_pools([(0.4, five), (0.6, cut_rows(()))]), LpStatus.UNBOUNDED),
        (weighted_pools([(1.0, five), (0.0, cut_rows(()))]), LpStatus.OPTIMAL),
    ):
        lp = assemble_stage_lp(datum, [1.0], extra_terms=terms)
        _check_against_highs(lp, status, 1.0 + 5.0)


def test_weighted_multi_node_splice():
    """Two constant cuts with weights (0.3, 0.7) add 0.3*5 + 0.7*9 to the stage."""
    datum = _one_var_stage()
    terms = weighted_pools([(0.3, cut_rows([([0.0], 5.0)])), (0.7, cut_rows([([0.0], 9.0)]))])
    sol = solve(assemble_stage_lp(datum, [1.0], extra_terms=terms))
    assert sol.objective_value == pytest.approx(1.0 + 0.3 * 5 + 0.7 * 9, abs=1e-9)


def test_one_backward_pass_closes_gap_at_anchor():
    """After cutting and enveloping the same solve, LB = UB at the anchor."""
    # Next-stage value function: V(xbar) = min{x : x = 2 - xbar} = 2 - xbar.
    nxt = _one_var_stage()
    anchor = [1.0]
    nxt_sol = solve(assemble_stage_lp(nxt, anchor))
    v_bar = np.array([nxt_sol.objective_value])
    pi = [state_gradient(nxt, nxt_sol.duals)]
    cuts, point_values = aggregate_backward(anchor, pi, [[1.0]], v_bar, [[1.0]], v_bar)
    pool, store = CutPool(), EnvelopeStore()
    pool.add(3, cuts)
    store.note_gradient(3, cuts.gradients)
    store.add(3, anchor, point_values)

    # Current stage forces x = anchor and has zero immediate cost.
    cur = StageDatum(c=[0.0], A=[[1.0]], B=[[0.0]], b=anchor, feature=[0.0])
    lo = solve(assemble_stage_lp(cur, [0.0], extra_terms=CutLowerTerms(pool.cuts(3, 0))))
    anchors, values = store.points(3, 0)
    hi = solve(
        assemble_stage_lp(
            cur,
            [0.0],
            extra_terms=EnvelopeUpperTerms(anchors, values, store.penalty(3)),
        )
    )
    assert lo.objective_value == pytest.approx(v_bar[0], abs=1e-9)
    assert abs(hi.objective_value - lo.objective_value) <= 1e-8


def test_empty_envelope_makes_the_stage_lp_infeasible():
    """An envelope without points is +inf: its convexity row reads 0 = 1, so
    the stage LP is Infeasible.  One point at x = 1 with value 3 makes it
    Optimal at c.x + 3."""
    datum = _one_var_stage()
    for anchors, values, status in (
        (np.zeros((0, 0)), np.zeros(0), LpStatus.INFEASIBLE),
        (np.array([[1.0]]), np.array([3.0]), LpStatus.OPTIMAL),
    ):
        terms = EnvelopeUpperTerms(anchors, values, 10.0)
        lp = assemble_stage_lp(datum, [1.0], extra_terms=terms)
        assert lp.n_rows == 1 + 2
        _check_against_highs(lp, status, 1.0 + 3.0)


# Entries with exact and signed zeros, as in portfolio cut gradients.
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, width=64))
# Nodes per stage: stage 2 has the root alone.  Stage t's gradients and
# anchors have the fixed width t - 1.
_NODES = {2: 1, 3: 2, 4: 3}
_ADDS = st.lists(
    st.tuples(st.sampled_from(sorted(_NODES)), st.lists(_ENTRY, min_size=12, max_size=12)),
    max_size=25,
)


def _keys(t):
    return [None] if t == 2 else list(range(_NODES[t]))


@settings(max_examples=60, deadline=None)
@given(adds=_ADDS)
def test_pool_arrays_stack_the_cuts_bit_for_bit(adds):
    """After any sequence of stage-wide adds, each node's arrays are the
    gradients and offsets of the cuts added to it, stacked byte for byte,
    and arrays handed out before an add stay as they were."""
    pool = CutPool()
    added = {(t, j): [] for t in _NODES for j in _keys(t)}
    snapshots = []
    for t, entries in adds:
        n, d = _NODES[t], t - 1
        new = CutRows(np.array(entries[: n * d]).reshape(n, d), np.array(entries[9 : 9 + n]))
        snapshots += [(pool.cuts(t, j), list(added[t, j])) for j in _keys(t)]
        pool.add(t, new)
        for row, j in enumerate(_keys(t)):
            added[t, j].append((new.gradients[row].copy(), new.offsets[row]))
    assert pool.n_cuts() == sum(_NODES[t] for t, _ in adds)
    for (t, j), cuts in added.items():
        rows = pool.cuts(t, j)
        assert len(rows) == len(cuts)
        if not cuts:
            continue
        grads = np.array([g for g, _ in cuts])
        offsets = np.array([o for _, o in cuts])
        assert rows.gradients.shape == grads.shape and rows.gradients.tobytes() == grads.tobytes()
        assert rows.offsets.tobytes() == offsets.tobytes()
        # Stacked, the node's rows are its arrays, and their stage LP rows are
        # the negated gradients and the offsets.
        node, stacked = stack_cut_rows([rows])
        expected = (np.zeros(len(cuts), dtype=np.int64), 0.0 - grads, offsets)
        for a, b in zip((node, cut_x_rows(stacked, t - 1), stacked.offsets), expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    for rows, cuts in snapshots:
        assert len(rows) == len(cuts)
        if cuts:
            assert rows.gradients.tobytes() == np.array([g for g, _ in cuts]).tobytes()
            assert rows.offsets.tobytes() == np.array([o for _, o in cuts]).tobytes()
    if adds:
        t, entries = adds[0]
        n, d = _NODES[t], t
        with pytest.raises(DimensionMismatchError):
            pool.add(t, CutRows(np.array(entries[: n * d]).reshape(n, d), np.zeros(n)))


@settings(max_examples=60, deadline=None)
@given(adds=_ADDS)
def test_envelope_arrays_stack_the_points_bit_for_bit(adds):
    """After any sequence of stage-wide adds, each stage's anchor matrix and
    each node's values are the ones added, stacked byte for byte, and
    arrays handed out before an add stay as they were."""
    store = EnvelopeStore()
    added = {(t, j): [] for t in _NODES for j in _keys(t)}
    snapshots = []
    for t, entries in adds:
        anchor, values = np.array(entries[: t - 1]), np.array(entries[9 : 9 + _NODES[t]])
        snapshots += [(store.points(t, j), list(added[t, j])) for j in _keys(t)]
        store.add(t, anchor, values)
        for row, j in enumerate(_keys(t)):
            added[t, j].append((anchor, values[row]))
    assert store.n_points() == sum(_NODES[t] for t, _ in adds)
    for (anchors, values), points in snapshots + [
        (store.points(*key), points) for key, points in added.items()
    ]:
        assert values.shape == (len(points),)
        if not points:
            continue
        expected = np.array([a for a, _ in points])
        assert anchors.shape == expected.shape and anchors.tobytes() == expected.tobytes()
        assert values.tobytes() == np.array([v for _, v in points]).tobytes()
    if adds:
        t, entries = adds[0]
        with pytest.raises(DimensionMismatchError):
            store.add(t, np.array(entries[:t]), np.zeros(_NODES[t]))


def test_lower_value_reads_the_arrays():
    """Each node's highest cut at x, from its arrays, is the highest of
    value + gradient . (x - anchor) over its cuts."""
    # Per add: one anchor, and (gradient, value) for nodes 0 and 1.
    adds = (
        ([0.0, 0.0], [([1.0, 0.0], 0.0), ([0.0, -1.0], 2.0)]),
        ([1.0, 0.0], [([-1.0, 2.0], 1.0), ([3.0, 0.5], -1.0)]),
    )
    pool = CutPool()
    for a, cuts in adds:
        pool.add(3, cut_rows([(g, v - float(np.dot(g, a))) for g, v in cuts]))
    for x in ([0.0, 0.0], [2.0, -1.0], [-3.0, 0.5]):
        for j in (0, 1):
            expected = max(
                cuts[j][1] + float(np.dot(cuts[j][0], np.subtract(x, a))) for a, cuts in adds
            )
            assert _lower(pool, 3, j, x) == pytest.approx(expected, abs=1e-12)
    assert _lower(pool, 3, 2, [0.0, 0.0]) == -math.inf


def _per_node_reference(anchor, duals, lower_weights, lower_values, upper_weights, upper_values):
    """The slice one node at a time: node j's cut has gradient pi^T w_j and
    value v . w_j at the anchor, so its offset is v . w_j - g . anchor; its
    envelope value is u . u_j."""
    pi = np.asarray(duals, dtype=float)
    out = []
    for wl, wu in zip(lower_weights, upper_weights):
        gradient = pi.T @ wl
        intercept = float(lower_values @ wl)
        out.append((gradient, intercept - float(gradient @ anchor), float(wu @ upper_values)))
    return out


_WEIGHT_KINDS = ("positive", "with_zeros", "worst_case")


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    d=st.integers(1, 4),
    root=st.booleans(),
    kind=st.sampled_from(_WEIGHT_KINDS),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
)
def test_stage_slice_matches_the_per_node_formula(seed, n, d, root, kind, scale):
    """The stage-wide products agree with the per-node formula to 1e-12
    relative to the magnitude of the summed terms, on nominal weight rows
    with and without zeros, on the normalized worst-case rows of the robust
    backward pass, and for the root alone at t = 2; the pool and store hand
    the slice out per node."""
    rng = np.random.default_rng(seed)
    t, nodes = (2, 1) if root else (3, int(rng.integers(1, 7)))
    anchor = rng.normal(size=d) * scale
    duals = rng.normal(size=(n, d)) * scale * (rng.random((n, d)) < 0.8)
    lower_values = rng.normal(size=n) * scale
    upper_values = lower_values + rng.uniform(0.0, 1.0, size=n) * scale

    def rows(values):
        w = rng.uniform(size=(nodes, n))
        if kind == "with_zeros":
            w *= rng.random((nodes, n)) < 0.5
            w[np.arange(nodes), rng.integers(0, n, size=nodes)] = 1.0
        w /= w.sum(axis=1, keepdims=True)
        if kind == "worst_case":
            nominal = np.vstack([sanitize_nominal(row).weights for row in w])
            _, worst = worst_case(values, nominal, float(rng.uniform(0.01, 1.0)))
            w = worst / worst.sum(axis=1, keepdims=True)
        return w

    w_lower, w_upper = rows(lower_values), rows(upper_values)
    cuts, point_values = aggregate_backward(
        anchor, duals, w_lower, lower_values, w_upper, upper_values
    )
    pool, store = CutPool(), EnvelopeStore()
    pool.add(t, cuts)
    store.note_gradient(t, cuts.gradients)
    store.add(t, anchor, point_values)
    expected = _per_node_reference(anchor, duals, w_lower, lower_values, w_upper, upper_values)
    tiny = np.finfo(float).tiny
    for j, wl, wu, (gradient, offset, value) in zip(
        [None] if root else range(nodes), w_lower, w_upper, expected
    ):
        node_cuts = pool.cuts(t, j)
        anchors, values = store.points(t, j)
        g_scale = np.abs(duals).T @ wl
        assert np.all(np.abs(node_cuts.gradients[0] - gradient) <= 1e-12 * g_scale + tiny)
        o_scale = np.abs(lower_values) @ wl + np.abs(gradient) @ np.abs(anchor)
        assert abs(node_cuts.offsets[0] - offset) <= 1e-12 * o_scale + tiny
        assert abs(values[0] - value) <= 1e-12 * (np.abs(upper_values) @ wu) + tiny
        assert anchors.tolist() == [anchor.tolist()]
    assert store.penalty(t) == PENALTY_SAFETY * np.max(np.abs(cuts.gradients))
