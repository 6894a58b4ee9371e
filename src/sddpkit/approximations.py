"""Outer (cut) and inner (convex-envelope) cost-to-go approximations.

For every stage t and conditioning node j (a stage-(t-1) historical
realization, or the deterministic root) the toolkit maintains

* a growing pool of affine cuts whose pointwise maximum under-estimates
  the cost-to-go, and
* a growing set of (anchor, value) points whose lower convex envelope,
  softened by an L1 penalty M per unit of distance from the anchors' hull,
  over-estimates it.

Both are appended to stage LPs through the :class:`~sddpkit.stages.ExtraTerms`
protocol.  The infinite initializations of the textbook recursion are
realized by large sentinel boxes (``LOWER_BOX``/``UPPER_BOX``); they stop
binding as soon as a first cut or point arrives.

A pool keeps each node's cuts twice: as :class:`Cut` objects, which
``CutPool.cuts`` and ``CutPool.dump`` hand out, and as :class:`CutRows`, a
gradient matrix and an offset vector that grow by one row per ``add``.
Stage LP blocks, pool values and the rollout's cut separation read the
arrays, so evaluating every cut of a node at a point is one matvec.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernel import ConditionalWeights
from .lp import LinearProgram, LpStatus, solve
from .scenarios import DimensionMismatchError
from .stages import LpBlock

__all__ = [
    "Cut",
    "CutPool",
    "CutRows",
    "EnvelopeStore",
    "NodeKey",
    "aggregate_backward",
    "lower_value",
    "envelope_value",
    "CutLowerTerms",
    "WeightedLowerTerms",
    "EnvelopeUpperTerms",
    "LOWER_BOX",
    "UPPER_BOX",
    "PENALTY_SAFETY",
]

LOWER_BOX = -1e9
UPPER_BOX = 1e9
# Default envelope penalty per unit of the largest cut gradient seen.
PENALTY_SAFETY = 10.0

# A conditioning node: stage index plus historical path index, None at the root.
NodeKey = tuple[int, int | None]


@dataclass(frozen=True)
class Cut:
    """One affine minorant: x -> intercept + gradient . (x - anchor).

    ``offset`` is its value at the origin, the right-hand side of the
    cut's row in a stage LP.
    """

    gradient: np.ndarray
    intercept: float
    anchor: np.ndarray
    iteration_k: int = 0
    offset: float = field(init=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.gradient, dtype=float).reshape(-1)
        a = np.asarray(self.anchor, dtype=float).reshape(-1)
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "intercept", float(self.intercept))
        if g.shape != a.shape:
            raise DimensionMismatchError(
                f"cut gradient has dimension {g.shape[0]}, anchor {a.shape[0]}"
            )
        object.__setattr__(self, "offset", self.intercept - float(g @ a))


@dataclass(frozen=True)
class CutRows:
    """A node's cuts as arrays: row k of ``gradients`` is cut k's gradient
    and ``offsets[k]`` its value at the origin, so the cuts' values at x
    are ``offsets + gradients @ x``."""

    gradients: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, cuts: "CutRows | Sequence[Cut]") -> "CutRows":
        if isinstance(cuts, CutRows):
            return cuts
        if not cuts:
            return _NO_CUTS
        return cls(np.array([c.gradient for c in cuts]), np.array([c.offset for c in cuts]))

    def __len__(self) -> int:
        return self.offsets.shape[0]

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.offsets + self.gradients @ x


_NO_CUTS = CutRows(np.zeros((0, 0)), np.zeros(0))


class CutPool:
    """Cuts per (stage, node); pools only grow, so the outer bound only tightens."""

    def __init__(self) -> None:
        self._cuts: dict[NodeKey, list[Cut]] = {}
        self._rows: dict[NodeKey, CutRows] = {}

    def cuts(self, t: int, node_j: int | None) -> tuple[Cut, ...]:
        return tuple(self._cuts.get((t, node_j), ()))

    def rows(self, t: int, node_j: int | None) -> CutRows:
        """The node's cuts as arrays; a later ``add`` leaves the returned ones as they are."""
        return self._rows.get((t, node_j), _NO_CUTS)

    def n_cuts(self) -> int:
        return sum(len(v) for v in self._cuts.values())

    def add(self, t: int, node_j: int | None, cut: Cut) -> None:
        bucket = self._cuts.setdefault((t, node_j), [])
        if bucket and bucket[0].gradient.shape != cut.gradient.shape:
            raise DimensionMismatchError(
                f"cut dimension {cut.gradient.shape[0]} does not match pool "
                f"({bucket[0].gradient.shape[0]}) at (t={t}, j={node_j})"
            )
        bucket.append(cut)
        rows = self._rows.get((t, node_j))
        if rows is None:
            rows = CutRows(np.zeros((0, cut.gradient.shape[0])), np.zeros(0))
        self._rows[(t, node_j)] = CutRows(
            np.vstack([rows.gradients, cut.gradient]), np.append(rows.offsets, cut.offset)
        )

    def value(self, t: int, node_j: int | None, x: np.ndarray) -> float:
        return lower_value(self.rows(t, node_j), x)

    def dump(self, stream: io.TextIOBase) -> None:
        """One cut per line: t, j, k, intercept, gradient components."""
        for (t, j), cuts in sorted(
            self._cuts.items(), key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1])
        ):
            for c in cuts:
                grad = ",".join(repr(float(g)) for g in c.gradient)
                label = "root" if j is None else str(j)
                stream.write(f"{t},{label},{c.iteration_k},{c.intercept!r},{grad}\n")


def lower_value(cuts: CutRows | Sequence[Cut], x: np.ndarray) -> float:
    """Pointwise maximum of the cuts at x (the sentinel box when empty)."""
    rows = CutRows.of(cuts)
    if not len(rows):
        return LOWER_BOX
    return float(np.max(rows.values(np.asarray(x, dtype=float).reshape(-1))))


def aggregate_backward(
    values: np.ndarray,
    duals: list[np.ndarray] | np.ndarray,
    weights: ConditionalWeights,
    anchor: np.ndarray,
    iteration_k: int = 0,
) -> Cut:
    """Weight the N node solves into one cut anchored at the visited state.

    gradient = sum_i w_i pi_i and intercept = sum_i w_i V_i, so the cut is
    the conditional expectation of the per-realization affine minorants.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    pi = np.atleast_2d(np.asarray(duals, dtype=float))
    w = weights.weights
    if v.shape[0] != w.shape[0] or pi.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"got {v.shape[0]} values and {pi.shape[0]} duals for {w.shape[0]} weights"
        )
    return Cut(
        gradient=pi.T @ w,
        intercept=float(v @ w),
        anchor=anchor,
        iteration_k=iteration_k,
    )


# ---------------------------------------------------------------------------
# Inner approximation
# ---------------------------------------------------------------------------


@dataclass
class _EnvelopeBucket:
    anchors: list[np.ndarray] = field(default_factory=list)
    values: list[float] = field(default_factory=list)


class EnvelopeStore:
    """Anchor/value points per (stage, node) plus per-stage penalty scales.

    The penalty M_t must dominate the stage value's Lipschitz constant for
    the envelope to stay an upper bound; by default it is ``PENALTY_SAFETY``
    times the largest cut-gradient infinity norm observed at the same stage
    (cuts are subgradients, so their norms estimate that constant), with
    an optional per-call override.
    """

    def __init__(self, penalty_override: float | None = None):
        self.penalty_override = penalty_override
        self._points: dict[NodeKey, _EnvelopeBucket] = {}
        self._grad_max: dict[int, float] = {}

    def points(self, t: int, node_j: int | None) -> tuple[np.ndarray, np.ndarray]:
        bucket = self._points.get((t, node_j))
        if bucket is None:
            return np.zeros((0, 0)), np.zeros(0)
        return np.array(bucket.anchors), np.array(bucket.values)

    def n_points(self) -> int:
        return sum(len(b.values) for b in self._points.values())

    def add(self, t: int, node_j: int | None, anchor: np.ndarray, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"envelope value at (t={t}, j={node_j}) must be finite")
        a = np.asarray(anchor, dtype=float).reshape(-1)
        bucket = self._points.setdefault((t, node_j), _EnvelopeBucket())
        if bucket.anchors and bucket.anchors[0].shape != a.shape:
            raise DimensionMismatchError(
                f"anchor dimension {a.shape[0]} does not match store "
                f"({bucket.anchors[0].shape[0]}) at (t={t}, j={node_j})"
            )
        bucket.anchors.append(a)
        bucket.values.append(float(value))

    def note_gradient(self, t: int, gradient: np.ndarray) -> None:
        """Record a stage-t cut gradient so penalty(t) tracks the Lipschitz scale."""
        norm = float(np.max(np.abs(np.asarray(gradient, dtype=float))))
        self._grad_max[t] = max(self._grad_max.get(t, 0.0), norm)

    def penalty(self, t: int) -> float:
        if self.penalty_override is not None:
            return float(self.penalty_override)
        return PENALTY_SAFETY * self._grad_max.get(t, 0.0)

    def value(self, t: int, node_j: int | None, x: np.ndarray) -> float:
        anchors, values = self.points(t, node_j)
        if values.size == 0:
            return math.inf
        return envelope_value(anchors, values, self.penalty(t), x)


def envelope_value(
    anchors: np.ndarray, values: np.ndarray, penalty_m: float, x: np.ndarray
) -> float:
    """Lower convex envelope of the stored points with L1 slack, evaluated at x.

    Solves  min sum_k theta_k V_k + M ||y||_1
            s.t. sum_k theta_k anchor_k + y = x, sum_k theta_k = 1, theta >= 0.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    values = np.asarray(values, dtype=float).reshape(-1)
    xv = np.asarray(x, dtype=float).reshape(-1)
    k, d = anchors.shape
    if k == 0:
        return math.inf
    if xv.shape[0] != d:
        raise DimensionMismatchError(
            f"query dimension {xv.shape[0]} does not match anchors ({d})"
        )
    # columns: theta (k), y+ (d), y- (d)
    n = k + 2 * d
    A = np.zeros((d + 1, n))
    A[:d, :k] = anchors.T
    A[:d, k : k + d] = np.eye(d)
    A[:d, k + d :] = -np.eye(d)
    A[d, :k] = 1.0
    b = np.concatenate([xv, [1.0]])
    c = np.concatenate([values, np.full(2 * d, float(penalty_m))])
    sol = solve(LinearProgram(objective=c, eq_matrix=A, eq_rhs=b))
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"envelope LP came back {sol.status.value}")
    return float(sol.objective_value)


# ---------------------------------------------------------------------------
# Blocks appended to stage LPs
# ---------------------------------------------------------------------------


def stack_cut_rows(
    node_cuts: Sequence[CutRows | Sequence[Cut]], x_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One epigraph row per cut, node after node, for an LP block.

    A node without cuts gets a flat sentinel cut at ``LOWER_BOX`` instead.
    Returns each row's node index, its coefficients on the stage decision
    (the negated cut gradient) and its right-hand side (the cut offset).
    """
    sentinel = CutRows(np.zeros((1, x_dim)), np.full(1, LOWER_BOX))
    per_node = [CutRows.of(cuts) for cuts in node_cuts]
    if any(len(rows) and rows.gradients.shape[1] != x_dim for rows in per_node):
        raise DimensionMismatchError(
            f"cut gradients do not have the stage decision's dimension {x_dim}"
        )
    per_node = [rows if len(rows) else sentinel for rows in per_node]
    node = np.repeat(np.arange(len(per_node)), [len(rows) for rows in per_node])
    # 0.0 - g rather than -g keeps zero coefficients +0.0.
    x_rows = 0.0 - np.concatenate([rows.gradients for rows in per_node])
    return node, x_rows, np.concatenate([rows.offsets for rows in per_node])


@dataclass
class WeightedLowerTerms:
    """Epigraph variables for several conditioning nodes at once.

    Adds one free variable ell_i with objective weight w_i per node and
    one row ell_i - surplus = cut(x) per cut; with no cuts for a node its
    ell sits on the sentinel box.  Policy evaluation uses this with the
    conditional weights; the ordinary single-node block is the weight-1
    special case.
    """

    node_cuts: list[tuple[float, CutRows | Sequence[Cut]]]

    def block(self, x_dim: int) -> LpBlock:
        # A free epigraph variable avoids mixing the huge sentinel into
        # every basic solution; the box enters as a row only while no cut
        # bounds ell from below.
        node, x_rows, rhs = stack_cut_rows([cuts for _, cuts in self.node_cuts], x_dim)
        n_nodes, n_rows = len(self.node_cuts), node.shape[0]
        # Node i's columns are ell_i and then one surplus per row of node i,
        # so row r of node i has its surplus at column r + i + 1.
        ell = np.searchsorted(node, np.arange(n_nodes)) + np.arange(n_nodes)
        r = np.arange(n_rows)
        rows = np.zeros((n_rows, x_dim + n_rows + n_nodes))
        rows[:, :x_dim] = x_rows
        rows[r, x_dim + ell[node]] = 1.0
        rows[r, x_dim + r + node + 1] = -1.0
        cost = np.zeros(n_rows + n_nodes)
        cost[ell] = [float(weight) for weight, _ in self.node_cuts]
        free = np.zeros(n_rows + n_nodes, dtype=bool)
        free[ell] = True
        return LpBlock(cost=cost, rows=rows, rhs=rhs, free=free)


def CutLowerTerms(cuts: CutRows | Sequence[Cut]) -> WeightedLowerTerms:
    """Single epigraph variable bounded below by every cut in the node's pool."""
    return WeightedLowerTerms(node_cuts=[(1.0, cuts)])


@dataclass
class EnvelopeUpperTerms:
    """Inner-approximation block: convex weights over stored anchors plus
    penalized L1 deviation, coupled to the stage decision columns."""

    anchors: np.ndarray
    values: np.ndarray
    penalty_m: float

    def block(self, x_dim: int) -> LpBlock:
        anchors = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        values = np.asarray(self.values, dtype=float).reshape(-1)
        if values.size == 0:
            return LpBlock(
                cost=np.ones(1),
                rows=np.zeros((0, x_dim + 1)),
                rhs=np.zeros(0),
                lower=np.full(1, UPPER_BOX),
            )
        k, d = anchors.shape
        if d != x_dim:
            raise DimensionMismatchError(
                f"envelope anchors have dimension {d}, stage decision has {x_dim}"
            )
        # Columns theta (k), y+ (d), y- (d); rows
        # sum_j theta_j anchor_j + y+ - y- - x = 0 and sum_j theta_j = 1.
        eye = np.eye(d)
        rows = np.block([
            [0.0 - eye, anchors.T, eye, 0.0 - eye],
            [np.zeros((1, d)), np.ones((1, k)), np.zeros((1, 2 * d))],
        ])
        rhs = np.concatenate([np.zeros(d), [1.0]])
        cost = np.concatenate([values, np.full(2 * d, float(self.penalty_m))])
        return LpBlock(cost=cost, rows=rows, rhs=rhs)
