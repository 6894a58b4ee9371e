"""Outer (cut) and inner (convex-envelope) cost-to-go approximations.

For every stage t and conditioning node j (a stage-(t-1) historical
realization, or the deterministic root) the toolkit maintains

* a growing pool of affine cuts whose pointwise maximum under-estimates
  the cost-to-go, and
* a growing set of (anchor, value) points whose lower convex envelope,
  softened by an L1 penalty M per unit of distance from the anchors' hull,
  over-estimates it.

Both are appended to stage LPs through the :class:`~sddpkit.stages.ExtraTerms`
interface.  The infinite initializations of the textbook recursion are
realized by large sentinel boxes (``LOWER_BOX``/``UPPER_BOX``); they stop
binding as soon as a first cut or point arrives.

Both keep each node's data as arrays that grow by one row per ``add``: a
pool holds a :class:`CutRows` (gradient matrix, offset vector), a store an
anchor matrix and a value vector.  Every ``add`` makes fresh arrays, so
arrays handed out earlier stay as they were.  Stage LP blocks and the
rollout's cut separation read the arrays, so evaluating every cut of a
node at a point is one matvec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernel import ConditionalWeights
from .scenarios import DimensionMismatchError
from .stages import ExtraTerms, LpBlock

__all__ = [
    "Cut",
    "CutPool",
    "CutRows",
    "EnvelopeStore",
    "NodeKey",
    "aggregate_backward",
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

    def __len__(self) -> int:
        return self.offsets.shape[0]

    def values(self, x: np.ndarray) -> np.ndarray:
        """Each cut's value at x."""
        return self.offsets + self.gradients @ x if len(self) else np.zeros(0)


_NO_CUTS = CutRows(np.zeros((0, 0)), np.zeros(0))


def _grow(
    matrix: np.ndarray, vector: np.ndarray, row: np.ndarray, value: float, what: str,
    key: NodeKey,
) -> tuple[np.ndarray, np.ndarray]:
    """A node's matrix and vector with one more row, as new arrays."""
    if not vector.size:
        matrix = np.zeros((0, row.shape[0]))
    elif matrix.shape[1] != row.shape[0]:
        raise DimensionMismatchError(
            f"{what} dimension {row.shape[0]} does not match the node's "
            f"({matrix.shape[1]}) at (t={key[0]}, j={key[1]})"
        )
    return np.vstack([matrix, row]), np.append(vector, value)


class CutPool:
    """Cuts per (stage, node); pools only grow, so the outer bound only tightens."""

    def __init__(self) -> None:
        self._rows: dict[NodeKey, CutRows] = {}

    def cuts(self, t: int, node_j: int | None) -> CutRows:
        """The node's cuts; a later ``add`` leaves the returned arrays as they are."""
        return self._rows.get((t, node_j), _NO_CUTS)

    def n_cuts(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def add(self, t: int, node_j: int | None, cut: Cut) -> None:
        rows = self.cuts(t, node_j)
        self._rows[(t, node_j)] = CutRows(
            *_grow(rows.gradients, rows.offsets, cut.gradient, cut.offset, "cut", (t, node_j))
        )


def aggregate_backward(
    values: np.ndarray,
    duals: list[np.ndarray] | np.ndarray,
    weights: ConditionalWeights,
    anchor: np.ndarray,
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
    return Cut(gradient=pi.T @ w, intercept=float(v @ w), anchor=anchor)


# ---------------------------------------------------------------------------
# Inner approximation
# ---------------------------------------------------------------------------


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
        self._points: dict[NodeKey, tuple[np.ndarray, np.ndarray]] = {}
        self._grad_max: dict[int, float] = {}

    def points(self, t: int, node_j: int | None) -> tuple[np.ndarray, np.ndarray]:
        """The node's anchor matrix and value vector; a later ``add`` leaves
        the returned arrays as they are."""
        return self._points.get((t, node_j), (np.zeros((0, 0)), np.zeros(0)))

    def n_points(self) -> int:
        return sum(values.shape[0] for _, values in self._points.values())

    def add(self, t: int, node_j: int | None, anchor: np.ndarray, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"envelope value at (t={t}, j={node_j}) must be finite")
        a = np.asarray(anchor, dtype=float).reshape(-1)
        self._points[(t, node_j)] = _grow(
            *self.points(t, node_j), a, float(value), "anchor", (t, node_j)
        )

    def note_gradient(self, t: int, gradient: np.ndarray) -> None:
        """Record a stage-t cut gradient so penalty(t) tracks the Lipschitz scale."""
        norm = float(np.max(np.abs(np.asarray(gradient, dtype=float))))
        self._grad_max[t] = max(self._grad_max.get(t, 0.0), norm)

    def penalty(self, t: int) -> float:
        if self.penalty_override is not None:
            return float(self.penalty_override)
        return PENALTY_SAFETY * self._grad_max.get(t, 0.0)


# ---------------------------------------------------------------------------
# Blocks appended to stage LPs
# ---------------------------------------------------------------------------


def stack_cut_rows(node_cuts: Sequence[CutRows]) -> tuple[np.ndarray, CutRows]:
    """Every node's cuts, node after node: each row's node index and the rows."""
    node = np.repeat(np.arange(len(node_cuts)), [len(rows) for rows in node_cuts])
    filled = [rows for rows in node_cuts if len(rows)]
    if not filled:
        return node, _NO_CUTS
    if len({rows.gradients.shape[1] for rows in filled}) > 1:
        raise DimensionMismatchError("cut pools have gradients of different dimensions")
    return node, CutRows(
        np.concatenate([rows.gradients for rows in filled]),
        np.concatenate([rows.offsets for rows in filled]),
    )


def cut_x_rows(cuts: CutRows, x_dim: int) -> np.ndarray:
    """The cuts' coefficients on the stage decision in their epigraph rows:
    the negated gradients."""
    if not len(cuts):
        return np.zeros((0, x_dim))
    if cuts.gradients.shape[1] != x_dim:
        raise DimensionMismatchError(
            f"cut gradients do not have the stage decision's dimension {x_dim}"
        )
    # 0.0 - g rather than -g keeps zero coefficients +0.0.
    return 0.0 - cuts.gradients


@dataclass
class WeightedLowerTerms(ExtraTerms):
    """Epigraph variables for several conditioning nodes at once.

    Adds one epigraph variable ell_i with objective weight ``weights[i]``
    per node and, for row k of ``cuts``, the row
    ell_{node[k]} - surplus_k = cut_k(x).  The columns are every ell first,
    then one surplus per row, with the rows in the order given, so a block
    that gains rows, of any node, grows only at its end.  An ell with a
    row is free; one whose node has no row is bounded below by
    ``LOWER_BOX`` instead, which keeps the sentinel out of the right-hand
    side.  Policy evaluation uses this with the conditional weights; the
    ordinary single-node block is the weight-1 special case.
    """

    weights: np.ndarray
    node: np.ndarray
    cuts: CutRows

    def shape(self, x_dim: int) -> tuple[int, int]:
        n_rows = len(self.cuts)
        return n_rows, self.weights.shape[0] + n_rows

    def write(self, x_dim: int, out: LpBlock) -> None:
        n_nodes, n_rows = self.weights.shape[0], len(self.cuts)
        out.rows[:, :x_dim] = cut_x_rows(self.cuts, x_dim)
        r = np.arange(n_rows)
        out.rows[r, x_dim + self.node] = 1.0
        out.rows[r, x_dim + n_nodes + r] = -1.0
        out.rhs[:] = self.cuts.offsets
        out.cost[:n_nodes] = self.weights
        out.free[self.node] = True
        out.lower[:n_nodes] = np.where(out.free[:n_nodes], 0.0, LOWER_BOX)


def CutLowerTerms(cuts: CutRows) -> WeightedLowerTerms:
    """Single epigraph variable bounded below by every cut in the node's pool."""
    return WeightedLowerTerms(np.ones(1), np.zeros(len(cuts), dtype=np.int64), cuts)


@dataclass
class EnvelopeUpperTerms(ExtraTerms):
    """Inner-approximation block: convex weights over stored anchors plus
    penalized L1 deviation, coupled to the stage decision columns.

    Columns y+ (d), y- (d), theta (k); rows
    y+ - y- + sum_j theta_j anchor_j - x = 0 and sum_j theta_j = 1.  A new
    point appends a column, so a stored basis keeps its columns.  With no
    point yet, the block is one column bounded below by ``UPPER_BOX``.
    """

    anchors: np.ndarray
    values: np.ndarray
    penalty_m: float

    def shape(self, x_dim: int) -> tuple[int, int]:
        k = self.values.shape[0]
        return (0, 1) if k == 0 else (x_dim + 1, 2 * x_dim + k)

    def write(self, x_dim: int, out: LpBlock) -> None:
        if self.values.shape[0] == 0:
            out.cost[0] = 1.0
            out.lower[0] = UPPER_BOX
            return
        d = self.anchors.shape[1]
        if d != x_dim:
            raise DimensionMismatchError(
                f"envelope anchors have dimension {d}, stage decision has {x_dim}"
            )
        i = np.arange(d)
        rows = out.rows
        rows[i, i] = -1.0
        rows[i, d + i] = 1.0
        rows[i, 2 * d + i] = -1.0
        rows[:d, 3 * d :] = self.anchors.T
        rows[d, 3 * d :] = 1.0
        out.rhs[d] = 1.0
        out.cost[: 2 * d] = float(self.penalty_m)
        out.cost[2 * d :] = self.values
