"""Outer (cut) and inner (convex-envelope) cost-to-go approximations.

For every stage t and conditioning node j (a stage-(t-1) historical
realization, or the deterministic root) the toolkit maintains

* a growing pool of affine cuts whose pointwise maximum under-estimates
  the cost-to-go, and
* a growing set of (anchor, value) points whose lower convex envelope,
  softened by an L1 penalty M per unit of distance from the anchors' hull,
  over-estimates it.

Both are appended to stage LPs through the :class:`~sddpkit.stages.ExtraTerms`
interface.  An empty pool or store keeps the textbook recursion's infinite
initialization (Philpott, de Matos & Kapelevich, "Distributionally robust
SDDP", 2018): a block over an empty pool of positive weight leaves its
epigraph variable free and unconstrained, so the stage LP is Unbounded
(cost-to-go -inf), and an envelope block without points has no convex
weights to sum to one, so the stage LP is Infeasible (+inf).  Training
never solves such an LP: its first forward pass and first root solve
append no block at all, and every later stage LP reads pools and points
that the backward pass has already filled.

Every backward pass at stage t adds one cut and one envelope point to
every node of the stage, all at the same anchor, so both keep a stage's
data as arrays with one row per node: a pool the cut gradients (nodes, k,
d) and offsets (nodes, k), a store one anchor matrix (k, d) and the values
(nodes, k).  Stage 2's one node is the root, j = None; a later stage's
nodes are the stage-(t-1) realizations j = 0, 1, ....  Every ``add`` makes
fresh arrays, so the views of a node's rows that ``cuts`` and ``points``
hand out stay as they were.  Evaluating every cut of a node at a point is
one matvec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scenarios import DimensionMismatchError
from .stages import ExtraTerms, LpBlock

__all__ = [
    "CutPool",
    "CutRows",
    "EnvelopeStore",
    "aggregate_backward",
    "CutLowerTerms",
    "WeightedLowerTerms",
    "EnvelopeUpperTerms",
    "PENALTY_SAFETY",
]

# Default envelope penalty per unit of the largest cut gradient seen.
PENALTY_SAFETY = 10.0


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


def _node_row(t: int, node_j: int | None, n_nodes: int) -> int | None:
    """Row of node j in stage t's arrays, or None if the stage has no such node."""
    if t == 2:
        return 0 if node_j is None and n_nodes else None
    return node_j if node_j is not None and 0 <= node_j < n_nodes else None


def _append(
    stack: np.ndarray | None, entry: np.ndarray, axis: int, what: str, t: int
) -> np.ndarray:
    """``stack`` with ``entry`` as one more slice along ``axis``, as a new array."""
    entry = np.expand_dims(np.asarray(entry, dtype=float), axis)
    if stack is None:
        return entry.copy()
    if stack.shape[:axis] + stack.shape[axis + 1 :] != entry.shape[:axis] + entry.shape[axis + 1 :]:
        raise DimensionMismatchError(
            f"{what} of shape {entry.shape} does not fit stage t={t}'s {stack.shape}"
        )
    return np.concatenate([stack, entry], axis=axis)


class CutPool:
    """Cuts per stage and node; pools only grow, so the outer bound only tightens."""

    def __init__(self) -> None:
        self._stages: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def cuts(self, t: int, node_j: int | None) -> CutRows:
        """The node's cuts; a later ``add`` leaves the returned arrays as they are."""
        if t not in self._stages:
            return _NO_CUTS
        gradients, offsets = self._stages[t]
        row = _node_row(t, node_j, offsets.shape[0])
        return _NO_CUTS if row is None else CutRows(gradients[row], offsets[row])

    def n_cuts(self) -> int:
        return sum(offsets.size for _, offsets in self._stages.values())

    def add(self, t: int, new: CutRows) -> None:
        """One more cut for every node of stage t: row j of ``new`` is node j's."""
        gradients, offsets = self._stages.get(t, (None, None))
        self._stages[t] = (
            _append(gradients, new.gradients, 1, "cut gradients", t),
            _append(offsets, new.offsets, 1, "cut offsets", t),
        )


def aggregate_backward(
    anchor: np.ndarray,
    duals: list[np.ndarray] | np.ndarray,
    lower_weights: np.ndarray,
    lower_values: np.ndarray,
    upper_weights: np.ndarray,
    upper_values: np.ndarray,
) -> tuple[CutRows, np.ndarray]:
    """Weight a stage's N realization solves into one cut and one envelope
    value per conditioning node, all at the visited state ``anchor``.

    Row j of a weight matrix holds node j's weights over the realizations.
    Node j's cut has gradient sum_i w_ji pi_i and value sum_i w_ji V_i at
    the anchor, so it is the conditional expectation of the per-realization
    affine minorants; its offset is that value minus gradient . anchor.
    Node j's envelope value is sum_i u_ji U_i.
    """
    a = np.asarray(anchor, dtype=float).reshape(-1)
    pi = np.asarray(duals, dtype=float)
    W = np.asarray(lower_weights, dtype=float)
    U = np.asarray(upper_weights, dtype=float)
    n = len(lower_values)
    if pi.shape != (n, a.shape[0]) or W.shape[1:] != (n,) or U.shape != W.shape:
        raise DimensionMismatchError(
            f"duals {pi.shape}, weights {W.shape} and {U.shape} for {n} values "
            f"at an anchor of dimension {a.shape[0]}"
        )
    G = W @ pi
    return CutRows(G, W @ lower_values - G @ a), U @ upper_values


# ---------------------------------------------------------------------------
# Inner approximation
# ---------------------------------------------------------------------------


class EnvelopeStore:
    """Anchor/value points per stage and node plus per-stage penalty scales.

    The penalty M_t must dominate the stage value's Lipschitz constant for
    the envelope to stay an upper bound; by default it is ``PENALTY_SAFETY``
    times the largest cut-gradient infinity norm observed at the same stage
    (cuts are subgradients, so their norms estimate that constant), with
    an optional per-call override.
    """

    def __init__(self, penalty_override: float | None = None):
        self.penalty_override = penalty_override
        self._anchors: dict[int, np.ndarray] = {}
        self._values: dict[int, np.ndarray] = {}
        self._grad_max: dict[int, float] = {}

    def anchors(self, t: int) -> np.ndarray:
        """Stage t's anchor matrix, one row per ``add``."""
        return self._anchors.get(t, np.zeros((0, 0)))

    def points(self, t: int, node_j: int | None) -> tuple[np.ndarray, np.ndarray]:
        """The node's anchor matrix and value vector; a later ``add`` leaves
        the returned arrays as they are."""
        values = self._values.get(t, np.zeros((0, 0)))
        row = _node_row(t, node_j, values.shape[0])
        if row is None:
            return np.zeros((0, 0)), np.zeros(0)
        return self._anchors[t], values[row]

    def n_points(self) -> int:
        return sum(values.size for values in self._values.values())

    def add(self, t: int, anchor: np.ndarray, values: np.ndarray) -> None:
        """One more point at ``anchor`` for every node of stage t: ``values[j]``
        is node j's value there."""
        v = np.asarray(values, dtype=float).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"envelope values at stage t={t} must be finite")
        anchors = _append(self._anchors.get(t), np.reshape(anchor, -1), 0, "anchor", t)
        self._values[t] = _append(self._values.get(t), v, 1, "envelope values", t)
        self._anchors[t] = anchors

    def note_gradient(self, t: int, gradients: np.ndarray) -> None:
        """Record stage-t cut gradients so penalty(t) tracks the Lipschitz scale."""
        norm = float(np.max(np.abs(np.asarray(gradients, dtype=float))))
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

    Adds one free epigraph variable ell_i with objective weight
    ``weights[i]`` per node and, for row k of ``cuts``, the row
    ell_{node[k]} - surplus_k = cut_k(x).  The columns are every ell first,
    then one surplus per row, with the rows in the order given, so a block
    that gains rows, of any node, grows only at its end.  A node with no
    row leaves its ell unconstrained, so a positive weight on it makes the
    LP Unbounded.  Policy evaluation uses this with the conditional
    weights; the ordinary single-node block is the weight-1 special case.
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
        out.free[:n_nodes] = True


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
    point yet, the last row reads 0 = 1 and the LP is Infeasible.
    """

    anchors: np.ndarray
    values: np.ndarray
    penalty_m: float

    def shape(self, x_dim: int) -> tuple[int, int]:
        return x_dim + 1, 2 * x_dim + self.values.shape[0]

    def write(self, x_dim: int, out: LpBlock) -> None:
        d, k = x_dim, self.values.shape[0]
        if k and self.anchors.shape[1] != d:
            raise DimensionMismatchError(
                f"envelope anchors have dimension {self.anchors.shape[1]}, stage decision has {d}"
            )
        i = np.arange(d)
        rows = out.rows
        rows[i, i] = -1.0
        rows[i, d + i] = 1.0
        rows[i, 2 * d + i] = -1.0
        if k:
            rows[:d, 3 * d :] = self.anchors.T
        rows[d, 3 * d :] = 1.0
        out.rhs[d] = 1.0
        out.cost[: 2 * d] = float(self.penalty_m)
        out.cost[2 * d :] = self.values
