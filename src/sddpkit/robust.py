"""Distributionally robust layer over the conditional weights.

The ambiguity set around a nominal weight vector w_hat is the polyhedron

    { w >= 0,  e^T w = 1,
      sum_i |w_i - w_hat_i| / sqrt(w_hat_i) <= sqrt(N) * rho,
      max_i |w_i - w_hat_i| / sqrt(w_hat_i) <= rho },

a polyhedral outer approximation of a modified chi-square ball of radius
rho (after Philpott, de Matos & Kapelevich, "Distributionally robust
SDDP", 2018).

Training needs the worst-case expectation max { w^T z : w in the set } of
a value vector z, and ``worst_case`` solves it in closed form.  With
s_i = sqrt(w_hat_i) and delta_i = (w_i - w_hat_i) / s_i the set reads

    -min(rho, s_i) <= delta_i <= rho,  sum_i |delta_i| <= sqrt(N) rho,
    sum_i s_i delta_i = 0,

and dualizing the last row with a scalar gamma gives the value
w_hat^T z + min_gamma g(gamma), where g(gamma) is the maximum of
sum_i s_i (z_i - gamma) delta_i over the box and the 1-norm ball: a
fractional knapsack, solved by filling items by |s_i (z_i - gamma)|,
largest first, to their cap in the sign of z_i - gamma until the budget
sqrt(N) rho is spent.  g is convex and piecewise linear, and the greedy
order, hence delta, can only change where an item's sign or two items'
magnitudes change, i.e. at the kinks

    z_i,  (s_i z_i - s_j z_j) / (s_i - s_j),  (s_i z_i + s_j z_j) / (s_i + s_j).

Between two sorted kinks delta is constant and g has slope -s^T delta.
A binary search finds the first interval whose s^T delta is <= 0; its
left kink minimizes g.  The greedy deltas of the intervals on either
side of it are both optimal there, and the convex combination of the
two with s^T delta = 0 is a maximizer, w = w_hat + s delta.  Kinks
outside [min z, max z] are kept: they bound the interval just right of
a minimizer at max z, whose greedy order would otherwise be wrong.

The robust rollout cannot use the closed form: there the scenario values
are cut functions of the stage decision.  The set is therefore also
written down once as its LP dual

    min  gamma + rho * (beta + sum_i psi_i) + sum_i sqrt(w_hat_i) (mu_i - zeta_i)
    s.t. sqrt(w_hat_i) gamma + mu_i - zeta_i >= sqrt(w_hat_i) z_i
         mu_i + zeta_i = psi_i + beta / sqrt(N),   beta, mu, zeta, psi >= 0,

over one cut row per value z_i.  ``DroLowerTerms`` appends this block to
a stage LP with scenario i's cuts of the decision in place of z_i, so the
robust stage problem stays one LP.  A scenario with no cuts yet, whose
cost-to-go is still -inf, gets no cut row; the block is then unbounded
below exactly when sqrt(w_hat_i) > rho, for only then does every weight
vector of the set keep w_i > 0.  ``inner_max_primal`` solves the same
block with constant cuts z_i; it is the LP reference for ``worst_case``,
and the worst-case weights are the derivative of its value in z, i.e.
sqrt(w_hat_i) times the duals of the cut rows.

Each cut row is the textbook row  gamma + (mu_i - zeta_i)/sqrt(w_hat_i) >=
z_i  multiplied through by sqrt(w_hat_i).  Unscaled, a nominal weight
near the 1e-300 floor of ``sanitize_nominal`` puts coefficients near
1e150 into the LP, and the simplex breaks down or returns a wrong value
once a weight is below about 1e-30; scaled, every coefficient on mu,
zeta and the row's surplus is +-1 and the small weights only shrink
entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .approximations import CutRows, cut_x_rows, stack_cut_rows
from .kernel import ConditionalWeights
from .lp import LinearProgram, LpStatus, solve
from .scenarios import DimensionMismatchError
from .stages import ExtraTerms, LpBlock

__all__ = [
    "RhoRule",
    "AmbiguityParams",
    "DegenerateWeightError",
    "sanitize_nominal",
    "rate_scaled_rho",
    "inner_max_primal",
    "worst_case",
    "DroLowerTerms",
]


class DegenerateWeightError(ValueError):
    """Raised when a nominal weight is exactly zero (the set needs 1/sqrt(w))."""


class RhoRule(Enum):
    MANUAL = "Manual"
    RATE_SCALED = "RateScaled"


def rate_scaled_rho(c: float, n_samples: int, h: float, p: int) -> float:
    """Radius c / sqrt(N * h^p), shrinking with the effective sample size."""
    if c < 0:
        raise ValueError("coefficient must be nonnegative")
    return float(c / math.sqrt(n_samples * h**p))


# ``sanitize_nominal`` raises nominal weights below this to it.
NOMINAL_FLOOR = 1e-300


def sanitize_nominal(weights: ConditionalWeights | np.ndarray) -> ConditionalWeights:
    """Floor entries that underflowed to zero and renormalize.

    Kernel weights are positive in exact arithmetic but can underflow for
    far anchors; flooring keeps 1/sqrt(w_hat) defined without moving any
    weight at working precision.
    """
    w = weights.weights if isinstance(weights, ConditionalWeights) else np.asarray(weights, float)
    w = np.maximum(w, NOMINAL_FLOOR)
    return ConditionalWeights(w / w.sum())


@dataclass(frozen=True)
class AmbiguityParams:
    """Radius and nominal distribution of the ambiguity set."""

    rho: float
    nominal: ConditionalWeights
    rho_rule: RhoRule = RhoRule.MANUAL
    c_coefficient: float = 1.0

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")

    @classmethod
    def rate_scaled(
        cls,
        c: float,
        n_samples: int,
        h: float,
        p: int,
        nominal: ConditionalWeights,
    ) -> "AmbiguityParams":
        return cls(
            rho=rate_scaled_rho(c, n_samples, h, p),
            nominal=nominal,
            rho_rule=RhoRule.RATE_SCALED,
            c_coefficient=float(c),
        )


def _checked_nominal(params: AmbiguityParams) -> np.ndarray:
    w = params.nominal.weights
    if np.min(w) == 0.0:
        raise DegenerateWeightError(
            "nominal weights contain an exact zero; sanitize_nominal first"
        )
    return w


def _dual_block(
    params: AmbiguityParams, node: np.ndarray, x_rows: np.ndarray, rhs: np.ndarray
) -> LpBlock:
    """The dual block over cut rows, each given as its node index (sorted),
    its coefficients on the decision columns and its right-hand side.

    Columns: gamma, beta, mu (N), zeta (N), psi (N), then one surplus per
    cut row.  Rows: node i's coupling row, then its cut rows, so cut row r
    of node i lands at r + i + 1.  A node with no cut row keeps only its
    coupling row: zeta_i can then grow with psi_i at a net cost of
    rho - sqrt(w_hat_i) per unit, so the block is unbounded below exactly
    when sqrt(w_hat_i) > rho: then every weight vector in the set keeps
    w_i >= sqrt(w_hat_i) (sqrt(w_hat_i) - rho) > 0 on a cost-to-go of
    -inf.  A cut row of node i is scaled by sqrt(w_hat_i) except for its surplus,
    whose coefficient stays -1: with -sqrt(w_hat_i) there, a tiny weight
    would leave the row without a usable slack.
    """
    w_hat = _checked_nominal(params)
    n = w_hat.shape[0]
    s = np.sqrt(w_hat)
    rho = float(params.rho)
    x_dim = x_rows.shape[1]
    n_cut = node.shape[0]
    i = np.arange(n)
    r = np.arange(n_cut)
    couple = np.searchsorted(node, i) + i
    cut_at = r + node + 1
    scale = s[node]
    mu, zeta, psi, surplus = x_dim + 2, x_dim + 2 + n, x_dim + 2 + 2 * n, x_dim + 2 + 3 * n
    rows = np.zeros((n + n_cut, surplus + n_cut))
    rows[couple, mu + i] = 1.0
    rows[couple, zeta + i] = 1.0
    rows[couple, psi + i] = -1.0
    rows[couple, x_dim + 1] = -1.0 / math.sqrt(n)
    rows[cut_at, :x_dim] = x_rows * scale[:, None]
    rows[cut_at, x_dim] = scale
    rows[cut_at, mu + node] = 1.0
    rows[cut_at, zeta + node] = -1.0
    rows[cut_at, surplus + r] = -1.0
    block_rhs = np.zeros(n + n_cut)
    block_rhs[cut_at] = rhs * scale
    cost = np.concatenate([[1.0, rho], s, -s, np.full(n, rho), np.zeros(n_cut)])
    free = np.zeros(cost.shape[0], dtype=bool)
    free[0] = True
    return LpBlock(cost=cost, rows=rows, rhs=block_rhs, free=free)


# Rows of a batch are solved in chunks of at most this many kinks, so the
# kink matrix and its temporaries stay a few MB each at any N.
_CHUNK_KINKS = 1 << 20


def _greedy(c: np.ndarray, down: np.ndarray, rho: float, budget: float) -> np.ndarray:
    """Row-wise maximizer of sum_i c_i d_i over -down_i <= d_i <= rho and
    sum_i |d_i| <= budget: the fractional knapsack that fills items by
    |c_i|, largest first, to their cap in the sign of c_i."""
    rows = np.arange(c.shape[0])[:, None]
    order = np.argsort(-np.abs(c), axis=1, kind="stable")
    capped = np.where(c > 0.0, rho, down)[rows, order]
    before = np.zeros_like(capped)
    np.cumsum(capped[:, :-1], axis=1, out=before[:, 1:])
    filled = np.empty_like(c)
    filled[rows, order] = np.minimum(capped, np.maximum(budget - before, 0.0))
    return np.sign(c) * filled


def _worst_case_rows(z: np.ndarray, w_hat: np.ndarray, rho: float) -> np.ndarray:
    """The closed-form maximizing weights of each row of ``w_hat`` (see the
    module docstring); ``z`` is already mapped to [-1, 0]."""
    m, n = w_hat.shape
    s = np.sqrt(w_hat)
    down = np.minimum(rho, s)
    budget = math.sqrt(n) * rho
    i, j = np.triu_indices(n, 1)
    si, sj, dz = s[:, i], s[:, j], z[i] - z[j]
    # (s_i z_i -+ s_j z_j) / (s_i -+ s_j), written around z_i and z_j so
    # that tied values give exactly their common value; no crossing when
    # s_i = s_j.
    apart = np.divide(sj * dz, si - sj, out=np.zeros_like(si), where=si != sj)
    kinks = np.sort(
        np.concatenate([np.broadcast_to(z, (m, n)), z[i] + apart, z[j] + si * dz / (si + sj)], 1),
        axis=1,
    )
    rows = np.arange(m)
    last = kinks.shape[1]

    def greedy_on(interval: np.ndarray) -> np.ndarray:
        """The greedy deviation at a point of each row's interval: interval
        k lies between kinks k-1 and k, with the two ends unbounded."""
        left = kinks[rows, np.maximum(interval - 1, 0)]
        right = kinks[rows, np.minimum(interval, last - 1)]
        gamma = np.where(
            interval == 0, right - 1.0, np.where(interval == last, left + 1.0, 0.5 * (left + right))
        )
        return _greedy(s * (z - gamma[:, None]), down, rho, budget)

    # s.delta falls as gamma grows (g is convex): find the first interval
    # where it is <= 0, keeping s.delta > 0 at lo and <= 0 at hi.
    lo = np.zeros(m, dtype=int)
    hi = np.full(m, last)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        down_at_mid = (s * greedy_on(mid)).sum(axis=1) <= 0.0
        hi = np.where(down_at_mid, mid, hi)
        lo = np.where(down_at_mid, lo, mid)
    d_left, d_right = greedy_on(lo), greedy_on(hi)
    a, b = (s * d_left).sum(axis=1), (s * d_right).sum(axis=1)
    # Both deviations are optimal at the kink between them; mix them so
    # that sum_i s_i delta_i = 0.  a = b only when both are zero (rho = 0).
    theta = np.divide(b, b - a, out=np.zeros_like(a), where=a > b)[:, None]
    return np.maximum(w_hat + s * (theta * d_left + (1.0 - theta) * d_right), 0.0)


def worst_case(
    z: np.ndarray, nominal: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case expectations max { w^T z : w in the set of row m } for a
    batch of nominal rows sharing one value vector, in closed form.

    ``nominal`` is an (M, N) matrix of sanitized nominal rows.  Returns the
    M values and an (M, N) matrix of maximizing weights.  Each row's
    result does not depend on the other rows of the batch.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    w_hat = np.asarray(nominal, dtype=float)
    n = zv.shape[0]
    if w_hat.ndim != 2 or w_hat.shape[1] != n or w_hat.size == 0:
        raise DimensionMismatchError(
            f"nominal has shape {w_hat.shape}; expected (M, {n}) with M, N >= 1"
        )
    if not np.all(np.isfinite(zv)):
        raise ValueError("z must be finite")
    if not 0.0 <= rho < math.inf:
        raise ValueError("rho must be finite and nonnegative")
    if not np.all(np.isfinite(w_hat)) or np.any(w_hat < 0.0):
        raise ValueError("nominal weights must be finite and nonnegative")
    if np.any(w_hat == 0.0):
        raise DegenerateWeightError(
            "nominal weights contain an exact zero; sanitize_nominal first"
        )
    # As in inner_max_primal: the maximizers of z and of (z - max z) / spread
    # are the same, and the kinks of the mapped values stay finite.
    top = float(zv.max())
    scaled = (zv - top) / (top - float(zv.min()) or 1.0)
    step = max(1, _CHUNK_KINKS // (n * n))
    worst = np.vstack(
        [_worst_case_rows(scaled, w_hat[k : k + step], rho) for k in range(0, len(w_hat), step)]
    )
    return (worst * zv).sum(axis=1), worst


def inner_max_primal(
    z: np.ndarray, params: AmbiguityParams
) -> tuple[float, np.ndarray]:
    """Worst-case expectation max { w^T z : w in the ambiguity set }.

    Solves the dual block with one constant cut per scenario.  Returns the
    optimal value and one maximizing weight vector, the value's derivative
    in z: sqrt(w_hat_i) times the dual of scenario i's cut row.

    Since e^T w = 1, the maximizers of z and of (z - max z) / spread are
    the same, so the block is solved on values in [-1, 0].  Values that
    tie up to rounding (a spread of 1e-16) otherwise drive the simplex
    into a near-singular basis.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    w_hat = _checked_nominal(params)
    n = w_hat.shape[0]
    if zv.shape[0] != n:
        raise DimensionMismatchError(f"z has {zv.shape[0]} entries, nominal has {n}")
    if not np.all(np.isfinite(zv)):
        raise ValueError("z must be finite")
    top = float(zv.max())
    spread = top - float(zv.min()) or 1.0
    block = _dual_block(params, np.arange(n), np.zeros((n, 0)), (zv - top) / spread)
    sol = solve(
        LinearProgram(
            objective=block.cost,
            eq_matrix=block.rows,
            eq_rhs=block.rhs,
            free_mask=block.free,
        )
    )
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"inner maximization came back {sol.status.value}")
    # One cut row per scenario: scenario i's sits at row 2i + 1.
    worst = np.maximum(np.sqrt(w_hat) * sol.duals[1::2], 0.0)
    return top + spread * float(sol.objective_value), worst


@dataclass
class DroLowerTerms(ExtraTerms):
    """Single-level robust epigraph block for a stage LP.

    Adds the dual block over the cuts of every conditioning scenario i:
    each cut's row reads, after scaling by sqrt(w_hat_i),

        sqrt(w_hat_i) gamma + mu_i - zeta_i >= sqrt(w_hat_i) cut_i(x),

    substituting the scenario's epigraph value directly.  The objective
    gains gamma + rho*(beta + sum psi) + sum sqrt(w_hat)(mu - zeta), the
    worst-case expectation of the per-scenario cost-to-go.  A scenario
    with no cuts adds no cut row; its cost-to-go is -inf, so the LP is
    Unbounded when sqrt(w_hat_i) > rho (see ``_dual_block``).
    """

    params: AmbiguityParams
    node_cuts: list[CutRows]

    def shape(self, x_dim: int) -> tuple[int, int]:
        n = len(self.params.nominal)
        # One coupling row per scenario and one row per cut.
        n_cut = sum(len(rows) for rows in self.node_cuts)
        return n + n_cut, 2 + 3 * n + n_cut

    def write(self, x_dim: int, out: LpBlock) -> None:
        n = len(self.params.nominal)
        if len(self.node_cuts) != n:
            raise DimensionMismatchError(
                f"{len(self.node_cuts)} cut pools for {n} nominal weights"
            )
        node, cuts = stack_cut_rows(self.node_cuts)
        block = _dual_block(self.params, node, cut_x_rows(cuts, x_dim), cuts.offsets)
        out.cost[:] = block.cost
        out.rows[:] = block.rows
        out.rhs[:] = block.rhs
        out.free[:] = block.free
