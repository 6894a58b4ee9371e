"""Distributionally robust layer over the conditional weights.

The ambiguity set around a nominal weight vector w_hat is the polyhedron

    { w >= 0,  e^T w = 1,
      sum_i |w_i - w_hat_i| / sqrt(w_hat_i) <= sqrt(N) * rho,
      max_i |w_i - w_hat_i| / sqrt(w_hat_i) <= rho },

a polyhedral outer approximation of a modified chi-square ball of radius
rho.  The worst-case expectation max { w^T z : w in the set } is written
down once, as its LP dual

    min  gamma + rho * (beta + sum_i psi_i) + sum_i sqrt(w_hat_i) (mu_i - zeta_i)
    s.t. sqrt(w_hat_i) gamma + mu_i - zeta_i >= sqrt(w_hat_i) z_i
         mu_i + zeta_i = psi_i + beta / sqrt(N),   beta, mu, zeta, psi >= 0,

over one cut row per value z_i.  ``DroLowerTerms`` appends this block to
a stage LP with scenario i's cuts of the decision in place of z_i, so the
robust stage problem stays one LP.  ``inner_max_primal`` solves the same
block with constant cuts z_i; the worst-case weights are the derivative
of its value in z, i.e. sqrt(w_hat_i) times the duals of the cut rows.

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
from typing import Sequence

import numpy as np

from .approximations import Cut, CutRows, stack_cut_rows
from .kernel import ConditionalWeights
from .lp import LinearProgram, LpStatus, solve
from .scenarios import DimensionMismatchError
from .stages import LpBlock

__all__ = [
    "RhoRule",
    "AmbiguityParams",
    "DegenerateWeightError",
    "VrSandwichReport",
    "sanitize_nominal",
    "rate_scaled_rho",
    "inner_max_primal",
    "DroLowerTerms",
    "empirical_conditional_variance",
    "check_vr_sandwich",
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


def sanitize_nominal(
    weights: ConditionalWeights | np.ndarray, floor: float = 1e-300
) -> ConditionalWeights:
    """Floor entries that underflowed to zero and renormalize.

    Kernel weights are positive in exact arithmetic but can underflow for
    far anchors; flooring keeps 1/sqrt(w_hat) defined without moving any
    weight at working precision.
    """
    w = weights.weights if isinstance(weights, ConditionalWeights) else np.asarray(weights, float)
    w = np.maximum(w, floor)
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
    of node i lands at r + i + 1.  Every node needs at least one cut row.
    A cut row of node i is scaled by sqrt(w_hat_i) except for its surplus,
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
class DroLowerTerms:
    """Single-level robust epigraph block for a stage LP.

    Adds the dual block over the cuts of every conditioning scenario i:
    each cut's row reads, after scaling by sqrt(w_hat_i),

        sqrt(w_hat_i) gamma + mu_i - zeta_i >= sqrt(w_hat_i) cut_i(x),

    substituting the scenario's epigraph value directly; a scenario with
    no cuts yet contributes the sentinel box instead.  The objective
    gains gamma + rho*(beta + sum psi) + sum sqrt(w_hat)(mu - zeta), the
    worst-case expectation of the per-scenario cost-to-go.
    """

    params: AmbiguityParams
    node_cuts: list[CutRows | Sequence[Cut]]

    def block(self, x_dim: int) -> LpBlock:
        n = len(self.params.nominal)
        if len(self.node_cuts) != n:
            raise DimensionMismatchError(
                f"{len(self.node_cuts)} cut pools for {n} nominal weights"
            )
        return _dual_block(self.params, *stack_cut_rows(self.node_cuts, x_dim))


def empirical_conditional_variance(
    values: np.ndarray, weights: ConditionalWeights
) -> float:
    """Weighted variance sum w z^2 - (sum w z)^2, clamped at zero."""
    zv = np.asarray(values, dtype=float).reshape(-1)
    w = weights.weights
    if zv.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"{zv.shape[0]} values for {w.shape[0]} weights"
        )
    var = float(w @ (zv**2) - (w @ zv) ** 2)
    return max(var, 0.0)


@dataclass(frozen=True)
class VrSandwichReport:
    """Both sides of mean + rho*sqrt(var) <= robust value + rho^2 * u_bar."""

    lhs: float
    rhs: float
    nominal_mean: float
    std_term: float
    dro_value: float
    holds: bool


def check_vr_sandwich(
    z: np.ndarray, weights: ConditionalWeights, rho: float, u_bar: float
) -> VrSandwichReport:
    """Compare variance regularization against the robust value.

    Requires u_bar >= max(z).  For nonnegative z the inequality is exact:
    the variance direction is feasible for both norm rows by
    Cauchy-Schwarz, and whenever nonnegativity truncates it the slack
    rho^2 * u_bar already covers the shortfall.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    if u_bar < float(zv.max()) - 1e-12:
        raise ValueError("u_bar must bound the values from above")
    params = AmbiguityParams(rho=float(rho), nominal=weights)
    dro, _ = inner_max_primal(zv, params)
    mean = float(weights.weights @ zv)
    std = math.sqrt(empirical_conditional_variance(zv, weights))
    lhs = mean + rho * std
    rhs = dro + rho * rho * float(u_bar)
    return VrSandwichReport(
        lhs=lhs,
        rhs=rhs,
        nominal_mean=mean,
        std_term=rho * std,
        dro_value=dro,
        holds=lhs <= rhs + 1e-9 * (1.0 + abs(rhs)),
    )
