"""Distributionally robust layer over the conditional weights.

The ambiguity set around a nominal weight vector w_hat is the polyhedron

    { w >= 0,  e^T w = 1,
      sum_i |w_i - w_hat_i| / sqrt(w_hat_i) <= sqrt(N) * rho,
      max_i |w_i - w_hat_i| / sqrt(w_hat_i) <= rho },

a polyhedral outer approximation of a modified chi-square ball of radius
rho.  ``inner_max_primal`` solves the inner maximization directly and
returns the worst-case weights; ``dualize_inner`` solves its LP dual,
whose variable block (gamma, beta, mu, zeta, psi) is what
``DroLowerTerms`` appends to stage LPs so the robust stage problem
stays a single-level LP.

The dual objective uses radius coefficient rho throughout, matching the
set definition (primal and dual agree to solver tolerance; the tests
enforce that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .approximations import LOWER_BOX_DEFAULT, Cut, stack_cut_rows
from .kernel import ConditionalWeights
from .lp import LinearProgram, LpStatus, solve
from .scenarios import DimensionMismatchError
from .stages import LpBlock

__all__ = [
    "RhoRule",
    "AmbiguityParams",
    "DroDualVars",
    "DegenerateWeightError",
    "VrSandwichReport",
    "sanitize_nominal",
    "rate_scaled_rho",
    "inner_max_primal",
    "dualize_inner",
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


@dataclass
class DroDualVars:
    """Dual block of the inner maximization: gamma free, the rest nonnegative,
    with mu_i + zeta_i = psi_i + beta / sqrt(N) row by row."""

    gamma: float
    beta: float
    mu: np.ndarray
    zeta: np.ndarray
    psi: np.ndarray

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.zeta = np.asarray(self.zeta, dtype=float).reshape(-1)
        self.psi = np.asarray(self.psi, dtype=float).reshape(-1)
        n = self.mu.shape[0]
        if self.zeta.shape[0] != n or self.psi.shape[0] != n:
            raise DimensionMismatchError("mu, zeta, psi must share length")
        if self.beta < -1e-9 or min(self.mu.min(initial=0), self.zeta.min(initial=0), self.psi.min(initial=0)) < -1e-9:
            raise ValueError("dual variables must be nonnegative")
        resid = np.max(np.abs(self.mu + self.zeta - self.psi - self.beta / math.sqrt(n)))
        if resid > 1e-6:
            raise ValueError(f"dual coupling rows violated by {resid:.3g}")


def inner_max_primal(
    z: np.ndarray, params: AmbiguityParams
) -> tuple[float, np.ndarray]:
    """Worst-case expectation max { w^T z : w in the ambiguity set }.

    Returns the optimal value and one maximizing weight vector.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    w_hat = _checked_nominal(params)
    n = w_hat.shape[0]
    if zv.shape[0] != n:
        raise DimensionMismatchError(f"z has {zv.shape[0]} entries, nominal has {n}")
    if not np.all(np.isfinite(zv)):
        raise ValueError("z must be finite")
    s = np.sqrt(w_hat)
    rho = params.rho
    # columns: w (N), Delta (N, free), d (N, <= rho), u1 (N), u2 (N), slack (1)
    cols = 5 * n + 1
    rows = 3 * n + 2
    A = np.zeros((rows, cols))
    b = np.zeros(rows)
    A[0, :n] = 1.0
    b[0] = 1.0
    for i in range(n):
        A[1 + i, i] = 1.0
        A[1 + i, n + i] = -s[i]
        b[1 + i] = w_hat[i]
        A[1 + n + i, n + i] = 1.0  # Delta_i - d_i + u1_i = 0
        A[1 + n + i, 2 * n + i] = -1.0
        A[1 + n + i, 3 * n + i] = 1.0
        A[1 + 2 * n + i, n + i] = 1.0  # Delta_i + d_i - u2_i = 0
        A[1 + 2 * n + i, 2 * n + i] = 1.0
        A[1 + 2 * n + i, 4 * n + i] = -1.0
    A[-1, 2 * n : 3 * n] = 1.0
    A[-1, -1] = 1.0
    b[-1] = math.sqrt(n) * rho
    c = np.zeros(cols)
    c[:n] = -zv
    upper = np.full(cols, np.inf)
    upper[2 * n : 3 * n] = rho
    free = np.zeros(cols, dtype=bool)
    free[n : 2 * n] = True
    sol = solve(
        LinearProgram(
            objective=c, eq_matrix=A, eq_rhs=b, var_upper=upper, free_mask=free
        )
    )
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"inner maximization came back {sol.status.value}")
    worst = np.maximum(sol.primal[:n], 0.0)
    return -float(sol.objective_value), worst


def dualize_inner(
    z: np.ndarray, params: AmbiguityParams
) -> tuple[float, DroDualVars]:
    """Dual of the inner maximization; value matches the primal to 1e-8.

    min  gamma + rho * (beta + sum_i psi_i) + sum_i sqrt(w_hat_i) (mu_i - zeta_i)
    s.t. z_i <= gamma + (mu_i - zeta_i) / sqrt(w_hat_i)
         mu_i + zeta_i = psi_i + beta / sqrt(N),   beta, mu, zeta, psi >= 0.
    """
    zv = np.asarray(z, dtype=float).reshape(-1)
    w_hat = _checked_nominal(params)
    n = w_hat.shape[0]
    if zv.shape[0] != n:
        raise DimensionMismatchError(f"z has {zv.shape[0]} entries, nominal has {n}")
    s = np.sqrt(w_hat)
    rho = params.rho
    rootn = math.sqrt(n)
    # columns: gamma, beta, mu (N), zeta (N), psi (N), slack (N)
    cols = 2 + 4 * n
    A = np.zeros((2 * n, cols))
    b = np.zeros(2 * n)
    c = np.zeros(cols)
    c[0] = 1.0
    c[1] = rho
    g_mu, g_ze, g_ps, g_sl = 2, 2 + n, 2 + 2 * n, 2 + 3 * n
    for i in range(n):
        A[i, 0] = 1.0
        A[i, g_mu + i] = 1.0 / s[i]
        A[i, g_ze + i] = -1.0 / s[i]
        A[i, g_sl + i] = -1.0
        b[i] = zv[i]
        A[n + i, g_mu + i] = 1.0
        A[n + i, g_ze + i] = 1.0
        A[n + i, g_ps + i] = -1.0
        A[n + i, 1] = -1.0 / rootn
        c[g_mu + i] = s[i]
        c[g_ze + i] = -s[i]
        c[g_ps + i] = rho
    free = np.zeros(cols, dtype=bool)
    free[0] = True
    sol = solve(LinearProgram(objective=c, eq_matrix=A, eq_rhs=b, free_mask=free))
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"dual inner problem came back {sol.status.value}")
    x = sol.primal
    duals = DroDualVars(
        gamma=float(x[0]),
        beta=float(max(x[1], 0.0)),
        mu=np.maximum(x[g_mu : g_mu + n], 0.0),
        zeta=np.maximum(x[g_ze : g_ze + n], 0.0),
        psi=np.maximum(x[g_ps : g_ps + n], 0.0),
    )
    return float(sol.objective_value), duals


@dataclass
class DroLowerTerms:
    """Single-level robust epigraph block for a stage LP.

    Adds (gamma, beta, mu, zeta, psi) and, for every cut of every
    conditioning scenario i, the row

        gamma + (mu_i - zeta_i)/sqrt(w_hat_i) >= cut_i(x),

    substituting the scenario's epigraph value directly; a scenario with
    no cuts yet contributes the sentinel box instead.  The objective
    gains gamma + rho*(beta + sum psi) + sum sqrt(w_hat)(mu - zeta), the
    worst-case expectation of the per-scenario cost-to-go.
    """

    params: AmbiguityParams
    node_cuts: list[tuple[Cut, ...]]
    lower_box: float = LOWER_BOX_DEFAULT

    def block(self, x_dim: int) -> LpBlock:
        w_hat = _checked_nominal(self.params)
        n = w_hat.shape[0]
        if len(self.node_cuts) != n:
            raise DimensionMismatchError(
                f"{len(self.node_cuts)} cut pools for {n} nominal weights"
            )
        s = np.sqrt(w_hat)
        rho = float(self.params.rho)
        node, x_rows, cut_rhs = stack_cut_rows(self.node_cuts, x_dim, self.lower_box)
        n_cut = node.shape[0]
        # Columns: gamma, beta, mu (N), zeta (N), psi (N), then one surplus
        # per cut row.  Rows: scenario i's coupling row, then its cut rows,
        # so cut row r of scenario i lands at r + i + 1.
        i = np.arange(n)
        r = np.arange(n_cut)
        couple = np.searchsorted(node, i) + i
        cut_at = r + node + 1
        mu, zeta, psi, surplus = x_dim + 2, x_dim + 2 + n, x_dim + 2 + 2 * n, x_dim + 2 + 3 * n
        rows = np.zeros((n + n_cut, surplus + n_cut))
        rows[couple, mu + i] = 1.0
        rows[couple, zeta + i] = 1.0
        rows[couple, psi + i] = -1.0
        rows[couple, x_dim + 1] = -1.0 / math.sqrt(n)
        rows[cut_at, :x_dim] = x_rows
        rows[cut_at, x_dim] = 1.0
        rows[cut_at, mu + node] = (1.0 / s)[node]
        rows[cut_at, zeta + node] = (-1.0 / s)[node]
        rows[cut_at, surplus + r] = -1.0
        rhs = np.zeros(n + n_cut)
        rhs[cut_at] = cut_rhs
        cost = np.concatenate([[1.0, rho], s, -s, np.full(n, rho), np.zeros(n_cut)])
        free = np.zeros(cost.shape[0], dtype=bool)
        free[0] = True
        return LpBlock(cost=cost, rows=rows, rhs=rhs, free=free)


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
