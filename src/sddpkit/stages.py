"""Stage subproblem assembly and the portfolio instance builder.

A stage subproblem at incoming state x_bar is

    min  c_t^T x_t + (appended approximation terms)
    s.t. A_t x_t = b_t - B_t x_bar
         x_t >= 0,

so the previous decision enters only through the right-hand side.  The
subgradient of the stage value with respect to x_bar is then -B_t^T y
on the structural rows' duals y (:func:`state_gradient`).  Cut pools,
envelope blocks and ambiguity blocks are appended through the
:class:`ExtraTerms` interface: each writes an :class:`LpBlock` of new
columns and rows straight into the LP's arrays, under ``[A_t | 0]``.

Column and row layout is fixed: decision columns first (0..d_t-1), extras
after; structural rows first, extras after.  Downstream code relies on
this ordering.  A block that grows between iterations grows only at its
end (a new cut row with its surplus column, a new envelope column), so a
basis stored by column index still names the same columns in the next
iteration's LP.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lp import LinearProgram
from .scenarios import DimensionMismatchError, StageDatum

__all__ = [
    "ExtraTerms",
    "LpBlock",
    "InstanceTemplate",
    "InvalidUtilityError",
    "StageInfeasibleError",
    "assemble_stage_lp",
    "state_gradient",
    "exponential_utility_segments",
    "build_portfolio_instance",
]


class InvalidUtilityError(ValueError):
    """Raised when piecewise-linear utility slopes are not concave nondecreasing."""


class StageInfeasibleError(RuntimeError):
    """An in-sample stage subproblem came back infeasible.

    The model promises relatively complete recourse on observed data, so
    this is a modeling error, not a recoverable condition.
    """


@dataclass(frozen=True)
class LpBlock:
    """Columns and rows that an extra term appends to a stage LP.

    ``rows`` has one column per stage decision followed by one per
    appended column, and ``rhs`` one entry per row.  ``cost`` and ``free``
    describe the appended columns, each nonnegative unless free.
    """

    cost: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    free: np.ndarray


class ExtraTerms(ABC):
    """Anything appendable to a stage LP (cuts, envelopes, ambiguity blocks).

    ``shape`` gives the numbers of rows and columns the terms append, and
    ``write`` fills a block of that shape in place: its arrays start at
    zero (``free`` all False) and are views of the stage LP's own arrays,
    so :func:`assemble_stage_lp` builds each LP array once.
    """

    @abstractmethod
    def shape(self, x_dim: int) -> tuple[int, int]:
        """The numbers of appended rows and columns."""

    @abstractmethod
    def write(self, x_dim: int, out: LpBlock) -> None:
        """Fill ``out``, a zero block of this shape."""


def assemble_stage_lp(
    datum: StageDatum,
    incoming_state: np.ndarray,
    extra_terms: ExtraTerms | None = None,
) -> LinearProgram:
    """Build the stage LP with ``incoming_state`` substituted into the rhs."""
    xbar = np.asarray(incoming_state, dtype=float).reshape(-1)
    if xbar.shape[0] != datum.dim_in:
        raise DimensionMismatchError(
            f"incoming state has {xbar.shape[0]} entries, expected {datum.dim_in}"
        )
    m, d = datum.A.shape
    n_rows, n_cols = (0, 0) if extra_terms is None else extra_terms.shape(d)
    A = np.zeros((m + n_rows, d + n_cols))
    c = np.zeros(d + n_cols)
    b = np.zeros(m + n_rows)
    free = np.zeros(d + n_cols, dtype=bool)
    A[:m, :d] = datum.A
    c[:d] = datum.c
    np.subtract(datum.b, datum.B @ xbar, out=b[:m])
    if extra_terms is not None:
        extra_terms.write(d, LpBlock(cost=c[d:], rows=A[m:], rhs=b[m:], free=free[d:]))
    return LinearProgram(objective=c, eq_matrix=A, eq_rhs=b, free_mask=free)


def state_gradient(datum: StageDatum, duals: np.ndarray) -> np.ndarray:
    """Subgradient of the stage value in the incoming state: -B^T y.

    ``duals`` are the row duals of an LP from :func:`assemble_stage_lp`;
    its structural rows come first, so y is their leading block.
    """
    return -datum.B.T @ duals[: datum.n_rows]


# ---------------------------------------------------------------------------
# Portfolio instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceTemplate:
    """Everything needed to instantiate stage problems from covariates.

    ``datum_builder(t, feature)`` produces the stage-t data; t=1 is the
    deterministic first stage.  ``initial_state`` is the pre-horizon
    decision the first stage's B matrix multiplies.  A template backed
    entirely by recorded trajectory data (the solver never synthesizes
    stage data itself) may leave the builder as None.
    """

    horizon_T: int
    initial_state: np.ndarray
    datum_builder: Callable[[int, np.ndarray], StageDatum] | None = None


def exponential_utility_segments(
    n_segments: int = 5, w_max: float = 3.0
) -> tuple[tuple[float, float], ...]:
    """Chord segments (slope, intercept) of u(w) = 1 - exp(-w) on [0, w_max].

    The pointwise minimum of the returned affine pieces interpolates the
    utility at the n_segments + 1 equispaced breakpoints.
    """
    if n_segments < 1:
        raise InvalidUtilityError("need at least one utility segment")
    w = np.linspace(0.0, w_max, n_segments + 1)
    u = 1.0 - np.exp(-w)
    slopes = np.diff(u) / np.diff(w)
    intercepts = u[:-1] - slopes * w[:-1]
    return tuple((float(a), float(d)) for a, d in zip(slopes, intercepts))


def _validate_utility(
    utility_slopes: Sequence[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(utility_slopes, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise InvalidUtilityError("utility_slopes must be a list of (slope, intercept)")
    slopes, intercepts = arr[:, 0], arr[:, 1]
    if np.any(slopes < 0):
        raise InvalidUtilityError("utility slopes must be nonnegative (nondecreasing u)")
    if np.any(np.diff(slopes) > 1e-12):
        raise InvalidUtilityError("utility slopes must be nonincreasing (concave u)")
    return slopes, intercepts


def build_portfolio_instance(
    K: int,
    T: int,
    fees: tuple[float, float] = (0.0, 0.0),
    r_f: float = 1.0,
    utility_slopes: Sequence[tuple[float, float]] | None = None,
) -> InstanceTemplate:
    """Portfolio rebalancing over K assets plus cash, terminal utility objective.

    Decision vector per trading stage: positions x in R_+^{K+1} (assets
    then cash), buys and sells in R_+^K.  Asset balance rows are
    x_i - buy_i + sell_i = xi_i * prev_i; the cash row charges
    (1 + f_b) per unit bought and credits (1 - f_s) per unit sold, with
    cash compounding at the constant r_f.  The terminal stage converts
    positions one last time and maximizes a concave piecewise-linear
    utility of total wealth via epigraph rows.

    The covariate is the K-vector of gross asset returns; r_f is a
    template constant, not part of the covariate.  The returns enter a
    stage only through B, so A, b and c are built once per template and
    every datum shares them; those shared blocks are read-only, and each
    datum gets its own B.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if T < 2:
        raise ValueError("T must be at least 2")
    f_b, f_s = float(fees[0]), float(fees[1])
    if f_b < 0 or f_s < 0:
        raise ValueError("fees must be nonnegative")
    if utility_slopes is None:
        utility_slopes = exponential_utility_segments()
    slopes, intercepts = _validate_utility(utility_slopes)
    S = slopes.shape[0]
    n_state = K + 1
    d_trade = n_state + 2 * K
    assets = np.arange(K)

    A_trade = np.zeros((n_state, d_trade))
    A_trade[:, :n_state] = np.eye(n_state)
    A_trade[assets, n_state + assets] = -1.0  # buy
    A_trade[assets, n_state + K + assets] = 1.0  # sell
    A_trade[K, n_state : n_state + K] = 1.0 + f_b
    A_trade[K, n_state + K :] = -(1.0 - f_s)
    # Terminal stage: positions, then the epigraph value split as
    # v_pos - v_neg (utility values are nonnegative so the epigraph
    # variable itself is not), then one surplus column per utility segment.
    v_pos, v_neg = n_state, n_state + 1
    segments = n_state + np.arange(S)
    A_T = np.zeros((n_state + S, n_state + 2 + S))
    A_T[:n_state, :n_state] = np.eye(n_state)
    A_T[n_state:, :n_state] = slopes[:, None]
    A_T[n_state:, v_pos] = 1.0
    A_T[n_state:, v_neg] = -1.0
    A_T[segments, 2 + segments] = -1.0
    b_T = np.zeros(n_state + S)
    b_T[n_state:] = -intercepts
    c_T = np.zeros(n_state + 2 + S)
    c_T[v_pos], c_T[v_neg] = 1.0, -1.0
    c_trade, b_trade = np.zeros(d_trade), np.zeros(n_state)
    for block in (A_trade, c_trade, b_trade, A_T, b_T, c_T):
        block.flags.writeable = False

    def coupling(returns: np.ndarray, n_rows: int) -> np.ndarray:
        """B of a stage after the first: -xi_i on asset row i, -r_f on the cash row."""
        B = np.zeros((n_rows, d_trade))
        B[assets, assets] = -returns
        B[K, K] = -r_f
        return B

    def datum_builder(t: int, feature: np.ndarray) -> StageDatum:
        returns = np.asarray(feature, dtype=float).reshape(-1)
        if returns.shape[0] != K:
            raise DimensionMismatchError(
                f"stage t={t}: covariate has {returns.shape[0]} entries, expected K={K}"
            )
        if t == 1:
            B = np.zeros((n_state, 1))
            B[K, 0] = -1.0  # initial wealth arrives as cash
            return StageDatum(c_trade, A_trade, B, b_trade, np.ones(K))
        if t < T:
            return StageDatum(c_trade, A_trade, coupling(returns, n_state), b_trade, returns.copy())
        return StageDatum(c_T, A_T, coupling(returns, n_state + S), b_T, returns.copy())

    return InstanceTemplate(
        horizon_T=T,
        initial_state=np.array([1.0]),
        datum_builder=datum_builder,
    )
