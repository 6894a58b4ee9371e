"""Dense linear programming core.

Solves equality-form LPs

    min  c^T x
    s.t. A x = b,   l <= x <= u,

with a two-phase revised simplex method using Bland's rule, so the pivot
sequence (and hence the reported basis and duals) is a deterministic
function of the input data.  All subproblems built elsewhere in the
package (stage LPs, envelope LPs, ambiguity-set inner problems) are
funneled through :func:`solve`.

A small-scale vertex enumerator, :func:`enumerate_vertices`, is provided
as an independent cross-check: it enumerates basic feasible solutions of
the same internal standard form by brute force over column subsets.

Conventions
-----------
* Variables default to lower bound 0 and upper bound +inf.  Free
  variables are flagged via ``free_mask`` and handled by splitting into
  positive and negative parts internally.
* Row duals follow the sensitivity convention for minimization: the dual
  of an equality row is the derivative of the optimal value with respect
  to that row's right-hand side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "LpStatus",
    "SolverOptions",
    "LinearProgram",
    "LpSolution",
    "LpInputError",
    "LpScaleError",
    "solve",
    "enumerate_vertices",
]


class LpInputError(ValueError):
    """Raised when LP data is malformed (shape mismatch, NaN, crossed bounds)."""


class LpScaleError(ValueError):
    """Raised when a problem is too large for the brute-force vertex enumerator."""


class LpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class SolverOptions:
    """Numerical tolerances for the simplex method.

    Attributes
    ----------
    feas_tol : float
        Feasibility tolerance, used to declare phase one successful and to
        accept slightly negative basic values as zero.
    opt_tol : float
        Dual feasibility (reduced cost) tolerance for optimality.
    pivot_tol : float
        Magnitude below which a candidate pivot element is treated as zero,
        relative to the largest magnitude in its tableau column.
    max_pivots : int
        Hard cap on total pivots across both phases; exceeding it raises
        ``RuntimeError`` since Bland's rule precludes cycling and hitting
        the cap indicates numerical trouble.
    refactor_every : int
        Rebuild the basis inverse from scratch after this many updates.
    """

    feas_tol: float = 1e-9
    opt_tol: float = 1e-9
    pivot_tol: float = 1e-9
    max_pivots: int = 50_000
    refactor_every: int = 32


@dataclass
class LinearProgram:
    """Equality-constrained LP data.

    Attributes
    ----------
    objective : (n,) array
        Cost vector c.
    eq_matrix : (m, n) array
        Constraint matrix A.
    eq_rhs : (m,) array
        Right-hand side b.
    var_lower, var_upper : (n,) arrays or None
        Elementwise bounds; None means 0 and +inf respectively.
    free_mask : (n,) bool array or None
        True entries mark free variables (bounds ignored for those).
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    var_lower: np.ndarray | None = None
    var_upper: np.ndarray | None = None
    free_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float).reshape(-1)
        self.eq_matrix = np.asarray(self.eq_matrix, dtype=float)
        if self.eq_matrix.ndim != 2:
            raise LpInputError("eq_matrix must be two-dimensional")
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float).reshape(-1)
        m, n = self.eq_matrix.shape
        if self.objective.shape[0] != n:
            raise LpInputError(
                f"objective has {self.objective.shape[0]} entries, matrix has {n} columns"
            )
        if self.eq_rhs.shape[0] != m:
            raise LpInputError(
                f"eq_rhs has {self.eq_rhs.shape[0]} entries, matrix has {m} rows"
            )
        if self.var_lower is None:
            self.var_lower = np.zeros(n)
        else:
            self.var_lower = np.asarray(self.var_lower, dtype=float).reshape(-1)
            if self.var_lower.shape[0] != n:
                raise LpInputError("var_lower length mismatch")
        if self.var_upper is None:
            self.var_upper = np.full(n, np.inf)
        else:
            self.var_upper = np.asarray(self.var_upper, dtype=float).reshape(-1)
            if self.var_upper.shape[0] != n:
                raise LpInputError("var_upper length mismatch")
        if self.free_mask is None:
            self.free_mask = np.zeros(n, dtype=bool)
        else:
            self.free_mask = np.asarray(self.free_mask, dtype=bool).reshape(-1)
            if self.free_mask.shape[0] != n:
                raise LpInputError("free_mask length mismatch")
        for name, arr in (
            ("objective", self.objective),
            ("eq_matrix", self.eq_matrix),
            ("eq_rhs", self.eq_rhs),
            ("var_lower", self.var_lower),
        ):
            if not np.all(np.isfinite(arr)):
                raise LpInputError(f"{name} contains non-finite entries")
        if np.any(np.isnan(self.var_upper)):
            raise LpInputError("var_upper contains NaN")
        bounded = ~self.free_mask
        if np.any(self.var_lower[bounded] > self.var_upper[bounded] + 1e-12):
            raise LpInputError("var_lower exceeds var_upper")

    @property
    def n_vars(self) -> int:
        return self.eq_matrix.shape[1]

    @property
    def n_rows(self) -> int:
        return self.eq_matrix.shape[0]


@dataclass
class LpSolution:
    """Result of an LP solve.

    ``primal``, ``duals`` and ``objective_value`` are None unless the
    status is Optimal.
    """

    status: LpStatus
    primal: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective_value: float | None = None


# ---------------------------------------------------------------------------
# Standard-form conversion
# ---------------------------------------------------------------------------


class _StandardForm:
    """Internal representation  min c^T z : A z = b, z >= 0.

    Columns 0..n-1 map to the original variables (shifted by their lower
    bound); free variables contribute an extra negative-part column; each
    finite upper bound contributes one slack column and one extra row.
    """

    __slots__ = ("A", "b", "c", "const", "n_orig", "m_orig", "neg_col", "lower")

    def __init__(self, lp: LinearProgram) -> None:
        m, n = lp.eq_matrix.shape
        lower = np.where(lp.free_mask, 0.0, lp.var_lower)
        upper = np.where(lp.free_mask, np.inf, lp.var_upper)

        # Shift x = z + l so bounded variables satisfy z >= 0.
        b_shift = lp.eq_rhs - lp.eq_matrix @ lower
        const = float(lp.objective @ lower)

        neg_col = np.full(n, -1, dtype=np.int64)
        extra = int(np.count_nonzero(lp.free_mask))
        ub_idx = np.nonzero(np.isfinite(upper))[0]
        n_std = n + extra + len(ub_idx)
        m_std = m + len(ub_idx)

        A = np.zeros((m_std, n_std))
        c = np.zeros(n_std)
        b = np.zeros(m_std)
        A[:m, :n] = lp.eq_matrix
        b[:m] = b_shift
        c[:n] = lp.objective

        col = n
        for j in np.nonzero(lp.free_mask)[0]:
            A[:m, col] = -lp.eq_matrix[:, j]
            c[col] = -lp.objective[j]
            neg_col[j] = col
            col += 1
        for k, j in enumerate(ub_idx):
            row = m + k
            A[row, j] = 1.0
            if neg_col[j] >= 0:
                A[row, neg_col[j]] = -1.0
            A[row, col] = 1.0
            b[row] = upper[j] - lower[j]
            col += 1

        self.A = A
        self.b = b
        self.c = c
        self.const = const
        self.n_orig = n
        self.m_orig = m
        self.neg_col = neg_col
        self.lower = lower

    def recover_primal(self, z: np.ndarray) -> np.ndarray:
        x = z[: self.n_orig].copy()
        has_neg = self.neg_col >= 0
        x[has_neg] -= z[self.neg_col[has_neg]]
        return x + self.lower


# ---------------------------------------------------------------------------
# Revised simplex
# ---------------------------------------------------------------------------


class _Simplex:
    """Two-phase revised simplex on standard-form data with Bland's rule."""

    def __init__(self, A: np.ndarray, b: np.ndarray, c: np.ndarray, opts: SolverOptions):
        self.m, self.n = A.shape
        self.opts = opts
        self.sign = np.where(b < 0, -1.0, 1.0)
        # Artificial columns are sign(b_i) * e_i so the artificial start is
        # feasible without flipping rows (keeps duals in the original row frame).
        self.A = np.hstack([A, np.diag(self.sign)])
        self.b = b
        self.c_true = np.concatenate([c, np.zeros(self.m)])
        self.art0 = self.n
        self.basis = np.arange(self.n, self.n + self.m)
        self.Binv = np.diag(self.sign)
        self.pivots = 0
        self.since_refactor = 0

    def _refactor(self) -> None:
        B = self.A[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            # Propagating garbage from a pseudo-inverse would corrupt every
            # verdict downstream; fail loudly instead.
            raise RuntimeError("simplex basis became singular; data is ill-conditioned")
        self.since_refactor = 0

    def _xb(self) -> np.ndarray:
        return self.Binv @ self.b

    def _pivot(self, q: int, r: int, d: np.ndarray) -> None:
        self.basis[r] = q
        piv = d[r]
        self.pivots += 1
        if abs(piv) < 1e-7:
            # A pivot element this small amplifies noise through the
            # product-form update; rebuild the inverse from the new basis.
            self._refactor()
            return
        row = self.Binv[r] / piv
        coef = d.copy()
        coef[r] = 0.0
        self.Binv -= np.outer(coef, row)
        self.Binv[r] = row
        self.since_refactor += 1
        if self.since_refactor >= self.opts.refactor_every:
            self._refactor()

    def _iterate(self, cost: np.ndarray, allowed: np.ndarray) -> str:
        """Run Bland-rule pivots to optimality for the given cost vector.

        Returns "optimal" or "unbounded".
        """
        tol = self.opts.opt_tol
        while True:
            if self.pivots > self.opts.max_pivots:
                raise RuntimeError("simplex pivot limit exceeded; data is ill-conditioned")
            y = cost[self.basis] @ self.Binv
            rc = cost - y @ self.A
            # Basic columns price out at zero in exact arithmetic.  Drift in
            # the product-form inverse can leave one below -tol; Bland's rule
            # would enter it, the ratio test would pick its own row, and the
            # basis would never change.
            rc[self.basis] = 0.0
            cand = np.nonzero((rc < -tol) & allowed)[0]
            if cand.size == 0:
                if self.since_refactor:
                    # Exit verdicts are only trusted from a freshly inverted
                    # basis; product-form updates drift on degenerate pivots.
                    self._refactor()
                    continue
                return "optimal"
            q = int(cand[0])
            d = self.Binv @ self.A[:, q]
            # Eligibility is relative to the column scale: when the inverse
            # degrades, absolute thresholds admit noise next to huge entries.
            d_eps = self.opts.pivot_tol * max(1.0, float(np.abs(d).max(initial=0.0)))
            pos = d > d_eps
            if not np.any(pos):
                if self.since_refactor:
                    self._refactor()
                    continue
                return "unbounded"
            xb = np.maximum(self._xb(), 0.0)
            ratios = np.full(self.m, np.inf)
            ratios[pos] = xb[pos] / d[pos]
            rmin = ratios.min()
            ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + rmin))[0]
            # Bland: among ties, leave the row whose basic column index is smallest.
            r = int(ties[np.argmin(self.basis[ties])])
            self._pivot(q, int(r), d)

    def run(self) -> tuple[str, np.ndarray | None, np.ndarray | None]:
        """Solve; returns (status, z, duals) with z in standard-form coordinates."""
        opts = self.opts
        if self.m == 0:
            if np.any(self.c_true < -opts.opt_tol):
                return "unbounded", None, None
            return "optimal", np.zeros(self.n), np.zeros(0)

        allowed = np.ones(self.n + self.m, dtype=bool)
        phase1_cost = np.concatenate([np.zeros(self.n), np.ones(self.m)])
        status = self._iterate(phase1_cost, allowed)
        # Phase one is bounded below by zero, so "unbounded" cannot occur here.
        xb = self._xb()
        art_mask = self.basis >= self.art0
        resid = float(np.sum(np.maximum(xb[art_mask], 0.0))) if np.any(art_mask) else 0.0
        scale = max(1.0, float(np.abs(self.b).max(initial=0.0)))
        if resid > opts.feas_tol * scale:
            return "infeasible", None, None

        # Drive remaining artificials out of the basis where possible; a row
        # that admits no structural pivot is redundant and its artificial
        # stays basic at zero with cost zero.  Columns already basic must be
        # skipped: their tableau entries are numerical noise, and entering
        # one twice would make the basis exactly singular.
        if np.any(art_mask):
            in_basis = np.zeros(self.n, dtype=bool)
            in_basis[self.basis[self.basis < self.n]] = True
            for r in np.nonzero(art_mask)[0]:
                row = self.Binv[r] @ self.A[:, : self.n]
                row_eps = opts.pivot_tol * max(1.0, float(np.abs(row).max(initial=0.0)))
                entry = np.nonzero((np.abs(row) > row_eps) & ~in_basis)[0]
                if entry.size:
                    q = int(entry[0])
                    d = self.Binv @ self.A[:, q]
                    self._pivot(q, int(r), d)
                    in_basis[q] = True

        allowed[self.art0 :] = False
        status = self._iterate(self.c_true, allowed)
        if status == "unbounded":
            return "unbounded", None, None
        xb = self._xb()
        if float(xb.min(initial=0.0)) < -1e-6 * scale:
            # A drifted intermediate pivot pushed a basic variable negative;
            # the vertex fails primal feasibility, so the verdict is void.
            raise RuntimeError("simplex lost primal feasibility; data is ill-conditioned")
        z_full = np.zeros(self.n + self.m)
        z_full[self.basis] = np.maximum(xb, 0.0)
        y = self.c_true[self.basis] @ self.Binv
        return "optimal", z_full[: self.n], y


def solve(lp: LinearProgram, options: SolverOptions | None = None) -> LpSolution:
    """Solve an equality-form LP with the revised simplex method.

    Returns an :class:`LpSolution`; on Optimal status the primal point, the
    equality-row duals and the objective value are filled in.  Identical
    inputs produce identical outputs because pivoting follows Bland's rule
    with fixed tie-breaking.
    """
    opts = options or SolverOptions()
    sf = _StandardForm(lp)
    sim = _Simplex(sf.A, sf.b, sf.c, opts)
    paranoid = replace(
        opts, refactor_every=1, max_pivots=max(opts.max_pivots, 200_000)
    )
    try:
        status, z, y = sim.run()
        if status == "infeasible" and opts.refactor_every > 1:
            # Degenerate data can leave phase one stuck a hair above the
            # feasibility gate; only exact pivoting can confirm the verdict.
            sim = _Simplex(sf.A, sf.b, sf.c, paranoid)
            status, z, y = sim.run()
    except RuntimeError:
        # Massively degenerate inputs (pools of near-parallel cuts) can
        # defeat the product-form updates or stall Bland's rule on a
        # plateau.  Retry once on a deterministically jittered rhs with the
        # inverse recomputed every pivot: the jitter removes degeneracy, and
        # because reduced costs never depend on b, the optimal basis carries
        # back to the true rhs, which only needs a feasibility recheck.
        rng = np.random.default_rng(1729)
        scale = max(1.0, float(np.abs(sf.b).max(initial=0.0)))
        jitter = scale * 1e-9 * (1.0 + rng.random(sf.b.shape[0]))
        sim = _Simplex(sf.A, sf.b + jitter, sf.c, paranoid)
        status, z, y = sim.run()
        if status == "infeasible":
            # Jitter can push a feasible-but-degenerate system infeasible,
            # so no trustworthy verdict is left to report.
            raise RuntimeError("simplex failed on degenerate data") from None
        if status == "optimal":
            xb = sim.Binv @ sf.b
            if float(xb.min(initial=0.0)) < -1e-6 * scale:
                raise RuntimeError("simplex failed on degenerate data") from None
            z_full = np.zeros(sim.n + sim.m)
            z_full[sim.basis] = np.maximum(xb, 0.0)
            z = z_full[: sim.n]
            y = sim.c_true[sim.basis] @ sim.Binv
    if status == "infeasible":
        return LpSolution(LpStatus.INFEASIBLE)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)
    assert z is not None and y is not None
    x = sf.recover_primal(z)
    obj = float(sf.c @ z) + sf.const
    duals = y[: sf.m_orig].copy() if sf.m_orig else np.zeros(0)
    return LpSolution(LpStatus.OPTIMAL, x, duals, obj)


# ---------------------------------------------------------------------------
# Brute-force vertex enumeration
# ---------------------------------------------------------------------------

_ENUM_MAX_VARS = 12
_ENUM_MAX_ROWS = 8


def enumerate_vertices(
    lp: LinearProgram, options: SolverOptions | None = None
) -> list[tuple[np.ndarray, float]]:
    """Enumerate basic feasible solutions of the LP's standard form.

    Intended as an independent oracle for small problems: every vertex of
    the internal standard form is found by testing all full-rank column
    subsets, so ``min`` over the returned objective values equals the LP
    optimum whenever one exists.  Each distinct primal point is reported
    exactly once, as ``(x, objective_value)`` in original coordinates.

    Raises
    ------
    LpScaleError
        If the standard form exceeds 12 columns or 8 rows.
    LpInputError
        Via :class:`LinearProgram` validation on malformed data.
    """
    opts = options or SolverOptions()
    sf = _StandardForm(lp)
    m, n = sf.A.shape
    if n > _ENUM_MAX_VARS or m > _ENUM_MAX_ROWS:
        raise LpScaleError(
            f"standard form is {m} rows x {n} columns; enumeration caps are "
            f"{_ENUM_MAX_ROWS} rows x {_ENUM_MAX_VARS} columns"
        )
    scale = max(1.0, float(np.abs(sf.b).max(initial=0.0)))

    # Reduce to an independent row subset (Gaussian elimination with partial
    # pivoting on [A | b]); an inconsistent dependent row means infeasible.
    work = np.hstack([sf.A.copy(), sf.b.reshape(-1, 1)])
    pivot_rows: list[int] = []
    row_order = list(range(m))
    lead = 0
    for col in range(n):
        if lead >= m:
            break
        sub = [i for i in row_order[lead:]]
        vals = np.abs([work[i, col] for i in sub])
        best = int(np.argmax(vals))
        if vals[best] <= 1e-11 * scale:
            continue
        row_order[lead], row_order[lead + best] = row_order[lead + best], row_order[lead]
        pr = row_order[lead]
        pivot_rows.append(pr)
        for i in row_order[lead + 1 :]:
            f = work[i, col] / work[pr, col]
            if f != 0.0:
                work[i] -= f * work[pr]
        lead += 1
    for i in row_order[lead:]:
        if abs(work[i, -1]) > max(opts.feas_tol, 1e-9) * scale:
            return []  # inconsistent system

    A_r = sf.A[pivot_rows]
    b_r = sf.b[pivot_rows]
    r = len(pivot_rows)
    out: list[tuple[np.ndarray, float]] = []
    seen: set[tuple[float, ...]] = set()
    if r == 0:
        x = sf.recover_primal(np.zeros(n))
        return [(x, float(lp.objective @ x))]
    for cols in itertools.combinations(range(n), r):
        B = A_r[:, cols]
        try:
            zb = np.linalg.solve(B, b_r)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(zb)):
            continue
        if np.max(np.abs(B @ zb - b_r)) > 1e-8 * scale:
            continue
        if np.min(zb) < -max(opts.feas_tol, 1e-9) * scale:
            continue
        z = np.zeros(n)
        z[list(cols)] = np.maximum(zb, 0.0)
        x = sf.recover_primal(z)
        key = tuple(np.round(x, 9).tolist())
        if key in seen:
            continue
        seen.add(key)
        out.append((x, float(lp.objective @ x)))
    return out
