"""Dense linear programming core.

Solves equality-form LPs

    min  c^T x
    s.t. A x = b,   x >= 0  (x_j free where flagged),

with a two-phase revised simplex method.  The entering column follows
Bland's rule, and the leaving row Harris' two-pass ratio test (Harris,
"Pivot selection methods of the Devex LP code", Math. Prog., 1973): among
the rows whose ratio lies within a feasibility tolerance of the smallest
one, the one with the largest pivot element leaves, so a tiny pivot is
never taken when a sound one ties with it.  The starting basis is built
from the LP's own columns: a row whose slack or surplus column (a +-e_i
column with the sign of its right-hand side) exists starts with the
lowest-index such column basic, and only the remaining rows get artificial
columns for phase one (Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing, 1992).  A cold solve is one run of
that simplex: its verdict is final, and a run that breaks down (a
singular basis, the pivot cap, an optimal basis whose vertex is not
primal feasible) raises ``RuntimeError``.  All subproblems built
elsewhere in the package (stage LPs, envelope LPs, ambiguity-set inner
problems) are funneled through :func:`solve`.  The solver's tolerances and
pivot caps are module constants; nothing selects them per call.

A caller that re-solves a family of related LPs (the same rows and columns
with a new right-hand side, appended rows or columns, or new costs) can
pass a :class:`Basis` holder.  ``solve`` then starts from the basis the
holder keeps: the last optimal basis of its own family, or that of a
sibling LP with the same row and column layout (another realization's LP
at the same stage, say), passed as a shallow copy of its holder.  It
starts with the dual simplex when that basis is still dual feasible, with
phase two when it is still primal feasible.  A basis that is neither gets
shifted costs: each column whose reduced cost would let it enter has it
taken off its cost, the dual simplex runs on those costs until the basis
is primal feasible, and phase two finishes on the true costs.
The warm path falls back to the cold two-phase path only when the start
does not fit the LP, when its basis is singular, when a run raises or
reaches the warm pivot cap, when it ends in anything but Optimal, or when
its final vertex fails the feasibility checks.  So a warm solve only ever
returns Optimal, and always from a freshly inverted basis.  The pivot
sequence, and hence the reported basis and duals, is a deterministic
function of the input data and the start basis.

A holder carries, next to the basis, the basis matrix B of the solve
that ended there and its inverse, whenever that inverse is exactly
``np.linalg.inv(B)``.  A start whose basis matrix equals the carried B
bit for bit starts from the carried inverse itself instead of
inverting again: LPs that keep their matrix between solves (the last
stage's, and envelope LPs, which only gain columns) often end where they
started.  The inverse is reused only for a bitwise-equal B, so a solve's
outputs are those of a start from the same basis alone.  Neither
``solve`` nor the simplex writes into a holder's arrays, so holders may
share them: a shallow copy of a sibling's holder is a valid start.

Conventions
-----------
* A variable is either nonnegative or free, with no other bound.  A model
  that needs x >= l or x <= u writes it as a row with a surplus or slack
  column.  Free variables are flagged via ``free_mask`` and stay one
  column each, which the simplex never chooses to leave once basic
  (Maros, "Computational Techniques of the Simplex Method", 2003).
* Row duals follow the sensitivity convention for minimization: the dual
  of an equality row is the derivative of the optimal value with respect
  to that row's right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LpStatus",
    "LinearProgram",
    "LpSolution",
    "Basis",
    "LpInputError",
    "LpScaleError",
    "solve",
]


class LpInputError(ValueError):
    """Raised when LP data is malformed (shape mismatch, NaN or infinite entries)."""


class LpScaleError(ValueError):
    """Raised when a problem exceeds a size cap: the extensive-form oracle's
    256 leaves (``driver.extensive_form_oracle``)."""


class LpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


# Feasibility tolerance, used to declare phase one successful and to
# accept slightly negative basic values as zero.
_FEAS_TOL = 1e-9
# Dual feasibility (reduced cost) tolerance for optimality.
_OPT_TOL = 1e-9
# Magnitude below which a candidate pivot element is treated as zero,
# relative to the largest of its column on rows that can leave.  The Harris
# ratio test admits every row above it, but among near-ties it takes the
# largest pivot, so one this small leaves only when no larger one ties.
_PIVOT_TOL = 1e-9
# Cap on total pivots across both phases.  Bland's rule precludes cycling
# only in exact arithmetic: drift in the inverse can make it cycle between
# two bases, so reaching the cap raises ``RuntimeError``.
_MAX_PIVOTS = 50_000
# Cap on the pivots of a warm start; the dual simplex's largest-infeasibility
# rule can cycle, and a warm run that reaches the cap falls back to the cold
# path.
_WARM_MAX_PIVOTS = 1_000
# Updates of the basis inverse between rebuilds from scratch.
_REFACTOR_EVERY = 32
# A pivot element below this magnitude amplifies noise through the
# product-form update, so the inverse is rebuilt from the new basis rather
# than updated; the primal simplex also takes one only from a freshly
# inverted basis.
_SMALL_PIVOT = 1e-7


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
    free_mask : (n,) bool array or None
        True entries mark free variables; every other one is nonnegative.
        None means none is free.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
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
        ):
            if not np.isfinite(arr).all():
                raise LpInputError(f"{name} contains non-finite entries")

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


@dataclass
class Basis:
    """The last optimal basis of a family of LPs, kept by the caller between
    solves so that :func:`solve` can start the next member from it.

    ``cols[r]`` is the column basic in row r, an index 0..n-1 of the LP's
    own columns, so the basis keeps its meaning when a later LP appends
    columns.  None until a solve with this holder ends Optimal, and again
    after one whose optimal basis kept an artificial column.

    ``B`` and ``Binv`` are the basis matrix of the solve that ended at
    ``cols`` and its inverse, kept only when that inverse is
    exactly ``np.linalg.inv(B)``: freshly inverted, or an earlier kept
    one, never a product-form update; otherwise both are None.  A start
    whose basis matrix equals ``B`` bit for bit begins from ``Binv``
    instead of inverting, so its outputs are those of a start from
    ``cols`` alone.  Holders may share arrays, since :func:`solve` only
    replaces them: a shallow copy (``dataclasses.replace``) of a sibling
    holder, that of an LP with the same layout, is a valid start.
    """

    cols: np.ndarray | None = None
    B: np.ndarray | None = None
    Binv: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Revised simplex
# ---------------------------------------------------------------------------


class _Simplex:
    """Two-phase revised simplex on an LP's own arrays, which it never
    writes: Bland's rule picks the entering column, Harris' two-pass ratio
    test the leaving row.

    A column flagged in ``free`` sits at 0 while nonbasic and enters on a
    reduced cost of either sign, moving the way that improves the
    objective; once basic it never leaves, so only the rows of bounded
    basic columns take part in ratio tests and feasibility checks.

    The starting basis takes, for each row i, the lowest-index column that
    is exactly +-e_i with the sign of b_i (either sign when b_i = 0 or the
    column is free): slack and surplus columns are basic and feasible at
    B^-1 b = |b| as they stand.  Only the rows no such column covers get
    an artificial column sign(b_i) * e_i, and phase one minimizes the sum
    of those; when every row is covered, phase one is skipped.  Phase one
    is bounded below by zero, so a column that finds no leaving row there
    lowers it only through entries below the pivot tolerance, which count
    as zero: phase one passes it over and goes on to the next.

    A warm start passes ``basis`` (one column per row) and the
    :class:`Basis` holder it came from instead; it gets no artificial
    columns, and its inverse is computed from scratch unless the holder
    kept the inverse of this very basis matrix.

    ``B`` is the basis matrix whenever ``Binv`` is exactly
    ``np.linalg.inv(B)``, and None while ``Binv`` is a product-form update
    or the cold start's diagonal.  The basic values and the duals of the
    true costs are computed at most once per basis inverse.
    """

    def __init__(
        self, lp: LinearProgram, basis: np.ndarray | None = None, held: Basis | None = None
    ):
        A, b, c, free = lp.eq_matrix, lp.eq_rhs, lp.objective, lp.free_mask
        self.m, self.n = A.shape
        self.max_pivots = _MAX_PIVOTS
        self.b = b
        self.scale = max(1.0, float(np.abs(b).max(initial=0.0)))
        self.pivots = 0
        self.since_refactor = 0
        if basis is not None:
            self.max_pivots = _WARM_MAX_PIVOTS
            self.A, self.c_true, self.free, self.basis = A, c, free, basis
            self._refactor(held)
        else:
            # Row i starts from its first column equal to +-e_i with a sign
            # that fits b_i; column n, one past the last, marks a row without.
            fits = np.ones((self.m, self.n + 1), dtype=bool)
            fits[:, : self.n] = _unit_columns(A) & ((A * b[:, None] >= 0.0) | free)
            self.basis = fits.argmax(axis=1)
            uncovered = np.nonzero(self.basis == self.n)[0]
            self.basis[uncovered] = self.n + np.arange(uncovered.size)
            # Artificial columns are sign(b_i) * e_i so the artificial start is
            # feasible without flipping rows (keeps duals in the original frame).
            self.A = np.zeros((self.m, self.n + uncovered.size))
            self.A[:, : self.n] = A
            self.A[uncovered, self.basis[uncovered]] = np.where(b[uncovered] < 0, -1.0, 1.0)
            self.c_true = np.concatenate([c, np.zeros(uncovered.size)])
            self.free = np.concatenate([free, np.zeros(uncovered.size, dtype=bool)])
            # The basis matrix is diagonal with entries +-1, so it is its own inverse.
            self._set_inverse(None, np.diag(self.A[np.arange(self.m), self.basis]))
        self.free_cols = self.free.nonzero()[0]
        # The rows whose basic column is bounded, the only ones that can leave.
        self.bounded = ~self.free[self.basis]

    def _set_inverse(self, B: np.ndarray | None, Binv: np.ndarray) -> None:
        self.B, self.Binv = B, Binv
        self._xb_now = self._y_now = None

    def _refactor(self, held: Basis | None = None) -> None:
        B = self.A[:, self.basis]
        Binv = _carried_inverse(held, B)
        if Binv is None:
            try:
                Binv = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                # Propagating garbage from a pseudo-inverse would corrupt every
                # verdict downstream; fail loudly instead.
                raise RuntimeError("simplex basis became singular; data is ill-conditioned")
        self._set_inverse(B, Binv)
        self.since_refactor = 0

    def _xb(self) -> np.ndarray:
        """The basic values B^-1 b."""
        if self._xb_now is None:
            self._xb_now = self.Binv @ self.b
        return self._xb_now

    def _bounded_min(self) -> float:
        """The smallest basic value of a bounded row, inf when there is none."""
        return float(self._xb().min(initial=np.inf, where=self.bounded))

    def _y(self, cost: np.ndarray) -> np.ndarray:
        """The row duals c_B B^-1 of ``cost``; kept for the true costs."""
        if cost is not self.c_true:
            return cost[self.basis] @ self.Binv
        if self._y_now is None:
            self._y_now = self.c_true[self.basis] @ self.Binv
        return self._y_now

    def _pivot(self, q: int, r: int, d: np.ndarray) -> None:
        self.basis[r] = q
        self.bounded[r] = not self.free[q]
        piv = d[r]
        self.pivots += 1
        if abs(piv) < _SMALL_PIVOT:
            self._refactor()
            return
        row = self.Binv[r] / piv
        coef = d.copy()
        coef[r] = 0.0
        Binv = self.Binv - np.outer(coef, row)
        Binv[r] = row
        self._set_inverse(None, Binv)
        self.since_refactor += 1
        if self.since_refactor >= _REFACTOR_EVERY:
            self._refactor()

    def _either_way(self, v: np.ndarray, eps: float) -> np.ndarray:
        """The columns with v < -eps, and the free ones with v > eps too."""
        out = v < -eps
        if self.free_cols.size:
            out[self.free_cols] |= v[self.free_cols] > eps
        return out

    def _iterate(self, cost: np.ndarray, allowed: np.ndarray | None = None) -> LpStatus:
        """Run primal simplex pivots to optimality for the given cost vector.

        The entering column is the lowest-index one with a negative reduced
        cost, or a nonzero one if free (Bland).  The leaving row comes from
        Harris' two passes over the bounded rows whose basic value falls as
        it enters, by more than ``_PIVOT_TOL`` of the column's largest entry
        on bounded rows: the first bounds the step by each row's ratio with
        its basic value relaxed by ``_FEAS_TOL * max(1, |b|_inf)``; the
        second takes, among the rows whose own ratio is within that bound,
        the largest pivot element, ties to the lowest basic column index.  A
        pivot element below ``_SMALL_PIVOT`` is only taken from a freshly
        inverted basis.  Returns Optimal or Unbounded.
        """
        while True:
            if self.pivots > self.max_pivots:
                raise RuntimeError("simplex pivot limit exceeded; data is ill-conditioned")
            rc = cost - self._y(cost) @ self.A
            # Basic columns price out at zero in exact arithmetic.  Drift in
            # the product-form inverse can leave one below -tol; Bland's rule
            # would enter it, the ratio test would pick its own row, and the
            # basis would never change.
            rc[self.basis] = 0.0
            enters = self._either_way(rc, _OPT_TOL)
            if allowed is not None:
                enters &= allowed
            cand = enters.nonzero()[0]
            if cand.size == 0:
                if self.since_refactor:
                    # Exit verdicts are only trusted from a freshly inverted
                    # basis; product-form updates drift on degenerate pivots.
                    self._refactor()
                    continue
                return LpStatus.OPTIMAL
            q = self.entering = int(cand[0])
            d = self.Binv @ self.A[:, q]
            # Basic values fall by t * fall as the entering column moves by t.
            fall = -d if rc[q] > 0.0 else d
            # Eligibility is relative to the column scale on the rows that can
            # leave: absolute thresholds admit noise next to huge entries.
            d_eps = _PIVOT_TOL * max(1.0, float(np.abs(d[self.bounded]).max(initial=0.0)))
            pos = self.bounded & (fall > d_eps)
            if not pos.any():
                if self.since_refactor:
                    self._refactor()
                    continue
                return LpStatus.UNBOUNDED
            rows = pos.nonzero()[0]
            xb, dp = np.maximum(self._xb()[rows], 0.0), fall[rows]
            bound = float(((xb + _FEAS_TOL * self.scale) / dp).min())
            near = rows[xb / dp <= bound]
            r = int(near[np.lexsort((self.basis[near], -fall[near]))[0]])
            if fall[r] < _SMALL_PIVOT and self.since_refactor:
                # An element this small may be mostly drift of the updated
                # inverse; choose the row again from a fresh one.
                self._refactor()
                continue
            self._pivot(q, r, d)

    def _dual(self, tol: float, cost: np.ndarray) -> bool:
        """Run dual simplex pivots from a basis that is dual feasible for
        ``cost`` until every basic value is at least -tol.

        The leaving row is the bounded row with the most negative basic
        value.  The entering column, among the bounded ones with a negative
        entry in that row and the free ones (of reduced cost zero) with a
        nonzero one, has the smallest ratio of reduced cost, floored at 0,
        to the entry's magnitude, ties to the lowest index.  Returns False
        when no column can enter, which proves the LP infeasible.
        """
        while True:
            if self.pivots > self.max_pivots:
                raise RuntimeError("simplex pivot limit exceeded; data is ill-conditioned")
            xb = np.where(self.bounded, self._xb(), np.inf)
            r = int(xb.argmin())
            if xb[r] >= -tol:
                if self.since_refactor:
                    self._refactor()
                    continue
                return True
            alpha = self.Binv[r] @ self.A
            alpha[self.basis] = 0.0
            a_eps = _PIVOT_TOL * max(1.0, float(np.abs(alpha).max()))
            cand = self._either_way(alpha, a_eps).nonzero()[0]
            if cand.size == 0:
                if self.since_refactor:
                    self._refactor()
                    continue
                return False
            rc = np.maximum(cost[cand] - self._y(cost) @ self.A[:, cand], 0.0)
            ratios = rc / np.abs(alpha[cand])
            rmin = ratios.min()
            q = int(cand[np.argmax(ratios <= rmin + 1e-12 * (1.0 + rmin))])
            self._pivot(q, r, self.Binv @ self.A[:, q])

    def run(self) -> tuple[LpStatus, np.ndarray | None, np.ndarray | None]:
        """Solve; returns (status, x, duals), the last two None unless Optimal."""
        n_art = self.A.shape[1] - self.n
        allowed = np.ones(self.A.shape[1], dtype=bool)
        if n_art:
            # A column that finds no leaving row is passed over (class docstring).
            cost = np.concatenate([np.zeros(self.n), np.ones(n_art)])
            while self._iterate(cost, allowed) is LpStatus.UNBOUNDED:
                allowed[self.entering] = False
        art_mask = self.basis >= self.n
        if float(np.sum(np.maximum(self._xb()[art_mask], 0.0))) > _FEAS_TOL * self.scale:
            return LpStatus.INFEASIBLE, None, None

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
                row_eps = _PIVOT_TOL * max(1.0, float(np.abs(row).max(initial=0.0)))
                entry = np.nonzero((np.abs(row) > row_eps) & ~in_basis)[0]
                if entry.size:
                    q = int(entry[0])
                    d = self.Binv @ self.A[:, q]
                    self._pivot(q, int(r), d)
                    in_basis[q] = True

        structural = np.arange(self.A.shape[1]) < self.n
        if self._iterate(self.c_true, structural) is LpStatus.UNBOUNDED:
            return LpStatus.UNBOUNDED, None, None
        if self._bounded_min() < -1e-6 * self.scale:
            # A drifted intermediate pivot pushed a basic variable negative;
            # the vertex fails primal feasibility, so the verdict is void.
            raise RuntimeError("simplex lost primal feasibility; data is ill-conditioned")
        return (LpStatus.OPTIMAL, *self.vertex())

    def vertex(self) -> tuple[np.ndarray, np.ndarray]:
        """The current basis' vertex, bounded basic values below zero clipped
        to zero, and its row duals."""
        z = np.zeros(self.A.shape[1])
        xb = self._xb()
        z[self.basis] = np.where(self.bounded, np.maximum(xb, 0.0), xb)
        return z[: self.n], self._y(self.c_true)


def _unit_columns(A: np.ndarray, first_row: int = 0) -> np.ndarray:
    """Entry (i, j) is True when column j of A is exactly +-e_(first_row + i)."""
    return (np.count_nonzero(A, axis=0) == 1) & (np.abs(A[first_row:]) == 1.0)


def _warm_basis(lp: LinearProgram, cols: np.ndarray) -> np.ndarray | None:
    """A stored basis for this LP, or None if it does not fit.

    Stored rows keep their columns; each row past them takes its
    lowest-index +-e_i column, whatever its sign.  None when the LP has
    fewer rows than the basis, or no rows; when a stored index is not one
    of the LP's columns 0..n-1; when a new row has no unit column; or when
    a column would be basic twice.
    """
    A = lp.eq_matrix
    m, n = A.shape
    k = cols.shape[0]
    if m == 0 or k > m:
        return None
    listed = cols.tolist()
    if k and (min(listed) < 0 or max(listed) >= n):
        return None
    basis = cols.astype(np.int64)
    if k < m:
        unit = _unit_columns(A, k)
        if not unit.any(axis=1).all():
            return None
        basis = np.concatenate([basis, unit.argmax(axis=1)])
    if len(set(basis.tolist())) < m:
        return None
    return basis


def _carried_inverse(held: Basis | None, B: np.ndarray) -> np.ndarray | None:
    """The inverse ``held`` kept, if it kept one of B bit for bit."""
    if held is None or held.B is None or held.B.shape != B.shape:
        return None
    if held.B.tobytes() != B.tobytes():
        return None
    return held.Binv


def _warm_solve(lp: LinearProgram, start: Basis) -> _Simplex | None:
    """Solve from a stored basis; the simplex at an Optimal basis, or None.

    A dual feasible start runs the dual simplex, a primal feasible one
    phase two.  A start that is neither first takes off each column's cost
    a reduced cost that would let it enter (negative, or nonzero on a free
    column), which makes the basis dual feasible for the shifted costs, and
    runs the dual simplex on those (Koberstein, "The dual simplex method,
    techniques for a fast and stable implementation", PhD thesis,
    Paderborn, 2005).  Every start
    ends in phase two on the true costs, whose verdict comes from a freshly
    inverted basis.  None, for the cold path to take over, when the start
    does not fit, when the run raises or ends in anything but Optimal, or
    when the final vertex is not primal feasible to ``_FEAS_TOL`` or does
    not solve A x = b to it.
    """
    basis = _warm_basis(lp, start.cols)
    if basis is None:
        return None
    c = lp.objective
    try:
        sim = _Simplex(lp, basis, start)
        tol = _FEAS_TOL * sim.scale
        if sim._bounded_min() < -tol:
            rc = c - sim._y(c) @ lp.eq_matrix
            rc[basis] = 0.0
            shift = np.where(lp.free_mask, rc, np.minimum(rc, 0.0))
            cost = c - shift if float(np.abs(shift).max()) > _OPT_TOL else c
            if not sim._dual(tol, cost):
                return None
        if sim._iterate(c) is not LpStatus.OPTIMAL:
            return None
    except RuntimeError:
        return None
    # An Optimal verdict comes from a freshly inverted basis, so sim.B is set.
    if sim._bounded_min() < -tol or float(np.abs(sim.B @ sim._xb() - lp.eq_rhs).max()) > tol:
        return None
    return sim


def solve(lp: LinearProgram, start: Basis | None = None) -> LpSolution:
    """Solve an equality-form LP with the revised simplex method.

    Returns an :class:`LpSolution`; on Optimal status the primal point, the
    equality-row duals and the objective value are filled in.  Without
    ``start``, the solve is one two-phase run of the simplex from the
    LP's unit columns, and identical inputs produce identical outputs: the
    starting basis is a fixed function of the data, the entering column
    follows Bland's rule, and the leaving row Harris' two-pass ratio test
    (the largest pivot among the near-minimal ratios), ties to the lowest
    basic column index.  A run that breaks down raises ``RuntimeError``.

    With ``start``, the solve begins from the basis the holder kept (see
    the module docstring) and, when it ends Optimal, writes its final basis
    back.  A kept basis that is neither primal nor dual feasible for this
    LP starts from shifted costs rather than cold.  The outputs are then a
    deterministic function of the data and the start basis.  A start that
    does not fit, is singular, or does not lead to an Optimal verdict within
    the warm pivot cap is dropped for the cold run.
    """
    sim = None if start is None or start.cols is None else _warm_solve(lp, start)
    if sim is not None:
        status = LpStatus.OPTIMAL
        x, y = sim.vertex()
    else:
        sim = _Simplex(lp)
        status, x, y = sim.run()
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status)
    if start is not None:
        # An artificial column still basic leaves nothing to keep.
        start.cols = None if sim.basis.max(initial=-1) >= lp.n_vars else sim.basis
        exact = start.cols is not None and sim.B is not None
        start.B, start.Binv = (sim.B, sim.Binv) if exact else (None, None)
    return LpSolution(status, x, y, float(lp.objective @ x))

