"""A brute-force vertex enumerator, the tests' independent cross-check of
``sddpkit.lp.solve``: it enumerates basic feasible solutions of the LP, its
free variables split in two, by brute force over column subsets."""

from __future__ import annotations

import itertools

import numpy as np

from sddpkit.lp import LinearProgram, LpScaleError

# Feasibility tolerance relative to max(1, |b|_inf); the simplex uses the same.
_FEAS_TOL = 1e-9

_ENUM_MAX_VARS = 12
_ENUM_MAX_ROWS = 8


def enumerate_vertices(lp: LinearProgram) -> list[tuple[np.ndarray, float]]:
    """Enumerate basic feasible solutions of the LP with its free variables
    split.

    Intended as an independent oracle for small problems: it splits each
    free variable into a positive and a negative part, unlike the simplex,
    and finds every vertex of that split LP by testing all full-rank
    column subsets, so ``min`` over the returned objective values equals
    the LP optimum whenever one exists.  Each distinct primal point is
    reported exactly once, as ``(x, objective_value)`` in original
    coordinates.

    Raises
    ------
    LpScaleError
        If the split LP exceeds 12 columns or 8 rows.
    LpInputError
        Via :class:`LinearProgram` validation on malformed data.
    """
    b = lp.eq_rhs
    free = lp.free_mask.nonzero()[0]
    A = np.hstack([lp.eq_matrix, -lp.eq_matrix[:, free]])
    m, n = A.shape
    if n > _ENUM_MAX_VARS or m > _ENUM_MAX_ROWS:
        raise LpScaleError(
            f"split LP is {m} rows x {n} columns; enumeration caps are "
            f"{_ENUM_MAX_ROWS} rows x {_ENUM_MAX_VARS} columns"
        )
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))

    def point(z: np.ndarray) -> np.ndarray:
        x = z[: lp.n_vars].copy()
        x[free] -= z[lp.n_vars :]
        return x

    # Reduce to an independent row subset (Gaussian elimination with partial
    # pivoting on [A | b]); an inconsistent dependent row means infeasible.
    work = np.hstack([A, b.reshape(-1, 1)])
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
        if abs(work[i, -1]) > _FEAS_TOL * scale:
            return []  # inconsistent system

    A_r = A[pivot_rows]
    b_r = b[pivot_rows]
    r = len(pivot_rows)
    out: list[tuple[np.ndarray, float]] = []
    seen: set[tuple[float, ...]] = set()
    if r == 0:
        x = point(np.zeros(n))
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
        if np.min(zb) < -_FEAS_TOL * scale:
            continue
        z = np.zeros(n)
        z[list(cols)] = np.maximum(zb, 0.0)
        x = point(z)
        key = tuple(np.round(x, 9).tolist())
        if key in seen:
            continue
        seen.add(key)
        out.append((x, float(lp.objective @ x)))
    return out
