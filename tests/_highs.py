"""HiGHS (``scipy.optimize.linprog``) as an LP oracle that shares no code with ``sddpkit.lp``."""

from __future__ import annotations

from scipy.optimize import linprog

from sddpkit.lp import LinearProgram, LpStatus

# linprog's status codes for the verdicts ``sddpkit.lp.solve`` can return.
_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def highs_solve(lp: LinearProgram) -> tuple[LpStatus, float | None]:
    """The LP's status as HiGHS finds it, and its optimal value when Optimal."""
    bounds = [(None, None) if free else (lo, None) for lo, free in zip(lp.var_lower, lp.free_mask)]
    res = linprog(
        lp.objective,
        A_eq=lp.eq_matrix,
        b_eq=lp.eq_rhs,
        bounds=bounds,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status in _STATUS, res.message
    status = _STATUS[res.status]
    return status, float(res.fun) if status is LpStatus.OPTIMAL else None


def highs_value(lp: LinearProgram) -> float:
    """The LP's optimal value as HiGHS finds it."""
    status, value = highs_solve(lp)
    assert status is LpStatus.OPTIMAL, status
    return value
