"""An optimality check for Optimal verdicts of ``solve``, shared by the LP and driver tests."""

from __future__ import annotations

import numpy as np

from sddpkit.lp import LinearProgram, LpSolution


def assert_kkt(lp: LinearProgram, sol: LpSolution) -> None:
    """Primal residual and nonnegativity, dual feasibility (nonnegative
    reduced costs on bounded columns, zero on free ones), complementary
    slackness, and an objective equal to the dual value b.y."""
    bounded = ~lp.free_mask
    assert np.max(np.abs(lp.eq_matrix @ sol.primal - lp.eq_rhs), initial=0.0) <= 1e-7
    assert np.min(sol.primal[bounded], initial=0.0) >= -1e-7
    rc = lp.objective - lp.eq_matrix.T @ sol.duals
    assert np.min(rc[bounded], initial=0.0) >= -1e-7
    assert np.max(np.abs(rc[lp.free_mask]), initial=0.0) <= 1e-7
    assert np.max(np.abs(rc[bounded] * sol.primal[bounded]), initial=0.0) <= 1e-6
    dual_value = float(sol.duals @ lp.eq_rhs)
    assert abs(sol.objective_value - dual_value) <= 1e-8 * (1.0 + abs(sol.objective_value))
