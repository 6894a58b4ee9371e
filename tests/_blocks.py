"""Helpers shared by the tests of cut pools, envelopes and their LP blocks."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sddpkit.approximations import Cut, CutPool, CutRows, WeightedLowerTerms, stack_cut_rows
from sddpkit.lp import LinearProgram, LpStatus, solve
from sddpkit.stages import ExtraTerms


def cut_rows(cuts: Sequence[Cut]) -> CutRows:
    """The cuts as a pool stores them, added in order."""
    pool = CutPool()
    for cut in cuts:
        pool.add(0, None, cut)
    return pool.cuts(0, None)


def weighted_pools(node_cuts: Sequence[tuple[float, CutRows]]) -> WeightedLowerTerms:
    """The weighted epigraph block over every cut of every node, node after node."""
    node, cuts = stack_cut_rows([rows for _, rows in node_cuts])
    return WeightedLowerTerms(np.array([float(w) for w, _ in node_cuts]), node, cuts)


def block_value(terms: ExtraTerms, x) -> float:
    """Optimal value of the terms' LP block with the decision columns pinned at x."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    d = xv.shape[0]
    block = terms.block(d)
    sol = solve(
        LinearProgram(
            objective=block.cost,
            eq_matrix=block.rows[:, d:],
            eq_rhs=block.rhs - block.rows[:, :d] @ xv,
            var_lower=block.lower,
            free_mask=block.free,
        )
    )
    assert sol.status is LpStatus.OPTIMAL
    return float(sol.objective_value)
