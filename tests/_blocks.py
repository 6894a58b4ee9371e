"""Helpers shared by the tests of cut pools, envelopes and their LP blocks."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sddpkit.approximations import CutRows, WeightedLowerTerms, stack_cut_rows
from sddpkit.lp import LinearProgram, LpStatus, solve
from sddpkit.stages import ExtraTerms, LpBlock


def cut_rows(cuts: Sequence[tuple[Sequence[float], float]]) -> CutRows:
    """A node's cut rows from (gradient, offset) pairs, in order."""
    if not cuts:
        return CutRows(np.zeros((0, 0)), np.zeros(0))
    return CutRows(
        np.array([g for g, _ in cuts], dtype=float), np.array([o for _, o in cuts], dtype=float)
    )


def random_cut(rng: np.random.Generator, d: int) -> tuple[np.ndarray, float]:
    """A cut through a random point: gradient g and value v at anchor a,
    drawn in that order, as (g, v - g . a)."""
    g = rng.normal(size=d)
    value = float(rng.normal())
    return g, value - float(g @ rng.normal(size=d))


def weighted_pools(node_cuts: Sequence[tuple[float, CutRows]]) -> WeightedLowerTerms:
    """The weighted epigraph block over every cut of every node, node after node."""
    node, cuts = stack_cut_rows([rows for _, rows in node_cuts])
    return WeightedLowerTerms(np.array([float(w) for w, _ in node_cuts]), node, cuts)


def lp_block(terms: ExtraTerms, x_dim: int) -> LpBlock:
    """The terms' appended block on its own, in new arrays."""
    n_rows, n_cols = terms.shape(x_dim)
    out = LpBlock(
        cost=np.zeros(n_cols),
        rows=np.zeros((n_rows, x_dim + n_cols)),
        rhs=np.zeros(n_rows),
        free=np.zeros(n_cols, dtype=bool),
    )
    terms.write(x_dim, out)
    return out


def block_value(terms: ExtraTerms, x) -> float:
    """Optimal value of the terms' LP block with the decision columns pinned at x."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    d = xv.shape[0]
    block = lp_block(terms, d)
    sol = solve(
        LinearProgram(
            objective=block.cost,
            eq_matrix=block.rows[:, d:],
            eq_rhs=block.rhs - block.rows[:, :d] @ xv,
            free_mask=block.free,
        )
    )
    assert sol.status is LpStatus.OPTIMAL
    return float(sol.objective_value)
