"""Nadaraya-Watson conditional weights with an exponential kernel.

Given N anchor points (the observed stage noise vectors) and a query
point, ``nw_weights`` returns the normalized kernel weights

    w_i  proportional to  exp(-||query - anchor_i||_2 / h),

computed in a shifted log domain so far-away anchors underflow to zero
weight instead of poisoning the normalization.  The kernel's own
normalizing constant cancels in the ratio and is omitted.

At the root stage there is nothing to condition on, so the weights are
uniform; use :meth:`ConditionalWeights.uniform` for that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BandwidthRule",
    "KernelConfig",
    "ConditionalWeights",
    "nw_weights",
    "auto_bandwidth",
]


class BandwidthRule(Enum):
    MANUAL = "Manual"
    AUTO_RATE = "AutoRate"


def _checked_bandwidth(value: float, name: str) -> None:
    """0 < value < inf: an infinite bandwidth would make every weight uniform."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


def auto_bandwidth(n_samples: int, p: int, c_h: float) -> float:
    """Rate-optimal bandwidth c_h * N^(-1/(p+4)) for N samples in dimension p."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if p < 1:
        raise ValueError("dimension p must be at least 1")
    _checked_bandwidth(c_h, "c_h")
    return float(c_h * n_samples ** (-1.0 / (p + 4)))


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth selection.

    With ``bandwidth_rule = MANUAL`` the stored ``bandwidth_h`` is used as
    is; with ``AUTO_RATE`` the effective bandwidth is recomputed per stage
    as ``c_h * N^(-1/(p+4))`` via :meth:`effective_h`.
    """

    bandwidth_h: float = 1.0
    bandwidth_rule: BandwidthRule = BandwidthRule.MANUAL
    c_h: float = 1.0

    def __post_init__(self) -> None:
        _checked_bandwidth(self.bandwidth_h, "bandwidth_h")
        _checked_bandwidth(self.c_h, "c_h")

    def effective_h(self, n_samples: int, p: int) -> float:
        if self.bandwidth_rule is BandwidthRule.AUTO_RATE:
            return auto_bandwidth(n_samples, p, self.c_h)
        return self.bandwidth_h


@dataclass(frozen=True)
class ConditionalWeights:
    """A probability vector over the N observed scenarios."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        object.__setattr__(self, "weights", w)
        if w.size == 0:
            raise ValueError("weights must be non-empty")
        # Phrased so that NaN fails them too.
        if not np.min(w) >= 0:
            raise ValueError("weights must be nonnegative")
        if not abs(float(w.sum()) - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @classmethod
    def uniform(cls, n: int) -> "ConditionalWeights":
        """Root-stage weights: the unconditional probability 1/N each."""
        if n < 1:
            raise ValueError("n must be at least 1")
        return cls(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return int(self.weights.size)


def nw_weights(
    query: np.ndarray, anchors: np.ndarray, config: KernelConfig
) -> ConditionalWeights:
    """Conditional weights of each anchor given the query point.

    Parameters
    ----------
    query : (p,) array
        Conditioning point.
    anchors : (N, p) array
        Observed points the estimator averages over.
    config : KernelConfig
        Bandwidth configuration; with AUTO_RATE the bandwidth is derived
        from (N, p) and ``c_h``.

    Returns
    -------
    ConditionalWeights
        weights[i] proportional to exp(-||query - anchors[i]|| / h).
    """
    q = np.asarray(query, dtype=float).reshape(-1)
    pts = np.asarray(anchors, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if q.size == 1 else pts.reshape(1, -1)
    if pts.shape[0] == 0:
        raise ValueError("anchors must contain at least one point")
    if pts.shape[1] != q.size:
        raise ValueError(
            f"query has dimension {q.size} but anchors have dimension {pts.shape[1]}"
        )
    h = config.effective_h(pts.shape[0], q.size)
    dist = np.linalg.norm(pts - q, axis=1) / h
    # Shift by the minimum distance: exp(-(d_i - d_min)) is 1 at the nearest
    # anchor and decays for the rest, so the normalization never underflows.
    shifted = np.exp(-(dist - dist.min()))
    return ConditionalWeights(shifted / shifted.sum())
