"""Tiny capacity-chain instances shared by the driver and acceptance tests.

Each stage chooses (x, s, u) >= 0 subject to

    x + s + beta(xi) * z_x = 1.2        (capacity eaten by yesterday's x)
    x + u = cap(xi)                     (per-stage cap, kinks the value fn)

with beta(xi) = 0.6 + 0.3 xi and cap(xi) = 0.75 + 0.15 xi, so for xi in
[-1, 1] the right-hand sides stay positive for every reachable state and
recourse is complete.  The only priced decision is x, at c0 + c1 * xi
with per-instance constants drawn from the seed; negative costs make
spending capacity now compete with keeping it for later stages.  The
covariate is a scalar AR(1) process clipped to [-1, 1].
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from sddpkit.scenarios import StageDatum, SyntheticSpec, TrajectorySet, generate_synthetic_markov
from sddpkit.stages import InstanceTemplate

STATE_DIM = 3


def toy_builder(seed: int) -> Callable[[int, np.ndarray], StageDatum]:
    rng = np.random.default_rng(seed)
    c0 = rng.uniform(-0.8, -0.2)
    c1 = rng.uniform(-0.5, 0.5)

    def datum_builder(t: int, feature: np.ndarray) -> StageDatum:
        xi = float(np.asarray(feature).reshape(-1)[0])
        beta = 0.0 if t == 1 else 0.6 + 0.3 * xi
        cap = 0.75 + 0.15 * xi
        return StageDatum(
            c=np.array([c0 + c1 * xi, 0.0, 0.0]),
            A=np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
            B=np.array([[beta, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            b=np.array([1.2, cap]),
            feature=np.array([xi]),
        )

    return datum_builder


def make_toy(
    seed: int, horizon_T: int = 3, n_paths: int = 2, noise_std: float = 0.3
) -> tuple[TrajectorySet, InstanceTemplate]:
    builder = toy_builder(seed)
    spec = SyntheticSpec(
        mu=np.array([0.0]),
        phi=np.array([[0.5]]),
        noise_cov=np.array([[noise_std**2]]),
        xi1=np.array([0.0]),
        box_lower=np.array([-1.0]),
        box_upper=np.array([1.0]),
        datum_builder=builder,
    )
    traj = generate_synthetic_markov(spec, horizon_T, n_paths, rng_seed=seed + 1)
    template = InstanceTemplate(
        horizon_T=horizon_T,
        initial_state=np.zeros(STATE_DIM),
        datum_builder=builder,
    )
    return traj, template
