"""Trajectory storage, CSV ingestion, forward sampling, and synthetic data.

The historical record is a set of N trajectories over stages 1..T.  Stage
1 is deterministic and shared by all paths; each later stage t holds the N
observed realizations, aligned by path index so that (xi_{t-1}^i, xi_t^i)
are consecutive observations of the same path.  That alignment is what
the conditional weight estimator relies on.

CSV layout (self-describing, one file per trajectory set)::

    trajectories,T,N,p
    stage,t,d_t,m_t,d_prev          (one per stage, t = 1..T)
    datum,t,i,<c><A><B><b><feature> (stage 1 once with i=0, then N rows per stage)

Matrix blocks are flattened row-major.  Floats are written with repr so a
save/load round trip reproduces the arrays bit for bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "StageDatum",
    "TrajectorySet",
    "ForwardScenario",
    "TrajectoryFormatError",
    "DimensionMismatchError",
    "UnstableProcessError",
    "SyntheticSpec",
    "load_trajectories",
    "save_trajectories",
    "sample_forward",
    "generate_synthetic_markov",
]


class TrajectoryFormatError(ValueError):
    """Raised on unparseable trajectory input; messages cite the line number."""


class DimensionMismatchError(ValueError):
    """Raised when a datum's shape contradicts the declared dimensions; cites (t, i)."""


class UnstableProcessError(ValueError):
    """Raised when the synthetic process matrix has spectral radius >= 1."""


@dataclass
class StageDatum:
    """Cost, constraint, and covariate data observed at one stage of one path.

    ``A`` couples the current decision (d_t columns), ``B`` the previous
    stage's decision (d_prev columns); ``feature`` is the covariate the
    kernel conditions on.
    """

    c: np.ndarray
    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    feature: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        self.feature = np.asarray(self.feature, dtype=float).reshape(-1)
        m, d = self.A.shape
        if self.c.shape[0] != d:
            raise DimensionMismatchError(
                f"c has {self.c.shape[0]} entries but A has {d} columns"
            )
        if self.B.shape[0] != m:
            raise DimensionMismatchError(
                f"B has {self.B.shape[0]} rows but A has {m}"
            )
        if self.b.shape[0] != m:
            raise DimensionMismatchError(
                f"b has {self.b.shape[0]} entries but A has {m} rows"
            )

    @property
    def dim_out(self) -> int:
        return self.A.shape[1]

    @property
    def dim_in(self) -> int:
        return self.B.shape[1]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StageDatum):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("c", "A", "B", "b", "feature")
        )


@dataclass
class TrajectorySet:
    """The N observed trajectories: one stage-1 datum plus N data per later stage.

    ``data[t - 2][i]`` is the stage-t datum of path i (0-based paths
    internally; file format and error messages use 1-based labels).
    """

    horizon_T: int
    n_paths: int
    stage1: StageDatum
    data: list[list[StageDatum]]

    def __post_init__(self) -> None:
        if self.horizon_T < 2:
            raise ValueError("horizon_T must be at least 2")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if len(self.data) != self.horizon_T - 1:
            raise DimensionMismatchError(
                f"expected data for {self.horizon_T - 1} stages, got {len(self.data)}"
            )
        p = self.stage1.feature.shape[0]
        prev_dim = self.stage1.dim_out
        for k, stage in enumerate(self.data):
            t = k + 2
            if len(stage) != self.n_paths:
                raise DimensionMismatchError(
                    f"stage t={t} has {len(stage)} data, expected N={self.n_paths}"
                )
            ref = stage[0]
            for i, d in enumerate(stage):
                if (
                    d.dim_out != ref.dim_out
                    or d.dim_in != ref.dim_in
                    or d.n_rows != ref.n_rows
                    or d.feature.shape[0] != p
                ):
                    raise DimensionMismatchError(
                        f"stage t={t}, path i={i + 1}: inconsistent dimensions"
                    )
            if ref.dim_in != prev_dim:
                raise DimensionMismatchError(
                    f"stage t={t}: B has {ref.dim_in} columns but stage "
                    f"t={t - 1} decisions have dimension {prev_dim}"
                )
            prev_dim = ref.dim_out

    @property
    def feature_dim(self) -> int:
        return int(self.stage1.feature.shape[0])

    def stage_data(self, t: int) -> list[StageDatum]:
        """All N data of stage t (2 <= t <= T)."""
        if not 2 <= t <= self.horizon_T:
            raise IndexError(f"stage {t} outside 2..{self.horizon_T}")
        return self.data[t - 2]

    def features(self, t: int) -> np.ndarray:
        """The (N, p) matrix of stage-t covariates."""
        return np.array([d.feature for d in self.stage_data(t)])


@dataclass(frozen=True)
class ForwardScenario:
    """One sampled path through the empirical sets: indices[k] picks the
    stage-(k+2) realization.  Indices are 0-based."""

    indices: tuple[int, ...]
    rng_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


def _datum_values(d: StageDatum) -> list[float]:
    return (
        d.c.tolist()
        + d.A.reshape(-1).tolist()
        + d.B.reshape(-1).tolist()
        + d.b.tolist()
        + d.feature.tolist()
    )


def save_trajectories(ts: TrajectorySet, target: str | Path | io.TextIOBase) -> None:
    """Write a TrajectorySet in the module's CSV layout (repr-exact floats)."""
    own = isinstance(target, (str, Path))
    stream = open(target, "w", newline="") if own else target
    try:
        w = csv.writer(stream)
        p = ts.feature_dim
        w.writerow(["trajectories", ts.horizon_T, ts.n_paths, p])
        dims = [(ts.stage1.dim_out, ts.stage1.n_rows, ts.stage1.dim_in)]
        for stage in ts.data:
            dims.append((stage[0].dim_out, stage[0].n_rows, stage[0].dim_in))
        for t, (d_t, m_t, d_prev) in enumerate(dims, start=1):
            w.writerow(["stage", t, d_t, m_t, d_prev])
        w.writerow(["datum", 1, 0] + [repr(float(v)) for v in _datum_values(ts.stage1)])
        for k, stage in enumerate(ts.data):
            for i, d in enumerate(stage):
                w.writerow(
                    ["datum", k + 2, i + 1]
                    + [repr(float(v)) for v in _datum_values(d)]
                )
    finally:
        if own:
            stream.close()


def _parse_floats(parts: Sequence[str], line_no: int) -> np.ndarray:
    try:
        vals = np.array([float(s) for s in parts], dtype=float)
    except ValueError as exc:
        raise TrajectoryFormatError(f"line {line_no}: non-numeric value ({exc})") from None
    if not np.all(np.isfinite(vals)):
        raise TrajectoryFormatError(f"line {line_no}: non-finite value")
    return vals


def load_trajectories(source: str | Path | io.TextIOBase) -> TrajectorySet:
    """Parse a trajectory CSV.

    Raises
    ------
    TrajectoryFormatError
        On structural problems, citing the 1-based line number.
    DimensionMismatchError
        When a datum's width contradicts the declared stage dimensions,
        citing the stage t and path i.
    """
    own = isinstance(source, (str, Path))
    stream = open(source, "r", newline="") if own else source
    try:
        rows = [(k + 1, row) for k, row in enumerate(csv.reader(stream)) if row]
    finally:
        if own:
            stream.close()
    if not rows:
        raise TrajectoryFormatError("line 1: empty trajectory file")

    line_no, head = rows[0]
    if head[0] != "trajectories" or len(head) != 4:
        raise TrajectoryFormatError(f"line {line_no}: expected 'trajectories,T,N,p' header")
    try:
        T, N, p = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise TrajectoryFormatError(f"line {line_no}: non-integer header field") from None
    if len(rows) < 1 + T:
        raise TrajectoryFormatError(f"line {rows[-1][0]}: missing stage dimension rows")

    dims: list[tuple[int, int, int]] = []
    for t in range(1, T + 1):
        line_no, row = rows[t]
        if row[0] != "stage" or len(row) != 5:
            raise TrajectoryFormatError(f"line {line_no}: expected 'stage,t,d,m,d_prev'")
        try:
            t_read, d_t, m_t, d_prev = (int(v) for v in row[1:])
        except ValueError:
            raise TrajectoryFormatError(f"line {line_no}: non-integer stage field") from None
        if t_read != t:
            raise TrajectoryFormatError(f"line {line_no}: stage rows out of order")
        dims.append((d_t, m_t, d_prev))

    expected_rows = [(1, 0)] + [(t, i) for t in range(2, T + 1) for i in range(1, N + 1)]
    data_rows = rows[1 + T :]
    if len(data_rows) != len(expected_rows):
        raise TrajectoryFormatError(
            f"line {rows[-1][0]}: expected {len(expected_rows)} datum rows, "
            f"found {len(data_rows)}"
        )

    def parse_datum(line_no: int, row: list[str], t: int, i: int) -> StageDatum:
        d_t, m_t, d_prev = dims[t - 1]
        sizes = (d_t, m_t * d_t, m_t * d_prev, m_t, p)
        want = sum(sizes)
        if row[0] != "datum" or len(row) < 3:
            raise TrajectoryFormatError(f"line {line_no}: expected a 'datum' row")
        try:
            t_read, i_read = int(row[1]), int(row[2])
        except ValueError:
            raise TrajectoryFormatError(f"line {line_no}: non-integer datum label") from None
        if (t_read, i_read) != (t, i):
            raise TrajectoryFormatError(
                f"line {line_no}: datum rows out of order (got t={t_read}, i={i_read}, "
                f"expected t={t}, i={i})"
            )
        vals = _parse_floats(row[3:], line_no)
        if vals.size != want:
            raise DimensionMismatchError(
                f"stage t={t}, path i={i}: expected {want} values, got {vals.size} "
                f"(line {line_no})"
            )
        # The order _datum_values writes: c, A, B, b, feature.
        c, A, B, b, feature = np.split(vals, np.cumsum(sizes[:-1]))
        return StageDatum(c, A.reshape(m_t, d_t), B.reshape(m_t, d_prev), b, feature)

    (ln, row), (t, i) = data_rows[0], expected_rows[0]
    stage1 = parse_datum(ln, row, t, i)
    data: list[list[StageDatum]] = [[] for _ in range(T - 1)]
    for (ln, row), (t, i) in zip(data_rows[1:], expected_rows[1:]):
        data[t - 2].append(parse_datum(ln, row, t, i))
    return TrajectorySet(horizon_T=T, n_paths=N, stage1=stage1, data=data)


# ---------------------------------------------------------------------------
# Forward sampling
# ---------------------------------------------------------------------------


def sample_forward(rows: Sequence[np.ndarray], rng_seed: int) -> ForwardScenario:
    """Sample one forward path by chained inverse-CDF draws.

    ``rows[k]`` holds the conditional weights of the stage-(k+2)
    realizations, one row per stage-(k+1) node; ``rows[0]`` has a single
    row, the root's.  Each draw reads the row of the index the previous
    draw realized.
    """
    rng = np.random.default_rng(rng_seed)
    indices: list[int] = []
    i = 0
    for P in rows:
        cdf = np.cumsum(P[i])
        i = min(int(np.searchsorted(cdf, rng.random(), side="right")), P.shape[1] - 1)
        indices.append(i)
    return ForwardScenario(indices=tuple(indices), rng_seed=int(rng_seed))


# ---------------------------------------------------------------------------
# Synthetic Markov trajectories
# ---------------------------------------------------------------------------


def _default_datum_builder(t: int, feature: np.ndarray) -> StageDatum:
    """Placeholder stage data: a single pinned-to-zero decision variable."""
    return StageDatum(
        c=np.zeros(1),
        A=np.eye(1),
        B=np.zeros((1, 1)),
        b=np.zeros(1),
        feature=feature,
    )


@dataclass
class SyntheticSpec:
    """Parameters of the first-order process xi_{t+1} = mu + Phi xi_t + eps.

    ``box_lower``/``box_upper`` clamp each generated covariate so the
    support stays compact.  ``datum_builder`` maps (stage, covariate) to
    the stage's LP data; the default builds a trivial placeholder, real
    instances supply their own (the portfolio builder, for example).
    """

    mu: np.ndarray
    phi: np.ndarray
    noise_cov: np.ndarray
    xi1: np.ndarray
    box_lower: np.ndarray
    box_upper: np.ndarray
    datum_builder: Callable[[int, np.ndarray], StageDatum] = field(
        default=_default_datum_builder
    )

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        p = self.mu.shape[0]
        self.phi = np.asarray(self.phi, dtype=float).reshape(p, p)
        self.noise_cov = np.asarray(self.noise_cov, dtype=float).reshape(p, p)
        self.xi1 = np.asarray(self.xi1, dtype=float).reshape(-1)
        self.box_lower = np.asarray(self.box_lower, dtype=float).reshape(-1)
        self.box_upper = np.asarray(self.box_upper, dtype=float).reshape(-1)
        for name, arr in (
            ("xi1", self.xi1),
            ("box_lower", self.box_lower),
            ("box_upper", self.box_upper),
        ):
            if arr.shape[0] != p:
                raise DimensionMismatchError(f"{name} must have dimension {p}")
        eigs = np.linalg.eigvalsh((self.noise_cov + self.noise_cov.T) / 2.0)
        if eigs.min() < -1e-10:
            raise ValueError("noise_cov must be positive semidefinite")


def generate_synthetic_markov(
    spec: SyntheticSpec, horizon_T: int, n_paths: int, rng_seed: int
) -> TrajectorySet:
    """Simulate N paths of the declared process, clamped to the compact box.

    All noise comes from one ``multivariate_normal`` call (one SVD of the
    covariance), read path by path and, within a path, stage by stage: the
    order in which one draw per step would consume the generator.  With a
    diagonal covariance the paths equal such per-step draws bit for bit;
    otherwise an entry may differ from them by an ulp, since the batched
    product sums in another order.

    Raises
    ------
    UnstableProcessError
        When the process matrix has spectral radius at or above 1.
    """
    radius = float(np.max(np.abs(np.linalg.eigvals(spec.phi))))
    if radius >= 1.0:
        raise UnstableProcessError(
            f"process matrix has spectral radius {radius:.6g} >= 1"
        )
    rng = np.random.default_rng(rng_seed)
    p = spec.mu.shape[0]
    noise = rng.multivariate_normal(
        np.zeros(p), spec.noise_cov, size=(n_paths, horizon_T - 1), method="svd"
    )
    stage1 = spec.datum_builder(1, spec.xi1.copy())
    data: list[list[StageDatum]] = [[] for _ in range(horizon_T - 1)]
    for path in noise:
        xi = spec.xi1
        for t, eps in enumerate(path, start=2):
            xi = np.clip(spec.mu + spec.phi @ xi + eps, spec.box_lower, spec.box_upper)
            data[t - 2].append(spec.datum_builder(t, xi.copy()))
    return TrajectorySet(horizon_T=horizon_T, n_paths=n_paths, stage1=stage1, data=data)
