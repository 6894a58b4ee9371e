"""Tests for trajectory storage, CSV round-trips, sampling, and synthetic data."""

import io

import numpy as np
import pytest

from sddpkit.scenarios import (
    DimensionMismatchError,
    StageDatum,
    SyntheticSpec,
    TrajectoryFormatError,
    TrajectorySchema,
    TrajectorySet,
    UnstableProcessError,
    generate_synthetic_markov,
    load_trajectories,
    sample_forward,
    save_trajectories,
)


def _random_trajectories(seed=0, T=4, N=3, p=2):
    """A trajectory set with stage-varying decision and row dimensions."""
    rng = np.random.default_rng(seed)
    d = [2, 3, 1, 2][: T]
    m = [1, 2, 2, 1][: T]

    def datum(t, d_prev):
        return StageDatum(
            c=rng.normal(size=d[t - 1]),
            A=rng.normal(size=(m[t - 1], d[t - 1])),
            B=rng.normal(size=(m[t - 1], d_prev)),
            b=rng.normal(size=m[t - 1]),
            feature=rng.normal(size=p),
        )

    stage1 = datum(1, 1)
    data = [[datum(t, d[t - 2]) for _ in range(N)] for t in range(2, T + 1)]
    return TrajectorySet(horizon_T=T, n_paths=N, stage1=stage1, data=data)


def test_round_trip_is_bit_identical():
    ts = _random_trajectories(seed=42)
    buf = io.StringIO()
    save_trajectories(ts, buf)
    loaded = load_trajectories(io.StringIO(buf.getvalue()))
    assert loaded == ts
    buf2 = io.StringIO()
    save_trajectories(loaded, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_round_trip_through_file(tmp_path):
    ts = _random_trajectories(seed=7, T=3, N=2, p=1)
    path = tmp_path / "traj.csv"
    save_trajectories(ts, path)
    assert load_trajectories(path) == ts


def test_well_formed_file_reports_n_paths():
    ts = _random_trajectories(seed=1, T=3, N=2)
    buf = io.StringIO()
    save_trajectories(ts, buf)
    loaded = load_trajectories(io.StringIO(buf.getvalue()))
    assert loaded.n_paths == 2
    assert loaded.horizon_T == 3


def test_missing_column_cites_stage_and_path():
    ts = _random_trajectories(seed=2, T=3, N=2)
    buf = io.StringIO()
    save_trajectories(ts, buf)
    lines = buf.getvalue().splitlines()
    # datum rows: stage1, then (t=2, i=1..2), then (t=3, i=1..2)
    broken = lines[:]
    target = next(
        k for k, ln in enumerate(broken) if ln.startswith("datum,3,1,")
    )
    broken[target] = broken[target].rsplit(",", 1)[0]  # drop the last column
    with pytest.raises(DimensionMismatchError, match=r"t=3.*i=1"):
        load_trajectories(io.StringIO("\n".join(broken) + "\n"))


def test_empty_file_is_a_parse_error():
    with pytest.raises(TrajectoryFormatError):
        load_trajectories(io.StringIO(""))


def test_non_numeric_cell_cites_line():
    ts = _random_trajectories(seed=3, T=2, N=1, p=1)
    buf = io.StringIO()
    save_trajectories(ts, buf)
    text = buf.getvalue().replace(repr(float(ts.stage1.b[0])), "abc", 1)
    with pytest.raises(TrajectoryFormatError, match=r"line \d+"):
        load_trajectories(io.StringIO(text))


def test_schema_cross_check():
    ts = _random_trajectories(seed=4, T=3, N=2, p=2)
    buf = io.StringIO()
    save_trajectories(ts, buf)
    wrong = TrajectorySchema(
        horizon_T=3, n_paths=5, feature_dim=2, stage_dims=((1, 1, 1),) * 3
    )
    with pytest.raises(DimensionMismatchError):
        load_trajectories(io.StringIO(buf.getvalue()), schema=wrong)


def test_stage_count_validation():
    ts = _random_trajectories(seed=5, T=3, N=2)
    with pytest.raises(DimensionMismatchError, match="t=2"):
        TrajectorySet(
            horizon_T=3,
            n_paths=3,
            stage1=ts.stage1,
            data=ts.data,
        )


def _rows(*widths):
    """Uniform conditional rows: a single root row, then one row per node."""
    rows, n_nodes = [], 1
    for n in widths:
        rows.append(np.full((n_nodes, n), 1.0 / n))
        n_nodes = n
    return rows


def test_degenerate_weights_always_pick_first():
    first = [np.tile([1.0, 0.0, 0.0], (nodes, 1)) for nodes in (1, 3, 3)]
    for seed in (0, 1, 99):
        sc = sample_forward(first, seed)
        assert sc.indices == (0, 0, 0)


def test_identical_seeds_identical_scenarios():
    rows = _rows(3, 3, 3)
    a = sample_forward(rows, 12345)
    b = sample_forward(rows, 12345)
    assert a == b


def test_uniform_two_path_frequency():
    """10,000 seeded draws land within the 3-sigma binomial band around 0.5."""
    rows = _rows(2)
    hits = sum(sample_forward(rows, seed).indices[0] for seed in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_sampling_chains_on_realized_index():
    """The draw at stage t reads the row of the index realized at t-1."""
    root = np.array([[0.0, 0.0, 1.0]])
    # Only row 2, the one stage 2 realizes, puts its mass on index 1.
    stage3 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for seed in (0, 1, 99):
        sc = sample_forward([root, stage3], seed)
        assert sc.indices == (2, 1)


def test_synthetic_constant_when_phi_zero():
    spec = SyntheticSpec(
        mu=[0.3, -0.7],
        phi=np.zeros((2, 2)),
        noise_cov=np.zeros((2, 2)),
        xi1=[5.0, 5.0],
        box_lower=[-10.0, -10.0],
        box_upper=[10.0, 10.0],
    )
    ts = generate_synthetic_markov(spec, horizon_T=3, n_paths=4, rng_seed=0)
    for t in (2, 3):
        np.testing.assert_allclose(ts.features(t), np.tile([0.3, -0.7], (4, 1)))


def test_synthetic_scalar_recursion_unrolls():
    """phi=0.5, mu=1, no noise, xi1=0 gives 1, 1.5, 1.75 at t=2,3,4."""
    spec = SyntheticSpec(
        mu=[1.0],
        phi=[[0.5]],
        noise_cov=[[0.0]],
        xi1=[0.0],
        box_lower=[-100.0],
        box_upper=[100.0],
    )
    ts = generate_synthetic_markov(spec, horizon_T=4, n_paths=2, rng_seed=3)
    np.testing.assert_allclose(ts.features(2), [[1.0], [1.0]])
    np.testing.assert_allclose(ts.features(3), [[1.5], [1.5]])
    np.testing.assert_allclose(ts.features(4), [[1.75], [1.75]])


def test_synthetic_clamps_to_box():
    spec = SyntheticSpec(
        mu=[1.0],
        phi=[[0.5]],
        noise_cov=[[0.0]],
        xi1=[0.0],
        box_lower=[-0.1],
        box_upper=[0.1],
    )
    ts = generate_synthetic_markov(spec, horizon_T=3, n_paths=2, rng_seed=0)
    assert np.all(ts.features(2) <= 0.1 + 1e-15)
    assert np.all(ts.features(3) <= 0.1 + 1e-15)


def test_synthetic_determinism_and_instability():
    spec = SyntheticSpec(
        mu=[0.0],
        phi=[[0.9]],
        noise_cov=[[0.5]],
        xi1=[1.0],
        box_lower=[-5.0],
        box_upper=[5.0],
    )
    a = generate_synthetic_markov(spec, 4, 3, rng_seed=11)
    b = generate_synthetic_markov(spec, 4, 3, rng_seed=11)
    assert a == b
    bad = SyntheticSpec(
        mu=[0.0],
        phi=[[1.0]],
        noise_cov=[[0.1]],
        xi1=[0.0],
        box_lower=[-5.0],
        box_upper=[5.0],
    )
    with pytest.raises(UnstableProcessError):
        generate_synthetic_markov(bad, 3, 2, rng_seed=0)


def test_synthetic_diagonal_noise_equals_per_step_draws():
    """With a diagonal covariance the one batched noise draw reproduces,
    bit for bit, one draw per step taken path by path, then stage by stage."""
    spec = SyntheticSpec(
        mu=[0.1, -0.2, 0.3],
        phi=[[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]],
        noise_cov=np.diag([0.04, 0.25, 0.01]),
        xi1=[1.0, 0.0, -1.0],
        box_lower=[-1e3] * 3,
        box_upper=[1e3] * 3,
    )
    T, N = 5, 4
    ts = generate_synthetic_markov(spec, T, N, rng_seed=17)
    rng = np.random.default_rng(17)
    for i in range(N):
        xi = spec.xi1
        for t in range(2, T + 1):
            eps = rng.multivariate_normal(np.zeros(3), spec.noise_cov, method="svd")
            xi = np.clip(spec.mu + spec.phi @ xi + eps, spec.box_lower, spec.box_upper)
            assert np.array_equal(ts.features(t)[i], xi)
