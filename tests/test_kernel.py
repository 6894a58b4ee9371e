"""Tests for Nadaraya-Watson weights, bandwidth scaling, and degenerate cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddpkit.kernel import (
    BandwidthRule,
    ConditionalWeights,
    KernelConfig,
    auto_bandwidth,
    nw_weights,
)


def test_single_anchor_gets_all_weight():
    w = nw_weights([3.7], [[0.0]], KernelConfig(bandwidth_h=0.25))
    np.testing.assert_allclose(w.weights, [1.0])


def test_two_anchor_hand_computation():
    """Anchors {0, 1}, query 0, h = 1: weights are (1, e^-1) normalized."""
    w = nw_weights([0.0], [[0.0], [1.0]], KernelConfig(bandwidth_h=1.0))
    np.testing.assert_allclose(
        w.weights,
        [0.7310585786300049, 0.2689414213699951],
        rtol=0.0,
        atol=1e-15,
    )


def test_huge_bandwidth_is_uniform():
    rng = np.random.default_rng(3)
    anchors = rng.normal(size=(17, 3))
    w = nw_weights(rng.normal(size=3), anchors, KernelConfig(bandwidth_h=1e12))
    assert np.max(np.abs(w.weights - 1.0 / 17)) < 1e-6


def test_auto_bandwidth_values():
    assert auto_bandwidth(1, 1, 1.0) == pytest.approx(1.0, abs=0.0)
    assert auto_bandwidth(32, 1, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert auto_bandwidth(16, 4, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_auto_rate_config_matches_direct_formula():
    cfg = KernelConfig(bandwidth_rule=BandwidthRule.AUTO_RATE, c_h=2.0)
    assert cfg.effective_h(16, 4) == pytest.approx(auto_bandwidth(16, 4, 2.0))
    anchors = [[0.0], [1.0], [2.0]]
    a = nw_weights([0.5], anchors, cfg)
    b = nw_weights([0.5], anchors, KernelConfig(bandwidth_h=auto_bandwidth(3, 1, 2.0)))
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-15)


def test_uniform_constructor():
    w = ConditionalWeights.uniform(7)
    assert len(w) == 7
    np.testing.assert_allclose(w.weights, np.full(7, 1.0 / 7))


def test_input_validation():
    cfg = KernelConfig()
    with pytest.raises(ValueError):
        nw_weights([0.0, 1.0], [[0.0], [1.0]], cfg)
    with pytest.raises(ValueError):
        nw_weights([0.0], np.zeros((0, 1)), cfg)
    with pytest.raises(ValueError):
        KernelConfig(bandwidth_h=0.0)
    with pytest.raises(ValueError):
        ConditionalWeights(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        ConditionalWeights(np.array([-0.1, 1.1]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance(seed):
    """Permuting the anchors permutes the weights the same way."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    p = int(rng.integers(1, 4))
    anchors = rng.normal(size=(n, p))
    query = rng.normal(size=p)
    cfg = KernelConfig(bandwidth_h=float(rng.uniform(0.1, 3.0)))
    perm = rng.permutation(n)
    w = nw_weights(query, anchors, cfg).weights
    wp = nw_weights(query, anchors[perm], cfg).weights
    np.testing.assert_allclose(wp, w[perm], atol=1e-14)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_moving_an_anchor_closer_never_lowers_its_weight(seed, shrink):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    anchors = rng.uniform(-5.0, 5.0, size=(n, 1))
    cfg = KernelConfig(bandwidth_h=float(rng.uniform(0.2, 2.0)))
    i = int(rng.integers(0, n))
    before = nw_weights([0.0], anchors, cfg).weights[i]
    closer = anchors.copy()
    closer[i] *= shrink
    after = nw_weights([0.0], closer, cfg).weights[i]
    assert after >= before - 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_log_domain_matches_naive_when_no_underflow(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    p = int(rng.integers(1, 5))
    anchors = rng.uniform(-2.0, 2.0, size=(n, p))
    query = rng.uniform(-2.0, 2.0, size=p)
    h = float(rng.uniform(0.5, 2.0))
    w = nw_weights(query, anchors, KernelConfig(bandwidth_h=h)).weights
    raw = np.exp(-np.linalg.norm(anchors - query, axis=1) / h)
    naive = raw / raw.sum()
    np.testing.assert_allclose(w, naive, atol=1e-12)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.min(w) >= 0.0


def test_far_anchor_underflow_is_contained():
    """One anchor 10^5 standard deviations away must not produce NaNs."""
    anchors = np.array([[0.0], [1e5]])
    w = nw_weights([0.0], anchors, KernelConfig(bandwidth_h=1e-3)).weights
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-300)


@pytest.mark.parametrize("bad", [math.inf, 0.0, -1.0, math.nan])
def test_bandwidth_and_its_constant_must_be_positive_and_finite(bad):
    """An infinite bandwidth makes every kernel weight exactly uniform, and
    a rate-scaled radius divided by it 0, so RDD would run as unconditioned
    DD: each check refuses it, as it refuses 0, negatives and NaN."""
    with pytest.raises(ValueError, match="bandwidth_h must be positive and finite"):
        KernelConfig(bandwidth_h=bad)
    with pytest.raises(ValueError, match="c_h must be positive and finite"):
        KernelConfig(bandwidth_rule=BandwidthRule.AUTO_RATE, c_h=bad)
    with pytest.raises(ValueError, match="c_h must be positive and finite"):
        auto_bandwidth(3, 1, bad)


def test_nan_fails_every_check():
    """NaN compares False both ways, so each check is phrased to fail on it:
    a NaN c_h would otherwise give all-NaN weights that pass as a
    probability vector."""
    with pytest.raises(ValueError, match="c_h"):
        KernelConfig(bandwidth_rule=BandwidthRule.AUTO_RATE, c_h=float("nan"))
    with pytest.raises(ValueError, match="c_h"):
        auto_bandwidth(3, 1, float("nan"))
    with pytest.raises(ValueError, match="nonnegative"):
        ConditionalWeights(np.array([float("nan"), 0.5, 0.5]))
    with pytest.raises(ValueError, match="sum"):
        ConditionalWeights(np.array([np.inf, 0.5]))
