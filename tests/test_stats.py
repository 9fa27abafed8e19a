import math

import numpy as np
import pytest
from scipy.special import ndtr

from aggtree import (
    CiaResult,
    Ecdf,
    HzResult,
    conditional_independence_gap,
    henze_zirkler,
    sample_mean_cov,
    sup_distance,
)
from aggtree._rng import node_stream

# small block reused by the frozen Henze-Zirkler regression values below
HZ_BLOCK = np.array([
    [0.5, 1.2], [-0.3, 0.4], [1.1, -0.7], [0.0, 0.3],
    [-1.4, -0.6], [0.7, 2.0], [0.2, -1.1], [-0.9, 0.8],
])


class TestEcdf:
    def test_step_values(self):
        e = Ecdf([1.0, 2.0, 3.0])
        assert e(2.0) == pytest.approx(2.0 / 3.0)
        assert e(0.5) == 0.0
        assert e(1.0) == pytest.approx(1.0 / 3.0)
        assert e(3.0) == 1.0
        assert e(99.0) == 1.0

    def test_vectorized_and_unsorted_input(self):
        e = Ecdf([3.0, 1.0, 2.0])
        np.testing.assert_allclose(e(np.array([0.0, 1.5, 2.5, 4.0])),
                                   [0.0, 1 / 3, 2 / 3, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ecdf([])


class TestSupDistance:
    def test_hand_computed_continuous_reference(self):
        e = Ecdf([1.0, 2.0, 3.0])
        cdf = lambda x: np.clip(np.asarray(x, dtype=float) / 4.0, 0.0, 1.0)
        # true sup is reached approaching the first jump from the left
        assert sup_distance(e, cdf) == pytest.approx(0.25)

    def test_self_comparison_is_one_over_n(self):
        # both one-sided gaps are evaluated at each jump, so comparing a
        # step ecdf against itself reports the step height, not zero
        e = Ecdf([1.0, 2.0, 3.0])
        assert sup_distance(e, e) == pytest.approx(1.0 / 3.0)

    def test_ks_band_on_normal_batch(self):
        n = 10**5
        band = 1.63 / math.sqrt(n)
        hits = 0
        for seed in range(10):
            x = node_stream(seed, "null").standard_normal(n)
            hits += sup_distance(Ecdf(x), ndtr) <= band
        assert hits >= 9

    def test_triangle_style_bound(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        e = Ecdf(x)
        f = lambda t: ndtr(t)
        g = lambda t: ndtr(np.asarray(t) - 0.2)
        sup_fg = 0.2 / math.sqrt(2 * math.pi) + 1e-12  # max of |Phi - shifted|
        assert sup_distance(e, f) <= sup_distance(e, g) + sup_fg


class TestSampleMeanCov:
    def test_two_point_example(self):
        mean, cov = sample_mean_cov(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(mean, [1.0, 1.0])
        np.testing.assert_allclose(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_constant_column(self):
        block = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        _, cov = sample_mean_cov(block)
        np.testing.assert_allclose(cov[1], [0.0, 0.0], atol=1e-15)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(1)
        block = rng.standard_normal((40, 3))
        m1, c1 = sample_mean_cov(block)
        m2, c2 = sample_mean_cov(block[rng.permutation(40)])
        np.testing.assert_allclose(m1, m2, atol=1e-14)
        np.testing.assert_allclose(c1, c2, atol=1e-14)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            sample_mean_cov(np.array([[1.0, 2.0]]))


class TestHenzeZirkler:
    def test_frozen_small_block(self):
        # regression values cross-checked against a direct evaluation of
        # the 1990 statistic and lognormal null approximation
        r = henze_zirkler(HZ_BLOCK)
        assert isinstance(r, HzResult)
        assert r.beta == pytest.approx(1.0378908155562132, abs=1e-12)
        assert r.statistic == pytest.approx(0.2011432935140718, abs=1e-11)
        assert r.p_value == pytest.approx(0.8015033330792526, abs=1e-10)

    def test_null_batch_mostly_accepts(self):
        hits = 0
        for seed in range(12):
            x = node_stream(seed, "null").standard_normal((1500, 4))
            hits += henze_zirkler(x).p_value >= 0.05
        assert hits >= 10

    def test_power_against_cubed_column(self):
        x = node_stream(100, "null").standard_normal((2000, 4))
        x[:, 2] = x[:, 2] ** 3
        assert henze_zirkler(x).p_value < 0.01

    def test_univariate_null(self):
        rng = node_stream(5, "null")
        y = 5.0 + math.sqrt(2.0) * rng.standard_normal(1200)
        r = henze_zirkler(y[:, None])
        assert r.p_value >= 0.05

    def test_affine_invariance(self):
        x = node_stream(7, "null").standard_normal((800, 3))
        a = np.array([[2.0, 0.5, 0.0], [0.0, 1.5, -0.3], [0.1, 0.0, 0.9]])
        b = np.array([3.0, -1.0, 0.5])
        r1 = henze_zirkler(x)
        r2 = henze_zirkler(x @ a.T + b)
        assert abs(r1.statistic - r2.statistic) <= 1e-8
        assert abs(r1.p_value - r2.p_value) <= 1e-8

    def test_singular_covariance_rejected(self):
        x = node_stream(9, "null").standard_normal((100, 3))
        x[:, 2] = x[:, 0]
        with pytest.raises(ValueError):
            henze_zirkler(x)

    def test_more_than_eight_dimensions_rejected(self):
        x = node_stream(4, "null").standard_normal((200, 9))
        assert 0.0 <= henze_zirkler(x[:, :8]).p_value <= 1.0
        with pytest.raises(ValueError, match="up to 8 dimensions, got 9"):
            henze_zirkler(x)

    def test_beta_formula(self):
        n, d = 640, 3
        r = henze_zirkler(node_stream(2, "null").standard_normal((n, d)))
        want = ((n * (2 * d + 1)) / 4.0) ** (1.0 / (d + 4)) / math.sqrt(2.0)
        assert r.beta == pytest.approx(want, abs=1e-12)


class TestConditionalIndependenceGap:
    def test_deterministic_right_gives_zero_gap(self):
        rng = np.random.default_rng(4)
        left = rng.integers(0, 2, size=(3000, 2)).astype(float)
        s = left.sum(axis=1)
        right = (s % 2.0)[:, None]
        block = np.hstack([left, right])
        out = conditional_independence_gap(
            block, [0, 1], [2], sum_cols=[0, 1], min_count=200)
        assert out.gap == pytest.approx(0.0, abs=1e-12)
        assert sum(out.strata.values()) <= 3000
        assert set(out.strata) <= {0.0, 1.0, 2.0}

    def test_independent_blocks_within_noise(self):
        rng = np.random.default_rng(8)
        left = rng.integers(0, 2, size=(4000, 2)).astype(float)
        right = rng.integers(0, 2, size=(4000, 2)).astype(float)
        block = np.hstack([left, right])
        out = conditional_independence_gap(
            block, [0, 1], [2, 3], sum_cols=[0, 1], min_count=200)
        assert out.gap <= 3.0 * out.bootstrap_se

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(12)
        block = rng.integers(0, 2, size=(1500, 3)).astype(float)
        a = conditional_independence_gap(block, [0], [1, 2], sum_cols=[0])
        b = conditional_independence_gap(block, [0], [1, 2], sum_cols=[0])
        assert isinstance(a, CiaResult)
        assert a.gap == b.gap
        assert a.bootstrap_se == b.bootstrap_se
        assert a.strata == b.strata
        assert a.n_boot == b.n_boot == 200

    def test_no_qualifying_stratum(self):
        block = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            conditional_independence_gap(block, [0], [1], min_count=200)
