import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import aggtree
from aggtree import (
    Discrete,
    GaussianCopula,
    Independence,
    Normal,
    bivariate_gaussian_copula_cdf,
    copula_correlation,
)
from aggtree._rng import node_stream
from aggtree.errors import UnsupportedModelError


def stream(seed, purpose="marginal", node=()):
    return node_stream(seed, purpose, node)


class TestNormal:
    def test_moment_recovery(self):
        x = Normal(4.0, 3.0).sample(10**6, stream(11))
        assert abs(x.mean() - 4.0) <= 0.01
        assert abs(x.var() - 3.0) <= 0.03

    def test_cdf_quantile_basics(self):
        d = Normal(0.0, 1.0)
        assert d.quantile(0.5) == pytest.approx(0.0, abs=1e-15)
        assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert d.cdf(-math.inf) == 0.0
        assert d.cdf(math.inf) == 1.0

    def test_quantile_against_reference(self):
        # independent oracle: mean + z(0.975) * sqrt(var) via scipy's ndtri
        got = Normal(4.0, 3.0).quantile(0.975)
        assert got == pytest.approx(4.0 + ndtri(0.975) * math.sqrt(3.0), abs=1e-12)
        assert got == pytest.approx(7.394757202228515, abs=1e-9)

    def test_quantile_domain(self):
        d = Normal(0.0, 1.0)
        with pytest.raises(ValueError):
            d.quantile(-0.1)
        with pytest.raises(ValueError):
            d.quantile(1.1)

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            Normal(0.0, -1.0)
        with pytest.raises(ValueError, match="variance"):
            Normal(0.0, math.inf)

    def test_mean_must_be_finite(self):
        for mean in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mean"):
                Normal(mean, 1.0)

    def test_sampling_deterministic_per_seed(self):
        a = Normal(1.0, 2.0).sample(100, stream(3))
        b = Normal(1.0, 2.0).sample(100, stream(3))
        c = Normal(1.0, 2.0).sample(100, stream(4))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDiscrete:
    def test_point_mass(self):
        x = Discrete([0.0], [1.0]).sample(5, stream(1))
        np.testing.assert_array_equal(x, np.zeros(5))

    def test_fair_coin_mean(self):
        x = Discrete([0.0, 1.0], [0.5, 0.5]).sample(10**5, stream(2))
        assert abs(x.mean() - 0.5) <= 0.008
        assert set(np.unique(x)) <= {0.0, 1.0}

    def test_quantile_steps(self):
        d = Discrete([1.0, 5.0], [0.3, 0.7])
        assert d.quantile(0.3) == 1.0
        assert d.quantile(0.300001) == 5.0
        assert d.quantile(0.0) == -math.inf
        assert d.quantile(1.0) == 5.0

    def test_cdf_steps(self):
        d = Discrete([1.0, 5.0], [0.3, 0.7])
        assert d.cdf(0.9) == pytest.approx(0.0)
        assert d.cdf(1.0) == pytest.approx(0.3)
        assert d.cdf(4.999) == pytest.approx(0.3)
        assert d.cdf(5.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Discrete([1.0, 1.0], [0.5, 0.5])  # not strictly increasing
        with pytest.raises(ValueError):
            Discrete([2.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            Discrete([0.0, 1.0], [0.5, 0.6])  # probs sum != 1
        with pytest.raises(ValueError):
            Discrete([0.0, 1.0], [1.1, -0.1])
        with pytest.raises(ValueError, match="finite"):
            Discrete([0.0, 1.0], [math.nan, 0.5])  # passed every other check
        with pytest.raises(ValueError, match="finite"):
            Discrete([0.0, math.nan], [0.5, 0.5])


class TestCopulas:
    def test_independence_spearman(self):
        u = Independence(2).sample(10**5, stream(5, "copula"))
        n = len(u)
        r1 = np.argsort(np.argsort(u[:, 0]))
        r2 = np.argsort(np.argsort(u[:, 1]))
        rho_s = np.corrcoef(r1, r2)[0, 1]
        assert abs(rho_s) <= 0.02
        assert u.shape == (n, 2)
        assert u.min() >= 0.0 and u.max() <= 1.0

    def test_comonotone_columns_identical(self):
        u = GaussianCopula.bivariate(1.0).sample(100, stream(6, "copula"))
        np.testing.assert_array_equal(u[:, 0], u[:, 1])

    def test_gaussian_pearson_on_normal_scale(self):
        u = GaussianCopula.bivariate(0.7).sample(10**6, stream(7, "copula"))
        z = ndtri(u)
        r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert abs(r - 0.7) <= 0.003

    def test_column_uniformity_ks_band(self):
        # 10 fixed seeds; at least 9 must land inside the 99% KS band
        n = 10**5
        band = 1.63 / math.sqrt(n)
        hits = 0
        grid = np.arange(1, n + 1) / n
        for seed in range(10):
            u = GaussianCopula.bivariate(0.4).sample(n, stream(seed, "copula"))
            ok = True
            for col in range(2):
                s = np.sort(u[:, col])
                dist = max(np.max(np.abs(grid - s)),
                           np.max(np.abs(grid - 1.0 / n - s)))
                ok = ok and dist <= band
            hits += ok
        assert hits >= 9

    def test_correlation_validation(self):
        with pytest.raises(ValueError):
            GaussianCopula(np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError):
            GaussianCopula(np.array([[1.0, 1.2], [1.2, 1.0]]))
        with pytest.raises(ValueError):
            GaussianCopula(np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]]))
        with pytest.raises(ValueError):
            GaussianCopula(np.array([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            GaussianCopula.bivariate(math.nan)

    def test_copula_correlation_accessor(self):
        c = GaussianCopula.bivariate(0.25)
        assert copula_correlation(c)[0, 1] == pytest.approx(0.25)
        np.testing.assert_array_equal(
            copula_correlation(Independence(2)), np.eye(2))
        with pytest.raises(UnsupportedModelError):
            copula_correlation(object())

    def test_dims(self):
        assert Independence(3).dim == 3
        assert GaussianCopula(np.eye(4)).dim == 4


# OpenBLAS picks its matrix-product kernel by CPU; the Prescott kernel has
# no fused multiply-add, the default one on an FMA machine does
COPULA_BYTES = """
import hashlib, numpy as np
from aggtree import GaussianCopula
h = hashlib.sha256()
for r in ([[1, 0.5], [0.5, 1]], [[1, 0.6, 0.2], [0.6, 1, 0.1], [0.2, 0.1, 1]]):
    h.update(GaussianCopula(r).sample(200000, np.random.default_rng(7)).tobytes())
print(h.hexdigest())
"""


def test_copula_values_do_not_depend_on_blas_kernel():
    package_root = str(Path(aggtree.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])

    def digest(extra):
        return subprocess.run(
            [sys.executable, "-c", COPULA_BYTES], env={**env, **extra},
            capture_output=True, check=True, text=True).stdout

    assert digest({"OPENBLAS_CORETYPE": "Prescott"}) == digest({})


def quad_copula_cdf(rho, u1, u2):
    """C(u1, u2) by quad, a reference that does not use Owen's T.

    It integrates Phi((b - rho z)/s) phi(z) over z <= a, truncated at
    |z| = 8.5; it is accurate to about 1e-10 only away from |rho| -> 1.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    if u1 == 0.0 or u2 == 0.0:
        return 0.0
    if u1 == 1.0:
        return u2
    if u2 == 1.0:
        return u1
    a, b = float(ndtri(u1)), float(ndtri(u2))
    if a <= -8.5:
        return 0.0
    s = math.sqrt(1.0 - rho * rho)

    def integrand(z):
        return ndtr((b - rho * z) / s) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    value, _ = quad(integrand, -8.5, min(a, 8.5), epsabs=1e-12, limit=200)
    return min(max(value, 0.0), min(u1, u2))


# (rho, u1, u2, C) near |rho| = 1 and in the tails, from a 40-digit mpmath
# quadrature of the conditional integral, cross-checked against a 40-digit
# Owen's T evaluation.
MPMATH_REFERENCE = [
    (0.99, 1e-6, 2e-6, 9.218151654141359e-07),
    (-0.99, 1.0 - 1e-6, 1e-6, 2.7422114003687604e-07),
    (-0.995, 0.999, 0.002, 0.0010028155542225372),
    (0.9999, 1e-9, 1e-9, 9.652766789744961e-10),
    (-0.99, 0.3, 0.8, 0.10019322408700206),
]

TAIL_GRID = [0.0, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6,
             1.0 - 1e-12, 1.0]


class TestBivariateGaussianCdf:
    def test_independence_product(self):
        for u1 in (0.1, 0.4, 0.9):
            for u2 in (0.2, 0.5, 0.8):
                got = bivariate_gaussian_copula_cdf(0.0, u1, u2)
                assert got == pytest.approx(u1 * u2, abs=1e-10)

    def test_frechet_bounds(self):
        assert bivariate_gaussian_copula_cdf(1.0, 0.3, 0.6) == pytest.approx(
            0.3, abs=1e-12)
        assert bivariate_gaussian_copula_cdf(-1.0, 0.3, 0.6) == pytest.approx(
            0.0, abs=1e-12)
        assert bivariate_gaussian_copula_cdf(-1.0, 0.7, 0.6) == pytest.approx(
            0.3, abs=1e-12)

    def test_arcsine_identity(self):
        got = bivariate_gaussian_copula_cdf(0.5, 0.5, 0.5)
        want = 0.25 + math.asin(0.5) / (2.0 * math.pi)
        assert got == pytest.approx(want, abs=1e-10)

    def test_edges(self):
        assert bivariate_gaussian_copula_cdf(0.3, 0.0, 0.5) == pytest.approx(
            0.0, abs=1e-12)
        assert bivariate_gaussian_copula_cdf(0.3, 1.0, 0.5) == pytest.approx(
            0.5, abs=1e-12)

    def test_monotone_on_grid(self):
        us = np.linspace(0.05, 0.95, 7)
        rhos = np.linspace(-0.9, 0.9, 7)
        for rho in rhos:
            vals = np.array([[bivariate_gaussian_copula_cdf(rho, a, b)
                              for b in us] for a in us])
            assert np.all(np.diff(vals, axis=0) >= -1e-12)
            assert np.all(np.diff(vals, axis=1) >= -1e-12)
        mid = [bivariate_gaussian_copula_cdf(r, 0.5, 0.5) for r in rhos]
        assert np.all(np.diff(mid) >= -1e-12)

    def test_matches_quad_reference(self):
        us = np.array(TAIL_GRID)
        for rho in np.linspace(-0.9, 0.9, 13):
            got = bivariate_gaussian_copula_cdf(rho, us[:, None], us[None, :])
            want = [[quad_copula_cdf(rho, a, b) for b in us] for a in us]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_arcsine_identity_near_unit_rho(self):
        for rho in (0.9999, -0.9999, 0.999999, -0.999999):
            got = bivariate_gaussian_copula_cdf(rho, 0.5, 0.5)
            want = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert got == pytest.approx(want, rel=0, abs=1e-14)

    def test_tail_references_near_unit_rho(self):
        for rho, u1, u2, want in MPMATH_REFERENCE:
            got = bivariate_gaussian_copula_cdf(rho, u1, u2)
            assert got == pytest.approx(want, rel=0, abs=1e-13)

    def test_broadcasts_like_scalar_calls(self):
        us = np.array(TAIL_GRID)
        for rho in (-1.0, -0.7, 0.0, 0.4, 1.0):
            grid = bivariate_gaussian_copula_cdf(rho, us[:, None], us)
            assert grid.shape == (us.size, us.size)
            for i, a in enumerate(us):
                for j, b in enumerate(us):
                    got = bivariate_gaussian_copula_cdf(rho, a, b)
                    assert isinstance(got, float)
                    assert got == grid[i, j]

    def test_rejects_rho_outside_unit_interval(self):
        with pytest.raises(ValueError, match="rho"):
            bivariate_gaussian_copula_cdf(1.5, 0.3, 0.4)
