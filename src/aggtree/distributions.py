"""Marginal distributions and copulas used by aggregation tree models.

Two marginal families (normal, finite discrete) and two copula families
(Gaussian, independence) cover everything the sampling algorithms and the
exact discrete machinery need. All sampling goes through explicit
generator objects, see :mod:`aggtree._rng`.
"""
import math

import numpy as np

from . import _rng
from .errors import UnsupportedModelError


class Normal:
    """Normal marginal with the given mean and variance (not sd)."""

    __slots__ = ("mean", "variance")

    def __init__(self, mean, variance):
        mean = float(mean)
        variance = float(variance)
        if not math.isfinite(mean):
            raise ValueError("mean must be finite")
        if not (math.isfinite(variance) and variance > 0.0):
            raise ValueError("variance must be finite and positive")
        self.mean = mean
        self.variance = variance

    @property
    def sd(self):
        return math.sqrt(self.variance)

    def sample(self, n, rng):
        if n < 1:
            raise ValueError("n must be >= 1")
        z = _rng.standard_normals(rng, n)
        z *= self.sd  # in place: the same IEEE results as mean + sd * z
        z += self.mean
        return z

    def quantile(self, u):
        """Generalized inverse CDF; maps 0 to -inf and 1 to +inf."""
        u = float(u)
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must lie in [0, 1]")
        return self.mean + self.sd * float(_rng.ndtri(u))

    def cdf(self, x):
        return _rng.ndtr((np.asarray(x, dtype=float) - self.mean) / self.sd)

    def __repr__(self):
        return f"Normal(mean={self.mean}, variance={self.variance})"


class Discrete:
    """Finite discrete marginal on a strictly increasing support."""

    __slots__ = ("support", "probs", "_cum")

    def __init__(self, support, probs):
        support = np.asarray(support, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if support.ndim != 1 or support.shape != probs.shape or support.size == 0:
            raise ValueError("support and probs must be matching 1-d sequences")
        if not (np.all(np.isfinite(support)) and np.all(np.isfinite(probs))):
            raise ValueError("support and probs must be finite")
        if np.any(np.diff(support) <= 0.0):
            raise ValueError("support must be strictly increasing")
        if np.any(probs <= 0.0):
            raise ValueError("probabilities must be positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")
        self.support = support
        self.probs = probs
        self._cum = np.cumsum(probs)
        self._cum[-1] = 1.0

    @property
    def mean(self):
        return float(self.support @ self.probs)

    @property
    def variance(self):
        return float(((self.support - self.mean) ** 2) @ self.probs)

    def sample(self, n, rng):
        if n < 1:
            raise ValueError("n must be >= 1")
        u = rng.random(n)
        return self.support[np.searchsorted(self._cum, u, side="right")]

    def quantile(self, u):
        """Generalized inverse CDF, a right-continuous step inverse."""
        u = float(u)
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must lie in [0, 1]")
        if u == 0.0:
            return -math.inf
        return float(self.support[np.searchsorted(self._cum, u, side="left")])

    def cdf(self, x):
        idx = np.searchsorted(self.support, np.asarray(x, dtype=float), side="right")
        full = np.concatenate(([0.0], self._cum))
        return full[idx]

    def __repr__(self):
        return f"Discrete(support={self.support.tolist()}, probs={self.probs.tolist()})"


def _psd_factor(matrix):
    """Lower-triangular factor when possible, eigenvalue factor otherwise."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(matrix)
        w = np.clip(w, 0.0, None)
        return v * np.sqrt(w)


class GaussianCopula:
    """Gaussian copula given by a correlation matrix."""

    __slots__ = ("correlation", "_factor")

    def __init__(self, correlation):
        r = np.asarray(correlation, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("correlation must be square")
        if not np.all(np.isfinite(r)):
            raise ValueError("correlation entries must be finite")
        if not np.allclose(r, r.T, atol=1e-12):
            raise ValueError("correlation must be symmetric")
        if not np.allclose(np.diag(r), 1.0, atol=1e-12):
            raise ValueError("correlation must have unit diagonal")
        if np.any(np.abs(r) > 1.0 + 1e-12):
            raise ValueError("correlation entries must lie in [-1, 1]")
        if np.linalg.eigvalsh(r).min() < -1e-9:
            raise ValueError("correlation matrix is not positive semidefinite")
        self.correlation = r
        self._factor = _psd_factor(r)

    @classmethod
    def bivariate(cls, rho):
        rho = float(rho)
        return cls([[1.0, rho], [rho, 1.0]])

    @property
    def dim(self):
        return self.correlation.shape[0]

    def sample(self, n, rng):
        """n rows from the copula; columns are marginally uniform."""
        if n < 1:
            raise ValueError("n must be >= 1")
        # z @ factor.T, summed column by column in a fixed order: BLAS
        # kernels round differently from one CPU to the next
        z = _rng.standard_normals(rng, (n, self.dim))
        y = np.empty_like(z)
        for i, row in enumerate(self._factor):
            np.multiply(z[:, 0], row[0], out=y[:, i])
            for k in range(1, self.dim):
                y[:, i] += z[:, k] * row[k]
        return _rng.ndtr(y, out=y)

    def __repr__(self):
        if self.dim == 2:
            return f"GaussianCopula.bivariate({self.correlation[0, 1]})"
        return f"GaussianCopula({self.correlation.tolist()})"


class Independence:
    """Product copula in the given dimension."""

    __slots__ = ("dim",)

    def __init__(self, dim):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    @property
    def correlation(self):
        return np.eye(self.dim)

    def sample(self, n, rng):
        if n < 1:
            raise ValueError("n must be >= 1")
        return rng.random((n, self.dim))

    def __repr__(self):
        return f"Independence({self.dim})"


def copula_correlation(copula):
    """Correlation matrix of a copula object, identity for independence."""
    corr = getattr(copula, "correlation", None)
    if corr is None:
        raise UnsupportedModelError(f"copula {copula!r} has no correlation matrix")
    return np.asarray(corr, dtype=float)


def bivariate_gaussian_copula_cdf(rho, u1, u2):
    """C(u1, u2) for the bivariate Gaussian copula with correlation rho.

    Elementwise over u1 and u2, which broadcast; scalars give a float.
    With a = ndtri(u1), b = ndtri(u2) and s = sqrt(1 - rho^2) this is
    Owen's (1956) identity in terms of his T function (Genz 2004):
    u1/2 + u2/2 - T(a, (b - rho a)/(a s)) - T(b, (a - rho b)/(b s)) - j/2,
    where j = 1 when exactly one of a, b is negative. At a = b = 0 the two
    T terms take their limit along a = b, atan(sqrt((1-rho)/(1+rho)))/pi.
    Against 40-digit mpmath references its absolute error was below 2e-16
    at every point tried, tails and |rho| -> 1 included. Inputs u = 0 or 1,
    rho = 0 and |rho| >= 1 - 1e-12 use the product and Frechet bounds.
    """
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    u1, u2 = np.broadcast_arrays(np.clip(np.asarray(u1, dtype=float), 0.0, 1.0),
                                 np.clip(np.asarray(u2, dtype=float), 0.0, 1.0))
    if rho == 0.0:
        value = u1 * u2
    elif rho >= 1.0 - 1e-12:
        value = np.minimum(u1, u2)
    elif rho <= -1.0 + 1e-12:
        value = np.maximum(u1 + u2 - 1.0, 0.0)
    else:
        a, b = _rng.ndtri(u1), _rng.ndtri(u2)
        s = math.sqrt(1.0 - rho * rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (_rng.owens_t(a, (b - rho * a) / (a * s))
                 + _rng.owens_t(b, (a - rho * b) / (b * s)))
        origin = math.atan(math.sqrt((1.0 - rho) / (1.0 + rho))) / math.pi
        t = np.where((a == 0.0) & (b == 0.0), origin, t)
        value = np.clip(0.5 * (u1 + u2) - t - 0.5 * ((a < 0.0) != (b < 0.0)),
                        np.maximum(u1 + u2 - 1.0, 0.0), np.minimum(u1, u2))
    value = np.where(u2 == 1.0, u1, value)
    value = np.where(u1 == 1.0, u2, value)
    value = np.where((u1 == 0.0) | (u2 == 0.0), 0.0, value)
    return float(value) if value.ndim == 0 else value
