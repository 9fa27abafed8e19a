"""Empirical diagnostics for sampled joint laws.

Covers the one-dimensional empirical CDF and its sup distance to a
reference law, moment estimates, the Henze-Zirkler multivariate
normality test, and an empirical conditional independence check for
discrete joint samples stratified by their sum.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .mra import _snap

__all__ = [
    "Ecdf",
    "sup_distance",
    "sample_mean_cov",
    "HzResult",
    "henze_zirkler",
    "CiaResult",
    "conditional_independence_gap",
]


class Ecdf:
    """Right-continuous empirical CDF of a one-dimensional sample."""

    __slots__ = ("values", "n")

    def __init__(self, sample):
        values = np.asarray(sample, dtype=float).ravel()
        if values.size == 0:
            raise ValueError("sample must be nonempty")
        self.values = np.sort(values)
        self.n = values.size

    def __call__(self, x):
        return np.searchsorted(self.values, np.asarray(x, dtype=float),
                               side="right") / self.n


def sup_distance(ecdf, cdf):
    """sup_x |F_n(x) - F(x)| for a right-continuous reference CDF.

    The supremum over the whole line is attained at a jump of F_n,
    approaching from the left or evaluated at the jump, so both one-sided
    gaps at every sample point are checked.
    """
    f = np.asarray(cdf(ecdf.values), dtype=float)
    steps = np.arange(1, ecdf.n + 1) / ecdf.n
    return float(np.max(np.maximum(np.abs(f - steps),
                                   np.abs(f - steps + 1.0 / ecdf.n))))


def sample_mean_cov(block):
    """Sample mean and unbiased covariance of the rows of ``block``."""
    x = np.asarray(block, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-d block with at least two rows")
    return x.mean(axis=0), np.atleast_2d(np.cov(x, rowvar=False, ddof=1))


@dataclass(frozen=True)
class HzResult:
    statistic: float
    p_value: float
    beta: float


def _hz_statistic(x):
    from scipy.linalg import solve_triangular  # here, not at import: 0.04-0.09 s of a cold start

    n, d = x.shape
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / n
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1e-300):
        raise ValueError("sample covariance is singular")
    beta = ((n * (2 * d + 1)) / 4.0) ** (1.0 / (d + 4)) / math.sqrt(2.0)
    factor = np.linalg.cholesky(cov)
    white = solve_triangular(factor, centered.T, lower=True).T
    sq = np.einsum("ij,ij->i", white, white)
    s1 = 0.0
    half_b2 = beta**2 / 2.0
    for start in range(0, n, 512):
        chunk = white[start:start + 512]
        dist = sq[start:start + 512, None] + sq[None, :] - 2.0 * (chunk @ white.T)
        np.clip(dist, 0.0, None, out=dist)
        s1 += float(np.exp(-half_b2 * dist).sum())
    s2 = float(np.exp(-(beta**2) * sq / (2.0 * (1.0 + beta**2))).sum())
    statistic = n * (
        s1 / n**2
        - 2.0 * (1.0 + beta**2) ** (-d / 2.0) * s2 / n
        + (1.0 + 2.0 * beta**2) ** (-d / 2.0)
    )
    return statistic, beta


def henze_zirkler(block):
    """Henze-Zirkler multivariate normality test, in up to 8 dimensions.

    The p-value uses the test's lognormal null approximation.
    """
    x = np.asarray(block, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 3:
        raise ValueError("need at least three rows")
    d = x.shape[1]
    if d > 8:
        raise ValueError(f"the lognormal null covers up to 8 dimensions, got {d}")
    statistic, beta = _hz_statistic(x)
    b2 = beta**2
    a = 1.0 + 2.0 * b2
    wb = (1.0 + b2) * (1.0 + 3.0 * b2)
    mu = 1.0 - a ** (-d / 2.0) * (
        1.0 + d * b2 / a + d * (d + 2) * b2**2 / (2.0 * a**2)
    )
    var = (
        2.0 * (1.0 + 4.0 * b2) ** (-d / 2.0)
        + 2.0 * a ** (-d) * (
            1.0 + 2.0 * d * b2**2 / a**2
            + 3.0 * d * (d + 2) * b2**4 / (4.0 * a**4)
        )
        - 4.0 * wb ** (-d / 2.0) * (
            1.0 + 3.0 * d * b2**2 / (2.0 * wb)
            + d * (d + 2) * b2**4 / (2.0 * wb**2)
        )
    )
    log_mu = math.log(math.sqrt(mu**4 / (var + mu**2)))
    log_sd = math.sqrt(math.log((var + mu**2) / mu**2))
    p = float(1.0 - _rng.ndtr((math.log(statistic) - log_mu) / log_sd))
    return HzResult(float(statistic), float(p), float(beta))


@dataclass(frozen=True)
class CiaResult:
    """Conditional independence gap with its bootstrap uncertainty."""

    gap: float
    bootstrap_se: float
    strata: dict
    n_boot: int


def _stratum_gap(left_codes, right_codes, n_left, n_right):
    joint = np.zeros((n_left, n_right))
    np.add.at(joint, (left_codes, right_codes), 1.0)
    joint /= left_codes.size
    outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    return float(np.max(np.abs(joint - outer)))


def conditional_independence_gap(block, left_cols, right_cols, sum_cols=None,
                                 min_count=200, n_boot=200, seed=0):
    """Worst deviation from conditional independence given the sum.

    Rows are stratified by the (snapped) sum over ``sum_cols`` (all of
    left + right by default); strata with fewer than ``min_count`` rows
    are dropped. Within each stratum the gap is
    max |P[left vec, right vec] - P[left vec] P[right vec]| over observed
    value pairs; the result is the max across strata, with a seeded
    bootstrap standard error from per-stratum row resampling.
    """
    x = _snap(np.asarray(block, dtype=float))
    left_cols = list(left_cols)
    right_cols = list(right_cols)
    if sum_cols is None:
        sum_cols = left_cols + right_cols
    sums = _snap(x[:, list(sum_cols)].sum(axis=1))
    values, counts = np.unique(sums, return_counts=True)
    strata = {}
    parts = []
    for value, count in zip(values, counts):
        if count < min_count:
            continue
        mask = sums == value
        _, left_codes = np.unique(x[mask][:, left_cols], axis=0,
                                  return_inverse=True)
        _, right_codes = np.unique(x[mask][:, right_cols], axis=0,
                                   return_inverse=True)
        parts.append((left_codes.ravel(), right_codes.ravel(),
                      left_codes.max() + 1, right_codes.max() + 1))
        strata[float(value)] = int(count)
    if not parts:
        raise ValueError(f"no stratum reaches min_count={min_count}")
    gap = max(_stratum_gap(*part) for part in parts)
    rng = _rng.node_stream(seed, "bootstrap")
    replicates = np.empty(n_boot)
    for b in range(n_boot):
        worst = 0.0
        for left_codes, right_codes, n_left, n_right in parts:
            idx = rng.integers(0, left_codes.size, left_codes.size)
            worst = max(worst, _stratum_gap(left_codes[idx], right_codes[idx],
                                            n_left, n_right))
        replicates[b] = worst
    return CiaResult(gap, float(replicates.std(ddof=1)), strata, n_boot)
