"""Exact second-moment analytics for Gaussian aggregation tree models.

The tree dependent joint law of normal leaves under Gaussian copulas is
normal again; its covariance follows from a bottom-up recursion over the
tree. For the three-leaf tree the set of attainable leaf-1/leaf-3
correlations is a closed interval with explicit endpoints, and the pairs
(cov(X1, X3), cov(X2, X3)) trace an ellipse whose parameters are also in
closed form.
"""
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Normal, copula_correlation
from .errors import InfeasibleCorrelationError, UnsupportedModelError
from .tree import node_label

__all__ = [
    "node_sum_variances",
    "tree_dependent_covariance",
    "tree_dependent_law",
    "GaussianTreeLaw",
    "CorrelationInterval",
    "three_leaf_corr_interval",
    "three_leaf_covariance",
    "ellipse_parameters",
    "model_second_moments",
]


def model_second_moments(model):
    """Leaf variance and copula correlation maps of a Gaussian model."""
    for leaf in model.tree.leaves():
        if not isinstance(model.marginals[leaf], Normal):
            raise UnsupportedModelError(
                f"leaf {node_label(leaf)} is not normal: {model.marginals[leaf]!r}"
            )
    leaf_vars = {leaf: model.marginals[leaf].variance for leaf in model.tree.leaves()}
    corrs = {node: copula_correlation(model.copulas[node])
             for node in model.tree.branching()}
    return leaf_vars, corrs


def _node_correlation(corrs, node, arity):
    r = np.asarray(corrs[node], dtype=float)
    if r.shape != (arity, arity):
        raise ValueError(
            f"correlation at {node_label(node)} has shape {r.shape}, "
            f"expected {(arity, arity)}"
        )
    return r


def _second_moments(tree, leaf_variances, copula_corrs):
    """(variance of the partial sum at every node, leaf covariance), bottom-up.

    Leaves are lexicographic, so the leaves below a node are one block of
    columns. ``load[a]`` is cov(X_a, S), S the sum of the largest subtree
    built so far that holds leaf a. Partial sums of sibling subtrees
    are coupled by the node copula's correlation; within-subtree structure
    is already fixed lower down, so each cross block factorizes through the
    two subtree sums.
    """
    leaves = tree.leaves()
    cov = np.diag([float(leaf_variances[leaf]) for leaf in leaves])
    load = cov.diagonal().copy()
    var = {leaf: float(v) for leaf, v in zip(leaves, load)}
    block = {leaf: slice(k, k + 1) for k, leaf in enumerate(leaves)}
    for node in sorted(tree.branching(), key=len, reverse=True):
        children = tree.children(node)
        r = _node_correlation(copula_corrs, node, len(children))
        v = [var[c] for c in children]
        sd = np.sqrt(np.maximum(v, 0.0))
        cross = r * np.outer(sd, sd)
        cols = [block[c] for c in children]
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                if v[i] <= 0.0 or v[j] <= 0.0:
                    continue
                cov[cols[i], cols[j]] = np.outer(load[cols[i]], load[cols[j]]) \
                    * (cross[i, j] / (v[i] * v[j]))
                cov[cols[j], cols[i]] = cov[cols[i], cols[j]].T
        for i in range(len(children)):
            if v[i] > 0.0:
                load[cols[i]] *= 1.0 + (cross[i].sum() - cross[i, i]) / v[i]
        var[node] = max(float(cross.sum()), 0.0)
        block[node] = slice(cols[0].start, cols[-1].stop)
    return var, cov


def node_sum_variances(tree, leaf_variances, copula_corrs):
    """Variance of the partial sum at every node, computed bottom-up."""
    return _second_moments(tree, leaf_variances, copula_corrs)[0]


def tree_dependent_covariance(tree, leaf_variances, copula_corrs):
    """Joint covariance of the leaves under the tree dependent law.

    Returns (leaf_order, covariance).
    """
    return tree.leaves(), _second_moments(tree, leaf_variances, copula_corrs)[1]


@dataclass(frozen=True)
class GaussianTreeLaw:
    """Normal joint law of the leaves: mean vector plus covariance."""

    leaf_order: tuple
    mean: np.ndarray
    covariance: np.ndarray


def tree_dependent_law(model):
    """Exact joint leaf law of a Gaussian model under tree dependence."""
    model.require_valid()
    leaf_vars, corrs = model_second_moments(model)
    leaves, cov = tree_dependent_covariance(model.tree, leaf_vars, corrs)
    mean = np.array([model.marginals[leaf].mean for leaf in leaves])
    return GaussianTreeLaw(tuple(leaves), mean, cov)


@dataclass(frozen=True)
class CorrelationInterval:
    """Attainable leaf-1/leaf-3 correlations in the three-leaf tree.

    ``tree_dep`` is the value realized by the tree dependent law itself;
    it always equals ``mid``. When the grouped pair is countermonotone
    with matching scales the first sum is degenerate and every
    correlation is attainable, flagged by ``degenerate``.
    """

    min: float
    mid: float
    half_length: float
    max: float
    tree_dep: float
    degenerate: bool = False


def _check_three_leaf_params(sigma1, sigma2, sigma3, rho12, rho_root):
    # squares, their sums and products stay normal doubles in this range
    for name, s in (("sigma1", sigma1), ("sigma2", sigma2), ("sigma3", sigma3)):
        if not 1e-150 <= s <= 1e150:
            raise ValueError(f"{name} must lie in [1e-150, 1e150], got {s}")
    for name, r in (("rho12", rho12), ("rho_root", rho_root)):
        if not -1.0 <= r <= 1.0:
            raise ValueError(f"{name} must lie in [-1, 1], got {r}")


def three_leaf_corr_interval(sigma1, sigma2, sigma3, rho12, rho_root):
    """Interval of correlations between leaf 1 and the lone leaf.

    Model: leaves 1 and 2 are grouped with correlation ``rho12``; their
    sum couples to leaf 3 (scale ``sigma3``) with correlation
    ``rho_root``. The interval does not depend on ``sigma3``.
    """
    _check_three_leaf_params(sigma1, sigma2, sigma3, rho12, rho_root)
    d = sigma1**2 + sigma2**2 + 2.0 * rho12 * sigma1 * sigma2
    if d <= 1e-14 * (sigma1**2 + sigma2**2):
        return CorrelationInterval(-1.0, 0.0, 1.0, 1.0, 0.0, degenerate=True)
    root = math.sqrt(d)
    mid = rho_root * (rho12 * sigma2 + sigma1) / root
    rad = sigma2**2 * (1.0 - rho12**2) * (1.0 - rho_root**2)
    half = math.sqrt(max(rad, 0.0)) / root
    return CorrelationInterval(mid - half, mid, half, mid + half, mid)


def three_leaf_covariance(sigma1, sigma2, sigma3, rho12, rho_root, rho13):
    """Complete the three-leaf covariance matrix for a requested rho13.

    The pair (sigma13, sigma23) is pinned by the variance and root
    coupling of the grouped sum, so choosing rho13 determines everything.
    Raises InfeasibleCorrelationError when rho13 lies outside the
    attainable interval.
    """
    interval = three_leaf_corr_interval(sigma1, sigma2, sigma3, rho12, rho_root)
    if math.isnan(rho13):
        raise ValueError("rho13 must be a number, got nan")
    slack = 1e-12
    if rho13 < interval.min - slack or rho13 > interval.max + slack:
        distance = max(interval.min - rho13, rho13 - interval.max)
        raise InfeasibleCorrelationError(rho13, (interval.min, interval.max), distance)
    s12 = rho12 * sigma1 * sigma2
    s13 = rho13 * sigma1 * sigma3
    if interval.degenerate:
        s23 = -s13
    else:
        d = sigma1**2 + sigma2**2 + 2.0 * s12
        s23 = rho_root * math.sqrt(d) * sigma3 - s13
    return np.array([
        [sigma1**2, s12, s13],
        [s12, sigma2**2, s23],
        [s13, s23, sigma3**2],
    ])


def ellipse_parameters(sigma1, sigma2, sigma3, rho12, rho_root):
    """Ellipse traced by the attainable (cov13, cov23) pairs.

    Returns a dict with the axis-aligned description after the shear that
    maps the grouped pair to independent coordinates: center ``x0`` (in
    cov13), semi-axes ``a`` (cov13 direction) and ``b``, plus the shear
    parameters ``u`` and ``v``. Undefined when the grouped pair is
    perfectly correlated, and refused when ``u**2 * v**2`` leaves the
    double range, which can happen for extreme sigma ratios with rho12
    near +/-1.
    """
    _check_three_leaf_params(sigma1, sigma2, sigma3, rho12, rho_root)
    l22 = sigma2 * math.sqrt(max(1.0 - rho12**2, 0.0))
    if l22 == 0.0:
        raise ValueError("rho12 = +/-1 degenerates the ellipse to a point set")
    d = sigma1**2 + sigma2**2 + 2.0 * rho12 * sigma1 * sigma2
    u = rho_root * math.sqrt(d) * sigma3 / l22
    v = (sigma1 + rho12 * sigma2) / l22
    if not math.isfinite((u * u) * (v * v)):  # then every square below is finite
        raise ValueError(
            f"the ellipse overflows the double range at sigma1={sigma1!r}, "
            f"sigma2={sigma2!r}, sigma3={sigma3!r}, rho12={rho12!r}, "
            f"rho_root={rho_root!r}: u={u!r}, v={v!r}")
    x0 = u * v / (1.0 + v**2)
    a = math.sqrt(max((sigma3**2 - u**2) / (1.0 + v**2) + x0**2, 0.0))
    b = math.sqrt(max(sigma3**2 - u**2 + u**2 * v**2 / (1.0 + v**2), 0.0))
    return {"u": u, "v": v, "x0": x0, "a": a, "b": b}
