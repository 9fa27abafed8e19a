"""Attainable joint covariances under mild tree dependence.

A Gaussian aggregation tree pins the variance of every partial sum and
the covariance between sibling partial sums. On the leaf covariance
matrix this induces one affine constraint per branching node and child
pair; sibling leaves get their entry fixed outright. The feasible bodies
are the PSD matrices satisfying those constraints. The attainable range
of a single leaf-pair correlation is the optimum of a small semidefinite
program over that set, solved by one log-det barrier path-following run
that returns a feasible witness and a certified duality gap.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedModelError
from .gaussian import node_sum_variances, tree_dependent_covariance
from .tree import RootedTree, node_id

__all__ = [
    "CovarianceConstraintSet",
    "build_constraints",
    "psd_feasible",
    "extremal_correlation",
    "ExtremalResult",
    "symmetric_tree_constraints",
    "symmetric_tree_dep_corr",
]


class CovarianceConstraintSet:
    """Affine description of the covariances a tree model can induce.

    ``fixed`` maps entry (i, j), i < j, to its pinned value; ``sums`` is a
    list of (entries, rhs) with each off-diagonal entry appearing in
    exactly one place overall. ``objective`` is the entry whose range is
    being explored, or None.
    """

    def __init__(self, leaf_order, variances, fixed, sums, tree_dep, objective=None):
        self.leaf_order = tuple(leaf_order)
        self.variances = np.asarray(variances, dtype=float)
        self.fixed = dict(fixed)
        self.sums = [(tuple(e), float(r)) for e, r in sums]
        self.tree_dep = np.asarray(tree_dep, dtype=float)
        self.objective = self._entry(objective) if objective is not None else None

    @property
    def dim(self):
        return len(self.leaf_order)

    def _entry(self, pair):
        a, b = pair
        idx = []
        for x in (a, b):
            if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
                k = int(x)
                if not 0 <= k < self.dim:
                    raise ValueError(f"leaf index {k} out of range")
            else:
                node = node_id(x)
                if node not in self.leaf_order:
                    raise ValueError(f"{x!r} is not a leaf of this model")
                k = self.leaf_order.index(node)
            idx.append(k)
        i, j = sorted(idx)
        if i == j:
            raise ValueError("objective must name two distinct leaves")
        return (i, j)

    def tree_dep_matrix(self):
        return self.tree_dep.copy()

    def residual(self, matrix):
        """Largest absolute constraint violation of ``matrix``."""
        m = np.asarray(matrix, dtype=float)
        worst = float(np.max(np.abs(np.diag(m) - self.variances)))
        for (i, j), v in self.fixed.items():
            worst = max(worst, abs(m[i, j] - v))
        for entries, rhs in self.sums:
            total = sum(m[i, j] for i, j in entries)
            worst = max(worst, abs(total - rhs))
        return worst


def build_constraints(tree, leaf_variances, copula_corrs, objective=None):
    """Covariance constraints induced by a tree's second moments.

    ``leaf_variances`` maps leaf to variance, ``copula_corrs`` maps each
    branching node to its copula correlation matrix. ``objective``, if
    given, is a pair of leaves (ids or indices).
    """
    leaves = tree.leaves()
    index = {leaf: k for k, leaf in enumerate(leaves)}
    variances = [float(leaf_variances[leaf]) for leaf in leaves]
    var_sum = node_sum_variances(tree, leaf_variances, copula_corrs)
    fixed = {}
    sums = []
    for node in tree.branching():
        children = tree.children(node)
        r = np.asarray(copula_corrs[node], dtype=float)
        sd = [math.sqrt(max(var_sum[c], 0.0)) for c in children]
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                rhs = r[i, j] * sd[i] * sd[j]
                entries = tuple(sorted(
                    (min(index[a], index[b]), max(index[a], index[b]))
                    for a in tree.leaf_descendants(children[i])
                    for b in tree.leaf_descendants(children[j])
                ))
                if len(entries) == 1:
                    fixed[entries[0]] = rhs
                else:
                    sums.append((entries, rhs))
    _, tree_dep = tree_dependent_covariance(tree, leaf_variances, copula_corrs)
    return CovarianceConstraintSet(leaves, variances, fixed, sums, tree_dep, objective)


def symmetric_tree_constraints(depth, rho, objective=None):
    """Constraints of the symmetric binary tree with unit leaf variances
    and the same pairwise correlation ``rho`` at every branching node."""
    tree = RootedTree.symmetric_binary(depth)
    corr = np.array([[1.0, rho], [rho, 1.0]])
    leaf_vars = {leaf: 1.0 for leaf in tree.leaves()}
    corrs = {node: corr for node in tree.branching()}
    return build_constraints(tree, leaf_vars, corrs, objective)


def symmetric_tree_dep_corr(levels_up, rho):
    """Tree dependent leaf-pair correlation in the symmetric binary tree.

    ``levels_up`` counts branching levels from the leaves to the pair's
    meeting node (1 for siblings).
    """
    k = int(levels_up)
    if k < 1:
        raise ValueError("levels_up must be at least 1")
    if not -1.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (-1, 1], got {rho}")
    return rho * (1.0 + rho) ** (k - 1) / 2.0 ** (k - 1)


def psd_feasible(matrix, tol=1e-9):
    """Whether ``matrix`` is PSD up to ``tol``; returns (ok, min eigenvalue)."""
    m = np.asarray(matrix, dtype=float)
    lam = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
    return lam >= -tol, lam


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an extremal correlation search."""

    value: float
    covariance: float
    witness: np.ndarray
    status: str
    info: dict = field(default_factory=dict)


_FACE_TOL = 1e-10
_MAX_NEWTON_STEPS = 400
_T_GROWTH = 20.0
_CENTERED = 0.25


def _null_basis(constraints):
    """Orthonormal basis of the directions along which every constraint
    holds: zero-diagonal symmetric matrices that move no fixed entry and
    no constrained sum. Each off-diagonal entry is in at most one group."""
    dim = constraints.dim
    rows, cols = np.triu_indices(dim, 1)
    slot = {pair: k for k, pair in enumerate(zip(rows.tolist(), cols.tolist()))}
    groups = [[e] for e in constraints.fixed] + [e for e, _ in constraints.sums]
    pinned = np.zeros((len(groups), len(rows)))
    for g, entries in enumerate(groups):
        pinned[g, [slot[e] for e in entries]] = 1.0
    free = np.linalg.svd(pinned)[2][len(groups):]
    basis = np.zeros((len(free), dim, dim))
    basis[:, rows, cols] = basis[:, cols, rows] = free / math.sqrt(2.0)
    return basis


def _face(base, basis):
    """Facial reduction onto the range of the tree dependent matrix
    (Drusvyatskiy & Wolkowicz 2017). With N its null space, every X of the
    affine set has <N N^T, X> = 0 if <N N^T, B_k> = 0 for all k, so a PSD
    X has X N = 0; this is checked, not assumed. Returns the basis
    restricted to {z : B(z) N = 0} and, for a frame V of the range,
    V^T base V (positive definite) and V^T B_k V."""
    lam, vec = np.linalg.eigh(base)
    null = lam <= _FACE_TOL * lam[-1]
    n = vec[:, null]
    if np.abs(np.tensordot(basis, n @ n.T, axes=2)).max(initial=0.0) > _FACE_TOL:
        raise UnsupportedModelError(
            "the tree dependent covariance is singular, but the constraints "
            "do not force every feasible covariance onto its range")
    u, s, _ = np.linalg.svd((basis @ n).reshape(len(basis), n.size))
    basis = np.tensordot(u[:, np.sum(s > _FACE_TOL):].T, basis, axes=1)
    frame = vec[:, ~null]
    return basis, frame.T @ base @ frame, frame.T @ basis @ frame


def extremal_correlation(constraints, direction, bracket_tol=1e-7):
    """Largest or smallest attainable correlation for the objective pair.

    One log-det barrier solve (Boyd & Vandenberghe, Convex Optimization,
    11.3) over X(z) = tree_dep + sum_k z_k B_k: damped Newton steps on
    ``-t*(+/-X_ij(z)) - log det X(z)`` from z = 0, with t multiplied by a
    constant whenever the iterate is centered. Each Newton direction also
    gives a dual feasible matrix, and the solve stops once that certified
    duality gap is at most ``bracket_tol`` on the correlation scale.
    Degenerate trees are reduced to their face first; an iterate within
    1e-6 of +/-1 is projected onto correlation exactly +/-1, which is the
    answer when the projection passes ``psd_feasible``. The witness meets
    every constraint to rounding and passes ``psd_feasible``. Status is
    "budget_exhausted" when the Newton step cap or rounding ends the solve
    before the gap target, else "optimal"; ``info`` holds ``direction``,
    the Newton step count ``iterations`` and the certified ``gap``.
    """
    if constraints.objective is None:
        raise ValueError("constraint set has no objective pair")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if not (math.isfinite(bracket_tol) and bracket_tol > 0):
        raise ValueError(f"bracket_tol must be finite and > 0, got {bracket_tol!r}")
    i, j = constraints.objective
    scale = math.sqrt(constraints.variances[i] * constraints.variances[j])
    base = constraints.tree_dep_matrix()
    basis, y0, yb = _face(base, _null_basis(constraints))
    sign = 1.0 if direction == "max" else -1.0
    slope = basis[:, i, j]
    info = {"direction": direction, "iterations": 0, "gap": 0.0}

    def result(x, status, gap):
        info["gap"] = float(gap / scale)
        return ExtremalResult(x[i, j] / scale, x[i, j], x, status, info)

    if np.linalg.norm(slope) <= _FACE_TOL:
        return result(base, "optimal", 0.0)
    z = np.zeros(len(basis))
    t = len(y0) / scale
    gap = math.inf
    x = base
    try:
        for steps in range(_MAX_NEWTON_STEPS + 1):
            # Rounding near machine precision raises; keep the last iterate.
            inv = np.linalg.inv(np.linalg.cholesky(y0 + np.tensordot(z, yb, axes=1)))
            x = base + np.tensordot(z, basis, axes=1)
            info["iterations"] = steps
            scaled = inv @ yb @ inv.T
            flat = scaled.reshape(len(basis), -1)
            hess = flat @ flat.T
            if sign * x[i, j] >= (1.0 - 1e-6) * scale:
                # Shortest move, in the Hessian metric, onto X w = 0.
                w = np.zeros(len(x))
                w[i], w[j] = 1.0 / math.sqrt(x[i, i]), -sign / math.sqrt(x[j, j])
                move = np.linalg.solve(hess, basis @ w)
                pull = np.linalg.lstsq((basis @ w).T @ move, x @ w, rcond=None)[0]
                snap = x - np.tensordot(move @ pull, basis, axes=1)
                if abs(snap[i, j] - sign * scale) <= 1e-12 * scale:
                    snap[i, j] = snap[j, i] = sign * scale
                    if psd_feasible(snap)[0]:
                        return result(snap, "optimal", 0.0)
            trace = np.trace(scaled, axis1=1, axis2=2)
            while True:
                dz = np.linalg.solve(hess, t * sign * slope + trace)
                s = np.linalg.eigvalsh(np.tensordot(dz, scaled, axes=1))
                if s[-1] <= 1.0:
                    gap = (len(y0) - s.sum()) / t
                    if gap <= bracket_tol * scale:
                        return result(x, "optimal", gap)
                if s @ s > _CENTERED or steps == _MAX_NEWTON_STEPS:
                    break
                t *= _T_GROWTH
            z = z + dz / (1.0 + math.sqrt(s @ s))
    except np.linalg.LinAlgError:
        pass
    return result(x, "budget_exhausted", gap)
