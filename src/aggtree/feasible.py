"""Attainable joint covariances under mild tree dependence.

A Gaussian aggregation tree pins the variance of every partial sum and
the covariance between sibling partial sums. On the leaf covariance
matrix this induces one affine constraint per pair of sibling subtrees:
the entries of the block between their leaves sum to a known value. The
attainable range of a single leaf-pair correlation is the optimum of a
small semidefinite program over the PSD matrices meeting those
constraints, solved by one log-det barrier run that returns a feasible
witness and a certified duality gap.
"""
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedModelError
from .gaussian import node_sum_variances, tree_dependent_covariance
from .tree import RootedTree, node_id, node_label

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

    Besides the leaf ``variances`` on the diagonal, ``blocks`` holds one
    (rows, cols, rhs) per pair of sibling subtrees: ``rows`` and ``cols``
    are the slices of the leaf order below the two siblings, and the
    entries of the block ``[rows, cols]`` sum to ``rhs``. Each off-diagonal
    entry lies in exactly one block. ``objective`` is the entry whose range
    is being explored, or None.
    """

    def __init__(self, leaf_order, variances, blocks, tree_dep, objective=None):
        self.leaf_order = tuple(leaf_order)
        self.variances = np.asarray(variances, dtype=float)
        self.blocks = [(rows, cols, float(rhs)) for rows, cols, rhs in blocks]
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

    def residual(self, matrix):
        """Largest absolute constraint violation of ``matrix``."""
        m = np.asarray(matrix, dtype=float)
        return max([float(np.max(np.abs(np.diag(m) - self.variances)))]
                   + [abs(m[rows, cols].sum() - rhs) for rows, cols, rhs in self.blocks])


def build_constraints(tree, leaf_variances, copula_corrs, objective=None):
    """Covariance constraints induced by a tree's second moments.

    ``leaf_variances`` maps leaf to variance, ``copula_corrs`` maps each
    branching node to its copula correlation matrix. ``objective``, if
    given, is a pair of leaves (ids or indices).
    """
    leaves = tree.leaves()
    variances = [float(leaf_variances[leaf]) for leaf in leaves]
    for leaf, v in zip(leaves, variances):
        if not 0.0 < v < math.inf:
            raise ValueError(f"leaf {node_label(leaf)}: variance must be finite and > 0")
    var_sum = node_sum_variances(tree, leaf_variances, copula_corrs)
    blocks = []
    for node in tree.branching():
        children = tree.children(node)
        r = np.asarray(copula_corrs[node], dtype=float)
        sd = [math.sqrt(max(var_sum[c], 0.0)) for c in children]
        # leaves are lexicographic, so the leaves below a child are one run
        runs = [slice(leaves.index(below[0]), leaves.index(below[-1]) + 1)
                for below in map(tree.leaf_descendants, children)]
        for i, j in itertools.combinations(range(len(children)), 2):
            blocks.append((runs[i], runs[j], r[i, j] * sd[i] * sd[j]))
    _, tree_dep = tree_dependent_covariance(tree, leaf_variances, copula_corrs)
    return CovarianceConstraintSet(leaves, variances, blocks, tree_dep, objective)


def symmetric_tree_constraints(depth, rho, objective=None):
    """Constraints of the symmetric binary tree with unit leaf variances
    and the same pairwise correlation ``rho`` at every branching node."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
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


def _sym(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _face(constraints):
    """Facial reduction onto the range of the tree dependent matrix
    (Drusvyatskiy & Wolkowicz 2017): a PSD X of the affine set has X N = 0,
    N the null space, if N N^T is a combination of the symmetric A_k of
    <A_k, X> = b_k; this is checked, not assumed. Returns a frame V of the
    range and orthonormal rows spanning the flattened V^T A_k V."""
    dim = constraints.dim
    stack = np.zeros((dim + len(constraints.blocks), dim, dim))
    stack[np.arange(dim), np.arange(dim), np.arange(dim)] = 1.0
    for k, (rows, cols, _) in enumerate(constraints.blocks, start=dim):
        stack[k, rows, cols] = stack[k, cols, rows] = 0.5
    lam, vec = np.linalg.eigh(constraints.tree_dep)
    if lam[0] < -_FACE_TOL * lam[-1]:
        raise ValueError(f"tree_dep is not PSD: eigenvalue {lam[0]:.3g}")
    null = lam <= _FACE_TOL * lam[-1]
    nn = (vec[:, null] @ vec[:, null].T).ravel()
    a = stack.reshape(len(stack), -1).T  # columns vec(A_k)
    if null.any() and np.linalg.norm(nn - a @ np.linalg.lstsq(a, nn)[0]) > _FACE_TOL:
        raise UnsupportedModelError(
            "the tree dependent covariance is singular, but the constraints "
            "do not force every feasible covariance onto its range")
    frame = vec[:, ~null]
    _, s, rows = np.linalg.svd((frame.T @ stack @ frame).reshape(len(stack), -1),
                               full_matrices=False)
    return frame, rows[s > _FACE_TOL * s[0]]


def extremal_correlation(constraints, direction, bracket_tol=1e-7):
    """Largest or smallest attainable correlation for the objective pair.

    One log-det barrier solve (Boyd & Vandenberghe, Convex Optimization,
    10.2 and 11.3) from the tree dependent matrix: damped Newton steps on
    ``-t*(+/-X_ij) - log det X`` under the tree constraints <A_k, X> = b_k,
    t growing whenever the iterate is centered. With X = L L^T, a step
    L U L^T takes U as the scaled gradient projected by a QR off the
    L^T A_k L; an undamped min-norm move keeps each iterate on the affine
    set. The solve stops once the duality gap the Newton direction
    certifies is at most ``bracket_tol`` on the correlation scale.
    Degenerate trees are reduced to their face first. An iterate within
    1e-6 of +/-1 moves in the same metric onto exactly +/-1, the answer if
    that passes ``psd_feasible``. The witness meets every constraint to
    rounding and passes ``psd_feasible``. Status is "budget_exhausted" when
    the Newton step cap or rounding ends the solve before the gap target,
    else "optimal"; ``info`` holds ``direction``, the Newton step count
    ``iterations`` and the certified ``gap``.
    """
    if constraints.objective is None:
        raise ValueError("constraint set has no objective pair")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    if not (math.isfinite(bracket_tol) and bracket_tol > 0):
        raise ValueError(f"bracket_tol must be finite and > 0, got {bracket_tol!r}")
    # The search keeps the constraint values of its start, tree_dep. Sets from
    # build_constraints miss by at most 1e-13 of the largest value, residual(0).
    off = constraints.residual(constraints.tree_dep)
    if not off <= 1e-9 * constraints.residual(np.zeros_like(constraints.tree_dep)):
        raise ValueError(f"tree_dep does not meet the constraints: residual {off:.3g}")
    i, j = constraints.objective
    scale = math.sqrt(constraints.variances[i] * constraints.variances[j])
    frame, cons = _face(constraints)
    rank = len(frame.T)
    mats = cons.reshape(-1, rank, rank)
    sign = 1.0 if direction == "max" else -1.0
    obj = sign * _sym(np.outer(frame[i], frame[j])).ravel()  # X_ij on the face
    info = {"direction": direction, "iterations": 0, "gap": 0.0}

    def result(x, status, gap):
        info["gap"] = float(gap / scale)
        return ExtremalResult(x[i, j] / scale, x[i, j], x, status, info)

    if np.linalg.norm(obj - cons.T @ (cons @ obj)) <= _FACE_TOL:
        return result(constraints.tree_dep.copy(), "optimal", 0.0)
    y = last = start = frame.T @ constraints.tree_dep @ frame
    grad = np.stack([obj, np.eye(rank).ravel()], 1)
    w = frame[i] - sign * constraints.variances[i] / scale * frame[j]  # X w = 0 at +/-1
    t = rank / scale
    gap = math.inf
    try:
        for steps in range(_MAX_NEWTON_STEPS + 1):
            low = np.linalg.cholesky(y)
            q, r = np.linalg.qr((low.T @ mats @ low).reshape(len(cons), -1).T)
            fix = q @ np.linalg.solve(r.T, cons @ (start - y).ravel())
            y = last = y + low @ fix.reshape(rank, rank) @ low.T
            info["iterations"] = steps
            if sign * (frame[i] @ y @ frame[j]) >= (1.0 - 1e-6) * scale:
                # The shortest step L U L^T onto X w = 0 has U p = -p, p ~ L^T w.
                p = low.T @ w / np.linalg.norm(low.T @ w)
                rows = _sym(np.eye(rank)[:, :, None] * p).reshape(rank, -1)
                u = np.linalg.lstsq(rows - rows @ q @ q.T, -p, rcond=_FACE_TOL)[0]
                snap = _sym(frame @ (y + low @ u.reshape(rank, rank) @ low.T) @ frame.T)
                if abs(snap[i, j] - sign * scale) <= 1e-12 * scale:
                    snap[i, j] = snap[j, i] = sign * scale
                    if psd_feasible(snap)[0]:
                        return result(snap, "optimal", 0.0)
            grad[:, 0] = (low.T @ obj.reshape(rank, rank) @ low).ravel()
            toward, center = _sym((grad - q @ (q.T @ grad)).T.reshape(2, rank, rank))
            while True:
                u = t * toward + center
                s = np.linalg.eigvalsh(u)
                if s[-1] <= 1.0:
                    gap = (rank - s.sum()) / t
                    if gap <= bracket_tol * scale:
                        return result(_sym(frame @ y @ frame.T), "optimal", gap)
                if s @ s > _CENTERED or steps == _MAX_NEWTON_STEPS:
                    break
                t *= _T_GROWTH
            y = y + low @ u @ low.T / (1.0 + math.sqrt(s @ s))
    except np.linalg.LinAlgError:  # rounding near machine precision; keep last iterate
        pass
    return result(_sym(frame @ last @ frame.T), "budget_exhausted", gap)
