"""Attainable joint covariances under mild tree dependence.

A Gaussian aggregation tree pins the variance of every partial sum and
the covariance between sibling partial sums. On the leaf covariance
matrix this induces one affine constraint per pair of sibling subtrees:
the entries of the block between their leaves sum to a known value. The
attainable range of a single leaf-pair correlation, the optimum of a
small semidefinite program over the PSD matrices meeting those
constraints, is in closed form: the end angle of a free chain on the
sphere, with a witness matrix that attains it.
"""
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
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


def _chain(constraints):
    """Leaf runs of the partial sums on the path between the objective's
    leaves i and j: from i up to the child of their meeting node, across to
    the child holding j, and down to j."""
    i, j = constraints.objective
    span = range(constraints.dim)
    runs = {span[s] for block in constraints.blocks for s in block[:2]}
    # sibling runs nest, so those holding one leaf of the pair and not the
    # other are the sums below the meeting node
    up = sorted((r for r in runs if i in r and j not in r), key=len)
    down = sorted((r for r in runs if j in r and i not in r), key=len)
    siblings = [{span[rows], span[cols]} for rows, cols, _ in constraints.blocks]
    if not (up and down and {up[-1], down[-1]} in siblings):
        a, b = (node_label(constraints.leaf_order[k]) for k in (i, j))
        raise ValueError(f"no sibling block holds the pair {a}, {b}")
    return up + down[::-1]


def _fold(lo, hi, step):
    """Angles from a chain's start to the vertex ``step`` past the current
    one, across a free joint, when those to the current one fill [lo, hi]."""
    near = 0.0 if lo <= step <= hi else min(abs(step - lo), abs(step - hi))
    if lo <= math.pi - step <= hi:
        return near, math.pi
    return near, max(min(x + step, 2.0 * math.pi - x - step) for x in (lo, hi))


def _turn(f, run, axis, mov, fix, angle, spare):
    """Turn the rows ``run`` of the factor ``f`` about their sum ``axis``
    (freely if None) so that ``mov``, a vector they carry, makes ``angle``
    with ``fix``. Column ``spare``, zero so far, gives the turn room to
    reach every angle."""
    def perp(v):
        return v if axis is None else v - (v @ axis) / (axis @ axis) * axis

    mp, fp = perp(mov), perp(fix)
    nm, nf = np.linalg.norm(mp), np.linalg.norm(fp)
    if nm == 0.0 or nf == 0.0:  # the turn cannot change the angle
        return
    # the spherical law of cosines at the joint
    cos = np.clip((math.cos(angle) * np.linalg.norm(mov) * np.linalg.norm(fix)
                   - mov @ fix + mp @ fp) / (nm * nf), -1.0, 1.0)
    hop = np.zeros_like(fp)
    hop[spare] = 1.0
    to = cos * fp / nf - math.sqrt(1.0 - cos * cos) * hop
    # mp/nm goes to the spare axis and on to ``to`` by two reflections,
    # each in a hyperplane holding the axis and between unit vectors at
    # least 90 degrees apart, so neither has a cancelling normal
    for v in (perp(mp / nm - hop), perp(hop - to)):
        f[run] -= np.outer(f[run] @ v, v) * (2.0 / (v @ v))


def extremal_correlation(constraints, direction):
    """Largest or smallest attainable correlation for the objective pair.

    Read each partial sum as a vector of L^2; the rows of an eigen-factor
    of ``tree_dep`` are the leaves. The sums on the path between the pair's
    leaves (``_chain``) form a chain whose consecutive angles the
    constraints fix. Turning a subtree about its own sum keeps every
    constraint, so each inner vertex is a free joint, and one of variance 0
    frees the angle across it. The angles from leaf i to each vertex fill
    an interval [lo, hi], folded step by step; the value is cos(hi) at the
    end for "min", cos(lo) for "max". The witness backtracks one reachable
    angle per vertex and turns the factor's subtrees to meet them; it meets
    every constraint to rounding and passes ``psd_feasible``. Status is
    "optimal"; ``info`` holds ``direction``, the chain's step count
    ``iterations`` and ``gap``, the witness's distance from the value, to
    which its objective entry is then set.
    """
    if constraints.objective is None:
        raise ValueError("constraint set has no objective pair")
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    lam, vec = np.linalg.eigh(constraints.tree_dep)
    if lam[0] < -1e-10 * lam[-1]:
        raise ValueError(f"tree_dep is not PSD: eigenvalue {lam[0]:.3g}")
    i, j = constraints.objective
    chain = _chain(constraints)
    steps = len(chain) - 1
    ind = np.array([[k in run for k in range(constraints.dim)] for run in chain], float)
    keep = lam > constraints.dim * np.finfo(float).eps * lam[-1]
    f = np.hstack([vec[:, keep] * np.sqrt(lam[keep]),
                   np.zeros((constraints.dim, steps - 1))])
    x = ind @ f  # the chain's vertices
    size = np.linalg.norm(x, axis=1)
    free = size <= 1e-6 * (ind @ np.sqrt(constraints.variances))  # 0 up to rounding
    with np.errstate(divide="ignore", invalid="ignore"):  # at free vertices
        u = x / size[:, None]
    # the angle between consecutive unit vertices, accurate near 0 and pi too
    step = 2.0 * np.arctan2(np.linalg.norm(u[1:] - u[:-1], axis=1),
                            np.linalg.norm(u[1:] + u[:-1], axis=1))
    loose = free[:-1] | free[1:]
    reach = [(0.0, 0.0)]
    for k in range(steps):
        reach.append((0.0, math.pi) if loose[k] else _fold(*reach[-1], step[k]))
    angle = [0.0] * steps + [reach[-1][direction == "min"]]  # hi for "min"
    for k in range(steps, 0, -1):
        lo, hi = reach[k - 1]
        angle[k - 1] = lo if loose[k - 1] else min(max(abs(angle[k] - step[k - 1]), lo), hi)

    for k in range(1, steps):
        nxt = f[chain[k + 1]].sum(axis=0)
        mov, fix = (f[i], nxt) if i in chain[k] else (nxt, f[i])
        axis = None if free[k] else f[chain[k]].sum(axis=0)
        _turn(f, chain[k], axis, mov, fix, angle[k + 1], spare=-k)
    # the turns keep every block sum, so the witness misses the constraints
    # by what tree_dep does: at most 1e-13 of residual(0) from build_constraints
    witness = f @ f.T
    miss = constraints.residual(witness)
    if not miss <= 1e-9 * constraints.residual(np.zeros_like(witness)):
        raise ValueError(f"tree_dep does not meet the constraints: residual {miss:.3g}")
    scale = math.sqrt(constraints.variances[i] * constraints.variances[j])
    value = math.cos(angle[-1])
    info = {"direction": direction, "iterations": steps,
            "gap": float(abs(witness[i, j] / scale - value))}
    witness[i, j] = witness[j, i] = value * scale
    return ExtremalResult(value, value * scale, witness, "optimal", info)
