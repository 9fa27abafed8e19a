"""Modified reordering: i.i.d. joint realizations from an aggregation tree.

The plain reordering of :mod:`aggtree.reorder` produces the right
aggregate law but dependent rows. Here every output row of a branching
node gets its own fixed-first reordering of n fresh rows of each child:
the plain one with its atoms permuted so that atom k holds child 1's row
k. Row t keeps atom t mod n of its set, which makes the kept rows
independent, and only that atom is built, from stable ranks counted in
O(n). The cost grows by a factor of n per branching level, so runs are
gated by an explicit generation budget. Memory does not grow with it:
every branching node builds its rows in chunks of about ``_CHUNK_ELEMS``
child rows, so each tree level holds about that many values per leaf (n,
if that is larger) whatever the depth or the budget.

Also provides the exact tree-dependent pmf for discrete models on binary
trees, the validation target for the sampler, built on arrays: a points
matrix and a probs vector per node, glued at each branching node by one
outer product masked by the nonzero copula rectangle cells.
"""
import numpy as np

from ._rng import node_stream
from .distributions import Discrete, bivariate_gaussian_copula_cdf, copula_correlation
from .errors import SupportSizeError, UnsupportedModelError
from .reorder import NodeAtoms, check_budget, reorder_children, stable_argsort
from .tree import ROOT, node_label

__all__ = [
    "reorder_fixed_first",
    "run_mra",
    "DiscreteJointPmf",
    "tree_dependent_pmf",
    "empirical_joint_pmf",
    "tv_distance",
]

_SNAP_DECIMALS = 9
# child rows per chunk of a branching node's rows; bounds the working set.
# 2**14 ran fastest of 2**12..2**16 at n=100: larger chunks made glibc trim
# and refault the heap on every chunk.
_CHUNK_ELEMS = 2**14


def reorder_fixed_first(child_atoms, copula_samples):
    """Reorder like :func:`aggtree.reorder.reorder_children`, then permute
    the atoms so atom k's first component is child 1's sample k unchanged:
    child 1's row of stable rank j sits in the plain atom whose copula
    sample has stable rank j in column 1. The sums and picks are permuted;
    the leaf values stay with the children.
    """
    plain = reorder_children(child_atoms, copula_samples)
    u1 = np.asarray(copula_samples, dtype=float)[:, 0]
    perm = np.empty(plain.n, dtype=np.intp)
    perm[stable_argsort(child_atoms[0].sums)] = stable_argsort(u1)
    return NodeAtoms(plain.node, plain.sums[perm],
                     [(child, pick[perm]) for child, pick in plain.picks],
                     None, plain.leaf_order)


def _stable_rank(block, k):
    """0-based stable rank of ``block[t, k[t]]`` within row t, by counting."""
    x = block[np.arange(block.shape[0]), k][:, None]
    before = np.arange(block.shape[1]) < k[:, None]
    return (np.count_nonzero(block < x, axis=1)
            + np.count_nonzero((block == x) & before, axis=1))


def _of_stable_rank(block, j):
    """Column of the entry of 0-based stable rank ``j[t]`` in row t: in row
    order, the c-th (0-based) entry equal to the row's j-th smallest value
    x, where c = j - #{entries < x}.
    """
    x = np.sort(block, axis=1)[np.arange(block.shape[0]), j][:, None]
    c = j - np.count_nonzero(block < x, axis=1)
    return np.argmax(np.cumsum(block == x, axis=1) > c[:, None], axis=1)


def _kept_atoms(sums, comps, u, k):
    """Atom ``k[t]`` of the fixed-first reordering of set t, for every t.

    sums are the children's (r, n) blocks, comps their (r, n, M_i)
    compositions and u the (r, n, m) copula block. The atom holds child
    1's row k and belongs to the copula row a whose stable rank in column
    1 equals that row's; child i >= 2 adds its row whose stable rank
    equals that of u[a, i]. Returns the (r,) sums, added in child order,
    and the (r, sum M_i) composition.
    """
    a = _of_stable_rank(u[:, :, 0], _stable_rank(sums[0], k))
    picks = [k] + [_of_stable_rank(s, _stable_rank(u[:, :, i], a))
                   for i, s in enumerate(sums[1:], 1)]
    t = np.arange(len(k))
    parts = [s[t, p] for s, p in zip(sums, picks)]
    comp = np.concatenate([c[t, p] for c, p in zip(comps, picks)], axis=1)
    return sum(parts[1:], parts[0]), comp


def _iid_rows(model, streams, node, rows, n):
    """``rows`` i.i.d. realizations of the subtree below ``node``.

    Returns (sums, composition) with shapes (rows,) and (rows, M). At a
    branching node, row t is atom t mod n of its own fixed-first
    reordering of n fresh rows of every child, so each branching level
    multiplies the draws below it by n. Rows are built in chunks of
    max(1, ``_CHUNK_ELEMS`` // n), so a chunk asks each child for at most
    max(``_CHUNK_ELEMS``, n) rows, which the child chunks in turn. Each
    (purpose, node) stream is read by its own node only, in row order, so
    the chunking does not change the output.
    """
    tree = model.tree
    if tree.arity(node) == 0:
        x = model.marginals[node].sample(rows, streams("marginal", node))
        return x, x[:, None]
    children = tree.children(node)
    step = max(1, _CHUNK_ELEMS // n)
    sums, comp = np.empty(rows), np.empty((rows, tree.leaf_count(node)))
    for s in range(0, rows, step):
        r = min(step, rows - s)
        kids = [_iid_rows(model, streams, child, r * n, n) for child in children]
        u = model.copulas[node].sample(r * n, streams("copula", node))
        sums[s:s + r], comp[s:s + r] = _kept_atoms(
            [x.reshape(r, n) for x, _ in kids],
            [c.reshape(r, n, -1) for _, c in kids],
            u.reshape(r, n, len(children)),
            (s + np.arange(r)) % n,
        )
    return sums, comp


def run_mra(model, n, seed, budget=10**8):
    """Sample n i.i.d. joint leaf vectors; deterministic given ``seed``.

    Returns the root's :class:`NodeAtoms`: the n root sums, and the n x
    (number of leaves) block of leaf values as its ``values``. A leaf below
    d branching nodes draws n**(d + 1) values. Refuses to run, before
    drawing anything, when the sum of these counts over all leaves, an
    exact int, exceeds ``budget`` (see :func:`aggtree.reorder.check_budget`).
    Every tree level is built in chunks, so each level holds about
    max(``_CHUNK_ELEMS``, n) values per leaf whatever the depth or
    ``budget``; the chunking does not change the output.
    """
    model.require_valid()
    if n < 2:
        raise ValueError("n must be >= 2")
    leaves = model.tree.leaves()
    check_budget(sum(int(n) ** (len(leaf) + 1) for leaf in leaves), budget)

    cache = {}

    def streams(purpose, node):
        key = (purpose, node)
        if key not in cache:
            cache[key] = node_stream(seed, purpose, node)
        return cache[key]

    sums, composition = _iid_rows(model, streams, ROOT, n, n)
    return NodeAtoms(ROOT, sums, None, composition, leaves)


class DiscreteJointPmf:
    """Finite pmf over vectors, points sorted lexicographically by row."""

    __slots__ = ("points", "probs")

    def __init__(self, points, probs):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        probs = np.asarray(probs, dtype=float)
        if points.shape[0] != probs.shape[0]:
            raise ValueError("points and probs must have matching length")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1")
        order = np.lexsort(points.T[::-1])
        self.points = points[order]
        self.probs = probs[order]

    @property
    def dim(self):
        return self.points.shape[1]

    def as_dict(self):
        return {tuple(row): float(p) for row, p in zip(self.points, self.probs)}

    def __repr__(self):
        return f"DiscreteJointPmf({self.points.shape[0]} points, dim={self.dim})"


def _snap(x):
    """Round to 9 decimals, the one grid on which pmf points are compared."""
    return np.round(x, _SNAP_DECIMALS)


def empirical_joint_pmf(realizations):
    """Counting-measure pmf of the rows (snapped to 9 decimals)."""
    rows = _snap(np.atleast_2d(np.asarray(realizations, dtype=float)))
    points, counts = np.unique(rows, axis=0, return_counts=True)
    return DiscreteJointPmf(points, counts / rows.shape[0])


def tv_distance(p, q):
    """Total variation distance between two finite pmfs."""
    a, b = p.as_dict(), q.as_dict()
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def _node_rho(copula, node):
    corr = copula_correlation(copula)
    if corr.shape != (2, 2):
        raise UnsupportedModelError(
            f"exact pmf needs bivariate copulas, node {node_label(node)} has "
            f"dimension {corr.shape[0]}"
        )
    return float(corr[0, 1])


def _rectangles(rho, cdf_a, cdf_b):
    """Joint cell probabilities for two sums coupled by a Gaussian copula."""
    grid = np.zeros((len(cdf_a) + 1, len(cdf_b) + 1))
    grid[1:, 1:] = bivariate_gaussian_copula_cdf(rho, cdf_a[:, None], cdf_b[None, :])
    cells = grid[1:, 1:] - grid[:-1, 1:] - grid[1:, :-1] + grid[:-1, :-1]
    return np.clip(cells, 0.0, None)


def tree_dependent_pmf(model, support_cap=10**5):
    """Exact joint pmf of the tree dependent leaf vector.

    Requires all-discrete marginals and a binary tree. Built bottom-up, with
    ``points`` (K, leaves below) and ``probs`` (K,) per node: a pair of child
    rows gets the mass of its sums' copula rectangle cell, split by
    conditional independence given the sums. At each node the number of
    candidate pairs, |left rows| x |right rows|, is checked against
    ``support_cap`` before the cell grid or any pair is built, so the cap
    bounds memory; it counts pairs in zero cells too.
    """
    model.require_valid()
    tree = model.tree
    for leaf in tree.leaves():
        if not isinstance(model.marginals[leaf], Discrete):
            raise UnsupportedModelError(
                f"exact pmf needs discrete marginals, leaf {node_label(leaf)} "
                f"is {model.marginals[leaf]!r}"
            )
    for node in tree.branching():
        if tree.arity(node) != 2:
            raise UnsupportedModelError(
                f"exact pmf needs a binary tree, node {node_label(node)} has "
                f"{tree.arity(node)} children"
            )

    def build(node):
        if tree.arity(node) == 0:
            spec = model.marginals[node]
            return _snap(spec.support)[:, None], spec.probs
        (pts_l, q_l), (pts_r, q_r) = (build(c) for c in tree.children(node))
        size = len(q_l) * len(q_r)  # bounds the cell grid and the pair mask
        if size > support_cap:
            raise SupportSizeError(size, support_cap)
        _, i_l = np.unique(_snap(pts_l.sum(axis=1)), return_inverse=True)
        _, i_r = np.unique(_snap(pts_r.sum(axis=1)), return_inverse=True)
        m_l, m_r = np.bincount(i_l, q_l), np.bincount(i_r, q_r)
        rho = _node_rho(model.copulas[node], node)
        cells = _rectangles(rho, np.cumsum(m_l), np.cumsum(m_r))
        a, b = np.nonzero((cells > 0.0)[i_l][:, i_r])
        probs = (cells / np.outer(m_l, m_r))[i_l[a], i_r[b]] * q_l[a] * q_r[b]
        return np.hstack([pts_l[a], pts_r[b]]), probs

    points, probs = build(())
    return DiscreteJointPmf(points, probs / probs.sum())
