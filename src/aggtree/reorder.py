"""Rank-reordering construction of dependent samples on an aggregation tree.

Leaves are sampled independently; at every branching node, samples of the
children sums are re-paired so that their ranks match the ranks of a
sample from the node copula (Iman and Conover 1982; Arbenz, Hummel and
Mainik 2012), and the paired rows are summed. Each node keeps which child
atom it picked, not a copy of the leaf values, so the joint leaf vector
behind every node sum stays recoverable by one gather at the root.

:func:`reorder_children` is the one re-pairing kernel; its ranks come from
:func:`stable_argsort`, so the output does not depend on SIMD dispatch.
"""
import math

import numpy as np

from ._rng import node_stream
from .errors import GenerationBudgetError
from .tree import ROOT, node_label

__all__ = [
    "NodeAtoms",
    "ranks",
    "reorder_children",
    "run_reordering",
    "stable_argsort",
]


def stable_argsort(values):
    """Stable argsort: quicksort's, kept when the sorted keys strictly increase."""
    order = np.argsort(values)
    keys = values[order]
    return order if np.all(keys[1:] > keys[:-1]) else np.argsort(values, kind="stable")


def ranks(values):
    """1-based ranks of ``values`` with ties broken by original index.

    The result is always a permutation of 1..n; for distinct values it
    equals the count definition #{j : v_j <= v_k}.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    out = np.empty(values.size, dtype=np.int64)
    out[stable_argsort(values)] = np.arange(1, values.size + 1)
    return out


class NodeAtoms:
    """Sampled sums of one node and the leaf values behind each of them.

    sums holds the n node-sum samples (None below the root of
    :func:`run_reordering`'s output). A leaf keeps its n x 1 block of
    values (any n x width block, columns named by leaf_order, can stand for
    a subtree, as in the root :func:`aggtree.mra.run_mra` returns). A
    branching node keeps picks instead: per child the pair (child atoms,
    pick), where atom k's child summand is the child's atom pick[k]; picks
    are int32 while n < 2**31. Nothing is copied up the tree: composition
    (columns follow leaf_order, the lexicographic leaf order of the
    subtree) is gathered through the composed picks on every read, and
    components (column i the child-i summand) from the children's sums,
    None at a leaf or once those sums are dropped.
    """

    __slots__ = ("node", "sums", "picks", "values", "leaf_order")

    def __init__(self, node, sums, picks, values, leaf_order):
        self.node = node
        self.sums = sums
        self.picks = picks
        self.values = values
        self.leaf_order = leaf_order

    @classmethod
    def for_leaf(cls, node, samples):
        samples = np.asarray(samples, dtype=float)
        return cls(node, samples, None, samples[:, None], (node,))

    @property
    def n(self):
        return len(self.picks[0][1]) if self.picks else self.values.shape[0]

    @property
    def components(self):
        if not self.picks or any(child.sums is None for child, _ in self.picks):
            return None
        return np.column_stack([child.sums[pick] for child, pick in self.picks])

    @property
    def composition(self):
        return self.rows(0, self.n)

    def rows(self, start, stop):
        """Rows ``start:stop`` of :attr:`composition`, gathered anew."""
        stop = min(stop, self.n)
        out = np.empty((stop - start, len(self.leaf_order)))
        self._gather(slice(start, stop), out)
        return out

    def _gather(self, rows, out):
        if not self.picks:
            out[:] = self.values[rows]
            return
        col = 0
        for child, pick in self.picks:
            width = len(child.leaf_order)
            child._gather(pick[rows], out[:, col:col + width])
            col += width

    def __repr__(self):
        return f"NodeAtoms({node_label(self.node)}, n={self.n})"


def reorder_children(child_atoms, copula_samples):
    """Pair children order statistics by copula ranks and sum them.

    Atom k picks from child i the atom whose stable rank among child i's
    sums equals the stable rank of copula sample k in column i. Sums add
    the picked child sums in child order. The children are referenced, not
    copied or changed; the copula block is released before the child sums
    are ranked.
    """
    u = np.asarray(copula_samples, dtype=float)
    del copula_samples
    if not child_atoms:
        raise ValueError("need at least one child")
    n = child_atoms[0].n
    if any(c.n != n for c in child_atoms):
        raise ValueError("children carry different sample counts")
    if u.shape != (n, len(child_atoms)):
        raise ValueError(
            f"copula sample block must have shape {(n, len(child_atoms))}, "
            f"got {u.shape}"
        )
    index = np.int32 if n < 2**31 else np.intp
    slots = [stable_argsort(column).astype(index) for column in u.T]
    del u
    picks = []
    for child, slot in zip(child_atoms, slots):
        pick = np.empty(n, dtype=index)
        pick[slot] = stable_argsort(child.sums)
        picks.append((child, pick))
    sums = child_atoms[0].sums[picks[0][1]]
    for child, pick in picks[1:]:
        sums += child.sums[pick]
    leaf_order = tuple(x for child in child_atoms for x in child.leaf_order)
    return NodeAtoms(child_atoms[0].node[:-1], sums, picks, None, leaf_order)


def check_budget(draws, budget):
    """Refuse ``draws`` leaf values beyond ``budget``, which must be finite
    and >= 0; the error carries ``draws`` as ``estimate``."""
    if not 0 <= budget < math.inf:
        raise ValueError(f"budget must be finite and >= 0, got {budget!r}")
    if draws > budget:
        raise GenerationBudgetError(draws, budget)


def run_reordering(model, n, seed, budget=10**8):
    """Run the bottom-up reordering and return the root's :class:`NodeAtoms`.

    Each leaf draws n values. Refuses to run, before drawing anything, when
    their total, an exact int, exceeds ``budget`` (see :func:`check_budget`).
    The tree is built depth first: each branching node is built from its
    children's atoms. Once it is, the children's sums, which nothing reads
    again, are dropped, so below the root only the leaf values and one
    int32 pick per child and node are kept, and the working set does not
    grow with the depth of the tree. The root's composition, an n x (number
    of leaves) matrix of joint leaf realizations, is gathered on read, or
    row range by row range with :meth:`NodeAtoms.rows`. Every draw has its
    own (purpose, node) stream, so the build order changes no value.
    Deterministic given ``seed``.
    """
    model.require_valid()
    if n < 2:
        raise ValueError("n must be >= 2")
    tree = model.tree
    check_budget(int(n) * len(tree.leaves()), budget)

    def build(node):
        if tree.arity(node) == 0:
            rng = node_stream(seed, "marginal", node)
            return NodeAtoms.for_leaf(node, model.marginals[node].sample(n, rng))
        children = [build(child) for child in tree.children(node)]
        atoms = reorder_children(
            children, model.copulas[node].sample(n, node_stream(seed, "copula", node)))
        for child in children:
            child.sums = None
        return atoms

    return build(ROOT)
