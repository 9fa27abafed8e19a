"""Rank-reordering construction of dependent samples on an aggregation tree.

Leaves are sampled independently; at every branching node, samples of the
children sums are re-paired so that their ranks match the ranks of a
sample from the node copula (Iman and Conover 1982; Arbenz, Hummel and
Mainik 2012), and the paired rows are summed. Full leaf composition is
carried along so the joint leaf vector behind every node sum stays
recoverable.

:func:`reorder_children` is the one re-pairing kernel; its ranks come from
:func:`stable_argsort`, so the output does not depend on SIMD dispatch.
"""
import numpy as np

from ._rng import node_stream
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
    """Sampled sums of one node plus their decomposition bookkeeping.

    sums holds the n node-sum samples. For branching nodes, components
    column i holds the child-i summand of each atom (None below the root
    in :func:`run_reordering`'s output). composition holds the underlying
    leaf values (columns follow leaf_order, the lexicographic leaf order
    of the subtree).
    """

    __slots__ = ("node", "sums", "components", "composition", "leaf_order")

    def __init__(self, node, sums, components, composition, leaf_order):
        self.node = node
        self.sums = sums
        self.components = components
        self.composition = composition
        self.leaf_order = leaf_order

    @classmethod
    def for_leaf(cls, node, samples):
        samples = np.asarray(samples, dtype=float)
        return cls(node, samples, None, samples[:, None], (node,))

    @property
    def n(self):
        return self.sums.shape[0]

    def __repr__(self):
        return f"NodeAtoms({node_label(self.node)}, n={self.n})"


def reorder_children(child_atoms, copula_samples):
    """Pair children order statistics by copula ranks and sum them.

    Atom k's component i is the order statistic of child i's sums whose
    stable rank equals the stable rank of copula sample k in column i.
    Sums add the components in child order.
    """
    u = np.asarray(copula_samples, dtype=float)
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
    parts = np.empty((n, len(child_atoms)))
    comp = np.empty((n, sum(c.composition.shape[1] for c in child_atoms)))
    col = 0
    for i, child in enumerate(child_atoms):
        pick = np.empty(n, dtype=np.intp)
        pick[stable_argsort(u[:, i])] = stable_argsort(child.sums)
        parts[:, i] = child.sums[pick]
        width = child.composition.shape[1]
        comp[:, col:col + width] = child.composition.take(pick, axis=0)
        col += width
    leaf_order = tuple(x for child in child_atoms for x in child.leaf_order)
    return NodeAtoms(child_atoms[0].node[:-1], sum(parts.T[1:], parts[:, 0]),
                     parts, comp, leaf_order)


def run_reordering(model, n, seed):
    """Run the bottom-up reordering and return the root's :class:`NodeAtoms`.

    The tree is built depth first: each branching node is built from its
    children's atoms, which are dropped once it is. A non-root node is
    passed up without its ``components``, which its parent never reads, so
    the working set does not grow with the depth of the tree. The root's
    composition block is an n x (number of leaves) matrix of joint leaf
    realizations. Every draw has its own (purpose, node) stream, so the
    build order changes no value. Deterministic given ``seed``.
    """
    model.require_valid()
    if n < 2:
        raise ValueError("n must be >= 2")
    tree = model.tree

    def build(node):
        if tree.arity(node) == 0:
            rng = node_stream(seed, "marginal", node)
            return NodeAtoms.for_leaf(node, model.marginals[node].sample(n, rng))
        children = [build(child) for child in tree.children(node)]
        u = model.copulas[node].sample(n, node_stream(seed, "copula", node))
        atoms = reorder_children(children, u)
        if node != ROOT:
            atoms.components = None
        return atoms

    return build(ROOT)
