"""Rank-reordering construction of dependent samples on an aggregation tree.

Leaves are sampled independently; at every branching node, samples of the
children sums are re-paired so that their ranks match the ranks of a
sample from the node copula (Iman and Conover 1982; Arbenz, Hummel and
Mainik 2012), and the paired rows are summed. Full leaf composition is
carried along so the joint leaf vector behind every node sum stays
recoverable.

One batched kernel, :func:`_reorder`, does the re-pairing for both the
plain reordering here and the fixed-first variant of :mod:`aggtree.mra`.
"""
import numpy as np

from ._rng import node_stream
from .tree import node_label

__all__ = [
    "NodeAtoms",
    "ranks",
    "reorder_children",
    "run_reordering",
]


def ranks(values):
    """1-based ranks of ``values`` with ties broken by original index.

    The result is always a permutation of 1..n; for distinct values it
    equals the count definition #{j : v_j <= v_k}.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d sequence")
    order = np.argsort(values, kind="stable")
    out = np.empty(values.size, dtype=np.int64)
    out[order] = np.arange(1, values.size + 1)
    return out


def _reorder(child_sums, child_comps, u, pin_first):
    """Re-pair children rows by copula ranks, independently along axis 0.

    child_sums are (r, n) blocks, child_comps (r, n, M_i), u is (r, n, m)
    with one column per child. Atom k takes from child i the order
    statistic whose stable rank equals the stable rank of u[:, k, i]. With
    ``pin_first`` the atoms are then re-ordered so that atom k holds child
    1's row k; the atom multiset is unchanged.

    Returns the parent sums (r, n), the per-child parts (a list of (r, n)
    blocks) and the composition (r, n, sum M_i). Sums add the parts in
    child order.
    """
    r, n = child_sums[0].shape
    comp = np.empty((r, n, sum(c.shape[2] for c in child_comps)))
    parts = []
    col = 0
    # child by child, so that one child's index arrays are alive at a time:
    # they are (r, n) each and set the peak memory of run_mra
    for i, (s, c) in enumerate(zip(child_sums, child_comps)):
        o_u = np.argsort(u[:, :, i], axis=1, kind="stable")
        o_s = np.argsort(s, axis=1, kind="stable")
        pick = np.empty_like(o_s)
        np.put_along_axis(pick, o_u, o_s, axis=1)
        if pin_first:
            # in the plain pairing, child 1's row o_s1[j] sits in atom
            # o_u1[j]; moving that atom to row o_s1[j] pins child 1
            if i == 0:
                o_u1, o_s1 = o_u, o_s
            np.put_along_axis(pick, o_s1, np.take_along_axis(pick, o_u1, axis=1), axis=1)
        parts.append(np.take_along_axis(s, pick, axis=1))
        comp[:, :, col:col + c.shape[2]] = np.take_along_axis(c, pick[:, :, None], axis=1)
        col += c.shape[2]
    sums = parts[0].copy()
    for p in parts[1:]:
        sums += p
    return sums, parts, comp


class NodeAtoms:
    """Sampled sums of one node plus their decomposition bookkeeping.

    sums holds the n node-sum samples. For branching nodes, components
    column i holds the child-i summand of each atom. composition holds
    the underlying leaf values (columns follow leaf_order, the
    lexicographic leaf order of the subtree).
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


def _reorder_atoms(child_atoms, copula_samples, pin_first):
    """:func:`_reorder` on one set of children, as the parent's NodeAtoms."""
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
    sums, parts, comp = _reorder(
        [c.sums[None, :] for c in child_atoms],
        [c.composition[None, :, :] for c in child_atoms],
        u[None, :, :],
        pin_first,
    )
    leaf_order = tuple(x for child in child_atoms for x in child.leaf_order)
    parent = child_atoms[0].node[:-1]
    return NodeAtoms(parent, sums[0], np.column_stack([p[0] for p in parts]),
                     comp[0], leaf_order)


def reorder_children(child_atoms, copula_samples):
    """Pair children order statistics by copula ranks and sum them.

    Atom k's component i is the order statistic of child i's sums whose
    rank equals the rank of copula sample k in column i.
    """
    return _reorder_atoms(child_atoms, copula_samples, pin_first=False)


def run_reordering(model, n, seed):
    """Run the full bottom-up reordering; returns {node: NodeAtoms}.

    Leaves hold raw marginal samples. The root's composition block is an
    n x (number of leaves) matrix of joint leaf realizations.
    Deterministic given ``seed``.
    """
    model.require_valid()
    if n < 2:
        raise ValueError("n must be >= 2")
    tree = model.tree
    atoms = {}
    for leaf in tree.leaves():
        rng = node_stream(seed, "marginal", leaf)
        atoms[leaf] = NodeAtoms.for_leaf(leaf, model.marginals[leaf].sample(n, rng))
    for node in sorted(tree.branching(), key=len, reverse=True):
        u = model.copulas[node].sample(n, node_stream(seed, "copula", node))
        atoms[node] = reorder_children([atoms[c] for c in tree.children(node)], u)
    return atoms

