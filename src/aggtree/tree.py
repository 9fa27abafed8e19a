"""Rooted aggregation trees and the model triple built on them.

Nodes are addressed by paths of positive integers; the empty tuple is the
root. Child k of node I is ``I + (k,)`` with k in 1..arity(I). Leaves
carry marginal distributions, internal (branching) nodes carry copulas
that couple their children.
"""
from .errors import TreeStructureError

ROOT = ()


def node_id(spec):
    """Normalize a node reference to a tuple of positive ints.

    Accepts tuples/lists of ints, the string "root", or dot-joined
    positive integers such as "2.1".
    """
    if isinstance(spec, str):
        text = spec.strip()
        if text in ("root", ""):
            return ROOT
        try:
            parts = tuple(int(p) for p in text.split("."))
        except ValueError:
            raise TreeStructureError(f"cannot parse node id {spec!r}") from None
    else:
        parts = tuple(int(p) for p in spec)
    if any(p < 1 for p in parts):
        raise TreeStructureError(f"node path elements must be >= 1, got {spec!r}")
    return parts


def node_label(node):
    """Serialize a node id: "root" for the root, else dot-joined ints."""
    return "root" if not node else ".".join(str(p) for p in node)


class RootedTree:
    """Immutable rooted tree given as a map node -> number of children.

    The root must be present, children are numbered contiguously from 1,
    and every non-root node's parent prefix must exist. All derived node
    sets are computed once at construction.
    """

    def __init__(self, children_count):
        counts = {node_id(k): int(v) for k, v in children_count.items()}
        if ROOT not in counts:
            raise TreeStructureError("tree has no root entry")
        for node, c in counts.items():
            if c < 0:
                raise TreeStructureError(f"negative child count at {node_label(node)}")
            if node and node[:-1] not in counts:
                raise TreeStructureError(
                    f"node {node_label(node)} has no parent entry"
                )
        for node, c in counts.items():
            for k in range(1, c + 1):
                if node + (k,) not in counts:
                    raise TreeStructureError(
                        f"missing child {node_label(node + (k,))}"
                    )
        for node in counts:
            if node and not (1 <= node[-1] <= counts[node[:-1]]):
                raise TreeStructureError(
                    f"node {node_label(node)} exceeds its parent's child count"
                )

        self._counts = counts
        self._nodes = tuple(sorted(counts))
        self._leaves = tuple(n for n in self._nodes if counts[n] == 0)
        self._branching = tuple(n for n in self._nodes if counts[n] > 0)
        self._children = {
            n: tuple(n + (k,) for k in range(1, counts[n] + 1)) for n in self._nodes
        }
        self._descendants = {}
        for node in sorted(self._nodes, key=len, reverse=True):
            desc = [node]
            for child in self._children[node]:
                desc.extend(self._descendants[child])
            self._descendants[node] = tuple(sorted(desc))
        self._leaf_descendants = {
            n: tuple(x for x in self._descendants[n] if counts[x] == 0)
            for n in self._nodes
        }

    @classmethod
    def from_nested(cls, nested):
        """Build from the recursive {"children": [...]} form."""
        counts = {}

        def walk(node, spec):
            where = f"tree node {node_label(node)}"
            if not isinstance(spec, dict):
                raise TreeStructureError(f"{where} must be an object, got {spec!r}")
            kids = spec.get("children", [])
            if not isinstance(kids, list):
                raise TreeStructureError(
                    f"{where}: 'children' must be a list, got {kids!r}")
            counts[node] = len(kids)
            for k, sub in enumerate(kids, start=1):
                walk(node + (k,), sub)

        walk(ROOT, nested)
        return cls(counts)

    @classmethod
    def symmetric_binary(cls, depth):
        """Full binary tree with 2**depth leaves."""
        if depth < 0:
            raise TreeStructureError("depth must be >= 0")
        counts = {}

        def walk(node, level):
            counts[node] = 0 if level == depth else 2
            if level < depth:
                walk(node + (1,), level + 1)
                walk(node + (2,), level + 1)

        walk(ROOT, 0)
        return cls(counts)

    def to_nested(self):
        """Inverse of :meth:`from_nested`."""

        def build(node):
            kids = [build(c) for c in self._children[node]]
            return {"children": kids} if kids else {}

        return build(ROOT)

    def __contains__(self, node):
        return node_id(node) in self._counts

    def __len__(self):
        return len(self._nodes)

    def _known(self, node):
        node = node_id(node)
        if node not in self._counts:
            raise TreeStructureError(f"unknown node {node_label(node)}")
        return node

    @property
    def nodes(self):
        return self._nodes

    def arity(self, node):
        """Number of children of ``node``."""
        return self._counts[self._known(node)]

    def leaves(self):
        """All leaf nodes in lexicographic order."""
        return self._leaves

    def branching(self):
        """All internal nodes in lexicographic order."""
        return self._branching

    def children(self, node):
        return self._children[self._known(node)]

    def descendants(self, node):
        """Descendants of ``node``, the node itself included."""
        return self._descendants[self._known(node)]

    def leaf_descendants(self, node):
        return self._leaf_descendants[self._known(node)]

    def leaf_count(self, node):
        return len(self._leaf_descendants[self._known(node)])

    def depth(self):
        return max(len(n) for n in self._nodes)


class AggregationTreeModel:
    """Tree plus leaf marginals plus branching-node copulas.

    marginals maps each leaf to a distribution object; copulas maps each
    branching node to a copula object whose dimension equals the node's
    arity. Violations are reported by :meth:`validate` rather than raised,
    so configuration errors can be listed in one pass.
    """

    def __init__(self, tree, marginals, copulas):
        self.tree = tree
        self.marginals = {node_id(k): v for k, v in marginals.items()}
        self.copulas = {node_id(k): v for k, v in copulas.items()}

    def validate(self):
        """Return a list of violation strings; empty means the model is valid."""
        out = []
        tree = self.tree
        leaves = set(tree.leaves())
        branching = set(tree.branching())
        for node in sorted(leaves - set(self.marginals)):
            out.append(f"leaf {node_label(node)} has no marginal")
        for node in sorted(set(self.marginals) - leaves):
            out.append(f"marginal given for non-leaf node {node_label(node)}")
        for node in sorted(branching - set(self.copulas)):
            out.append(f"branching node {node_label(node)} has no copula")
        for node in sorted(set(self.copulas) - branching):
            out.append(f"copula given for non-branching node {node_label(node)}")
        for node in sorted(branching & set(self.copulas)):
            dim = getattr(self.copulas[node], "dim", None)
            if dim is not None and dim != tree.arity(node):
                out.append(
                    f"copula at {node_label(node)} has dimension {dim}, "
                    f"node has {tree.arity(node)} children"
                )
        return out

    def require_valid(self):
        """Raise :class:`TreeStructureError` listing any violations."""
        violations = self.validate()
        if violations:
            raise TreeStructureError("; ".join(violations))
        return self
