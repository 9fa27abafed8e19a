import numpy as np
import pytest

from aggtree import (
    AggregationTreeModel,
    GaussianCopula,
    Normal,
    ROOT,
    RootedTree,
    node_id,
    node_label,
)
from aggtree.tree import TreeStructureError

from conftest import four_leaf_members

TWO_PAIR = {"children": [{"children": [{}, {}]}, {"children": [{}, {}]}]}


def test_two_pair_tree_leaves():
    tree = RootedTree.from_nested(TWO_PAIR)
    assert list(tree.leaves()) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert list(tree.branching()) == [(), (1,), (2,)]
    assert list(tree.children(ROOT)) == [(1,), (2,)]
    assert set(tree.descendants((1,))) == {(1,), (1, 1), (1, 2)}
    assert tuple(tree.leaf_descendants(ROOT)) == tuple(tree.leaves())
    assert tree.leaf_count(ROOT) == 4


def test_root_only_tree():
    tree = RootedTree({(): 0})
    assert list(tree.leaves()) == [()]
    assert list(tree.branching()) == []
    assert len(tree) == 1


def test_one_level_fan():
    tree = RootedTree.from_nested({"children": [{}, {}, {}]})
    assert list(tree.leaves()) == [(1,), (2,), (3,)]
    assert list(tree.branching()) == [()]
    assert tree.arity(ROOT) == 3


def test_children_count_constructor_matches_nested():
    counts = {(): 2, (1,): 2, (1, 1): 0, (1, 2): 0, (2,): 0}
    tree = RootedTree(counts)
    assert list(tree.leaves()) == [(1, 1), (1, 2), (2,)]
    assert tree.to_nested() == {"children": [{"children": [{}, {}]}, {}]}


@pytest.mark.parametrize("nested, message", [
    ({"children": [{}, 5]}, "tree node 2 must be an object, got 5"),
    ([], "tree node root must be an object, got []"),
    ({"children": [{"children": {}}, {}]},
     "tree node 1: 'children' must be a list, got {}"),
])
def test_from_nested_rejects_wrong_shapes(nested, message):
    with pytest.raises(TreeStructureError) as exc:
        RootedTree.from_nested(nested)
    assert str(exc.value) == message


def test_tree_rejects_missing_root():
    with pytest.raises(TreeStructureError):
        RootedTree({(1,): 0})


def test_tree_rejects_gap_in_children():
    # child (1,2) declared while N_(1) = 1 makes children non-contiguous
    with pytest.raises(TreeStructureError):
        RootedTree({(): 1, (1,): 2, (1, 1): 0, (1, 3): 0})


def test_tree_rejects_orphan():
    with pytest.raises(TreeStructureError):
        RootedTree({(): 1, (1,): 0, (2, 1): 0})


def test_unknown_node_raises():
    tree = RootedTree.from_nested(TWO_PAIR)
    with pytest.raises(TreeStructureError):
        tree.children((3,))
    with pytest.raises(TreeStructureError):
        tree.leaf_count((1, 7))


def test_node_id_round_trip():
    assert node_id("root") == ()
    assert node_id("1.2") == (1, 2)
    assert node_id((2, 1)) == (2, 1)
    assert node_id([3]) == (3,)
    assert node_label(()) == "root"
    assert node_label((1, 2)) == "1.2"
    for label in ("root", "1", "2.3.1"):
        assert node_label(node_id(label)) == label


def test_node_id_rejects_bad_input():
    with pytest.raises((ValueError, TreeStructureError)):
        node_id("1.0")
    with pytest.raises((ValueError, TreeStructureError)):
        node_id((0,))


def test_symmetric_binary_shape():
    tree = RootedTree.symmetric_binary(3)
    assert len(tree.leaves()) == 8
    assert len(tree.branching()) == 7
    assert tree.depth() == 3
    assert all(tree.arity(b) == 2 for b in tree.branching())


def test_model_validate_ok(four_leaf_model):
    assert four_leaf_model.validate() == []
    assert four_leaf_model.require_valid() is four_leaf_model


def test_model_validate_missing_copula():
    tree, marginals, copulas = four_leaf_members()
    del copulas["1"]
    model = AggregationTreeModel(tree, marginals, copulas)
    violations = model.validate()
    assert violations == ["branching node 1 has no copula"]
    with pytest.raises(TreeStructureError):
        model.require_valid()


def test_model_validate_dimension_mismatch():
    tree = RootedTree.from_nested({"children": [{}, {}]})
    model = AggregationTreeModel(
        tree,
        {"1": Normal(0, 1), "2": Normal(0, 1)},
        {"root": GaussianCopula(np.eye(3))},
    )
    violations = model.validate()
    assert len(violations) == 1
    assert "dimension 3" in violations[0]


def test_model_validate_extra_entries():
    tree = RootedTree.from_nested({"children": [{}, {}]})
    model = AggregationTreeModel(
        tree,
        {"1": Normal(0, 1), "2": Normal(0, 1), "1.1": Normal(0, 1)},
        {"root": GaussianCopula.bivariate(0.3), "2": GaussianCopula.bivariate(0.1)},
    )
    violations = model.validate()
    assert any("non-leaf" in v for v in violations)
    assert any("non-branching" in v for v in violations)


def _random_tree(rng, max_nodes=50):
    counts = {(): 0}
    frontier = [()]
    while frontier and len(counts) < max_nodes:
        node = frontier.pop(0)
        n = int(rng.integers(0, 4))
        n = min(n, max_nodes - len(counts))
        if n == 1:
            n = 2 if len(counts) + 2 <= max_nodes else 0
        counts[node] = n
        for k in range(1, n + 1):
            counts[node + (k,)] = 0
            frontier.append(node + (k,))
    return RootedTree(counts)


def test_random_tree_set_identities():
    rng = np.random.default_rng(7)
    for _ in range(25):
        tree = _random_tree(rng)
        nodes = set(tree.nodes)
        leaves = set(tree.leaves())
        branching = set(tree.branching())
        assert leaves | branching == nodes
        assert not (leaves & branching)
        for node in nodes:
            assert set(tree.leaf_descendants(node)) == (
                set(tree.descendants(node)) & leaves)
            assert node in tree.descendants(node)
        for node in branching:
            total = sum(tree.leaf_count(c) for c in tree.children(node))
            assert total == tree.leaf_count(node)
