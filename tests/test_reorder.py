import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aggtree
from aggtree import (
    AggregationTreeModel,
    GaussianCopula,
    Independence,
    Normal,
    NodeAtoms,
    ROOT,
    RootedTree,
    ranks,
    reorder_children,
    run_reordering,
    tree_dependent_law,
)
from aggtree import cli, reorder
from aggtree.cli import main
from aggtree._rng import node_stream
from aggtree.reorder import stable_argsort

MODELS = Path(__file__).resolve().parent.parent / "perfbench" / "models"

# worked three-sample instance used throughout: two leaves under the root
X1 = np.array([1.0, 4.0, 2.0])
X2 = np.array([9.0, 0.0, 3.0])
U = np.array([[0.6, 0.9], [0.3, 0.5], [0.5, 0.2]])

# six normal leaves under a ternary, a binary and a leaf child of a
# ternary root: ternary nodes add three parts per sum and sample a
# 3-dimensional copula
SIX_LEAF_NORMAL_CONFIG = {
    "tree": {"children": [{"children": [{}, {}, {}]}, {"children": [{}, {}]}, {}]},
    "marginals": {
        "1.1": {"type": "normal", "mean": 1, "var": 2},
        "1.2": {"type": "normal", "mean": -1, "var": 0.5},
        "1.3": {"type": "normal", "mean": 3, "var": 4},
        "2.1": {"type": "normal", "mean": 0, "var": 1},
        "2.2": {"type": "normal", "mean": 2, "var": 3},
        "3": {"type": "normal", "mean": 5, "var": 10},
    },
    "copulas": {
        "1": {"type": "gaussian",
              "correlation": [[1, 0.5, 0.3], [0.5, 1, 0.4], [0.3, 0.4, 1]]},
        "2": {"type": "gaussian", "rho": -0.3},
        "root": {"type": "gaussian",
                 "correlation": [[1, 0.6, 0.2], [0.6, 1, 0.1], [0.2, 0.1, 1]]},
    },
}


def atoms_pair():
    return [NodeAtoms.for_leaf((1,), X1), NodeAtoms.for_leaf((2,), X2)]


class TestRanks:
    def test_examples(self):
        np.testing.assert_array_equal(ranks([0.6, 0.3, 0.5]), [3, 1, 2])
        np.testing.assert_array_equal(ranks([9.0, 0.0, 3.0]), [3, 1, 2])

    def test_all_tie_stable(self):
        np.testing.assert_array_equal(ranks([5.0, 5.0, 5.0]), [1, 2, 3])

    def test_bijective_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            v = rng.integers(0, 5, size=n).astype(float)
            r = ranks(v)
            assert sorted(r) == list(range(1, n + 1))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            ranks([])
        with pytest.raises(ValueError):
            ranks(np.zeros((2, 2)))


class TestStableArgsort:
    """Distinct keys keep the quicksort permutation; any tie re-sorts stably."""

    def kinds_called(self, monkeypatch):
        calls = []
        argsort = np.argsort

        def spy(values, *args, **kwargs):
            calls.append(kwargs.get("kind"))
            return argsort(values, *args, **kwargs)

        monkeypatch.setattr(reorder.np, "argsort", spy)
        return calls

    def test_distinct_keys_take_quicksort(self, monkeypatch):
        values = np.random.default_rng(0).standard_normal(1000)
        expected = np.argsort(values, kind="stable")
        calls = self.kinds_called(monkeypatch)
        np.testing.assert_array_equal(stable_argsort(values), expected)
        assert calls == [None]

    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 3.0, 2.0],
        [0.0, 1.0, -0.0],
        [2.0, np.nan, 1.0],
        [np.inf, 0.0, np.inf],
    ], ids=["tie", "signed-zero", "nan", "inf-tie"])
    def test_ties_take_stable_fallback(self, values, monkeypatch):
        values = np.array(values)
        expected = np.argsort(values, kind="stable")
        calls = self.kinds_called(monkeypatch)
        np.testing.assert_array_equal(stable_argsort(values), expected)
        assert calls == [None, "stable"]


class TestReorderChildren:
    def test_worked_example_atoms(self):
        out = reorder_children(atoms_pair(), U)
        np.testing.assert_array_equal(out.components,
                                      [[4.0, 9.0], [1.0, 3.0], [2.0, 0.0]])
        np.testing.assert_array_equal(out.sums, [13.0, 4.0, 2.0])
        np.testing.assert_array_equal(out.composition, out.components)
        assert out.node == ()
        assert out.leaf_order == ((1,), (2,))

    def test_column_value_multisets_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            u = rng.random((3, 2))
            out = reorder_children(atoms_pair(), u)
            np.testing.assert_array_equal(np.sort(out.components[:, 0]),
                                          np.sort(X1))
            np.testing.assert_array_equal(np.sort(out.components[:, 1]),
                                          np.sort(X2))

    def test_identity_ranks_give_comonotone_pairing(self):
        u = np.array([[0.1, 0.15], [0.5, 0.5], [0.9, 0.95]])
        out = reorder_children(atoms_pair(), u)
        np.testing.assert_array_equal(out.components,
                                      [[1.0, 0.0], [2.0, 3.0], [4.0, 9.0]])

    def test_single_sample(self):
        a = NodeAtoms.for_leaf((1,), np.array([5.0]))
        b = NodeAtoms.for_leaf((2,), np.array([7.0]))
        out = reorder_children([a, b], np.array([[0.4, 0.8]]))
        np.testing.assert_array_equal(out.components, [[5.0, 7.0]])
        np.testing.assert_array_equal(out.sums, [12.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reorder_children(atoms_pair(), np.array([[0.1, 0.2, 0.3]] * 3))
        with pytest.raises(ValueError):
            reorder_children(atoms_pair(), np.array([[0.1, 0.2]] * 4))

    def test_inputs_are_left_untouched(self):
        # reorder_fixed_first reads child 1's sums after the kernel ran
        rng = np.random.default_rng(5)
        kids = [NodeAtoms.for_leaf((i + 1,), rng.standard_normal(50)) for i in range(3)]
        sums = [kid.sums.copy() for kid in kids]
        u = rng.random((50, 3))
        out = reorder_children(kids, u.copy())
        for kid, before in zip(kids, sums):
            np.testing.assert_array_equal(kid.sums, before)
        assert [child for child, _ in out.picks] == kids
        np.testing.assert_array_equal(out.sums, out.components.sum(axis=1))


class TestRunReordering:
    def test_shapes_and_marginal_preservation(self, four_leaf_model):
        n = 2000
        root = run_reordering(four_leaf_model, n, seed=5)
        leaves = four_leaf_model.tree.leaves()
        assert root.node == ROOT
        assert root.leaf_order == tuple(leaves)
        assert root.composition.shape == (n, 4)
        assert root.sums.shape == (n,)
        # node sums are the row sums of the tracked leaf composition
        np.testing.assert_allclose(root.sums, root.composition.sum(axis=1),
                                   rtol=0, atol=1e-9)
        # reordering only permutes each leaf's sample, never alters values
        for idx, leaf in enumerate(leaves):
            drawn = four_leaf_model.marginals[leaf].sample(
                n, node_stream(5, "marginal", leaf))
            np.testing.assert_array_equal(
                np.sort(root.composition[:, idx]), np.sort(drawn))

    def test_three_leaf_independence_decorrelated(self):
        tree = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
        model = AggregationTreeModel(
            tree,
            {"1.1": Normal(0, 1), "1.2": Normal(0, 1), "2": Normal(0, 1)},
            {"1": Independence(2), "root": Independence(2)},
        )
        comp = run_reordering(model, 10**5, seed=9).composition
        corr = np.corrcoef(comp.T)
        off = corr[np.triu_indices(3, 1)]
        assert np.max(np.abs(off)) <= 0.02

    def test_root_only_tree(self):
        tree = RootedTree({(): 0})
        model = AggregationTreeModel(tree, {"root": Normal(1.0, 4.0)}, {})
        root = run_reordering(model, 50, seed=1)
        assert root.node == ROOT
        assert root.leaf_order == (ROOT,)
        assert root.components is None
        assert root.sums.shape == (50,)
        assert root.composition.shape == (50, 1)

    def test_deterministic_and_seed_sensitive(self, four_leaf_model):
        a = run_reordering(four_leaf_model, 200, seed=5).sums
        b = run_reordering(four_leaf_model, 200, seed=5).sums
        c = run_reordering(four_leaf_model, 200, seed=6).sums
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_covariance_approaches_model_law(self, four_leaf_model):
        target = tree_dependent_law(four_leaf_model).covariance
        devs = []
        for n in (10**3, 10**4):
            comp = run_reordering(four_leaf_model, n, seed=2).composition
            emp = np.cov(comp.T)
            devs.append(np.max(np.abs(emp - target)))
        assert devs[1] < devs[0]
        assert devs[1] <= 0.2

    def test_invalid_model_rejected(self):
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(tree, {"1": Normal(0, 1)}, {})
        with pytest.raises(Exception):
            run_reordering(model, 10, seed=0)

    def test_only_the_root_keeps_sums(self, four_leaf_model, monkeypatch):
        # a node keeps its children's atoms and one int32 pick each; the
        # children's sums are dropped once it is built, so no node has
        # components to gather, the root included
        built = []

        def keep(child_atoms, copula_samples):
            built.append(reorder_children(child_atoms, copula_samples))
            return built[-1]

        monkeypatch.setattr(reorder, "reorder_children", keep)
        root = run_reordering(four_leaf_model, 100, seed=3)
        assert [atoms.node for atoms in built] == [(1,), (2,), ROOT]
        assert built[-1] is root
        assert root.sums.shape == (100,)
        assert [child for child, _ in root.picks] == built[:-1]
        assert all(atoms.sums is None and atoms.components is None
                   for atoms in built[:-1])
        assert root.components is None
        assert all(pick.dtype == np.int32 for atoms in built for _, pick in atoms.picks)

    def test_working_set_four_leaf(self, four_leaf_model):
        # with every node's atoms kept until the root was built, the
        # traced peak was 39.9 MiB; built depth first it was 27.7 MiB, and
        # with picks in place of composition copies it is 19.8 MiB
        peak = traced_peak(run_reordering, four_leaf_model, 200_000, seed=5)
        assert peak <= 22 * 2**20

    def test_working_set_does_not_grow_with_depth(self):
        # 32 unit-normal leaves; keeping every level's atoms gave a traced
        # peak of 9.5 x n * leaves doubles, built depth first 2.7 x, and
        # with picks in place of composition copies it is 2.2 x
        tree = RootedTree.symmetric_binary(5)
        model = AggregationTreeModel(
            tree, {leaf: Normal(0, 1) for leaf in tree.leaves()},
            {node: GaussianCopula.bivariate(0.5) for node in tree.branching()})
        n = 20_000
        peak = traced_peak(run_reordering, model, n, seed=3)
        assert peak <= 2.4 * n * 32 * 8


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_working_set(tmp_path):
    # the whole sample path, config to CSV, four-leaf model at n = 2e5:
    # 19.9 MiB traced with the root's rows gathered as they are written;
    # copying compositions up the tree and writing the root's block took
    # 27.7 MiB
    out = tmp_path / "draws.csv"
    peak = traced_peak(main, ["sample", str(MODELS / "four_leaf_normal.json"),
                              "--n", "200000", "--seed", "42", "--out", str(out)])
    assert peak <= 22 * 2**20
    assert len(out.read_bytes().splitlines()) == 200_001


# SHA-256 of the four-leaf reorder sample at seed 42, at n around the edges of
# the 4,096-row CSV chunks; recorded while sample still wrote the root's full
# composition block
CHUNK_EDGE_DIGESTS = {
    2: "b98044de93b73ed6b8e33a885b380022f62e365930f7b857f3684b98f1e41037",
    4095: "5a3e0c1a56946750a3c97026356ec213804773fb77cd1a16ff21b1d028a7a557",
    4096: "056d0bc27fd8330207e62fa28a49be12a43a6f16b04cfb7212baa988cdb6f089",
    4097: "0b7a7c9d8c62a6dea094a4f48e828e3453e35f684061ddff5716310ab7609081",
    8193: "c3b982b6a0832a2323417e4c23e9621bbbf7465ba989aa8199d903b45aeb7513",
}


# gathering one chunk at a time puts a gather edge on every chunk edge
@pytest.mark.parametrize("gather_rows", [None, cli._CSV_CHUNK_ROWS])
@pytest.mark.parametrize("n", sorted(CHUNK_EDGE_DIGESTS))
def test_sample_bytes_at_chunk_edges(n, gather_rows, tmp_path, capsys, monkeypatch):
    if gather_rows is not None:
        monkeypatch.setattr(cli, "_GATHER_ROWS", gather_rows)
    argv = ["sample", str(MODELS / "four_leaf_normal.json"), "--n", str(n), "--seed", "42"]
    out = tmp_path / "draws.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHUNK_EDGE_DIGESTS[n]
    capsys.readouterr()
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("algorithm, n, digest", [
    ("reorder", 2000,
     "714ebfeaebdb247ba4f1491637a7aabc8ba9e547db67c0ed5609010dddc47293"),
    ("mra", 12,
     "d19c3ee7edf27980c6dd722a60c3ff0dc710c28b2a9e6d2cf3b5a4438d54248e"),
    # ":discrete" runs the same tree with the discrete leaves of
    # six_leaf_discrete.json, whose child sums and copula ranks tie
    ("mra:discrete", 12,
     "76456b99a0b15f3e408eb78922332a41bc777c7bdba419072cd128d104ed8a31"),
])
def test_six_leaf_ternary_output_is_frozen(algorithm, n, digest, config_file,
                                           tmp_path):
    # sample CSVs are byte-identical across refactors of the samplers
    algorithm, _, discrete = algorithm.partition(":")
    config = (str(MODELS / "six_leaf_discrete.json") if discrete
              else config_file(SIX_LEAF_NORMAL_CONFIG))
    out = tmp_path / "draws.csv"
    rc = main(["sample", config, "--algorithm", algorithm, "--n", str(n),
               "--seed", "42", "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# numpy dispatches no kernel of the SIMD targets listed in this variable;
# names it does not know, or that the CPU lacks, are ignored
NO_AVX512_NO_AVX2 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}


@pytest.mark.parametrize("model", ["four_leaf_normal", "six_leaf_discrete"])
@pytest.mark.parametrize("algorithm, n", [("reorder", 20000), ("mra", 30)])
def test_output_does_not_depend_on_simd_dispatch(model, algorithm, n):
    package_root = str(Path(aggtree.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])

    def digest(extra):
        out = subprocess.run(
            [sys.executable, "-m", "aggtree.cli", "sample",
             str(MODELS / f"{model}.json"), "--algorithm", algorithm,
             "--n", str(n), "--seed", "42"],
            env={**env, **extra}, capture_output=True, check=True)
        return hashlib.sha256(out.stdout).hexdigest()

    assert digest(NO_AVX512_NO_AVX2) == digest({})

