import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggtree.mra
from aggtree import (
    AggregationTreeModel,
    Discrete,
    DiscreteJointPmf,
    GaussianCopula,
    GenerationBudgetError,
    Independence,
    Normal,
    NodeAtoms,
    ROOT,
    RootedTree,
    SupportSizeError,
    copula_correlation,
    empirical_joint_pmf,
    reorder_children,
    reorder_fixed_first,
    run_mra,
    run_reordering,
    tree_dependent_pmf,
    tv_distance,
)
from aggtree.cli import model_from_config
from aggtree.errors import UnsupportedModelError
from aggtree.mra import _kept_atoms, _rectangles

MODELS = Path(__file__).resolve().parent.parent / "perfbench" / "models"

X1 = np.array([1.0, 4.0, 2.0])
X2 = np.array([9.0, 0.0, 3.0])
U = np.array([[0.6, 0.9], [0.3, 0.5], [0.5, 0.2]])


def atoms_pair():
    return [NodeAtoms.for_leaf((1,), X1), NodeAtoms.for_leaf((2,), X2)]


def coin():
    return Discrete([0.0, 1.0], [0.5, 0.5])


def bernoulli3(rho1=0.7, rho0=0.2):
    tree = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
    cop1 = GaussianCopula.bivariate(rho1) if rho1 is not None else Independence(2)
    cop0 = GaussianCopula.bivariate(rho0) if rho0 is not None else Independence(2)
    return AggregationTreeModel(
        tree,
        {"1.1": coin(), "1.2": coin(), "2": coin()},
        {"1": cop1, "root": cop0},
    )


class TestReorderFixedFirst:
    def test_worked_example_row_order(self):
        out = reorder_fixed_first(atoms_pair(), U)
        np.testing.assert_array_equal(out.components,
                                      [[1.0, 3.0], [4.0, 9.0], [2.0, 0.0]])
        np.testing.assert_array_equal(out.sums, [4.0, 13.0, 2.0])
        # first component is child 1's sample in original order
        np.testing.assert_array_equal(out.components[:, 0], X1)

    def test_multiset_matches_plain_reordering(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            xs = [rng.normal(size=n), rng.normal(size=n)]
            u = rng.random((n, 2))
            kids = lambda: [NodeAtoms.for_leaf((i + 1,), x)
                            for i, x in enumerate(xs)]
            a = reorder_children(kids(), u).components
            b = reorder_fixed_first(kids(), u).components
            np.testing.assert_array_equal(
                a[np.lexsort(a.T[::-1])], b[np.lexsort(b.T[::-1])])

    def test_identity_ranks_identical_children(self):
        x = np.array([2.0, 7.0, 5.0])
        u = np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.5]])
        kids = [NodeAtoms.for_leaf((1,), x), NodeAtoms.for_leaf((2,), x)]
        out = reorder_fixed_first(kids, u)
        np.testing.assert_array_equal(out.components[:, 0], x)
        np.testing.assert_array_equal(out.components[:, 1], x)

    def test_single_row_matches_plain(self):
        a = NodeAtoms.for_leaf((1,), np.array([5.0]))
        b = NodeAtoms.for_leaf((2,), np.array([7.0]))
        u = np.array([[0.4, 0.8]])
        plain = reorder_children([a, b], u)
        fixed = reorder_fixed_first(
            [NodeAtoms.for_leaf((1,), np.array([5.0])),
             NodeAtoms.for_leaf((2,), np.array([7.0]))], u)
        np.testing.assert_array_equal(plain.components, fixed.components)


class TestKeptAtoms:
    def test_matches_fixed_first_atoms_on_ties(self):
        # MRA builds only the atom it keeps: with k = 0..n-1 over n copies
        # of one set, that is every atom of reorder_fixed_first on the set
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 41))
            m = int(rng.integers(2, 5))
            comps = [rng.integers(0, 3, size=(n, int(rng.integers(1, 3))))
                     .astype(float) for _ in range(m)]
            u = rng.integers(0, 5, size=(n, m)) / 5.0
            kids = [NodeAtoms((i + 1,), c.sum(axis=1), None, c,
                              tuple((i + 1, j + 1) for j in range(c.shape[1])))
                    for i, c in enumerate(comps)]
            want = reorder_fixed_first(kids, u)
            sums, comp = _kept_atoms(
                [np.tile(kid.sums, (n, 1)) for kid in kids],
                [np.tile(c, (n, 1, 1)) for c in comps],
                np.tile(u, (n, 1, 1)), np.arange(n))
            assert np.array_equal(sums, want.sums)
            assert np.array_equal(comp, want.composition)


class TestRunMra:
    def test_shapes_and_determinism(self, four_leaf_model):
        out = run_mra(four_leaf_model, 64, seed=3)
        assert isinstance(out, NodeAtoms)
        assert out.composition.shape == (64, 4)
        assert out.leaf_order == tuple(four_leaf_model.tree.leaves())
        again = run_mra(four_leaf_model, 64, seed=3)
        np.testing.assert_array_equal(out.composition, again.composition)
        other = run_mra(four_leaf_model, 64, seed=4)
        assert not np.array_equal(out.composition, other.composition)

    def test_chunking_does_not_change_output(self, four_leaf_model,
                                             monkeypatch):
        # every node reads its own streams in row order, so any chunk size,
        # down to one row per chunk at every level, gives the same rows; the
        # six-leaf model is ternary with discrete leaves, so ranks tie
        config = json.loads((MODELS / "six_leaf_discrete.json").read_text())
        six_leaf = model_from_config(config)[0]
        cases = [(four_leaf_model, 100, (5000,)),
                 (four_leaf_model, 30, (1, 7, 50)),
                 (six_leaf, 30, (1, 7, 50))]
        for model, n, chunks in cases:
            monkeypatch.setattr(aggtree.mra, "_CHUNK_ELEMS", 10**12)
            whole = run_mra(model, n, seed=8).composition
            for chunk in chunks:
                monkeypatch.setattr(aggtree.mra, "_CHUNK_ELEMS", chunk)
                chunked = run_mra(model, n, seed=8).composition
                np.testing.assert_array_equal(
                    whole, chunked, err_msg=f"n={n}, chunk={chunk}")

    def test_working_set_does_not_grow_with_n(self, four_leaf_model):
        # at n = 200 each leaf draws 200**3 values (61 MB); built in one
        # piece, the traced peak was 489 MB
        tracemalloc.start()
        try:
            run_mra(four_leaf_model, 200, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_depth_one_moments(self):
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(
            tree,
            {"1": Normal(1.0, 2.0), "2": Normal(-1.0, 1.0)},
            {"root": GaussianCopula.bivariate(0.6)},
        )
        out = run_mra(model, 2000, seed=5)
        x = out.composition
        assert abs(x[:, 0].mean() - 1.0) <= 0.15
        assert abs(x[:, 1].mean() + 1.0) <= 0.15
        assert abs(x[:, 0].var() - 2.0) <= 0.3
        r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(r - 0.6) <= 0.08

    def test_independence_pairwise_correlations(self):
        # rows are i.i.d., so pooling runs gives the same law as one big run
        model = bernoulli3(rho1=None, rho0=None)
        x = np.vstack([run_mra(model, 100, seed=s).composition
                       for s in range(10)])
        assert x.shape == (10**3, 3)
        corr = np.corrcoef(x.T)
        off = corr[np.triu_indices(3, 1)]
        assert np.max(np.abs(off)) <= 0.1

    def test_node_sums_accessor(self, four_leaf_model):
        # the root's sums add node 1's two columns to node 2's
        out = run_mra(four_leaf_model, 32, seed=1)
        assert out.node == ROOT and out.sums.shape == (32,)
        x = out.composition
        np.testing.assert_allclose(out.sums, x.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(
            out.sums, x[:, :2].sum(axis=1) + x[:, 2:].sum(axis=1), atol=1e-12)

    def test_generation_budget(self, four_leaf_model):
        model = bernoulli3()
        with pytest.raises(GenerationBudgetError) as exc:
            run_mra(model, 10**5, seed=0)
        err = exc.value
        # leaves 1.1 and 1.2 each draw n**3 values, leaf 2 draws n**2
        assert err.estimate == pytest.approx(2e15 + 1e10)
        assert err.budget == pytest.approx(1e8)
        assert "exceeds budget" in str(err)
        # explicit budget raise lets the same call through
        run_mra(model, 120, seed=0, budget=10**8)
        # reordering draws n values per leaf: 200 for four leaves at n = 50
        with pytest.raises(GenerationBudgetError) as exc:
            run_reordering(four_leaf_model, 50, seed=0, budget=199)
        assert exc.value.estimate == 200 and exc.value.budget == 199
        assert run_reordering(four_leaf_model, 50, seed=0, budget=200).n == 50

    def test_budget_must_be_finite_and_nonnegative(self):
        model = bernoulli3()
        for sampler in (run_mra, run_reordering):
            for budget in (math.nan, math.inf, -1.0):
                with pytest.raises(ValueError, match="budget must be finite"):
                    sampler(model, 3, seed=0, budget=budget)

    def test_huge_n_exceeds_budget_exactly(self):
        n = 10**400
        with pytest.raises(GenerationBudgetError) as exc:
            run_mra(bernoulli3(), n, seed=0)
        assert exc.value.estimate == 2 * n**3 + n**2
        assert "estimated generation count 2e+1200 exceeds budget 1e+08" in str(
            exc.value)
        # refused before any draw, not by numpy's array size limit
        with pytest.raises(GenerationBudgetError) as exc:
            run_reordering(bernoulli3(), n, seed=1)
        assert exc.value.estimate == 3 * n
        assert "estimated generation count 3e+400 exceeds budget 1e+08" in str(
            exc.value)

    def test_iid_halves_close_in_tv(self):
        model = bernoulli3()
        x = np.vstack([run_mra(model, 150, seed=s).composition
                       for s in (13, 14, 15, 16)])
        p = empirical_joint_pmf(x[0::2])
        q = empirical_joint_pmf(x[1::2])
        assert tv_distance(p, q) <= 0.12


class TestTreeDependentPmf:
    def test_two_independent_coins_uniform(self):
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(
            tree, {"1": coin(), "2": coin()}, {"root": Independence(2)})
        pmf = tree_dependent_pmf(model)
        d = pmf.as_dict()
        assert len(d) == 4
        for v in d.values():
            assert v == pytest.approx(0.25, abs=1e-12)

    def test_two_point_masses(self):
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(
            tree,
            {"1": Discrete([2.0], [1.0]), "2": Discrete([-1.0], [1.0])},
            {"root": GaussianCopula.bivariate(0.4)},
        )
        pmf = tree_dependent_pmf(model)
        d = pmf.as_dict()
        assert d == {(2.0, -1.0): pytest.approx(1.0, abs=1e-12)}

    def test_three_leaf_frozen_oracle(self):
        # independent recomputation: copula rectangle masses for the sibling
        # pair, root rectangles on the pair-sum cdf, conditional independence
        # glue; evaluated with scipy's bivariate normal cdf and frozen here
        pmf = tree_dependent_pmf(bernoulli3()).as_dict()
        expected = {
            (0.0, 0.0, 0.0): 0.217102224377984,
            (0.0, 0.0, 1.0): 0.156306120068698,
            (0.0, 1.0, 0.0): 0.063295827776659,
            (0.0, 1.0, 1.0): 0.063295827776659,
            (1.0, 0.0, 0.0): 0.063295827776659,
            (1.0, 0.0, 1.0): 0.063295827776659,
            (1.0, 1.0, 0.0): 0.156306120068698,
            (1.0, 1.0, 1.0): 0.217102224377984,
        }
        assert set(pmf) == set(expected)
        for k, v in expected.items():
            assert pmf[k] == pytest.approx(v, abs=5e-9)

    def test_sibling_pair_matches_arcsine_table(self):
        pmf = tree_dependent_pmf(bernoulli3()).as_dict()
        pair = {}
        for (a, b, c), p in pmf.items():
            pair[(a, b)] = pair.get((a, b), 0.0) + p
        c00 = 0.25 + math.asin(0.7) / (2.0 * math.pi)
        assert pair[(0.0, 0.0)] == pytest.approx(c00, abs=1e-10)
        assert pair[(1.0, 1.0)] == pytest.approx(c00, abs=1e-10)
        assert pair[(0.0, 1.0)] == pytest.approx(0.5 - c00, abs=1e-10)
        assert pair[(1.0, 0.0)] == pytest.approx(0.5 - c00, abs=1e-10)
        assert c00 == pytest.approx(0.3734083444466825, abs=1e-15)

    def test_leaf_marginals_recovered(self):
        tree = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
        model = AggregationTreeModel(
            tree,
            {
                "1.1": Discrete([0.0, 2.0], [0.3, 0.7]),
                "1.2": Discrete([1.0, 4.0, 6.0], [0.2, 0.5, 0.3]),
                "2": Discrete([-1.0, 1.0], [0.6, 0.4]),
            },
            {"1": GaussianCopula.bivariate(0.5),
             "root": GaussianCopula.bivariate(-0.3)},
        )
        pmf = tree_dependent_pmf(model)
        spec = {0: model.marginals[(1, 1)], 1: model.marginals[(1, 2)],
                2: model.marginals[(2,)]}
        for col, marg in spec.items():
            got = {}
            for pt, p in zip(pmf.points, pmf.probs):
                got[pt[col]] = got.get(pt[col], 0.0) + p
            want = dict(zip(marg.support, marg.probs))
            assert set(got) == set(want)
            for v, p in want.items():
                assert got[v] == pytest.approx(p, abs=1e-9)

    def test_support_cap(self):
        n = 400
        sup = list(np.arange(n) + np.linspace(0, 0.3, n))
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(
            tree,
            {"1": Discrete(sup, [1.0 / n] * n),
             "2": Discrete(sup, [1.0 / n] * n)},
            {"root": GaussianCopula.bivariate(0.3)},
        )
        with pytest.raises(SupportSizeError) as exc:
            tree_dependent_pmf(model)
        assert exc.value.size > exc.value.cap == 10**5
        # every cell is positive at rho = 0.3, so all n * n pairs count
        assert exc.value.size == n * n
        # the cap is a parameter: a tiny cap trips even an 8-point support
        with pytest.raises(SupportSizeError):
            tree_dependent_pmf(bernoulli3(), support_cap=4)

    def test_support_cap_bounds_memory(self):
        # at rho = 1 only 3,000 of the 9e6 pairs carry mass, but the cell grid
        # and pair mask cover all of them: the cap must trip before either
        n = 3000
        sup = list(np.arange(n) * 1.0)
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(
            tree, {"1": Discrete(sup, [1.0 / n] * n), "2": Discrete(sup, [1.0 / n] * n)},
            {"root": GaussianCopula.bivariate(1.0)})
        tracemalloc.start()
        try:
            with pytest.raises(SupportSizeError) as exc:
                tree_dependent_pmf(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.size == n * n
        assert peak < 10 * 2**20

    def test_oracle_snaps_like_empirical_pmf(self):
        # 0.9179061055 is a half-way case at the 10th decimal, which Python's
        # round and np.round put on different 9-decimal points
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(
            tree, {"1": Discrete([0.0, 0.9179061055], [0.5, 0.5]), "2": coin()},
            {"root": Independence(2)})
        oracle = tree_dependent_pmf(model)
        np.testing.assert_array_equal(
            oracle.points, empirical_joint_pmf(oracle.points).points)
        x = run_mra(model, 2000, seed=0).composition
        assert tv_distance(empirical_joint_pmf(x), oracle) <= 0.1

    def test_non_binary_rejected(self):
        tree = RootedTree.from_nested({"children": [{}, {}, {}]})
        model = AggregationTreeModel(
            tree,
            {"1": coin(), "2": coin(), "3": coin()},
            {"root": Independence(3)},
        )
        with pytest.raises(UnsupportedModelError):
            tree_dependent_pmf(model)

    def test_continuous_marginal_rejected(self):
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(
            tree, {"1": Normal(0, 1), "2": coin()},
            {"root": GaussianCopula.bivariate(0.2)})
        with pytest.raises(UnsupportedModelError):
            tree_dependent_pmf(model)


@st.composite
def binary_tree(draw, depth=0):
    if depth == 3 or (depth > 0 and draw(st.booleans())):
        return {}
    return {"children": [draw(binary_tree(depth + 1)),
                         draw(binary_tree(depth + 1))]}


@st.composite
def discrete_tree_model(draw):
    tree = RootedTree.from_nested(draw(binary_tree()))
    marginals = {}
    for leaf in tree.leaves():
        # tenths, so sums like 0.1 + 0.2 meet on the snapped grid
        support = sorted(draw(st.lists(st.integers(-20, 20), min_size=1,
                                       max_size=3, unique=True)))
        weights = np.array(draw(st.lists(st.integers(1, 5), min_size=len(support),
                                         max_size=len(support))), dtype=float)
        marginals[leaf] = Discrete(np.array(support) / 10.0, weights / weights.sum())
    rho = st.sampled_from([-1.0, -0.5, 0.0, 0.3, 1.0]).map(GaussianCopula.bivariate)
    copulas = {node: draw(rho | st.just(Independence(2)))
               for node in tree.branching()}
    return AggregationTreeModel(tree, marginals, copulas)


def _grouped(values, probs):
    keys, inv = np.unique(np.round(values, 9), return_inverse=True)
    return keys, inv, np.bincount(inv, probs)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(discrete_tree_model())
def test_oracle_on_random_binary_trees(model):
    pmf = tree_dependent_pmf(model)
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
    leaves = model.tree.leaves()
    for col, leaf in enumerate(leaves):
        spec = model.marginals[leaf]
        keys, _, mass = _grouped(pmf.points[:, col], pmf.probs)
        np.testing.assert_array_equal(keys, np.round(spec.support, 9))
        np.testing.assert_allclose(mass, spec.probs, rtol=0, atol=1e-12)
    # at the root, (left sum, right sum) follows the root copula's cells
    sums = [pmf.points[:, [leaves.index(lf) for lf in
                           model.tree.leaf_descendants(child)]].sum(axis=1)
            for child in model.tree.children(ROOT)]
    (_, i_l, m_l), (_, i_r, m_r) = (_grouped(s, pmf.probs) for s in sums)
    joint = np.zeros((len(m_l), len(m_r)))
    np.add.at(joint, (i_l, i_r), pmf.probs)
    rho = copula_correlation(model.copulas[ROOT])[0, 1]
    cells = _rectangles(rho, np.cumsum(m_l), np.cumsum(m_r))
    np.testing.assert_allclose(joint, cells, rtol=0, atol=1e-12)


class TestEmpiricalPmfAndTv:
    def test_empirical_counts(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        pmf = empirical_joint_pmf(x)
        d = pmf.as_dict()
        assert d[(0.0, 1.0)] == pytest.approx(0.5)
        assert d[(1.0, 0.0)] == pytest.approx(0.25)
        assert d[(0.0, 0.0)] == pytest.approx(0.25)

    def test_tv_identical_zero(self):
        p = DiscreteJointPmf([(0.0,), (1.0,)], [0.5, 0.5])
        assert tv_distance(p, p) == pytest.approx(0.0)

    def test_tv_disjoint_one(self):
        p = DiscreteJointPmf([(0.0,)], [1.0])
        q = DiscreteJointPmf([(1.0,)], [1.0])
        assert tv_distance(p, q) == pytest.approx(1.0)

    def test_tv_direct_formula(self):
        p = DiscreteJointPmf([(0.0,), (1.0,)], [0.5, 0.5])
        q = DiscreteJointPmf([(0.0,), (1.0,)], [0.6, 0.4])
        assert tv_distance(p, q) == pytest.approx(0.1)

    def test_mra_converges_to_oracle(self):
        model = bernoulli3()
        target = tree_dependent_pmf(model)
        x = run_mra(model, 200, seed=2).composition
        tv = tv_distance(empirical_joint_pmf(x), target)
        assert tv <= 0.15
