import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aggtree import (
    CovarianceConstraintSet,
    ExtremalResult,
    RootedTree,
    build_constraints,
    extremal_correlation,
    psd_feasible,
    symmetric_tree_constraints,
    symmetric_tree_dep_corr,
    three_leaf_corr_interval,
)

from barrier_reference import extremal_correlation as barrier_extremal

MODELS = Path(__file__).resolve().parent.parent / "perfbench" / "models"


def entries(dim, rows, cols):
    """The (i, j) entries of the block ``[rows, cols]``."""
    return {(i, j) for i in range(dim)[rows] for j in range(dim)[cols]}


def three_leaf_constraints(v1, v2, v3, rho12, rho0, objective=("1.1", "2")):
    tree = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
    corrs = {
        (1,): np.array([[1.0, rho12], [rho12, 1.0]]),
        (): np.array([[1.0, rho0], [rho0, 1.0]]),
    }
    return build_constraints(
        tree, {(1, 1): v1, (1, 2): v2, (2,): v3}, corrs, objective=objective)


class TestBuildConstraints:
    def test_three_leaf_structure(self):
        cs = three_leaf_constraints(1.0, 4.0, 2.25, 0.6, 0.3)
        assert cs.leaf_order == ((1, 1), (1, 2), (2,))
        np.testing.assert_array_equal(cs.variances, [1.0, 4.0, 2.25])
        # branching nodes in lexicographic order: the root, then node 1
        (rows, cols, rhs), (rows1, cols1, rhs1) = cs.blocks
        # one aggregate constraint: s13 + s23 = rho0 * sd(S1) * sd(X3)
        assert (rows, cols) == (slice(0, 2), slice(2, 3))
        sd_pair = math.sqrt(1.0 + 4.0 + 2 * 0.6 * 2.0)
        assert rhs == pytest.approx(0.3 * sd_pair * 1.5)
        # sibling covariance pinned to rho12 * s1 * s2
        assert (rows1, cols1) == (slice(0, 1), slice(1, 2))
        assert rhs1 == pytest.approx(0.6 * 1.0 * 2.0)
        assert cs.objective == (0, 2)

    def test_tree_dep_start_matches_closed_form(self):
        cs = three_leaf_constraints(1.0, 4.0, 2.25, 0.6, 0.3)
        interval = three_leaf_corr_interval(1.0, 2.0, 1.5, 0.6, 0.3)
        assert cs.tree_dep[0, 2] == pytest.approx(
            interval.tree_dep * 1.0 * 1.5, abs=1e-12)
        ok, _ = psd_feasible(cs.tree_dep)
        assert ok

    def test_single_level_all_fixed(self):
        tree = RootedTree.from_nested({"children": [{}, {}, {}]})
        R = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.1], [0.2, -0.1, 1.0]])
        cs = build_constraints(
            tree, {(1,): 1.0, (2,): 4.0, (3,): 1.0}, {(): R},
            objective=("1", "2"))
        # every sibling pair is a single entry
        (r01, c01, s01), (r02, c02, s02), (r12, c12, s12) = cs.blocks
        assert (r01, c01) == (slice(0, 1), slice(1, 2))
        assert (r02, c02) == (slice(0, 1), slice(2, 3))
        assert (r12, c12) == (slice(1, 2), slice(2, 3))
        assert s01 == pytest.approx(0.5 * 2.0)
        assert s02 == pytest.approx(0.2)
        assert s12 == pytest.approx(-0.1 * 2.0)

    def test_symmetric_depth3_structure(self):
        rho = -0.5
        cs = symmetric_tree_constraints(3, rho, objective=("1.1.1", "2.2.2"))
        assert cs.dim == 8
        np.testing.assert_array_equal(cs.variances, np.ones(8))
        # four sibling pairs pinned at rho, two mid-level blocks of 2x2
        # cross entries and one 4x4 root block
        sizes = [len(entries(cs.dim, rows, cols)) for rows, cols, _ in cs.blocks]
        assert sorted(sizes) == [1, 1, 1, 1, 4, 4, 16]
        for size, (_, _, rhs) in zip(sizes, cs.blocks):
            if size == 1:
                assert rhs == pytest.approx(rho)
            elif size == 4:
                assert rhs == pytest.approx(rho * 2.0 * (1.0 + rho))
            else:
                assert rhs == pytest.approx(rho * 4.0 * (1.0 + rho) ** 2)

    def test_each_entry_constrained_once(self):
        # a binary tree, and a ternary one with three children at the root
        # and at node 1
        config = json.loads((MODELS / "six_leaf_discrete.json").read_text())
        tree = RootedTree.from_nested(config["tree"])
        ternary = build_constraints(
            tree, {leaf: 1.0 for leaf in tree.leaves()},
            {node: np.eye(tree.arity(node)) for node in tree.branching()})
        binary = symmetric_tree_constraints(3, 0.4, objective=("1.1.1", "2.2.2"))
        for cs in (binary, ternary):
            seen = set()
            for rows, cols, _ in cs.blocks:
                for e in entries(cs.dim, rows, cols):
                    assert e[0] < e[1] and e not in seen
                    seen.add(e)
            npairs = cs.dim * (cs.dim - 1) // 2
            assert len(seen) == npairs
        assert ternary.dim == 6 and len(ternary.blocks) == 7

    def test_objective_accepts_labels_and_indices(self):
        a = three_leaf_constraints(1.0, 4.0, 2.25, 0.6, 0.3, ("1.1", "2"))
        b = three_leaf_constraints(1.0, 4.0, 2.25, 0.6, 0.3, (0, 2))
        assert a.objective == b.objective == (0, 2)

    def test_unknown_leaf_rejected(self):
        with pytest.raises(Exception):
            three_leaf_constraints(1.0, 4.0, 2.25, 0.6, 0.3, ("1.3", "2"))

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan, math.inf])
    def test_bad_leaf_variance_rejected(self, variance):
        with pytest.raises(ValueError, match=r"leaf 1\.1: variance"):
            three_leaf_constraints(variance, 4.0, 2.25, 0.6, 0.3)

    @pytest.mark.parametrize("rho", [1.5, -1.5, math.nan])
    def test_symmetric_rho_outside_unit_interval_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            symmetric_tree_constraints(2, rho, objective=("1.1", "2.1"))


class TestPsdFeasible:
    def test_identity(self):
        ok, lam = psd_feasible(np.eye(3))
        assert ok and lam == pytest.approx(1.0)

    def test_excess_correlation_block(self):
        ok, lam = psd_feasible(np.array([[1.0, 1.2], [1.2, 1.0]]))
        assert not ok
        assert lam == pytest.approx(-0.2, abs=1e-12)

    def test_tolerance_parameter(self):
        m = np.array([[1.0, 0.0], [0.0, -1e-10]])
        ok_default, _ = psd_feasible(m)
        ok_tight, _ = psd_feasible(m, tol=1e-12)
        assert ok_default and not ok_tight


class TestExtremalCorrelation:
    def test_agrees_with_closed_form_on_grid(self):
        grid = [(rho12, rho0, 1e-6) for rho12 in (-0.9, 0.0, 0.9)
                for rho0 in (-0.45, 0.45)]
        # degenerate trees: perfectly dependent pair or zero-variance sum
        grid += [(rho12, rho0, 1e-9) for rho12, rho0 in
                 ((1.0, 0.3), (0.5, 1.0), (0.5, -1.0), (-1.0, 0.0), (-1.0, 0.5))]
        for rho12, rho0, tol in grid:
            cs = three_leaf_constraints(1.0, 1.0, 1.0, rho12, rho0)
            interval = three_leaf_corr_interval(1.0, 1.0, 1.0, rho12, rho0)
            lo = extremal_correlation(cs, "min")
            hi = extremal_correlation(cs, "max")
            assert lo.value == pytest.approx(interval.min, abs=tol)
            assert hi.value == pytest.approx(interval.max, abs=tol)
            assert lo.status == "optimal" and hi.status == "optimal"
            for res in (lo, hi):
                assert res.witness[cs.objective] == res.covariance
                assert psd_feasible(res.witness)[0]
                assert cs.residual(res.witness) <= 1e-9

    def test_result_fields_and_witness_quality(self):
        cs = three_leaf_constraints(1.0, 4.0, 2.25, 0.6, 0.3)
        res = extremal_correlation(cs, "max")
        assert isinstance(res, ExtremalResult)
        # value is on the correlation scale, covariance on the raw scale
        assert res.covariance == pytest.approx(res.value * 1.0 * 1.5, abs=1e-12)
        w = res.witness
        ok, lam = psd_feasible(w)
        assert ok, lam
        np.testing.assert_allclose(np.diag(w), cs.variances, atol=1e-7)
        (rows, cols, rhs), (_, _, pinned) = cs.blocks
        assert w[0, 1] == pytest.approx(pinned, abs=1e-7)
        got = w[rows, cols].sum()
        assert got == pytest.approx(rhs, abs=1e-7)
        assert w[cs.objective] == pytest.approx(res.covariance, abs=1e-9)
        assert res.info["direction"] == "max"
        assert res.info["iterations"] >= 1
        assert res.info["gap"] <= 1e-7  # the witness's distance from the value

    def test_fully_fixed_objective_is_trivial(self):
        tree = RootedTree.from_nested({"children": [{}, {}, {}]})
        R = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.1], [0.2, -0.1, 1.0]])
        cs = build_constraints(
            tree, {(1,): 1.0, (2,): 4.0, (3,): 1.0}, {(): R},
            objective=("1", "2"))
        lo = extremal_correlation(cs, "min")
        hi = extremal_correlation(cs, "max")
        assert lo.value == pytest.approx(0.5, abs=1e-9)
        assert hi.value == pytest.approx(0.5, abs=1e-9)

    def test_symmetric_negative_rho_full_range(self):
        for pair in (("1.1.1", "1.2.1"), ("1.1.1", "2.2.2")):
            cs = symmetric_tree_constraints(3, -0.5, objective=pair)
            lo = extremal_correlation(cs, "min")
            hi = extremal_correlation(cs, "max")
            assert lo.value == pytest.approx(-1.0, abs=1e-3)
            assert hi.value == pytest.approx(1.0, abs=1e-3)

    def test_symmetric_comonotone_tree_is_a_point(self):
        # rho = 1 makes every leaf equal: each step of the chain between
        # the pair is the angle 0, so the fold reaches only 0, both ways
        for pair in (("1.1.1", "1.2.1"), ("1.1.1", "2.2.2")):
            cs = symmetric_tree_constraints(3, 1.0, objective=pair)
            for direction in ("min", "max"):
                res = extremal_correlation(cs, direction)
                assert res.value == pytest.approx(1.0, abs=1e-12)
                assert res.status == "optimal"

    def test_requires_objective(self):
        tree = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
        corrs = {(1,): np.eye(2), (): np.eye(2)}
        cs = build_constraints(tree, {(1, 1): 1.0, (1, 2): 1.0, (2,): 1.0}, corrs)
        with pytest.raises(ValueError):
            extremal_correlation(cs, "min")

    def test_rejects_bad_direction(self):
        cs = three_leaf_constraints(1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            extremal_correlation(cs, "both")

    def test_unforced_singular_start_is_rejected(self):
        # a singular start whose pair no sibling block constrains: the pair
        # ends no chain of partial sums
        cs = CovarianceConstraintSet(
            leaf_order=((1,), (2,)), variances=[1.0, 1.0], blocks=[],
            tree_dep=np.ones((2, 2)), objective=(0, 1))
        with pytest.raises(ValueError, match="no sibling block holds the pair 1, 2$"):
            extremal_correlation(cs, "min")

    @pytest.mark.parametrize("rho", [1.5, -1.5])
    def test_non_psd_tree_dep_is_rejected(self, rho):
        # a copula "correlation" outside [-1, 1] makes tree_dep indefinite;
        # the search must not report a correlation beyond +/-1 as optimal
        tree = RootedTree.symmetric_binary(2)
        corr = np.array([[1.0, rho], [rho, 1.0]])
        cs = build_constraints(tree, {leaf: 1.0 for leaf in tree.leaves()},
                               {node: corr for node in tree.branching()},
                               objective=("1.1", "2.1"))
        with pytest.raises(ValueError, match="PSD"):
            extremal_correlation(cs, "min")

    def test_symmetric_grid_witnesses_carry_certificates(self):
        for rho in [round(-0.9 + 0.3 * k, 10) for k in range(7)]:
            for pair in (("1.1.1", "1.2.1"), ("1.1.1", "2.2.2")):
                cs = symmetric_tree_constraints(3, rho, objective=pair)
                for direction in ("min", "max"):
                    res = extremal_correlation(cs, direction)
                    assert res.status == "optimal"
                    assert psd_feasible(res.witness)[0]
                    assert cs.residual(res.witness) <= 1e-9
                    assert res.info["gap"] <= 1e-7
                    assert res.witness[cs.objective] == res.covariance

    def test_min_below_tree_dep_below_max(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            rho12 = float(rng.uniform(-0.8, 0.8))
            rho0 = float(rng.uniform(-0.8, 0.8))
            v = rng.uniform(0.5, 3.0, size=3)
            cs = three_leaf_constraints(v[0], v[1], v[2], rho12, rho0)
            td_corr = cs.tree_dep[0, 2] / math.sqrt(v[0] * v[2])
            lo = extremal_correlation(cs, "min").value
            hi = extremal_correlation(cs, "max").value
            assert lo - 1e-7 <= td_corr <= hi + 1e-7


class TestSymmetricTreeDepCorr:
    def test_level_formulas(self):
        rho = 0.3
        assert symmetric_tree_dep_corr(1, rho) == pytest.approx(rho)
        assert symmetric_tree_dep_corr(2, rho) == pytest.approx(
            rho * (1 + rho) / 2.0)
        assert symmetric_tree_dep_corr(3, rho) == pytest.approx(
            rho * (1 + rho) ** 2 / 4.0)

    def test_specific_values(self):
        assert symmetric_tree_dep_corr(2, -0.5) == pytest.approx(-0.125)
        assert symmetric_tree_dep_corr(3, -0.5) == pytest.approx(-0.03125)

    def test_decay_with_distance(self):
        rho = 0.6
        vals = [abs(symmetric_tree_dep_corr(k, rho)) for k in range(1, 21)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2

    def test_domain(self):
        with pytest.raises(ValueError):
            symmetric_tree_dep_corr(0, 0.3)
        # at rho = -1 siblings are countermonotone and their sums vanish,
        # so every wider pair is uncorrelated
        assert symmetric_tree_dep_corr(1, -1.0) == -1.0
        assert symmetric_tree_dep_corr(2, -1.0) == 0.0
        with pytest.raises(ValueError):
            symmetric_tree_dep_corr(1, -1.1)
        with pytest.raises(ValueError):
            symmetric_tree_dep_corr(1, 1.1)


class TestConstraintSetType:
    @staticmethod
    def direct_set():
        return CovarianceConstraintSet(
            leaf_order=((1,), (2,), (3,)),
            variances=[1.0, 1.0, 1.0],
            blocks=[(slice(0, 1), slice(1, 2), 0.2),
                    (slice(0, 2), slice(2, 3), 0.5)],
            tree_dep=np.eye(3),
            objective=(0, 2),
        )

    def test_direct_construction(self):
        cs = self.direct_set()
        assert cs.dim == 3
        assert cs.objective == (0, 2)

    def test_direct_set_matches_its_built_twin(self):
        # the direct set's blocks with the tree dependent matrix they imply:
        # X1 + X2 has variance 2.4 and meets X3 at covariance 0.5, split
        # evenly between the two equal leaves
        direct = self.direct_set()
        direct.tree_dep = np.array([[1.0, 0.2, 0.25], [0.2, 1.0, 0.25],
                                    [0.25, 0.25, 1.0]])
        twin = three_leaf_constraints(1.0, 1.0, 1.0, 0.2, 0.5 / math.sqrt(2.4))
        np.testing.assert_allclose(direct.tree_dep, twin.tree_dep, atol=1e-15)
        for direction in ("min", "max"):
            got = extremal_correlation(direct, direction)
            want = extremal_correlation(twin, direction)
            assert got.value == pytest.approx(want.value, abs=1e-12)
            assert direct.residual(got.witness) <= 1e-9
            assert psd_feasible(got.witness)[0]

    @pytest.mark.parametrize("direction", ["min", "max"])
    def test_tree_dep_off_its_constraints_is_rejected(self, direction):
        # np.eye(3) misses the pinned 0.2 and the sum 0.5; a search started
        # there keeps those misses in its witness
        with pytest.raises(ValueError, match=r"tree_dep .* residual 0\.5$"):
            extremal_correlation(self.direct_set(), direction)


class TestSymmetricTreeLaw:
    """Two leaves of the symmetric binary tree that meet k levels up have
    the attainable correlation interval {rho} for k = 1 and
    [cos(min(k * arccos(rho), pi)), 1] for k >= 2, at any depth."""

    @pytest.mark.parametrize("rho", [-0.5, 0.3, 0.5, 0.8, 0.9, 0.95])
    def test_depth4_every_meeting_level(self, rho):
        depth = 4
        for k in range(1, depth + 1):
            other = "1." * (depth - k) + "2" + ".1" * (k - 1)
            cs = symmetric_tree_constraints(depth, rho, objective=("1.1.1.1", other))
            if k == 1:
                law = (rho, rho)
            else:
                law = (math.cos(min(k * math.acos(rho), math.pi)), 1.0)
            for direction, bound in zip(("min", "max"), law):
                res = extremal_correlation(cs, direction)
                assert res.status == "optimal"
                assert res.value == pytest.approx(bound, abs=1e-6), (k, direction)
                assert cs.residual(res.witness) <= 1e-9
                assert psd_feasible(res.witness)[0]
            # two steps of one angle fold back to 0, so for k >= 2 the
            # upper end is cos(0) = 1 exactly
            assert k == 1 or res.value == 1.0

    def test_depth6_search_is_small(self):
        # 64 leaves; leaves 1 and 3 meet two levels up, so the law gives
        # 2 * 0.6**2 - 1 = -0.28
        cs = symmetric_tree_constraints(
            6, 0.6, objective=("1.1.1.1.1.1", "1.1.1.1.2.1"))
        tracemalloc.start()
        try:
            res = extremal_correlation(cs, "min")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "optimal"
        assert res.value == pytest.approx(-0.28, abs=1e-6)
        assert cs.residual(res.witness) <= 1e-9
        assert peak <= 64 * 2**20

    @pytest.mark.parametrize("depth, rho, k", [
        (3, 0.5, 3), (4, 0.5, 3), (5, 0.5, 3),
        (4, 1.0 / math.sqrt(2.0), 4), (5, 1.0 / math.sqrt(2.0), 4)])
    def test_law_reaches_minus_one_exactly(self, depth, rho, k):
        # k * arccos(rho) = pi: the pair can be countermonotone
        other = "1." * (depth - k) + "2" + ".1" * (k - 1)
        cs = symmetric_tree_constraints(depth, rho, objective=("1." * (depth - 1) + "1", other))
        res = extremal_correlation(cs, "min")
        assert res.value == -1.0
        assert res.status == "optimal"
        assert psd_feasible(res.witness)[0]
        assert cs.residual(res.witness) <= 1e-9


def random_tree(rng, max_arity):
    """A tree of 3 to 16 leaves: split random leaves into 2 to
    ``max_arity`` children, no more than the leaf count still allows."""
    counts, leaves = {(): 0}, [()]
    target = int(rng.integers(3, 17))
    while len(leaves) < target:
        leaf = leaves.pop(int(rng.integers(len(leaves))))
        counts[leaf] = min(int(rng.integers(2, max_arity + 1)), target - len(leaves))
        for k in range(1, counts[leaf] + 1):
            counts[leaf + (k,)] = 0
            leaves.append(leaf + (k,))
    return RootedTree(counts)


def random_correlation(rng, k):
    """A k x k correlation matrix from k + 1 random normal features."""
    a = rng.standard_normal((k, k + 1))
    c = a @ a.T
    sd = np.sqrt(c.diagonal())
    return c / np.outer(sd, sd)


class TestBarrierReference:
    """The chain law against an independent log-det barrier solve, on
    seeded random trees with random variances, copulas and pairs."""

    @pytest.mark.parametrize("max_arity, count, seed", [(2, 300, 1901), (4, 100, 1902)])
    def test_matches_barrier_solve(self, max_arity, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            tree = random_tree(rng, max_arity)
            variances = {leaf: rng.uniform(0.2, 5.0) for leaf in tree.leaves()}
            corrs = {}
            for node in tree.branching():
                if max_arity == 2:
                    rho = rng.uniform(-0.999, 0.999)
                    corrs[node] = np.array([[1.0, rho], [rho, 1.0]])
                else:
                    corrs[node] = random_correlation(rng, tree.arity(node))
            pair = rng.choice(len(tree.leaves()), 2, replace=False)
            cs = build_constraints(tree, variances, corrs, objective=tuple(map(int, pair)))
            for direction in ("min", "max"):
                res = extremal_correlation(cs, direction)
                ref = barrier_extremal(cs, direction)
                assert res.value == pytest.approx(ref.value, abs=1e-6)
                assert psd_feasible(res.witness)[0]
                assert cs.residual(res.witness) <= 1e-9
                assert res.witness[cs.objective] == res.covariance

    def test_depth7_search_is_fast(self):
        # 128 leaves: one eigen-factor of the 128 x 128 matrix, then a
        # three-step chain
        cs = symmetric_tree_constraints(
            7, 0.6, objective=("1.1.1.1.1.1.1", "1.1.1.1.1.2.1"))
        start = time.perf_counter()
        res = extremal_correlation(cs, "min")
        assert time.perf_counter() - start < 1.0
        assert res.value == pytest.approx(-0.28, abs=1e-9)
        assert cs.residual(res.witness) <= 1e-9
