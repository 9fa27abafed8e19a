import math
import re

import numpy as np
import pytest

from aggtree import (
    AggregationTreeModel,
    CorrelationInterval,
    Discrete,
    GaussianCopula,
    GaussianTreeLaw,
    Independence,
    InfeasibleCorrelationError,
    Normal,
    ROOT,
    RootedTree,
    ellipse_parameters,
    node_sum_variances,
    model_second_moments,
    psd_feasible,
    three_leaf_corr_interval,
    three_leaf_covariance,
    tree_dependent_covariance,
    tree_dependent_law,
)
from aggtree.errors import UnsupportedModelError

from conftest import FOUR_LEAF_COV_4DP, FOUR_LEAF_MEAN


class TestTreeDependentLaw:
    def test_published_four_leaf_covariance(self, four_leaf_model):
        law = tree_dependent_law(four_leaf_model)
        assert isinstance(law, GaussianTreeLaw)
        np.testing.assert_array_equal(law.mean, FOUR_LEAF_MEAN)
        assert np.max(np.abs(law.covariance - FOUR_LEAF_COV_4DP)) <= 5e-5
        assert law.leaf_order == tuple(four_leaf_model.tree.leaves())

    def test_zero_correlations_block_diagonal(self):
        tree = RootedTree.from_nested(
            {"children": [{"children": [{}, {}]}, {"children": [{}, {}]}]})
        marginals = {lf: Normal(0.0, float(i + 1))
                     for i, lf in enumerate(tree.leaves())}
        copulas = {
            "1": GaussianCopula.bivariate(0.6),
            "2": GaussianCopula.bivariate(-0.4),
            "root": GaussianCopula.bivariate(0.0),
        }
        law = tree_dependent_law(AggregationTreeModel(tree, marginals, copulas))
        cov = law.covariance
        assert np.all(cov[:2, 2:] == 0.0)
        assert cov[0, 1] == pytest.approx(0.6 * math.sqrt(1.0 * 2.0), abs=1e-12)
        assert cov[2, 3] == pytest.approx(-0.4 * math.sqrt(3.0 * 4.0), abs=1e-12)

    def test_unbalanced_three_leaf_pair(self):
        # right-hand configuration: siblings independent, sum tied to the
        # third leaf with correlation 1/(2 sqrt 2); unit variances
        tree = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
        model = AggregationTreeModel(
            tree,
            {lf: Normal(0.0, 1.0) for lf in tree.leaves()},
            {"1": Independence(2),
             "root": GaussianCopula.bivariate(1.0 / (2.0 * math.sqrt(2.0)))},
        )
        cov = tree_dependent_law(model).covariance
        want = np.array([[1.0, 0.0, 0.25], [0.0, 1.0, 0.25], [0.25, 0.25, 1.0]])
        np.testing.assert_allclose(cov, want, rtol=0, atol=1e-10)

    def test_comonotone_pair_vs_third(self):
        # left-hand configuration: comonotone siblings, then rho 0.5 to the
        # third leaf
        tree = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
        model = AggregationTreeModel(
            tree,
            {lf: Normal(0.0, 1.0) for lf in tree.leaves()},
            {"1": GaussianCopula.bivariate(1.0),
             "root": GaussianCopula.bivariate(0.5)},
        )
        cov = tree_dependent_law(model).covariance
        want = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        np.testing.assert_allclose(cov, want, rtol=0, atol=1e-10)

    def test_sklar_consistency_random_models(self):
        # aggregating the output covariance back up the tree must reproduce
        # each node copula correlation exactly
        rng = np.random.default_rng(21)
        for _ in range(10):
            tree = RootedTree.from_nested(
                {"children": [{"children": [{}, {}]},
                              {"children": [{}, {"children": [{}, {}]}]}]})
            leaves = tree.leaves()
            variances = {lf: float(rng.uniform(0.5, 4.0)) for lf in leaves}
            corrs = {}
            for b in tree.branching():
                rho = float(rng.uniform(-0.9, 0.9))
                corrs[b] = np.array([[1.0, rho], [rho, 1.0]])
            _, cov = tree_dependent_covariance(tree, variances, corrs)
            order = {lf: i for i, lf in enumerate(leaves)}
            for b in tree.branching():
                c1, c2 = tree.children(b)
                i1 = [order[lf] for lf in tree.leaf_descendants(c1)]
                i2 = [order[lf] for lf in tree.leaf_descendants(c2)]
                cross = cov[np.ix_(i1, i2)].sum()
                v1 = cov[np.ix_(i1, i1)].sum()
                v2 = cov[np.ix_(i2, i2)].sum()
                implied = cross / math.sqrt(v1 * v2)
                assert implied == pytest.approx(corrs[b][0, 1], abs=1e-10)

    def test_node_sum_variances_symmetric_formulas(self):
        tree = RootedTree.symmetric_binary(2)
        rho = 0.3
        corr = np.array([[1.0, rho], [rho, 1.0]])
        variances = {lf: 1.0 for lf in tree.leaves()}
        corrs = {b: corr for b in tree.branching()}
        out = node_sum_variances(tree, variances, corrs)
        for node in ((1,), (2,)):
            assert out[node] == pytest.approx(2.0 * (1.0 + rho), abs=1e-12)
        assert out[ROOT] == pytest.approx(4.0 * (1.0 + rho) ** 2, abs=1e-12)

    def test_model_second_moments_round_trip(self, four_leaf_model):
        variances, corrs = model_second_moments(four_leaf_model)
        assert variances[(1, 1)] == 3.0 and variances[(2, 1)] == 10.0
        assert corrs[ROOT][0, 1] == pytest.approx(0.2)
        cov_a = tree_dependent_law(four_leaf_model).covariance
        order, cov_b = tree_dependent_covariance(
            four_leaf_model.tree, variances, corrs)
        assert tuple(order) == tuple(four_leaf_model.tree.leaves())
        np.testing.assert_allclose(cov_a, cov_b, rtol=0, atol=1e-14)

    def test_non_normal_marginal_rejected(self):
        tree = RootedTree.from_nested({"children": [{}, {}]})
        model = AggregationTreeModel(
            tree,
            {"1": Discrete([0.0, 1.0], [0.5, 0.5]), "2": Normal(0, 1)},
            {"root": GaussianCopula.bivariate(0.2)},
        )
        with pytest.raises(UnsupportedModelError):
            tree_dependent_law(model)


class TestThreeLeafInterval:
    def test_degenerate_cancellation(self):
        out = three_leaf_corr_interval(1.0, 1.0, 1.0, -1.0, 0.0)
        assert out.degenerate
        assert out.min == -1.0 and out.max == 1.0
        assert out.max - out.min == 2.0

    def test_comonotone_pair_degenerates_interval(self):
        out = three_leaf_corr_interval(1.5, 2.0, 1.0, 1.0, 0.4)
        assert out.half_length == 0.0
        assert out.min == out.max == out.tree_dep
        assert not out.degenerate

    def test_symmetric_independent_case(self):
        out = three_leaf_corr_interval(1.0, 1.0, 1.0, 0.0, 0.0)
        assert out.mid == pytest.approx(0.0, abs=1e-15)
        assert out.min == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
        assert out.max == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_large_sigma1_pins_to_root_corr(self):
        # dominating first leaf: both endpoints collapse to the root rho
        out = three_leaf_corr_interval(1e6, 1.0, 1.0, 0.3, 0.45)
        assert out.min == pytest.approx(0.45, abs=1e-3)
        assert out.max == pytest.approx(0.45, abs=1e-3)

    def test_large_sigma2_limit(self):
        rho12, rho0 = 0.3, 0.45
        out = three_leaf_corr_interval(1.0, 1e6, 1.0, rho12, rho0)
        spread = math.sqrt((1 - rho12**2) * (1 - rho0**2))
        assert out.min == pytest.approx(rho0 * rho12 - spread, abs=1e-3)
        assert out.max == pytest.approx(rho0 * rho12 + spread, abs=1e-3)

    def test_endpoints_do_not_depend_on_sigma3(self):
        a = three_leaf_corr_interval(1.3, 0.8, 0.5, 0.25, -0.4)
        b = three_leaf_corr_interval(1.3, 0.8, 7.0, 0.25, -0.4)
        assert a.min == b.min and a.max == b.max

    def test_tree_dep_equals_mid(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            s1, s2, s3 = rng.uniform(0.2, 3.0, size=3)
            rho12 = rng.uniform(-0.95, 0.95)
            rho0 = rng.uniform(-0.95, 0.95)
            out = three_leaf_corr_interval(s1, s2, s3, rho12, rho0)
            assert out.tree_dep == out.mid
            assert out.min == pytest.approx(out.mid - out.half_length, abs=1e-12)
            assert out.max == pytest.approx(out.mid + out.half_length, abs=1e-12)
            assert -1.0 - 1e-12 <= out.min <= out.max <= 1.0 + 1e-12

    def test_closed_form_values(self):
        s1, s2, s3, rho12, rho0 = 1.2, 0.7, 2.0, 0.35, -0.25
        d = s1**2 + s2**2 + 2 * rho12 * s1 * s2
        mid = rho0 * (rho12 * s2 + s1) / math.sqrt(d)
        half = math.sqrt(s2**2 * (1 - rho12**2) * (1 - rho0**2)) / math.sqrt(d)
        out = three_leaf_corr_interval(s1, s2, s3, rho12, rho0)
        assert out.mid == pytest.approx(mid, abs=1e-14)
        assert out.half_length == pytest.approx(half, abs=1e-14)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            three_leaf_corr_interval(0.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            three_leaf_corr_interval(1.0, 1.0, 1.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            three_leaf_corr_interval(1.0, 1.0, 1.0, 0.0, -1.5)
        # 1e154 and 1e-200 overflow or underflow the squares, which used to
        # report a degenerate pair
        for sigma in (1e154, 1e-200, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^sigma2 must lie in \[1e-150, 1e150\]"):
                three_leaf_corr_interval(1.0, sigma, 1.0, 0.5, 0.3)
            with pytest.raises(ValueError, match=r"^sigma2 must lie"):
                ellipse_parameters(1.0, sigma, 1.0, 0.5, 0.3)


class TestThreeLeafCovariance:
    def test_tree_dep_matches_law(self):
        s1, s2, s3 = 1.0, 2.0, 1.5
        rho12, rho0 = 0.6, 0.3
        interval = three_leaf_corr_interval(s1, s2, s3, rho12, rho0)
        cov = three_leaf_covariance(s1, s2, s3, rho12, rho0, interval.tree_dep)
        tree = RootedTree.from_nested({"children": [{"children": [{}, {}]}, {}]})
        model = AggregationTreeModel(
            tree,
            {"1.1": Normal(0, s1**2), "1.2": Normal(0, s2**2),
             "2": Normal(0, s3**2)},
            {"1": GaussianCopula.bivariate(rho12),
             "root": GaussianCopula.bivariate(rho0)},
        )
        law_cov = tree_dependent_law(model).covariance
        np.testing.assert_allclose(cov, law_cov, rtol=0, atol=1e-10)

    def test_boundary_is_on_psd_cone(self):
        s1, s2, s3 = 1.0, 2.0, 1.5
        rho12, rho0 = 0.6, 0.3
        interval = three_leaf_corr_interval(s1, s2, s3, rho12, rho0)
        for rho13 in (interval.min, interval.max):
            cov = three_leaf_covariance(s1, s2, s3, rho12, rho0, rho13)
            lam = float(np.linalg.eigvalsh(cov)[0])
            assert -1e-9 <= lam <= 1e-6

    def test_sum_constraint_holds(self):
        s1, s2, s3 = 1.1, 0.9, 2.0
        rho12, rho0 = -0.3, 0.5
        interval = three_leaf_corr_interval(s1, s2, s3, rho12, rho0)
        d = math.sqrt(s1**2 + s2**2 + 2 * rho12 * s1 * s2)
        for rho13 in (interval.min, interval.tree_dep, interval.max):
            cov = three_leaf_covariance(s1, s2, s3, rho12, rho0, rho13)
            assert cov[0, 2] + cov[1, 2] == pytest.approx(
                rho0 * d * s3, abs=1e-12)
            assert cov[0, 2] == pytest.approx(rho13 * s1 * s3, abs=1e-12)

    def test_insurer_pattern_full_range(self):
        # two perfectly negatively dependent lines whose sum has no
        # dependence left to constrain the third: every a in [-1,1] works
        s1, s2, s3 = 1.0, math.sqrt(2.0), 1.0
        rho12, rho0 = -1.0 / math.sqrt(2.0), 0.0
        interval = three_leaf_corr_interval(s1, s2, s3, rho12, rho0)
        assert interval.min == pytest.approx(-1.0, abs=1e-9)
        assert interval.max == pytest.approx(1.0, abs=1e-9)
        for a in (-1.0, 0.0, 1.0):
            cov = three_leaf_covariance(s1, s2, s3, rho12, rho0, a)
            want = np.array([[1.0, -1.0, a], [-1.0, 2.0, -a], [a, -a, 1.0]])
            np.testing.assert_allclose(cov, want, rtol=0, atol=1e-12)
            ok, lam = psd_feasible(cov)
            assert ok, lam

    def test_fully_determined_interval(self):
        # comonotone pair, then perfect negative dependence with the third:
        # a single covariance matrix remains
        s3 = math.sqrt(2.0)
        rho0 = -1.0 / math.sqrt(2.0)
        interval = three_leaf_corr_interval(1.0, 1.0, s3, 1.0, rho0)
        assert interval.half_length == 0.0
        assert interval.tree_dep == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-14)
        cov = three_leaf_covariance(1.0, 1.0, s3, 1.0, rho0, interval.tree_dep)
        want = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
        np.testing.assert_allclose(cov, want, rtol=0, atol=1e-12)

    def test_infeasible_choice_rejected(self):
        interval = three_leaf_corr_interval(1.0, 1.0, 1.0, 0.0, 0.0)
        bad = interval.max + 0.05
        with pytest.raises(InfeasibleCorrelationError) as exc:
            three_leaf_covariance(1.0, 1.0, 1.0, 0.0, 0.0, bad)
        err = exc.value
        assert err.value == pytest.approx(bad)
        assert err.distance == pytest.approx(0.05, abs=1e-9)
        assert err.interval[1] == pytest.approx(interval.max)


class TestEllipseParameters:
    def test_centered_when_root_independent(self):
        out = ellipse_parameters(1.0, 1.0, 1.0, 0.3, 0.0)
        assert out["u"] == pytest.approx(0.0, abs=1e-15)
        assert out["x0"] == pytest.approx(0.0, abs=1e-15)

    def test_unit_slope_case(self):
        out = ellipse_parameters(1.0, 1.0, 1.0, 0.0, 0.0)
        assert out["v"] == pytest.approx(1.0, abs=1e-14)
        assert out["a"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_reproduces_interval_endpoints(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            s1, s2, s3 = rng.uniform(0.2, 3.0, size=3)
            rho12 = rng.uniform(-0.95, 0.95)
            rho0 = rng.uniform(-0.95, 0.95)
            pars = ellipse_parameters(s1, s2, s3, rho12, rho0)
            interval = three_leaf_corr_interval(s1, s2, s3, rho12, rho0)
            assert (pars["x0"] - pars["a"]) / s3 == pytest.approx(
                interval.min, abs=1e-12)
            assert (pars["x0"] + pars["a"]) / s3 == pytest.approx(
                interval.max, abs=1e-12)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            ellipse_parameters(1.0, 1.0, 1.0, 1.0, 0.2)
        with pytest.raises(ValueError):
            ellipse_parameters(1.0, 1.0, 1.0, -1.0, 0.2)

    @pytest.mark.parametrize("params", [
        (1e100, 1e-100, 1e100, 0.999999, 0.5),  # u**2 and v**2 overflow
        (1e100, 1e90, 1e140, 0.0, 0.5),  # only u**2 * v**2 overflows
    ])
    def test_overflow_rejected_naming_the_inputs(self, params):
        s1, s2, s3, rho12, rho0 = params
        with pytest.raises(ValueError, match=re.escape(
                f"the ellipse overflows the double range at sigma1={s1!r}, "
                f"sigma2={s2!r}, sigma3={s3!r}, rho12={rho12!r}, rho_root={rho0!r}: ")):
            ellipse_parameters(*params)

    def test_extreme_ratios_in_range_stay_finite(self):
        pars = ellipse_parameters(1e150, 1e150, 1e-150, 0.5, 0.5)
        assert all(math.isfinite(value) for value in pars.values())
