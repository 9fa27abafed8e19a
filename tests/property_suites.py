"""Randomized property suites, the five of acceptance criterion 10.

Each suite is a module-level @given function with 1000 derandomized
cases. pytest does not collect this module: criterion 10 and the
per-suite tests of test_properties.py both call ``check_once``, so a
test session runs each suite once, whichever entry point comes first.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aggtree import (
    AggregationTreeModel,
    Discrete,
    Ecdf,
    GaussianCopula,
    Independence,
    NodeAtoms,
    Normal,
    RootedTree,
    psd_feasible,
    ranks,
    reorder_children,
    reorder_fixed_first,
    sup_distance,
    three_leaf_corr_interval,
    three_leaf_covariance,
    tree_dependent_law,
)

SUITE = settings(max_examples=1000, derandomize=True, deadline=None)


@st.composite
def tied_values(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    top = draw(st.integers(min_value=0, max_value=8))
    ints = st.integers(min_value=-top - 1, max_value=top)
    return np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)


@SUITE
@given(tied_values())
def ranks_are_stable_bijections(values):
    r = np.asarray(ranks(values))
    n = values.size
    assert sorted(r) == list(range(1, n + 1))
    # strictly smaller values get strictly smaller ranks
    less = values[:, None] < values[None, :]
    assert np.all((r[:, None] < r[None, :])[less])
    # ties break by position
    idx = np.arange(n)
    tied = (values[:, None] == values[None, :]) & (idx[:, None] < idx[None, :])
    assert np.all((r[:, None] < r[None, :])[tied])


@st.composite
def reordering_instance(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=40))
    cell = st.one_of(
        st.integers(min_value=-3, max_value=3).map(float),
        st.floats(min_value=-5, max_value=5, allow_nan=False, width=32),
    )
    children = [
        np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
        for _ in range(k)
    ]
    u_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    u = np.random.default_rng(u_seed).random((n, k))
    return children, u


@SUITE
@given(reordering_instance())
def reordering_preserves_child_marginals(instance):
    children, u = instance
    atoms = [NodeAtoms.for_leaf((i + 1,), x) for i, x in enumerate(children)]
    for build in (reorder_children, reorder_fixed_first):
        out = build(atoms, u)
        for i, x in enumerate(children):
            np.testing.assert_array_equal(np.sort(out.components[:, i]),
                                          np.sort(x))
        np.testing.assert_array_equal(out.sums, out.components.sum(axis=1))
    pinned = reorder_fixed_first(atoms, u)
    np.testing.assert_array_equal(pinned.components[:, 0], children[0])


@st.composite
def quantile_case(draw):
    if draw(st.booleans()):
        mean = draw(st.floats(min_value=-3, max_value=3))
        var = draw(st.floats(min_value=0.25, max_value=9))
        dist, slack = Normal(mean, var), 1e-6 * math.sqrt(var)
        # keep cdf away from the float-exact 0/1 plateaus
        x = mean + draw(st.floats(min_value=-6, max_value=6)) * math.sqrt(var)
    else:
        k = draw(st.integers(min_value=1, max_value=5))
        support = sorted(draw(st.lists(st.integers(min_value=-5, max_value=5),
                                       min_size=k, max_size=k, unique=True)))
        weights = draw(st.lists(st.integers(min_value=1, max_value=9),
                                min_size=k, max_size=k))
        probs = [w / sum(weights) for w in weights]
        dist, slack = Discrete([float(s) for s in support], probs), 0.0
        x = draw(st.floats(min_value=-7, max_value=7))
    u = draw(st.floats(min_value=1e-9, max_value=1))
    return dist, u, x, slack


@SUITE
@given(quantile_case())
def quantile_cdf_galois_inequalities(case):
    dist, u, x, slack = case
    assert dist.cdf(dist.quantile(u)) >= u - 1e-9
    assert dist.quantile(dist.cdf(x)) <= x + slack


@st.composite
def copula_case(draw):
    kind = draw(st.sampled_from(["independence", "bivariate", "matrix"]))
    if kind == "independence":
        cop = Independence(draw(st.integers(min_value=1, max_value=4)))
    elif kind == "bivariate":
        cop = GaussianCopula.bivariate(
            draw(st.floats(min_value=-0.99, max_value=0.99)))
    else:
        d = draw(st.integers(min_value=2, max_value=4))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        a = rng.standard_normal((d, d))
        s = a @ a.T + 0.25 * np.eye(d)
        scale = np.sqrt(np.diag(s))
        cop = GaussianCopula(s / np.outer(scale, scale))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return cop, seed


@SUITE
@given(copula_case())
def copula_columns_look_uniform(case):
    cop, seed = case
    n = 4096
    block = cop.sample(n, np.random.default_rng(seed))
    uniform = lambda x: np.clip(x, 0.0, 1.0)
    assert block.shape[0] == n
    for col in block.T:
        assert np.all((0.0 <= col) & (col <= 1.0))
        assert sup_distance(Ecdf(col), uniform) <= 2.5 / math.sqrt(n)


nested_tree = st.recursive(
    st.builds(dict),
    lambda inner: st.builds(lambda kids: {"children": kids},
                            st.lists(inner, min_size=2, max_size=3)),
    max_leaves=5,
)


@st.composite
def covariance_case(draw):
    nested = draw(nested_tree)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    sigmas = [draw(st.floats(min_value=0.3, max_value=3)) for _ in range(3)]
    r12 = draw(st.floats(min_value=-0.95, max_value=0.95))
    r0 = draw(st.floats(min_value=-0.95, max_value=0.95))
    t = draw(st.floats(min_value=0, max_value=1))
    return nested, seed, sigmas, r12, r0, t


@SUITE
@given(covariance_case())
def emitted_covariances_are_psd(case):
    nested, seed, sigmas, r12, r0, t = case
    tree = RootedTree.from_nested(nested)
    rng = np.random.default_rng(seed)
    marginals = {
        leaf: Normal(float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 5)))
        for leaf in tree.leaves()
    }
    copulas = {}
    for node in tree.branching():
        k = tree.arity(node)
        if rng.random() < 0.3:
            copulas[node] = Independence(k)
        else:
            a = rng.standard_normal((k, k))
            s = a @ a.T + 0.25 * np.eye(k)
            scale = np.sqrt(np.diag(s))
            copulas[node] = GaussianCopula(s / np.outer(scale, scale))
    law = tree_dependent_law(AggregationTreeModel(tree, marginals, copulas))
    assert np.linalg.eigvalsh(law.covariance).min() >= -1e-10

    s1, s2, s3 = sigmas
    iv = three_leaf_corr_interval(s1, s2, s3, r12, r0)
    r13 = float(np.clip(iv.min + t * (iv.max - iv.min), iv.min, iv.max))
    ok, lam = psd_feasible(three_leaf_covariance(s1, s2, s3, r12, r0, r13))
    assert ok, f"lambda_min={lam}"


PROPERTY_SUITES = (
    ranks_are_stable_bijections,
    reordering_preserves_child_marginals,
    quantile_cdf_galois_inequalities,
    copula_columns_look_uniform,
    emitted_covariances_are_psd,
)

_VERDICTS = {}


def check_once(suite):
    """Run ``suite`` unless this session already has; re-raise its failure."""
    if suite not in _VERDICTS:
        try:
            suite()
        except Exception as exc:  # noqa: BLE001 - replayed to every caller
            _VERDICTS[suite] = exc
        else:
            _VERDICTS[suite] = None
    if _VERDICTS[suite] is not None:
        raise _VERDICTS[suite]
