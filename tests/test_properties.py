"""Property tests: the five suites of acceptance criterion 10, one test
each, and the stable argsort check.

The five suites live in property_suites.py. ``check_once`` runs each at
most once per session, so criterion 10 and these tests share the run.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from property_suites import (
    SUITE,
    check_once,
    copula_columns_look_uniform,
    emitted_covariances_are_psd,
    quantile_cdf_galois_inequalities,
    ranks_are_stable_bijections,
    reordering_preserves_child_marginals,
)

from aggtree.reorder import stable_argsort


def test_ranks_are_stable_bijections():
    check_once(ranks_are_stable_bijections)


def test_reordering_preserves_child_marginals():
    check_once(reordering_preserves_child_marginals)


def test_quantile_cdf_galois_inequalities():
    check_once(quantile_cdf_galois_inequalities)


def test_copula_columns_look_uniform():
    check_once(copula_columns_look_uniform)


def test_emitted_covariances_are_psd():
    check_once(emitted_covariances_are_psd)


# few distinct keys, so ties, signed zeros, infinities and NaNs meet often
KEY_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, math.inf, -math.inf, math.nan]


@SUITE
@given(st.lists(st.sampled_from(KEY_POOL) | st.floats(), max_size=40))
def test_stable_argsort_equals_stable_sort(keys):
    values = np.array(keys, dtype=float)
    np.testing.assert_array_equal(stable_argsort(values),
                                  np.argsort(values, kind="stable"))
