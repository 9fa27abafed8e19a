"""Copula-based hierarchical risk aggregation.

Aggregation tree models couple leaf risks through per-node copulas. This
package samples them (rank reordering, and a modified variant that yields
i.i.d. joint draws), computes the exact tree dependent law for Gaussian
models, and maps out which joint covariances a model leaves attainable.
"""
from .distributions import (
    Discrete,
    GaussianCopula,
    Independence,
    Normal,
    bivariate_gaussian_copula_cdf,
    copula_correlation,
)
from .errors import (
    AggTreeError,
    GenerationBudgetError,
    InfeasibleCorrelationError,
    SupportSizeError,
    TreeStructureError,
    UnsupportedModelError,
)
from .feasible import (
    CovarianceConstraintSet,
    ExtremalResult,
    build_constraints,
    extremal_correlation,
    psd_feasible,
    symmetric_tree_constraints,
    symmetric_tree_dep_corr,
)
from .gaussian import (
    CorrelationInterval,
    GaussianTreeLaw,
    ellipse_parameters,
    model_second_moments,
    node_sum_variances,
    three_leaf_corr_interval,
    three_leaf_covariance,
    tree_dependent_covariance,
    tree_dependent_law,
)
from .mra import (
    DiscreteJointPmf,
    empirical_joint_pmf,
    reorder_fixed_first,
    run_mra,
    tree_dependent_pmf,
    tv_distance,
)
from .reorder import (
    NodeAtoms,
    ranks,
    reorder_children,
    run_reordering,
)
from .stats import (
    CiaResult,
    Ecdf,
    HzResult,
    conditional_independence_gap,
    henze_zirkler,
    sample_mean_cov,
    sup_distance,
)
from .tree import ROOT, AggregationTreeModel, RootedTree, node_id, node_label

__version__ = "0.1.0"

__all__ = [
    "AggTreeError",
    "AggregationTreeModel",
    "CiaResult",
    "CorrelationInterval",
    "CovarianceConstraintSet",
    "Discrete",
    "DiscreteJointPmf",
    "Ecdf",
    "ExtremalResult",
    "GaussianCopula",
    "GaussianTreeLaw",
    "GenerationBudgetError",
    "HzResult",
    "Independence",
    "InfeasibleCorrelationError",
    "NodeAtoms",
    "Normal",
    "ROOT",
    "RootedTree",
    "SupportSizeError",
    "TreeStructureError",
    "UnsupportedModelError",
    "bivariate_gaussian_copula_cdf",
    "build_constraints",
    "conditional_independence_gap",
    "copula_correlation",
    "ellipse_parameters",
    "empirical_joint_pmf",
    "extremal_correlation",
    "henze_zirkler",
    "model_second_moments",
    "node_id",
    "node_label",
    "node_sum_variances",
    "psd_feasible",
    "ranks",
    "reorder_children",
    "reorder_fixed_first",
    "run_mra",
    "run_reordering",
    "sample_mean_cov",
    "sup_distance",
    "symmetric_tree_constraints",
    "symmetric_tree_dep_corr",
    "three_leaf_corr_interval",
    "three_leaf_covariance",
    "tree_dependent_covariance",
    "tree_dependent_law",
    "tree_dependent_pmf",
    "tv_distance",
    "__version__",
]
