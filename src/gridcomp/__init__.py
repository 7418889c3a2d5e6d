"""Bayesian spatial multinomial composition modeling on regular grids
and irregular townships, with posterior sample products and a hold-out
scoring harness."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the environment sets another count: the band
# Cholesky of the field conditional runs slower multithreaded (README).
# Set before numpy is first imported, without which it has no effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .domain_grid import GridSpec, build_grid, normalize_overlaps
from .errors import (
    ArchiveIntegrityError,
    ArchiveVersionError,
    ConfigError,
    DataError,
    GridCompError,
    InvalidArgumentError,
    NumericalError,
    ParseError,
)
from .estimator import (
    PosteriorSamples,
    PosteriorSummary,
    effective_sample_size,
    estimate_theta,
    summarize,
)
from .model_core import (
    CellCounts,
    Dataset,
    Hyperpriors,
    LatentState,
    TaxonRegistry,
    TownshipTrees,
    multinomial_log_pmf,
)
from .precision import (
    SparseFactor,
    SpatialPrior,
    build_car_structure,
    build_spde_structure,
    fill_reducing_permutation,
    logdet,
    q_scale,
    sample_gaussian,
    solve,
)
from .sampler import (
    AdaptiveProposal,
    ChainDiagnostics,
    LatentDraws,
    SamplerConfig,
    SufficientStats,
    TownshipLayout,
    run_chain,
    update_W,
    update_memberships,
)
from .scoring import (
    HeldoutCounts,
    HoldoutDesign,
    ScoreReport,
    brier,
    interval_coverage,
    neg_log_predictive_density,
    paired_comparison,
    posterior_metric_distribution,
    run_holdout_experiment,
    split_holdout,
    weighted_mae,
    weighted_rmspe,
)
