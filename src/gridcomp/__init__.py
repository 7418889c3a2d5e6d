"""Bayesian spatial multinomial composition modeling on regular grids
and irregular townships, with posterior sample products and a hold-out
scoring harness."""

__version__ = "0.1.0"

from .domain_grid import (
    GridSpec,
    NeighborGraph,
    TownshipOverlap,
    build_grid,
    build_neighbor_graph,
    normalize_township,
)
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
    probit_theta_closed_form_p2,
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
    SamplerConfig,
    SufficientStats,
    run_chain,
    truncnorm_lower,
    truncnorm_upper,
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
