"""Hold-out scoring: Brier score, floored negative log predictive
density, tree-weighted RMSPE/MAE, predictive-interval coverage, and the
paired model-comparison harness.

Every metric can be evaluated two ways: once on the posterior-mean
proportions (point predictions) and once per retained posterior sample,
whose per-sample values support paired model-comparison probabilities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericalError
from .estimator import PosteriorSamples
from .model_core import CellCounts, Dataset, multinomial_log_pmf

FULL_CELL = "full_cell"
PER_TREE = "per_tree"

DENSITY_FLOOR = 1e-5


@dataclass(frozen=True)
class HoldoutDesign:
    """How data are held out of the fit.

    full_cell removes every tree from a random fraction of the cells in
    a subregion (cells with data and core column < subregion_col_max);
    per_tree removes a random fraction of individual trees dataset-wide.
    """

    kind: str
    fraction: float
    seed: int = 0
    subregion_col_max: int | None = None
    min_trees: int = 50
    include_binomial: bool = True

    def __post_init__(self):
        if self.kind not in (FULL_CELL, PER_TREE):
            raise InvalidArgumentError(f"unknown holdout kind {self.kind!r}")
        if not 0.0 < self.fraction <= 1.0:
            raise InvalidArgumentError(
                f"holdout fraction must be in (0, 1], got {self.fraction}"
            )
        if self.seed < 0:
            raise InvalidArgumentError(f"holdout seed must be >= 0, got {self.seed}")
        if self.min_trees < 0:
            raise InvalidArgumentError(f"holdout min_trees must be >= 0, got {self.min_trees}")
        if self.subregion_col_max is not None and self.subregion_col_max < 0:
            raise InvalidArgumentError(
                f"holdout subregion_col_max must be >= 0, got {self.subregion_col_max}"
            )


@dataclass
class HeldoutCounts:
    """Held-out taxon counts on core-grid rows (core-row-major indices)."""

    rows: np.ndarray  # indices into the core cell ordering
    counts: np.ndarray  # (len(rows), P)

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def n_trees(self) -> int:
        return int(self.counts.sum())


@dataclass
class ScoreReport:
    """All metric values for one model on one held-out set."""

    model_label: str
    design: HoldoutDesign
    point_metrics: dict = field(default_factory=dict)  # metric of posterior-mean predictions
    sample_mean_metrics: dict = field(default_factory=dict)  # posterior mean of metric
    per_sample: dict = field(default_factory=dict)  # metric -> (K,) values
    coverage: tuple | None = None  # (coverage, mean_len, median_len, n_pairs)


def split_holdout(dataset: Dataset, design: HoldoutDesign):
    """Partition gridded counts into (training CellCounts, HeldoutCounts).

    Township records always stay in training. Selection is reproducible
    from the design seed.
    """
    rng = np.random.default_rng(design.seed)
    grid = dataset.grid
    counts = dataset.cell_counts.counts
    core = grid.core_cells()
    core_counts = counts[core]
    totals = core_counts.sum(axis=1)
    cols, _ = grid.core_coords()
    if design.kind == FULL_CELL:
        candidates = np.flatnonzero(totals > 0)
        if design.subregion_col_max is not None:
            candidates = candidates[cols[candidates] < design.subregion_col_max]
        n_held = int(round(design.fraction * candidates.size))
        if n_held == 0:
            raise InvalidArgumentError("holdout selects zero cells")
        held_rows = np.sort(rng.choice(candidates, size=n_held, replace=False))
        held = HeldoutCounts(rows=held_rows, counts=core_counts[held_rows].copy())
        train = counts.copy()
        train[core[held_rows]] = 0
    else:
        rows_nz, taxa_nz = np.nonzero(core_counts)
        reps = core_counts[rows_nz, taxa_nz]
        tree_row = np.repeat(rows_nz, reps)
        tree_taxon = np.repeat(taxa_nz, reps)
        n_total = tree_row.size
        n_held = int(round(design.fraction * n_total))
        if n_held == 0:
            raise InvalidArgumentError("holdout selects zero trees")
        pick = rng.choice(n_total, size=n_held, replace=False)
        held_counts = np.zeros_like(core_counts)
        np.add.at(held_counts, (tree_row[pick], tree_taxon[pick]), 1)
        held_rows = np.flatnonzero(held_counts.sum(axis=1) > 0)
        held = HeldoutCounts(rows=held_rows, counts=held_counts[held_rows])
        train = counts.copy()
        train[core] = core_counts - held_counts
    train_cc = CellCounts(grid=grid, taxa=dataset.taxa, counts=train)
    return train_cc, held


def _check_predictions(heldout: HeldoutCounts, theta: np.ndarray):
    theta = np.asarray(theta, dtype=float)
    if heldout.rows.size and heldout.rows.max() >= theta.shape[0]:
        raise InvalidArgumentError(
            f"held-out cell row {heldout.rows.max()} has no prediction "
            f"(theta covers {theta.shape[0]} cells)"
        )
    if heldout.counts.shape[1] != theta.shape[1]:
        raise InvalidArgumentError("taxon count mismatch between data and predictions")
    return theta


def brier(heldout: HeldoutCounts, theta: np.ndarray) -> float:
    """Mean over held-out trees of the summed squared error between the
    tree's one-hot taxon vector and the predicted proportions."""
    theta = _check_predictions(heldout, theta)
    n = heldout.n_trees
    if n == 0:
        raise InvalidArgumentError("no held-out trees")
    th = theta[heldout.rows]
    y = heldout.counts
    n_i = heldout.totals[:, None]
    per_cell = y * (1.0 - th) ** 2 + (n_i - y) * th**2
    return float(per_cell.sum() / n)


def neg_log_predictive_density(
    heldout: HeldoutCounts, theta: np.ndarray, floor: float = DENSITY_FLOOR
) -> float:
    """Negative log multinomial density of the held-out counts, with
    exactly-zero predictions replaced by ``floor`` (no renormalization)."""
    th = _check_predictions(heldout, theta)[heldout.rows]
    th = np.where(th == 0.0, floor, th)
    # 0.0 - x, not -x, so that a perfect score reads 0.0 and not -0.0
    return 0.0 - float(multinomial_log_pmf(heldout.counts, th, check_normalized=False).sum())


def _weighted_errors(heldout: HeldoutCounts, theta: np.ndarray):
    theta = _check_predictions(heldout, theta)
    totals = heldout.totals
    keep = totals > 0
    if not keep.any():
        raise InvalidArgumentError("no held-out trees")
    y = heldout.counts[keep]
    n_i = totals[keep].astype(float)
    th = theta[heldout.rows[keep]]
    emp = y / n_i[:, None]
    n = n_i.sum()
    p = theta.shape[1]
    return emp, th, n_i, n, p


def weighted_rmspe(heldout: HeldoutCounts, theta: np.ndarray) -> float:
    """Tree-weighted root mean square error of predicted vs empirical
    held-out proportions."""
    emp, th, n_i, n, p = _weighted_errors(heldout, theta)
    return float(np.sqrt((n_i[:, None] * (emp - th) ** 2).sum() / (p * n)))


def weighted_mae(heldout: HeldoutCounts, theta: np.ndarray) -> float:
    """Tree-weighted mean absolute error of predicted vs empirical
    held-out proportions."""
    emp, th, n_i, n, p = _weighted_errors(heldout, theta)
    return float((n_i[:, None] * np.abs(emp - th)).sum() / (p * n))


def interval_coverage(
    heldout: HeldoutCounts,
    samples: PosteriorSamples,
    level: float = 0.95,
    min_trees: int = 50,
    include_binomial: bool = True,
    rng: np.random.Generator | None = None,
):
    """Coverage and length of predictive intervals for held-out counts.

    For each (cell with >= min_trees held-out trees, taxon), an interval
    for the count fraction is the empirical central ``level`` quantile
    range over posterior samples of Binomial(n_i, theta^(k)) / n_i
    (adding the observation noise); with include_binomial=False the
    quantiles are taken over theta^(k) directly.

    Returns (coverage, mean_length, median_length, n_pairs);
    n_pairs == 0 signals that no cell qualified.
    """
    theta = samples.theta
    k = theta.shape[0]
    if k == 1:
        warnings.warn("interval_coverage with K=1 sample: intervals are degenerate")
    if rng is None:
        rng = np.random.default_rng(0)
    totals = heldout.totals
    keep = np.flatnonzero(totals >= min_trees)
    if keep.size == 0:
        return (float("nan"), float("nan"), float("nan"), 0)
    rows, n = heldout.rows[keep], totals[keep]
    if include_binomial:  # one binomial draw per cell, in cell order
        draws = np.stack([rng.binomial(int(n_i), np.clip(theta[:, row, :], 0.0, 1.0)) / int(n_i)
                          for row, n_i in zip(rows, n)], axis=1)
    else:
        draws = theta[:, rows, :]
    # both quantiles over every (cell, taxon) column in one call
    lo, hi = np.quantile(draws, [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0], axis=0)
    obs = heldout.counts[keep] / n[:, None]
    covered = ((obs >= lo) & (obs <= hi)).ravel()
    lengths = (hi - lo).ravel()
    return (
        float(covered.mean()),
        float(lengths.mean()),
        float(np.median(lengths)),
        int(covered.size),
    )


def posterior_metric_distribution(metric, heldout: HeldoutCounts, samples: PosteriorSamples, **kw):
    """Evaluate a metric at each retained posterior sample."""
    return np.array([metric(heldout, samples.theta[k], **kw) for k in range(samples.n_samples)])


def paired_comparison(values_a: np.ndarray, values_b: np.ndarray):
    """P(A < B) and P(A <= B) over sample-index-paired metric values."""
    values_a = np.asarray(values_a)
    values_b = np.asarray(values_b)
    if values_a.shape != values_b.shape:
        raise InvalidArgumentError(
            f"sample count mismatch: {values_a.shape} vs {values_b.shape}"
        )
    return float(np.mean(values_a < values_b)), float(np.mean(values_a <= values_b))


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    design: HoldoutDesign
    reports: dict  # label -> ScoreReport
    comparison: dict  # metric -> (P(first < second), P(first <= second))
    labels: tuple


def score_model(
    label: str,
    samples: PosteriorSamples,
    heldout: HeldoutCounts,
    design: HoldoutDesign,
    coverage_rng: np.random.Generator | None = None,
) -> ScoreReport:
    """Full ScoreReport for one fitted model on a held-out set."""
    report = ScoreReport(model_label=label, design=design)
    theta_mean = samples.posterior_mean()
    metrics = {"brier": brier, "neg_log_density": neg_log_predictive_density}
    if design.kind == FULL_CELL:
        metrics["rmspe"] = weighted_rmspe
        metrics["mae"] = weighted_mae
    for name, fn in metrics.items():
        report.point_metrics[name] = fn(heldout, theta_mean)
        per_sample = posterior_metric_distribution(fn, heldout, samples)
        report.per_sample[name] = per_sample
        report.sample_mean_metrics[name] = float(per_sample.mean())
    # squared-error metrics of the mean cannot beat the mean of the metric
    point, mean = report.point_metrics["brier"], report.sample_mean_metrics["brier"]
    if not point <= mean + 1e-9:
        raise NumericalError(
            f"Brier score of the posterior mean {point} exceeds the posterior mean "
            f"Brier score {mean}"
        )
    if design.kind == FULL_CELL:
        report.coverage = interval_coverage(
            heldout,
            samples,
            min_trees=design.min_trees,
            include_binomial=design.include_binomial,
            rng=coverage_rng,
        )
    return report


def run_holdout_experiment(
    dataset: Dataset,
    design: HoldoutDesign,
    configs: dict,
) -> ExperimentResult:
    """Split once, fit every configured model on the training part, and
    score all of them on the same held-out set.

    configs maps a label to a SamplerConfig.
    """
    from .sampler import run_chain

    if len(configs) < 1:
        raise InvalidArgumentError("need at least one model config")
    k_values = {cfg.n_retained for cfg in configs.values()}
    if len(k_values) != 1:
        raise InvalidArgumentError("models must retain the same number of samples")
    train_cc, heldout = split_holdout(dataset, design)
    train = Dataset(cell_counts=train_cc, townships=dataset.townships)
    reports = {}
    for label, cfg in configs.items():
        samples, _ = run_chain(train, cfg)
        coverage_rng = np.random.default_rng(design.seed + 1)
        reports[label] = score_model(label, samples, heldout, design, coverage_rng)
    labels = tuple(reports)
    comparison = {}
    if len(labels) == 2:
        a, b = labels
        for name in reports[a].per_sample:
            comparison[name] = paired_comparison(
                reports[a].per_sample[name], reports[b].per_sample[name]
            )
    return ExperimentResult(design=design, reports=reports, comparison=comparison, labels=labels)


def render_report_text(result: ExperimentResult) -> str:
    """Human-readable score tables (one row per metric)."""
    labels = result.labels
    lines = []
    d = result.design
    lines.append(
        f"holdout design: kind={d.kind} fraction={d.fraction} seed={d.seed} "
        f"subregion_col_max={d.subregion_col_max}"
    )
    header = ["metric"] + [f"{lab} (post-mean of metric)" for lab in labels]
    if len(labels) == 2:
        header.append(f"P({labels[0]}<{labels[1]})")
    header += [f"{lab} (metric of post-mean)" for lab in labels]
    lines.append(" | ".join(header))
    metric_names = list(result.reports[labels[0]].per_sample)
    for name in metric_names:
        row = [name]
        row += [f"{result.reports[lab].sample_mean_metrics[name]:.6g}" for lab in labels]
        if len(labels) == 2:
            row.append(f"{result.comparison[name][0]:.3f}")
        row += [f"{result.reports[lab].point_metrics[name]:.6g}" for lab in labels]
        lines.append(" | ".join(row))
    if any(result.reports[lab].coverage for lab in labels):
        lines.append("")
        lines.append(" | ".join(["interval"] + list(labels)))
        for i, nm in enumerate(("coverage", "mean_length", "median_length", "n_pairs")):
            row = [nm]
            for lab in labels:
                cov = result.reports[lab].coverage
                row.append(f"{cov[i]:.4g}" if cov else "n/a")
            lines.append(" | ".join(row))
    return "\n".join(lines) + "\n"


def report_rows(result: ExperimentResult) -> list:
    """Machine-readable rows (dicts) mirroring the text tables."""
    rows = []
    for label, rep in result.reports.items():
        for name, val in rep.sample_mean_metrics.items():
            rows.append(
                {
                    "model": label,
                    "metric": name,
                    "variant": "posterior_mean_of_metric",
                    "value": val,
                }
            )
        for name, val in rep.point_metrics.items():
            rows.append(
                {
                    "model": label,
                    "metric": name,
                    "variant": "metric_of_posterior_mean",
                    "value": val,
                }
            )
        if rep.coverage:
            cov = rep.coverage
            for i, nm in enumerate(("coverage", "mean_interval_length", "median_interval_length")):
                rows.append({"model": label, "metric": nm, "variant": "interval", "value": cov[i]})
    for name, (strict, leq) in result.comparison.items():
        a, b = result.labels
        rows.append(
            {"model": f"{a}_vs_{b}", "metric": name, "variant": "p_first_lower", "value": strict}
        )
        rows.append(
            {"model": f"{a}_vs_{b}", "metric": name, "variant": "p_first_lower_or_equal", "value": leq}
        )
    return rows
