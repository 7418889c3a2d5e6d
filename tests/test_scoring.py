import warnings

import numpy as np
import pytest

from gridcomp import scoring
from gridcomp.domain_grid import build_grid
from gridcomp.errors import InvalidArgumentError, NumericalError
from gridcomp.estimator import PosteriorSamples
from gridcomp.model_core import CellCounts, Dataset, TaxonRegistry
from gridcomp.scoring import (
    FULL_CELL,
    PER_TREE,
    HeldoutCounts,
    HoldoutDesign,
    brier,
    interval_coverage,
    neg_log_predictive_density,
    paired_comparison,
    posterior_metric_distribution,
    score_model,
    split_holdout,
    weighted_mae,
    weighted_rmspe,
)


def heldout_single(y, rows=None):
    y = np.atleast_2d(np.asarray(y))
    rows = np.arange(y.shape[0]) if rows is None else np.asarray(rows)
    return HeldoutCounts(rows=rows, counts=y)


class TestBrier:
    def test_perfect_prediction(self):
        held = heldout_single([[1, 0]])
        assert brier(held, np.array([[1.0, 0.0]])) == 0.0

    def test_even_prediction_single_tree(self):
        held = heldout_single([[1, 0]])
        assert abs(brier(held, np.array([[0.5, 0.5]])) - 0.5) < 1e-15

    def test_matches_per_tree_brute_force(self):
        rng = np.random.default_rng(0)
        p, n_cells = 4, 6
        counts = rng.multinomial(15, [0.25] * 4, size=n_cells)
        theta = rng.dirichlet(np.ones(p), size=n_cells)
        held = heldout_single(counts)
        # brute force: one-hot expansion over individual trees
        total, n = 0.0, counts.sum()
        for i in range(n_cells):
            for taxon in range(p):
                for _ in range(counts[i, taxon]):
                    y = np.zeros(p)
                    y[taxon] = 1.0
                    total += ((y - theta[i]) ** 2).sum()
        assert abs(brier(held, theta) - total / n) < 1e-12

    def test_missing_prediction_cell(self):
        held = heldout_single([[1, 0]], rows=[5])
        with pytest.raises(InvalidArgumentError):
            brier(held, np.array([[0.5, 0.5]]))


class TestNegLogDensity:
    def test_certain(self):
        held = heldout_single([[1, 0]])
        val = neg_log_predictive_density(held, np.array([[1.0, 0.0]]))
        assert val == 0.0 and not np.signbit(val)

    def test_floor_rule_exact(self):
        held = heldout_single([[1, 0]])
        val = neg_log_predictive_density(held, np.array([[0.0, 1.0]]))
        assert abs(val - (-np.log(1e-5))) < 1e-12
        assert abs(val - 11.5129) < 1e-4

    def test_two_trees(self):
        held = heldout_single([[1, 1]])
        val = neg_log_predictive_density(held, np.array([[0.5, 0.5]]))
        assert abs(val - (-np.log(0.5))) < 1e-12

    def test_matches_brute_force(self):
        from gridcomp.model_core import multinomial_log_pmf

        rng = np.random.default_rng(1)
        counts = rng.multinomial(12, [0.4, 0.3, 0.3], size=5)
        theta = rng.dirichlet(np.ones(3), size=5)
        theta[2, 0] = 0.0  # exercise the floor
        theta[2] /= 1.0  # deliberately unnormalized after zeroing
        held = heldout_single(counts)
        expected = 0.0
        for i in range(5):
            th = np.where(theta[i] == 0.0, 1e-5, theta[i])
            expected -= multinomial_log_pmf(counts[i], th, check_normalized=False)
        assert abs(neg_log_predictive_density(held, theta) - expected) < 1e-12


class TestWeightedErrors:
    def test_zero_when_exact(self):
        counts = np.array([[4, 4], [2, 6]])
        theta = counts / counts.sum(axis=1, keepdims=True)
        held = heldout_single(counts)
        assert weighted_rmspe(held, theta) == 0.0
        assert weighted_mae(held, theta) == 0.0

    def test_hand_computed_single_cell(self):
        # n=2, P=2, empirical (1,0), predicted (0.5, 0.5):
        # MAE = (2*0.5 + 2*0.5)/(2*2) = 0.5; RMSPE = sqrt((2*0.25+2*0.25)/4) = 0.5
        held = heldout_single([[2, 0]])
        theta = np.array([[0.5, 0.5]])
        assert abs(weighted_mae(held, theta) - 0.5) < 1e-15
        assert abs(weighted_rmspe(held, theta) - 0.5) < 1e-15

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        counts = rng.multinomial(30, [0.5, 0.2, 0.3], size=8)
        counts[3] = 0  # cell with no held-out trees is skipped
        theta = rng.dirichlet(np.ones(3), size=8)
        held = heldout_single(counts)
        n = counts.sum()
        p = 3
        rmspe_exp, mae_exp = 0.0, 0.0
        for i in range(8):
            n_i = counts[i].sum()
            if n_i == 0:
                continue
            emp = counts[i] / n_i
            rmspe_exp += (n_i * (emp - theta[i]) ** 2).sum()
            mae_exp += (n_i * np.abs(emp - theta[i])).sum()
        assert abs(weighted_rmspe(held, theta) - np.sqrt(rmspe_exp / (p * n))) < 1e-12
        assert abs(weighted_mae(held, theta) - mae_exp / (p * n)) < 1e-12

    def test_no_trees_rejected(self):
        held = heldout_single([[0, 0]])
        with pytest.raises(InvalidArgumentError):
            weighted_rmspe(held, np.array([[0.5, 0.5]]))


def make_samples(theta):
    k, m, p = theta.shape
    grid = build_grid(m, 1, 0)
    taxa = TaxonRegistry(names=tuple(f"t{i}" for i in range(p)))
    return PosteriorSamples(grid=grid, taxa=taxa, theta=theta)


class TestIntervalCoverage:
    def test_exact_prediction_covered(self):
        n = 400
        counts = np.array([[n // 2, n // 2]])
        samples = make_samples(np.tile([[[0.5, 0.5]]], (50, 1, 1)))
        held = heldout_single(counts)
        cov, mean_len, med_len, n_pairs = interval_coverage(held, samples, min_trees=50)
        assert n_pairs == 2
        assert cov == 1.0
        assert mean_len > 0

    def test_min_trees_filter(self):
        counts = np.array([[10, 10]])
        samples = make_samples(np.tile([[0.5, 0.5]], (20, 1, 1)))
        held = heldout_single(counts)
        cov, _, _, n_pairs = interval_coverage(held, samples, min_trees=50)
        assert n_pairs == 0
        assert np.isnan(cov)

    def test_k1_warns(self):
        counts = np.array([[60, 40]])
        samples = make_samples(np.array([[[0.6, 0.4]]]))
        with pytest.warns(UserWarning, match="K=1"):
            interval_coverage(heldout_single(counts), samples, min_trees=50)

    def test_calibration_simulation(self):
        # well-specified setup: per cell, the truth and the posterior
        # samples are iid from the same distribution and the observation
        # is binomial around the truth, so predictive intervals cover at
        # the nominal rate
        rng = np.random.default_rng(6)
        n_cells, k, n_i = 250, 200, 120
        p_true = rng.uniform(0.2, 0.8, size=n_cells)
        obs = rng.binomial(n_i, p_true)
        counts = np.column_stack([obs, n_i - obs])
        theta = rng.uniform(0.2, 0.8, size=(k, n_cells))
        samples = make_samples(np.stack([theta, 1.0 - theta], axis=2))
        held = heldout_single(counts)
        cov, _, _, n_pairs = interval_coverage(
            held, samples, min_trees=50, rng=np.random.default_rng(1)
        )
        assert n_pairs == 2 * n_cells
        assert abs(cov - 0.95) <= 0.03

    def test_theta_only_variant_narrower(self):
        rng = np.random.default_rng(3)
        th = np.clip(rng.normal(0.5, 0.01, size=(200, 1, 2)), 0, 1)
        th[:, :, 1] = 1.0 - th[:, :, 0]
        samples = make_samples(th)
        held = heldout_single([[30, 30]])
        _, len_with, _, _ = interval_coverage(held, samples, min_trees=50,
                                              include_binomial=True,
                                              rng=np.random.default_rng(0))
        _, len_without, _, _ = interval_coverage(held, samples, min_trees=50,
                                                 include_binomial=False)
        assert len_without < len_with

    @pytest.mark.parametrize("include_binomial", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 7, 250])
    def test_matches_per_cell_loop(self, include_binomial, k):
        # held-out cells in shuffled core order, some below min_trees,
        # and theta with exact 0s and 1s (and ties) in some columns
        rng = np.random.default_rng(k)
        n_cells, p = 40, 5
        theta = rng.dirichlet(np.full(p, 0.7), size=(k, n_cells))
        theta[:, ::7] = np.eye(p)[rng.integers(0, p, n_cells // 7 + 1)]
        theta[:, ::9, 0] = 0.25
        counts = rng.integers(0, 40, size=(n_cells, p))
        held = HeldoutCounts(rows=rng.permutation(n_cells), counts=counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = interval_coverage(held, make_samples(theta), min_trees=100,
                                    include_binomial=include_binomial,
                                    rng=np.random.default_rng(2))
            want = reference_interval_coverage(held, make_samples(theta), 0.95, 100,
                                               include_binomial, np.random.default_rng(2))
        assert 0 < got[3] < n_cells * p
        assert got[3] == want[3]
        assert np.array_equal(np.array(got[:3]).view(np.uint64),
                              np.array(want[:3]).view(np.uint64))


def reference_interval_coverage(heldout, samples, level, min_trees, include_binomial, rng):
    """interval_coverage one held-out cell at a time, with one quantile
    call per bound."""
    theta, totals = samples.theta, heldout.totals
    lo_q, hi_q = (1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0
    covered, lengths = [], []
    for idx in np.flatnonzero(totals >= min_trees):
        n_i = int(totals[idx])
        th_k = theta[:, heldout.rows[idx], :]
        draws = rng.binomial(n_i, np.clip(th_k, 0.0, 1.0)) / n_i if include_binomial else th_k
        lo = np.quantile(draws, lo_q, axis=0)
        hi = np.quantile(draws, hi_q, axis=0)
        obs = heldout.counts[idx] / n_i
        covered.append((obs >= lo) & (obs <= hi))
        lengths.append(hi - lo)
    covered, lengths = np.concatenate(covered), np.concatenate(lengths)
    return (float(covered.mean()), float(lengths.mean()), float(np.median(lengths)),
            int(covered.size))


class TestPosteriorComparison:
    def test_identical_samples(self):
        vals = np.array([1.0, 2.0, 3.0])
        strict, leq = paired_comparison(vals, vals.copy())
        assert strict == 0.0
        assert leq == 1.0

    def test_strict_dominance(self):
        strict, leq = paired_comparison(np.array([1.0, 1.0]), np.array([2.0, 3.0]))
        assert strict == 1.0 and leq == 1.0

    def test_hand_counted_mixed_fixture(self):
        a = np.array([1.0, 5.0, 2.0, 7.0, 4.0])
        b = np.array([2.0, 4.0, 2.0, 9.0, 1.0])
        # a < b at indices 0, 3 -> 0.6 leq (ties at 2), 0.4 strict... recount:
        # strict: idx 0 (1<2), idx 3 (7<9) -> 2/5; leq adds idx 2 tie -> 3/5
        strict, leq = paired_comparison(a, b)
        assert strict == 2 / 5
        assert leq == 3 / 5

    def test_k_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            paired_comparison(np.ones(3), np.ones(4))

    def test_distribution_evaluation(self):
        theta = np.stack([np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]])])
        samples = make_samples(theta)
        held = heldout_single([[1, 0]])
        vals = posterior_metric_distribution(brier, held, samples)
        assert np.allclose(vals, [brier(held, theta[0]), brier(held, theta[1])])


class TestSplitHoldout:
    def make_dataset(self, nx=6, ny=6, p=3, n_per_cell=20, seed=0):
        rng = np.random.default_rng(seed)
        grid = build_grid(nx, ny, 0)
        taxa = TaxonRegistry(names=tuple(f"t{i}" for i in range(p)))
        counts = rng.multinomial(n_per_cell, [1.0 / p] * p, size=grid.n_cells)
        return Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))

    def test_full_cell_partition(self):
        ds = self.make_dataset()
        design = HoldoutDesign(kind=FULL_CELL, fraction=0.25, seed=1)
        train, held = split_holdout(ds, design)
        assert held.rows.size == round(0.25 * 36)
        # held cells have all trees removed from training
        core = ds.grid.core_cells()
        assert np.all(train.counts[core[held.rows]] == 0)
        # totals preserved
        assert train.counts.sum() + held.counts.sum() == ds.cell_counts.counts.sum()

    def test_full_cell_subregion(self):
        ds = self.make_dataset()
        design = HoldoutDesign(kind=FULL_CELL, fraction=0.5, seed=1, subregion_col_max=3)
        _, held = split_holdout(ds, design)
        cols, _ = ds.grid.core_coords()
        assert np.all(cols[held.rows] < 3)

    def test_per_tree_partition(self):
        ds = self.make_dataset()
        design = HoldoutDesign(kind=PER_TREE, fraction=0.1, seed=2)
        train, held = split_holdout(ds, design)
        total = ds.cell_counts.counts.sum()
        assert held.n_trees == round(0.1 * total)
        assert train.counts.sum() == total - held.n_trees
        assert np.all(train.counts >= 0)

    def test_reproducible(self):
        ds = self.make_dataset()
        design = HoldoutDesign(kind=PER_TREE, fraction=0.2, seed=5)
        _, h1 = split_holdout(ds, design)
        _, h2 = split_holdout(ds, design)
        assert np.array_equal(h1.counts, h2.counts)

    def test_zero_fraction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            HoldoutDesign(kind=FULL_CELL, fraction=0.0)


class TestScoreModel:
    def test_jensen_inequality_and_shape(self):
        rng = np.random.default_rng(4)
        theta = rng.dirichlet(np.ones(3), size=(40, 9))
        samples = make_samples(theta)
        counts = rng.multinomial(60, [0.3, 0.3, 0.4], size=4)
        held = HeldoutCounts(rows=np.array([0, 2, 5, 8]), counts=counts)
        design = HoldoutDesign(kind=FULL_CELL, fraction=0.5, seed=0)
        report = score_model("m", samples, held, design, np.random.default_rng(0))
        assert report.point_metrics["brier"] <= report.sample_mean_metrics["brier"]
        assert set(report.per_sample) == {"brier", "neg_log_density", "rmspe", "mae"}
        assert report.coverage is not None
        assert all(np.isfinite(v) for v in report.point_metrics.values())

    def test_brier_of_mean_above_mean_brier_is_numerical_error(self, monkeypatch):
        # a concave stand-in for the Brier score reverses Jensen's
        # inequality; the check must raise, also under python -O
        rng = np.random.default_rng(4)
        samples = make_samples(rng.dirichlet(np.ones(3), size=(40, 9)))
        held = HeldoutCounts(rows=np.array([0, 2]), counts=rng.multinomial(60, [0.3, 0.3, 0.4], 2))
        design = HoldoutDesign(kind=PER_TREE, fraction=0.5, seed=0)
        monkeypatch.setattr(scoring, "brier", lambda heldout, theta: -float(np.sum(theta**2)))
        with pytest.raises(NumericalError, match="Brier score of the posterior mean"):
            score_model("m", samples, held, design)

    def test_taxon_permutation_invariance(self):
        rng = np.random.default_rng(5)
        theta = rng.dirichlet(np.ones(3), size=(10, 4))
        counts = rng.multinomial(50, [0.3, 0.3, 0.4], size=2)
        held = HeldoutCounts(rows=np.array([1, 3]), counts=counts)
        perm = [2, 0, 1]
        held_p = HeldoutCounts(rows=held.rows, counts=counts[:, perm])
        for metric in (brier, neg_log_predictive_density, weighted_rmspe, weighted_mae):
            v1 = metric(held, theta[0])
            v2 = metric(held_p, theta[0][:, perm])
            assert abs(v1 - v2) < 1e-12
