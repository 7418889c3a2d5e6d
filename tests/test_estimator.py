import numpy as np
import pytest

from gridcomp.domain_grid import build_grid
from gridcomp.errors import InvalidArgumentError
from gridcomp.estimator import (
    PosteriorSamples,
    effective_sample_size,
    estimate_theta,
    summarize,
)
from gridcomp.model_core import TaxonRegistry, probit_theta_closed_form_p2


class TestEstimateTheta:
    def test_symmetric_two_taxa(self):
        rng = np.random.default_rng(0)
        theta = estimate_theta(np.array([[0.0, 0.0]]), 10_000, rng)
        assert abs(theta[0, 0] - 0.5) < 0.015

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        alpha = np.array([[np.sqrt(2.0), 0.0]])
        theta = estimate_theta(alpha, 200_000, rng)
        expected = probit_theta_closed_form_p2(np.sqrt(2.0), 0.0)
        assert abs(theta[0, 0] - expected) < 0.004

    def test_exchangeable_three_taxa(self):
        rng = np.random.default_rng(2)
        theta = estimate_theta(np.array([[0.7, 0.7, 0.7]]), 30_000, rng)
        assert np.all(np.abs(theta - 1.0 / 3.0) < 0.02)

    def test_rows_sum_to_one_exactly(self):
        rng = np.random.default_rng(3)
        alpha = rng.standard_normal((20, 4))
        theta = estimate_theta(alpha, 997, rng)
        assert np.all(np.abs(theta.sum(axis=1) - 1.0) < 1e-12)
        # every entry is a multiple of 1/T
        assert np.allclose(np.round(theta * 997) / 997, theta, atol=0, rtol=0)

    def test_taxon_permutation_equivariance(self):
        alpha = np.array([[0.5, -0.2, 1.1], [0.0, 0.3, -1.0]])
        perm = [2, 0, 1]
        t1 = estimate_theta(alpha, 40_000, np.random.default_rng(7))
        t2 = estimate_theta(alpha[:, perm], 40_000, np.random.default_rng(8))
        # equivariance is distributional: frequencies agree to MC error
        assert np.allclose(t1[:, perm], t2, atol=0.015)

    def test_single_taxon(self):
        theta = estimate_theta(np.array([[3.0]]), 10, np.random.default_rng(0))
        assert np.array_equal(theta, [[1.0]])

    def test_convergence_rate_to_oracle(self):
        # error shrinks roughly like T^-1/2
        alpha = np.array([[0.8, 0.0]])
        expected = probit_theta_closed_form_p2(0.8, 0.0)
        errs = []
        for t_mc, seed in ((400, 0), (40_000, 0)):
            reps = [
                abs(estimate_theta(alpha, t_mc, np.random.default_rng(seed + r))[0, 0] - expected)
                for r in range(8)
            ]
            errs.append(np.mean(reps))
        assert errs[1] < errs[0] / 3.0

    def test_invalid_t_mc(self):
        with pytest.raises(InvalidArgumentError):
            estimate_theta(np.zeros((1, 2)), 0, np.random.default_rng(0))


def make_samples(theta):
    k, m, p = theta.shape
    grid = build_grid(m, 1, 0)
    taxa = TaxonRegistry(names=tuple(f"t{i}" for i in range(p)))
    return PosteriorSamples(grid=grid, taxa=taxa, theta=theta)


class TestSummarize:
    def test_constant_samples(self):
        theta = np.tile(np.array([[[0.25, 0.75]]]), (5, 1, 1))
        s = summarize(make_samples(theta))
        assert np.all(s.sd == 0.0)
        assert np.allclose(s.mean, [[0.25, 0.75]])
        assert np.allclose(s.q025, s.q975)

    def test_two_sample_mean(self):
        theta = np.array([[[0.2, 0.8]], [[0.4, 0.6]]])
        s = summarize(make_samples(theta))
        assert np.allclose(s.mean, [[0.3, 0.7]])

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(11)
        raw = rng.dirichlet(np.ones(3), size=(250, 10))
        s = summarize(make_samples(raw))
        assert np.allclose(s.mean, raw.mean(axis=0), atol=1e-12, rtol=0)
        assert np.allclose(s.sd, raw.std(axis=0, ddof=1), atol=1e-12, rtol=0)
        assert np.allclose(s.q025, np.quantile(raw, 0.025, axis=0), atol=1e-12, rtol=0)
        assert np.allclose(s.q975, np.quantile(raw, 0.975, axis=0), atol=1e-12, rtol=0)
        # means are themselves a composition
        assert np.all(np.abs(s.mean.sum(axis=1) - 1.0) < 1e-12)

    def test_requires_two_samples(self):
        theta = np.array([[[0.5, 0.5]]])
        with pytest.raises(InvalidArgumentError):
            summarize(make_samples(theta))


def scalar_ess(series):
    """Per-series definition: FFT autocovariances, then the initial
    positive sequence of pair sums accumulated in a loop."""
    x = np.asarray(series, dtype=float)
    k = x.size
    x = x - x.mean()
    if np.dot(x, x) == 0:
        return float(k)
    nfft = int(2 ** np.ceil(np.log2(2 * k)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:k] / k
    rho = acov / acov[0]
    tau = -1.0
    t = 0
    while t + 1 < k:
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
        t += 2
    if tau <= 0:
        return float(k)
    return float(min(k / tau, k))


class TestEffectiveSampleSize:
    def test_iid_near_nominal(self):
        # the truncated-autocorrelation estimator lands in [150, 350] for
        # typical iid inputs (clamping makes the upper end exactly K)
        rng = np.random.default_rng(0)
        vals = np.array([effective_sample_size(rng.standard_normal(250)) for _ in range(40)])
        in_range = (vals >= 150.0) & (vals <= 350.0)
        assert in_range.mean() >= 0.85
        assert 150.0 <= np.median(vals) <= 350.0
        assert np.all(vals <= 250.0)

    def test_alternating_clamped_to_k(self):
        series = np.tile([1.0, -1.0], 125)
        assert effective_sample_size(series) == 250.0

    def test_constant_series_returns_k(self):
        assert effective_sample_size(np.full(100, 3.5)) == 100.0

    def test_ar1_half(self):
        rng = np.random.default_rng(4)
        k = 4000
        x = np.empty(k)
        x[0] = rng.standard_normal()
        innov = rng.standard_normal(k) * np.sqrt(1.0 - 0.25)
        for t in range(1, k):
            x[t] = 0.5 * x[t - 1] + innov[t]
        ess = effective_sample_size(x)
        expected = k / 3.0
        assert abs(ess - expected) / expected < 0.3

    def test_short_series_rejected(self):
        with pytest.raises(InvalidArgumentError):
            effective_sample_size(np.arange(5.0))

    def test_bounds(self):
        rng = np.random.default_rng(9)
        # strongly correlated series: ESS well below K but positive
        x = np.cumsum(rng.standard_normal(500))
        ess = effective_sample_size(x)
        assert 0.0 < ess < 100.0

    @pytest.mark.parametrize("k", [10, 11, 40, 250])
    def test_batched_matches_per_series_loop(self, k):
        rng = np.random.default_rng(k)
        series = np.concatenate(
            [
                rng.standard_normal((k, 3, 2)),
                np.cumsum(rng.standard_normal((k, 3, 2)), axis=0),
                np.tile([1.0, -1.0], k)[:k, None, None] * rng.uniform(1, 2, (1, 3, 2)),
                np.full((k, 1, 2), 0.25),
            ],
            axis=1,
        )
        batched = effective_sample_size(series)
        assert batched.shape == (10, 2)
        loop = np.array(
            [[scalar_ess(series[:, i, j]) for j in range(2)] for i in range(10)]
        )
        np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=0)

    def test_batched_constant_series_gives_k(self):
        ess = effective_sample_size(np.full((25, 4, 3), 0.25))
        assert ess.shape == (4, 3)
        assert np.all(ess == 25.0)

    def test_one_dimensional_input_returns_float(self):
        ess = effective_sample_size(np.random.default_rng(1).standard_normal(30))
        assert isinstance(ess, float)

    def test_batched_short_series_rejected(self):
        with pytest.raises(InvalidArgumentError):
            effective_sample_size(np.ones((9, 4)))
