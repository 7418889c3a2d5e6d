import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import ndtr

from gridcomp.domain_grid import build_grid
from gridcomp.errors import InvalidArgumentError
from gridcomp.estimator import (
    PosteriorSamples,
    effective_sample_size,
    estimate_theta,
    summarize,
)
from gridcomp.model_core import TaxonRegistry


def probit_theta_closed_form_p2(alpha1, alpha2):
    """Exact first-category probability for two categories: with
    independent unit-variance latent normals, P(W_1 > W_2) =
    Phi((alpha1 - alpha2) / sqrt(2))."""
    return float(ndtr((alpha1 - alpha2) / np.sqrt(2.0)))


class TestProbitClosedForm:
    def test_symmetry(self):
        assert probit_theta_closed_form_p2(0.3, 0.3) == 0.5

    def test_unit_difference_of_sqrt2(self):
        val = probit_theta_closed_form_p2(np.sqrt(2.0), 0.0)
        assert abs(val - ndtr(1.0)) < 1e-12
        assert abs(val - 0.841345) < 1e-6

    def test_limits(self):
        assert probit_theta_closed_form_p2(-40.0, 0.0) < 1e-12
        assert probit_theta_closed_form_p2(40.0, 0.0) > 1.0 - 1e-12


def quad_theta(alpha):
    """Windowed adaptive-quadrature oracle for one cell:
    theta_p = int phi(w - alpha_p) prod_{q != p} Phi(w - alpha_q) dw over
    alpha_p +- 12, where the rest of the integrand is below 1e-32."""
    alpha = np.asarray(alpha, dtype=float)
    out = np.empty(alpha.size)
    for p, a_p in enumerate(alpha):
        others = np.delete(alpha, p)

        def integrand(w):
            return np.exp(-0.5 * (w - a_p) ** 2) / np.sqrt(2.0 * np.pi) * np.prod(ndtr(w - others))

        lo, hi = a_p - 12.0, a_p + 12.0
        kinks = sorted(a for a in others if lo < a < hi)
        out[p] = quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=500,
                      points=kinks or None)[0]
    return out


# Proportions stay above ~1e-200 for entries in [-8, 8], so relative
# comparisons never meet products that underflow.
def alpha_arrays(max_taxa=8, bound=8.0):
    return st.integers(1, max_taxa).flatmap(
        lambda p: hnp.arrays(
            float,
            st.tuples(st.integers(1, 5), st.just(p)),
            elements=st.floats(-bound, bound, allow_nan=False, allow_infinity=False),
        )
    )


class TestEstimateTheta:
    def test_symmetric_two_taxa(self):
        theta = estimate_theta(np.array([[0.0, 0.0]]))
        assert np.array_equal(theta, [[0.5, 0.5]])

    def test_matches_closed_form(self):
        theta = estimate_theta(np.array([[np.sqrt(2.0), 0.0]]))
        expected = probit_theta_closed_form_p2(np.sqrt(2.0), 0.0)
        assert abs(theta[0, 0] - expected) <= 1e-12

    def test_two_taxa_closed_form_grid(self):
        deltas = np.linspace(-12.0, 12.0, 97)
        alpha = np.column_stack([deltas + 0.3, np.full(deltas.size, 0.3)])
        theta = estimate_theta(alpha)
        expected = [probit_theta_closed_form_p2(d, 0.0) for d in deltas]
        assert np.max(np.abs(theta[:, 0] - expected)) <= 1e-12
        assert np.max(np.abs(theta[:, 1] - (1.0 - np.array(expected)))) <= 1e-12

    def test_exchangeable_three_taxa(self):
        theta = estimate_theta(np.array([[0.7, 0.7, 0.7]]))
        assert np.all(np.abs(theta - 1.0 / 3.0) <= 1e-15)

    @pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
    def test_matches_quadrature_oracle(self, p):
        rng = np.random.default_rng(p)
        worst = 0.0
        for spread in (0.1, 0.5, 2.0, 5.0, 10.0, 20.0, 40.0):
            for _ in range(3):
                alpha = rng.uniform(-spread / 2, spread / 2, p)
                err = np.abs(estimate_theta(alpha[None, :])[0] - quad_theta(alpha))
                worst = max(worst, err.max())
        assert worst <= 1e-10

    def test_paper_taxon_count_matches_oracle(self):
        rng = np.random.default_rng(22)
        for spread in (0.5, 4.0, 12.0):
            alpha = rng.uniform(-spread / 2, spread / 2, 22)
            err = np.abs(estimate_theta(alpha[None, :])[0] - quad_theta(alpha))
            assert err.max() <= 1e-10

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 12, 22, 30, 40])
    def test_matches_quadrature_oracle_to_rounding(self, p):
        # all-equal fields, narrow spreads (where the density of the
        # largest latent normal is narrowest), and rows with a third of
        # the taxa far below the rest
        rng = np.random.default_rng(100 + p)
        rows = [np.full(p, 0.4)]
        rows += [rng.uniform(-spread / 2, spread / 2, p) for spread in (0.05, 0.2, 1.0, 3.0)]
        for gap in (2.0, 6.0, 12.0):
            row = rng.uniform(-0.5, 0.5, p)
            row[rng.permutation(p)[: max(1, p // 3)]] -= gap
            rows.append(row)
        theta = estimate_theta(np.array(rows))
        for row, got in zip(rows, theta):
            assert np.max(np.abs(got - quad_theta(row))) <= 1e-14

    def test_small_two_taxon_proportions_keep_relative_precision(self):
        deltas = np.linspace(-14.0, 14.0, 561)
        alpha = np.column_stack([deltas - 1.5, np.full(deltas.size, -1.5)])
        theta = estimate_theta(alpha)
        exact = ndtr(deltas / np.sqrt(2.0))
        for got, want in ((theta[:, 0], exact), (theta[:, 1], ndtr(-deltas / np.sqrt(2.0)))):
            kept = want >= 1e-12
            assert kept.sum() > 400
            assert np.max(np.abs(got[kept] - want[kept]) / want[kept]) <= 1e-9

    def test_huge_differences_give_finite_compositions(self):
        alpha = np.array(
            [
                [0.0, 1e6, -1e6, 3.0],
                [1e6, 1e6, 0.0, -1e6],
                [-1e6, -1e6, -1e6, 1e6],
                [5e5, -5e5, 0.0, 1.0],
            ]
        )
        theta = estimate_theta(alpha)
        assert np.all(np.isfinite(theta))
        assert np.all(np.abs(theta.sum(axis=1) - 1.0) <= 1e-15)
        assert np.array_equal(theta[:3], [[0, 1, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0, 1]])
        assert theta[3, 0] == 1.0

    def test_blocks_match_single_cells(self):
        # more cells than one block holds
        alpha = np.random.default_rng(5).normal(0.0, 2.0, (1500, 6))
        whole = estimate_theta(alpha)
        single = np.vstack([estimate_theta(row[None, :]) for row in alpha[::97]])
        assert np.allclose(whole[::97], single, rtol=1e-14, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(alpha=alpha_arrays(bound=40.0))
    def test_rows_sum_to_one_exactly(self, alpha):
        theta = estimate_theta(alpha)
        assert theta.shape == alpha.shape
        assert np.all(np.abs(theta.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((theta >= 0.0) & (theta <= 1.0))

    @settings(max_examples=60, deadline=None)
    @given(alpha=alpha_arrays(), data=st.data())
    def test_taxon_permutation_equivariance(self, alpha, data):
        perm = data.draw(st.permutations(range(alpha.shape[1])))
        theta = estimate_theta(alpha)
        np.testing.assert_allclose(estimate_theta(alpha[:, perm]), theta[:, perm], rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(alpha=alpha_arrays(), shift=st.floats(-10.0, 10.0))
    def test_row_shift_invariance(self, alpha, shift):
        theta = estimate_theta(alpha)
        np.testing.assert_allclose(estimate_theta(alpha + shift), theta, rtol=1e-12, atol=0)

    @settings(max_examples=20, deadline=None)
    @given(alpha=hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(1)),
                            elements=st.floats(-1e6, 1e6)))
    def test_single_taxon(self, alpha):
        assert np.array_equal(estimate_theta(alpha), np.ones_like(alpha))

    def test_pure_function(self):
        alpha = np.random.default_rng(9).normal(size=(40, 5))
        before = alpha.copy()
        state = np.random.get_state()[1].copy()
        first = estimate_theta(alpha)
        assert np.array_equal(estimate_theta(alpha), first)
        assert np.array_equal(alpha, before)
        assert np.array_equal(np.random.get_state()[1], state)


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

    def test_blocks_match_whole_array_statistics(self):
        raw = np.random.default_rng(12).dirichlet(np.ones(7), size=(250, 3000))
        tracemalloc.start()
        try:
            s = summarize(make_samples(raw))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        q = np.quantile(raw, [0.025, 0.975], axis=0)
        assert np.array_equal(s.mean, raw.mean(axis=0))
        assert np.array_equal(s.sd, raw.std(axis=0, ddof=1))
        assert np.array_equal(s.q025, q[0])
        assert np.array_equal(s.q975, q[1])
        # temporaries are a block of cells, not a copy of theta
        assert peak < raw.nbytes / 8

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
