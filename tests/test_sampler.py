import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

import gridcomp.precision as prec
import gridcomp.sampler as sampler
from gridcomp.precision import SpatialPrior
from gridcomp.domain_grid import TownshipOverlap, build_grid, build_neighbor_graph
from gridcomp.errors import ConfigError, InvalidArgumentError, NumericalError
from gridcomp.model_core import (
    CellCounts,
    Dataset,
    Hyperpriors,
    LatentState,
    TaxonRegistry,
    TownshipTrees,
)
from gridcomp.sampler import (
    AdaptiveProposal,
    LatentDraws,
    SamplerConfig,
    SufficientStats,
    TownshipLayout,
    _Chain,
    _below_observed,
    _init_township_cells,
    _marginal,
    _mh_accept,
    _mu_conditional,
    _restore_checkpoint,
    _row_order_sum,
    _std_trunc_below,
    _truncnorm_between,
    _update_scale,
    compute_sufficient_stats,
    run_chain,
    save_checkpoint,
    truncnorm_lower,
    truncnorm_upper,
    update_W,
    update_memberships,
)
from gridcomp.simulate import simulate_dataset


def trunc_mean(b):
    return np.exp(-0.5 * b * b) / (np.sqrt(2 * np.pi) * ndtr(-b))


class TestTruncatedNormal:
    def test_respects_bounds(self):
        rng = np.random.default_rng(0)
        lo = truncnorm_lower(rng, np.full(2000, 1.5), 0.0)
        assert lo.min() > 1.5
        hi = truncnorm_upper(rng, np.full(2000, -0.5), 0.0)
        assert hi.max() < -0.5

    def test_far_tail_is_finite_and_tight(self):
        rng = np.random.default_rng(1)
        z = truncnorm_lower(rng, np.full(10_000, 12.0), 0.0)
        assert np.all(np.isfinite(z))
        assert z.min() > 12.0
        assert abs(z.mean() - trunc_mean(12.0)) < 0.01

    def test_mean_at_bound_three(self):
        rng = np.random.default_rng(2)
        z = truncnorm_lower(rng, 3.0, 0.0, size=200_000)
        assert abs(z.mean() - 3.2831) < 3e-3

    def test_location_shift(self):
        rng = np.random.default_rng(3)
        z = truncnorm_lower(rng, 1.0, 1.0, size=100_000)
        assert abs(z.mean() - (1.0 + trunc_mean(0.0))) < 5e-3

    def test_upper_is_mirror_of_lower(self):
        z_lo = truncnorm_lower(np.random.default_rng(7), 0.8, 0.0, size=50_000)
        z_hi = truncnorm_upper(np.random.default_rng(7), -0.8, 0.0, size=50_000)
        assert np.allclose(z_lo, -z_hi)

    def test_unbounded_reduces_to_normal(self):
        rng = np.random.default_rng(4)
        z = truncnorm_lower(rng, -np.inf, 0.0, size=100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02


def rival_max(w, taxon):
    """Each row's maximum over the taxa other than its own, folded over
    the columns in taxon order."""
    masked = w.copy()
    masked[np.arange(taxon.size), taxon] = -np.inf
    out = np.full(taxon.size, -np.inf)
    for col in masked.T:
        np.maximum(out, col, out=out)
    return out


def make_state(alpha, cells, taxa, rng, n_gridded=0):
    """A state whose trees start from alpha[cells] + N(0, I) normals, as
    the chain's do, after one latent draw; returns (state, draws). With
    the default n_gridded = 0 every tree is a township tree, so
    draws.township holds all of the last draw's normals (P, trees)."""
    cells = np.asarray(cells, dtype=np.int64)
    taxa_arr = np.asarray(taxa, dtype=np.int64)
    n, p = cells.size, alpha.shape[1]
    state = LatentState(
        alpha=alpha,
        others_max=rival_max(alpha[cells] + rng.standard_normal((n, p)), taxa_arr),
        tree_cell=cells,
        tree_taxon=taxa_arr,
        n_gridded=n_gridded,
    )
    draws = LatentDraws(state)
    assert update_W(state, draws, rng)
    return state, draws


class TestUpdateW:
    def test_truncation_direction(self):
        rng = np.random.default_rng(0)
        alpha = np.zeros((1, 2))
        state, draws = make_state(alpha, [0] * 4000, [0] * 4000, rng)
        diffs = []
        for _ in range(5):
            update_W(state, draws, rng)
            diffs.append((draws.township[0] - draws.township[1]).mean())
        assert np.mean(diffs) > 0

    def test_argmax_consistency(self):
        rng = np.random.default_rng(1)
        alpha = rng.standard_normal((6, 4))
        cells = rng.integers(0, 6, size=300)
        labels = rng.integers(0, 4, size=300)
        state, draws = make_state(alpha, cells, labels, rng)
        for _ in range(10):
            assert update_W(state, draws, rng)
            w = draws.township.T
            assert np.array_equal(np.argmax(w, axis=1), labels)
            assert np.array_equal(state.others_max, rival_max(w, state.tree_taxon))

    def test_single_taxon_untruncated(self):
        rng = np.random.default_rng(2)
        alpha = np.full((1, 1), 0.7)
        state, draws = make_state(alpha, [0] * 50_000, [0] * 50_000, rng)
        update_W(state, draws, rng)
        assert abs(draws.township.mean() - 0.7) < 0.02
        assert abs(draws.township.std() - 1.0) < 0.02
        assert np.all(state.others_max == -np.inf)

    def test_observed_taxon_mean_with_fixed_rivals(self):
        # rival maximum 3.0 for every tree: the observed draw is TN(3, inf, 0, 1)
        rng = np.random.default_rng(3)
        n = 200_000
        state = LatentState(
            alpha=np.zeros((1, 2)),
            others_max=np.full(n, 3.0),
            tree_cell=np.zeros(n, dtype=np.int64),
            tree_taxon=np.zeros(n, dtype=np.int64),
        )
        draws = LatentDraws(state)
        assert update_W(state, draws, rng)
        assert abs(draws.township[0].mean() - 3.2831) < 4e-3
        assert np.array_equal(state.others_max, draws.township[1])

    def test_nan_draws_break_the_invariant(self):
        rng = np.random.default_rng(4)
        for p in (1, 3):
            state, draws = make_state(np.zeros((2, p)), [0, 1, 1], [0, 0, p - 1], rng)
            state.alpha[1, 0] = np.nan
            assert not update_W(state, draws, rng)


def reference_std_trunc_lower(rng, a, size=None):
    """The standard truncated draw as first written, with nextafter on
    every entry: the oracle for the in-place version."""
    a = np.asarray(a, dtype=float)
    shape = a.shape if size is None else size
    u = rng.random(shape)
    tail = (1.0 - u) * ndtr(-a)
    z = -ndtri(np.fmax(tail, 1e-320))
    return np.maximum(z, np.nextafter(a, np.inf))


@dataclass
class MatrixState:
    """The chain state as it was before others_max: every tree's P latent
    normals w (trees, P). It serves the reference chain as both its state
    and its draws."""

    alpha: np.ndarray
    w: np.ndarray
    tree_cell: np.ndarray
    tree_taxon: np.ndarray
    n_gridded: int = 0
    others_max = None  # the checkpoint table leaves out what is None

    @property
    def township(self):
        return self.w[self.n_gridded :].T


def reference_update_W(state, rng):
    """update_W as first written, on the (trees x P) matrix with (trees x P)
    temporaries: the gathered alpha_tree, a masked copy of w and boolean
    selections per taxon. The column-by-column update must draw the same
    normals bit for bit."""
    w = state.w
    n, p = w.shape
    if n == 0:
        return
    alpha_tree = state.alpha[state.tree_cell]
    if p == 1:
        w[:, 0] = alpha_tree[:, 0] + rng.standard_normal(n)
        return
    rows = np.arange(n)
    taxon = state.tree_taxon
    masked = w.copy()
    masked[rows, taxon] = -np.inf
    lower = masked.max(axis=1)
    mean = alpha_tree[rows, taxon]
    w[rows, taxon] = mean + reference_std_trunc_lower(rng, lower - mean)
    upper = w[rows, taxon]
    for j in range(p):
        sel = taxon != j
        if sel.any():
            mean = alpha_tree[sel, j]
            w[sel, j] = mean - reference_std_trunc_lower(rng, mean - upper[sel])


def reference_argmax_consistent(state):
    """The argmax invariant as the chain first checked it: each row's
    first maximum is the observed taxon."""
    return bool(np.all(np.argmax(state.w, axis=1) == state.tree_taxon))


def reference_sufficient_stats(state, n_cells):
    """compute_sufficient_stats on the (trees x P) matrix: one weighted
    bincount per taxon over every tree."""
    counts = np.bincount(state.tree_cell, minlength=n_cells).astype(float)
    wbar = np.zeros((n_cells, state.w.shape[1]))
    for j in range(state.w.shape[1]):
        wbar[:, j] = np.bincount(state.tree_cell, weights=state.w[:, j], minlength=n_cells)
    nz = counts > 0
    wbar[nz] /= counts[nz, None]
    return SufficientStats(a_diag=counts, wbar=wbar)


def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


class FixedUniforms:
    """Stands in for a Generator whose random(shape) returns chosen uniforms,
    so the draw can be driven onto its edge cases (u = 0, u next to 1)."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        return np.broadcast_to(self.u, shape).copy()


def assert_same_bits(got, want):
    """Equal shapes and bits, NaN in the same places (of either sign)."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(bits(got[~nan]), bits(want[~nan]))


class TestStdTruncBelowMatchesReference:
    """The standard draw below d has the bits of the reference draw above
    -d, negated, and draws the same uniforms."""

    def assert_same(self, d, size=None, seed=0):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _std_trunc_below(rng_new, d, size=size)
        want = -reference_std_trunc_lower(rng_ref, -np.asarray(d, dtype=float), size=size)
        assert_same_bits(got, want)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        return got

    def test_random_bounds(self):
        d = 3.0 * np.random.default_rng(5).standard_normal(20_000)
        self.assert_same(d, seed=1)

    def test_bounds_past_the_tail_floor(self):
        # ndtr(d) underflows to 0 from d = -38, so the cdf is clamped to
        # 1e-320 and y = ndtri(1e-320) = -38.27; past that, every draw is a tie
        near = np.repeat([-38.0, -38.1, -38.2], 1000)
        self.assert_same(near, seed=2)
        far = np.repeat([-38.3, -40.0, -1e3, -1e300], 1000)
        y = self.assert_same(far, seed=3)
        assert np.array_equal(bits(y), bits(np.nextafter(far, -np.inf)))

    def test_infinite_and_nan_bounds(self):
        d = np.tile([-np.inf, np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324], 500)
        y = self.assert_same(d, seed=4)
        assert np.all(y[0::7] == -np.inf)
        assert np.all(np.isnan(y[2::7]))

    def test_edge_uniforms_with_broadcast_bounds(self):
        # u = 0 gives y = inf at d = inf and y = 0.0 at d = 0
        u = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        d = np.array([np.inf, 1e300, 5e-324, 0.0, -0.0, -5e-324, -1.0, -38.5, -np.inf, np.nan])
        got = _std_trunc_below(FixedUniforms(u), d[:, None], size=(d.size, len(u)))
        want = -reference_std_trunc_lower(FixedUniforms(u), -d[:, None], size=(d.size, len(u)))
        assert_same_bits(got, want)

    @pytest.mark.parametrize("size", [1000, (20, 30)])
    def test_scalar_bound_with_size(self, size):
        y = self.assert_same(-1.5, size=size, seed=6)
        assert y.shape == np.empty(size).shape and y.max() < -1.5


def reference_truncnorm_lower(rng, lower, mean=0.0, size=None):
    """mean + Z with Z above lower - mean."""
    lower, mean = np.asarray(lower, dtype=float), np.asarray(mean, dtype=float)
    return mean + reference_std_trunc_lower(rng, lower - mean, size=size)


def reference_truncnorm_upper(rng, upper, mean=0.0, size=None):
    """The mirror of the lower draw: mean - Z with Z above mean - upper."""
    upper, mean = np.asarray(upper, dtype=float), np.asarray(mean, dtype=float)
    return mean - reference_std_trunc_lower(rng, mean - upper, size=size)


@pytest.mark.parametrize(
    "draw, reference, side",
    [(truncnorm_lower, reference_truncnorm_lower, 1), (truncnorm_upper, reference_truncnorm_upper, -1)],
    ids=["lower", "upper"],
)
class TestTruncnormMatchesReference:
    """Both truncated draws work with one standard draw below a bound and
    negate nothing, yet give the reference's bits."""

    def assert_same(self, draw, reference, bound, mean, size=None, seed=0):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw(rng_new, bound, mean, size=size)
        assert_same_bits(got, reference(rng_ref, bound, mean, size=size))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        return got

    def test_random_bounds_and_means(self, draw, reference, side):
        rng = np.random.default_rng(5)
        bound, mean = 3.0 * rng.standard_normal(20_000), 3.0 * rng.standard_normal(20_000)
        got = self.assert_same(draw, reference, bound, mean, seed=1)
        assert np.all(side * (got - bound) > 0)

    def test_bounds_past_the_tail_floor_and_ties(self, draw, reference, side):
        # bounds 38 and more sds past the mean: every draw is a tie
        gap = side * np.repeat([38.0, 38.3, 40.0, 1e3, 1e300], 500)
        self.assert_same(draw, reference, gap, 0.0, seed=2)
        self.assert_same(draw, reference, 1.0 + gap, 1.0, seed=3)
        # a huge mean makes the draw round onto the bound
        self.assert_same(draw, reference, np.zeros(500), np.full(500, -side * 1e17), seed=4)

    def test_special_values(self, draw, reference, side):
        special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, -5e-324, 5e-324, 1.0])
        bound, mean = np.meshgrid(special, special)
        with np.errstate(invalid="ignore"):  # inf - inf
            self.assert_same(draw, reference, np.tile(bound.ravel(), 50),
                             np.tile(mean.ravel(), 50), seed=5)

    @pytest.mark.parametrize("size", [None, 1000, (20, 30)])
    def test_scalar_bound_with_size(self, draw, reference, side, size):
        self.assert_same(draw, reference, -0.5 * side, 0.3, size=size, seed=6)


def matched_states(seed, m, n, p, n_labels, n_gridded):
    """The same random trees as a MatrixState, whose w holds their initial
    normals, and as a LatentState, which keeps only their rival maxima."""
    rng = np.random.default_rng(seed)
    alpha = 2.0 * rng.standard_normal((m, p))
    cells, taxon = rng.integers(0, m, n), rng.integers(0, n_labels, n)
    ref = MatrixState(alpha, alpha[cells] + rng.standard_normal((n, p)), cells, taxon, n_gridded)
    new = LatentState(alpha=alpha.copy(), others_max=rival_max(ref.w, taxon),
                      tree_cell=cells.copy(), tree_taxon=taxon.copy(), n_gridded=n_gridded)
    return new, ref


class TestUpdateWMatchesReference:
    """update_W draws the same uniforms in the same order and does the
    same float operations as the matrix reference, and its reductions add
    the same terms in the same order, so others_max, the township rows,
    wbar and the generator state stay bit-equal sweep after sweep."""

    def run_both(self, new, ref, sweeps, move_cells=None):
        draws = LatentDraws(new)
        m, ng = new.alpha.shape[0], new.n_gridded
        rng_new, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(sweeps):
            consistent = update_W(new, draws, rng_new)
            reference_update_W(ref, rng_ref)
            assert consistent and reference_argmax_consistent(ref)
            assert np.array_equal(bits(new.others_max), bits(rival_max(ref.w, ref.tree_taxon)))
            assert np.array_equal(bits(draws.township), bits(ref.w[ng:].T))
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
            if move_cells is not None:  # as the membership draw moves them
                new.tree_cell[ng:] = ref.tree_cell[ng:] = move_cells(ref.tree_cell.size - ng)
            stats = compute_sufficient_stats(new, draws)
            want = reference_sufficient_stats(ref, m)
            assert np.array_equal(stats.a_diag, want.a_diag)
            assert np.array_equal(bits(stats.wbar), bits(want.wbar))

    @pytest.mark.parametrize(
        "p, n_labels", [(1, 1), (2, 2), (2, 1), (5, 5), (5, 3), (22, 22), (22, 15)]
    )
    def test_gridded(self, p, n_labels):
        # n_labels < p leaves taxa that no tree observes; (2, 1) leaves the
        # observed taxon with no rival draws at all
        self.run_both(*matched_states(p, 9, 2000, p, n_labels, 2000), sweeps=4)

    @pytest.mark.parametrize("p, n_labels", [(1, 1), (2, 2), (5, 4), (22, 22)])
    @pytest.mark.parametrize("n_gridded", [0, 1200])
    def test_township_cells_move_between_sweeps(self, p, n_labels, n_gridded):
        moves = np.random.default_rng(8)
        new, ref = matched_states(7, 16, 3000, p, n_labels, n_gridded)
        self.run_both(new, ref, sweeps=5, move_cells=lambda k: moves.integers(0, 16, k))


class TestArgmaxInvariant:
    """The per-column check fails exactly where argmax does, and also on
    a NaN observed draw."""

    @staticmethod
    def per_column(w, taxon):
        upper = w[np.arange(taxon.size), taxon]
        checks = []
        for j in range(w.shape[1]):
            rival = taxon != j
            checks.append(_below_observed(w[rival, j], upper[rival], taxon, rival, j))
        return all(checks)

    @pytest.mark.parametrize(
        "row, taxon, first_max",
        [
            ([2.0, 1.0, 0.5], 0, True),
            ([1.0, 2.0, 0.5], 0, False),
            ([1.0, 1.0, 0.5], 0, True),  # a tie after the observed taxon
            ([1.0, 1.0, 0.5], 1, False),  # a tie before it
            ([0.5, 1.0, 1.0], 1, True),
            ([1.0, np.inf, np.inf], 1, True),
            ([1.0, np.nan, 0.5], 0, False),  # a NaN rival
            ([np.nan, 1.0, 0.5], 1, False),
        ],
    )
    def test_matches_argmax(self, row, taxon, first_max):
        w, taxon = np.array([row, [0.0, 0.0, 1.0]]), np.array([taxon, 2])
        assert reference_argmax_consistent(MatrixState(None, w, None, taxon)) == first_max
        assert self.per_column(w, taxon) == first_max

    def test_nan_observed_draw_fails(self):
        # argmax takes the first NaN, so a NaN observed draw with no NaN
        # before it passed there
        w, taxon = np.array([[np.nan, 1.0, 0.5]]), np.array([0])
        assert reference_argmax_consistent(MatrixState(None, w, None, taxon))
        assert not self.per_column(w, taxon)


class TestGibbsAlpha:
    def test_two_cell_car_posterior_mean(self):
        # A = diag(1, 0), wbar = (2, 0), sigma2 = 1:
        # mean = (A+Q)^-1 (2,0) = [[2,-1],[-1,1]]^-1 (2,0) = (2, 2)
        prior = SpatialPrior.from_grid("car", build_grid(2, 1, 0))
        factor = prior.conditional_factor(1.0, np.array([1.0, 0.0]))
        assert np.allclose(prec.solve(factor, np.array([2.0, 0.0])), [2.0, 2.0], atol=1e-10)

    def test_single_cell_conjugate(self):
        # explicit proper prior: Q_p = tau -> posterior N(n wbar/(n+tau), 1/(n+tau))
        prior = SpatialPrior.from_structure(sp.csc_matrix(np.array([[1.0]])), 1)
        n, wbar, tau = 6.0, 1.3, 2.0
        factor = prior.conditional_factor(0.5, np.array([n]))  # tau = 1/sigma2 = 2
        b = np.array([n * wbar])
        assert abs(prec.solve(factor, b)[0] - n * wbar / (n + tau)) < 1e-12
        rng = np.random.default_rng(0)
        draws = np.array([prec.sample_gaussian(factor, b, rng)[0] for _ in range(40_000)])
        assert abs(draws.mean() - n * wbar / (n + tau)) < 0.01
        assert abs(draws.var() - 1.0 / (n + tau)) < 0.005

    def test_spde_prior_only_mean(self):
        prior = SpatialPrior.from_grid("spde", build_grid(3, 3, 0))
        factor = prior.conditional_factor(1.0, np.zeros(9), 2.0)
        mean = prec.solve(factor, 1.7 * prior.qp_rowsum(1.0, 2.0))
        assert np.allclose(mean, 1.7, atol=1e-8)

    def test_car_without_data_raises(self):
        prior = SpatialPrior.from_grid("car", build_grid(2, 1, 0))
        with pytest.raises(NumericalError, match="at least one cell with data"):
            prior.conditional_factor(1.0, np.zeros(2))


class TestMarginalLogdensity:
    def test_single_cell_ratio_matches_quadrature(self):
        from scipy.integrate import quad

        fam = SpatialPrior.from_structure(sp.csc_matrix(np.array([[1.0]])), 1)
        n, wbar = 5.0, 0.7
        a_diag, wb = np.array([n]), np.array([wbar])

        def oracle(s2):
            f = lambda a: np.exp(-0.5 * n * (wbar - a) ** 2) * np.exp(
                -0.5 * a * a / s2
            ) / np.sqrt(2 * np.pi * s2)
            return np.log(quad(f, -30, 30, limit=200)[0])

        ours = (
            _marginal(fam, 1.0, 0.0, 1.0, a_diag, wb)[0]
            - _marginal(fam, 2.0, 0.0, 1.0, a_diag, wb)[0]
        )
        assert abs(ours - (oracle(1.0) - oracle(2.0))) < 1e-6

    def test_car_matches_dense_marginalization(self):
        # intrinsic prior: the pseudo-determinant of Q/sigma2 enters, so
        # compare differences across sigma2, where the gdet of Q cancels
        grid = build_grid(3, 2, 0)
        prior = SpatialPrior.from_grid("car", grid)
        q = prec.build_car_structure(build_neighbor_graph(grid, "cardinal")).toarray()
        a_diag = np.array([2.0, 1.0, 0.0, 3.0, 0.0, 1.0])
        wbar = np.random.default_rng(4).standard_normal(6) * (a_diag > 0)

        def oracle(s2):
            evals = np.linalg.eigvalsh(q / s2)
            m = np.diag(a_diag) + q / s2
            b = a_diag * wbar
            return (
                0.5 * np.log(evals[evals > 1e-10]).sum()
                - 0.5 * np.linalg.slogdet(m)[1]
                + 0.5 * b @ np.linalg.solve(m, b)
            )

        def ours(s2):
            return _marginal(prior, s2, 0.0, 1.0, a_diag, wbar)[0]

        for s2 in (0.3, 1.5, 7.0):
            assert abs((ours(s2) - ours(1.0)) - (oracle(s2) - oracle(1.0))) < 1e-9

    def test_spde_matches_dense_marginalization(self):
        rng = np.random.default_rng(5)
        a2 = np.array([3.0, 0.0, 2.0, 5.0])
        w2 = rng.standard_normal(4) * 0.5
        w2[a2 == 0] = 0.0
        rng = np.random.default_rng(8)
        a3 = rng.integers(0, 5, 9).astype(float)
        w3 = rng.standard_normal(9) * (a3 > 0)
        cases = [
            (build_grid(2, 2, 0), a2, w2, (1.0, 0.3, 2.0)),
            (build_grid(2, 2, 0), a2, w2, (4.0, -1.0, 0.5)),
            (build_grid(3, 3, 0), a3, w3, (2.0, 0.4, 3.0)),
        ]
        for grid, a_diag, wbar, (s2, mu, rho) in cases:
            prior = SpatialPrior.from_grid("spde", grid)
            ones = np.ones(grid.n_cells)
            q = prec.build_spde_structure(build_neighbor_graph(grid, "extended"), rho).toarray()
            qp = q * rho**2 / (4 * np.pi * s2)
            m = np.diag(a_diag) + qp
            b = a_diag * wbar + qp @ (mu * ones)
            oracle = (
                0.5 * np.linalg.slogdet(qp)[1]
                - 0.5 * np.linalg.slogdet(m)[1]
                + 0.5 * b @ np.linalg.solve(m, b)
                - 0.5 * mu**2 * ones @ qp @ ones
            )
            ours = _marginal(prior, s2, mu, rho, a_diag, wbar)[0]
            assert abs(ours - oracle) < 1e-8

    def test_public_wrapper_spde_matches_internal(self):
        # the range move passes in the factor and structure logdet built by
        # the prior's public methods; they must give the value the marginal
        # computes on its own
        grid = build_grid(3, 3, 0)
        prior = SpatialPrior.from_grid("spde", grid)
        rng = np.random.default_rng(8)
        a_diag = rng.integers(0, 5, 9).astype(float)
        wbar = rng.standard_normal(9) * (a_diag > 0)
        s2, mu, rho = 2.0, 0.4, 3.0
        internal = _marginal(prior, s2, mu, rho, a_diag, wbar)[0]
        factor = prior.conditional_factor(s2, a_diag, rho)
        sld = prior.structure_logdet(rho)
        cached = _marginal(prior, s2, mu, rho, a_diag, wbar, factor, sld)[0]
        assert abs(cached - internal) < 1e-12

    def test_spde_no_data_is_constant_in_hyperparams(self):
        grid = build_grid(3, 3, 0)
        fam = SpatialPrior.from_grid("spde", grid)
        a_diag, wbar = np.zeros(9), np.zeros(9)
        vals = [
            _marginal(fam, s2, mu, rho, a_diag, wbar)[0]
            for s2, mu, rho in [(1.0, 0.0, 1.0), (9.0, 2.0, 0.3), (0.2, -3.0, 40.0)]
        ]
        assert np.ptp(vals) < 1e-8


class TestMuDraw:
    """The exact draw of the spde mean: the Gaussian in mu that the
    field-marginalized density is, truncated to the prior's bounds."""

    @pytest.mark.parametrize("shape", [(6, 5, 1), (10, 10, 2)], ids=["6x5+1", "10x10+2"])
    @pytest.mark.parametrize("observed", [1.0, 0.3, 0.0])
    def test_closed_form_is_the_marginal_in_mu(self, shape, observed):
        grid = build_grid(*shape)
        prior = SpatialPrior.from_grid("spde", grid)
        rng = np.random.default_rng(11)
        m = grid.n_cells
        a_diag = (rng.integers(1, 6, m) * (rng.random(m) < observed)).astype(float)
        wbar = rng.standard_normal(m) * (a_diag > 0)
        s2, rho = 0.7, 3.0
        factor = prior.conditional_factor(s2, a_diag, rho)
        rowsum = prior.qp_rowsum(s2, rho)
        mean, tau = _mu_conditional(factor, rowsum, a_diag, wbar)
        # _marginal less the quadratic -tau/2 (mu - mean)^2 is flat in mu, up
        # to rounding of its largest terms, mu^2 1'Q_p 1 / 2 at |mu| = 3
        gap = [
            _marginal(prior, s2, mu, rho, a_diag, wbar, factor, 0.0)[0]
            + 0.5 * tau * (mu - mean) ** 2
            for mu in np.linspace(-3.0, 3.0, 13)
        ]
        assert np.ptp(gap) < 1e-14 * 4.5 * rowsum.sum()
        # tau = 1'Q_p 1 - r'M r, and exactly 0 without data
        dense = rowsum.sum() - rowsum @ prec.solve(factor, rowsum)
        if observed == 0.0:
            assert tau == 0.0 and mean == 0.0
        else:
            assert abs(tau - dense) <= 1e-12 * tau

    @pytest.mark.parametrize(
        "mean, tau, bound",
        [(0.3, 4.0, 1.0), (-0.8, 0.05, 2.0), (0.5, 1e-8, 1.0), (12.0, 400.0, 10.0),
         (30.0, 1.0, 10.0), (-30.0, 1.0, 10.0), (-1e3, 0.5, 10.0)],
    )
    def test_draw_is_the_truncated_normal(self, mean, tau, bound):
        from scipy.stats import kstest, truncnorm

        u = np.random.default_rng(3).random(20_000)
        draws = _truncnorm_between(u, mean, tau, bound)
        assert np.all(np.abs(draws) <= bound)
        sd = tau**-0.5
        ref = truncnorm((-bound - mean) / sd, (bound - mean) / sd, loc=mean, scale=sd)
        assert kstest(draws, ref.cdf).pvalue > 1e-3
        # monotone in u (one inversion), and a mirrored mean mirrors the draw
        step = np.diff(_truncnorm_between(np.sort(u), mean, tau, bound))
        assert np.all(step >= 0) or np.all(step <= 0)
        assert np.array_equal(_truncnorm_between(u, -mean, tau, bound), -draws)

    def test_no_precision_draws_the_uniform_prior(self):
        from scipy.stats import kstest, uniform

        u = np.random.default_rng(4).random(20_000)
        for tau in (0.0, -1e-14):
            draws = _truncnorm_between(u, 0.7, tau, 2.0)
            assert kstest(draws, uniform(loc=-2.0, scale=4.0).cdf).pvalue > 1e-3

    def test_prior_only_chain_draws_mu_uniform(self):
        from scipy.stats import kstest, uniform

        grid = build_grid(3, 3, 1)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = np.zeros((grid.n_cells, 2), dtype=int)
        ds = Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))
        cfg = SamplerConfig(n_iter=1000, burn_in=500, n_retained=10, seed=3, model_kind="spde",
                            hyperpriors=Hyperpriors(mu_bound=2.0))
        chain = _Chain(ds, cfg)
        mus = []
        for _ in range(1000):
            chain.sweep()
            mus.append(chain.mu.copy())
        for trace in np.array(mus).T:
            assert kstest(trace, uniform(loc=-2.0, scale=4.0).cdf).pvalue > 1e-3


class TestStartState:
    @pytest.mark.parametrize(
        "hp, sigma, rho",
        [
            (Hyperpriors(), 1.0, 10.0),
            (Hyperpriors(rho_lower=1.0, rho_upper=4.0), 1.0, 2.0),
            (Hyperpriors(rho_lower=20.0, rho_upper=100.0), 1.0, np.sqrt(2000.0)),
            (Hyperpriors(sigma_upper=0.5), 0.25, 10.0),
        ],
        ids=["default", "rho-1-4", "rho-20-100", "sigma-0.5"],
    )
    def test_spde_chain_starts_inside_the_prior_and_moves(self, hp, sigma, rho):
        # a start outside the bounds rejects every proposal, so the chain
        # would never move and adaptation would only shrink its steps
        grid = build_grid(5, 5, 0)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = np.random.default_rng(2).multinomial(6, [0.5, 0.5], size=grid.n_cells)
        ds = Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))
        cfg = SamplerConfig(n_iter=400, burn_in=200, n_retained=10, seed=1, model_kind="spde",
                            hyperpriors=hp)
        chain = _Chain(ds, cfg)
        assert np.array_equal(chain.sigma2, [sigma**2] * 2)
        assert np.array_equal(chain.rho, [rho] * 2)
        _, diags = run_chain(ds, cfg)
        assert np.all(diags.acceptance["sigma_rho"] > 0.0)
        assert np.all(np.ptp(diags.rho_trace, axis=0) > 0.0)
        assert np.all((diags.rho_trace > hp.rho_lower) & (diags.rho_trace < hp.rho_upper))
        assert np.all(diags.sigma2_trace <= hp.sigma_upper**2)


class TestHyperUpdates:
    def test_zero_delta_always_accepts(self):
        rng = np.random.default_rng(0)
        assert all(_mh_accept(rng, 0.0) for _ in range(100))

    def test_large_negative_delta_rejects(self):
        rng = np.random.default_rng(0)
        assert not any(_mh_accept(rng, -50.0) for _ in range(100))

    def test_sigma_above_prior_bound_rejected(self):
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("a",))
        ds = Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=np.full((4, 1), 3)))
        hp = Hyperpriors(sigma_upper=1.0)
        chain = _Chain(ds, SamplerConfig(n_iter=10, burn_in=0, n_retained=5, hyperpriors=hp))
        chain.sigma2[0] = 0.999
        chain.stats = SufficientStats(a_diag=np.full(4, 3.0), wbar=np.zeros((4, 1)))
        prop = AdaptiveProposal(dim=1, target=0.44, log_scale=np.log(5.0), n_taxa=1)
        prop.frozen[:] = True
        for _ in range(200):
            _update_scale(chain, 0, prop)
            assert chain.sigma2[0] <= 1.0

    def test_adaptation_targets_acceptance_rate(self):
        # synthetic data, 1-D block: post-adaptation rate in [0.2, 0.6]
        rng = np.random.default_rng(0)
        grid = build_grid(4, 4, 0)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = rng.multinomial(40, [0.6, 0.4], size=grid.n_cells)
        ds = Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))
        cfg = SamplerConfig(n_iter=3000, burn_in=1000, n_retained=100, seed=0)
        _, diags = run_chain(ds, cfg)
        assert np.all(diags.acceptance["sigma"] >= 0.2)
        assert np.all(diags.acceptance["sigma"] <= 0.6)

    def test_car_scale_move_ignores_rho_bounds(self):
        # the car chain keeps rho = 10, which these bounds exclude; the
        # 1-D scale move must not read them
        grid = build_grid(4, 4, 0)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = np.random.default_rng(3).multinomial(30, [0.6, 0.4], size=grid.n_cells)
        ds = Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))
        runs = [
            run_chain(ds, SamplerConfig(n_iter=200, burn_in=100, n_retained=10, seed=5,
                                        hyperpriors=hp))
            for hp in (Hyperpriors(), Hyperpriors(rho_lower=20.0, rho_upper=40.0))
        ]
        (default, default_diags), (narrow, narrow_diags) = runs
        rate = narrow_diags.acceptance["sigma"]
        assert np.all((rate > 0.0) & (rate < 1.0))
        assert np.array_equal(default.theta, narrow.theta)
        assert np.array_equal(default_diags.sigma2_trace, narrow_diags.sigma2_trace)

    def test_proposal_freezes_after_burn_in(self):
        prop = AdaptiveProposal(dim=1, target=0.44, log_scale=0.0, n_taxa=2)
        prop.frozen[:] = True
        before = prop.log_scale.copy()
        for p in range(2):
            for _ in range(100):
                prop.register(p, True)
            prop.maybe_adapt(p, 50)
        assert np.array_equal(prop.log_scale, before)

    def test_no_burn_in_never_adapts(self):
        grid = build_grid(3, 3, 0)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = np.tile([[3, 2]], (grid.n_cells, 1))
        ds = Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))
        chain = _Chain(ds, SamplerConfig(n_iter=200, burn_in=0, n_retained=10, seed=4))
        for _ in range(200):
            chain.sweep()
        prop = chain.proposal
        assert prop.dim == 1 and prop.frozen.all()
        assert np.array_equal(prop.batches, [0, 0])
        assert np.array_equal(prop.log_scale, np.log([0.5, 0.5]))


def one_township(alpha, cells, weights, n_trees, w=0.0):
    """A single-taxon state whose n_trees trees all sit in one township,
    with their latent normals (1, n_trees) all equal to w."""
    taxa = TaxonRegistry(names=("a",))
    overlap = TownshipOverlap("t", cells=np.array(cells), weights=np.array(weights))
    townships = TownshipTrees(
        taxa=taxa, overlaps=[overlap], taxon_labels=[np.zeros(n_trees, dtype=int)]
    )
    state = LatentState(
        alpha=np.asarray(alpha, dtype=float),
        others_max=np.full(n_trees, -np.inf),
        tree_cell=np.full(n_trees, cells[-1], dtype=np.int64),
        tree_taxon=np.zeros(n_trees, dtype=np.int64),
        n_gridded=0,
    )
    return state, np.full((1, n_trees), w), TownshipLayout(townships)


class TestMemberships:
    def test_probabilities_hand_computed(self):
        # P=1, W=0, alpha = (0, 1): probs prop to (1, e^-1/2) = (0.6225, 0.3775);
        # the binomial sd of the frequency over 40000 trees is 0.0024
        state, w, layout = one_township([[0.0], [1.0]], [0, 1], [0.5, 0.5], 40_000)
        update_memberships(state, w, layout, np.random.default_rng(2))
        assert abs((state.tree_cell == 0).mean() - 0.62245933) < 0.01

    def test_point_mass_prior(self):
        # a 1e-300 prior weight outweighs the likelihood ratio e^1/2 toward cell 1
        state, w, layout = one_township([[0.0], [1.0]], [0, 1], [1.0, 1e-300], 10_000, w=1.0)
        update_memberships(state, w, layout, np.random.default_rng(3))
        assert np.all(state.tree_cell == 0)

    def test_symmetric_cells_sample_evenly(self):
        state, w, layout = one_township(np.zeros((2, 1)), [0, 1], [0.5, 0.5], 4000)
        update_memberships(state, w, layout, np.random.default_rng(0))
        frac = (state.tree_cell == 0).mean()
        assert abs(frac - 0.5) < 0.03

    def test_forced_cell(self):
        state, w, layout = one_township(np.zeros((6, 1)), [3, 5], [1.0, 1e-300], 100)
        update_memberships(state, w, layout, np.random.default_rng(1))
        assert np.all(state.tree_cell == 3)


def reference_update_memberships(state, w, townships, rng):
    """The per-township membership draw that update_memberships replaced,
    given the township trees' normals w (trees, P): one generator call
    and one (trees, k) block per township, dot products through matmul."""
    pos = 0
    for overlap, labels in zip(townships.overlaps, townships.taxon_labels):
        nt = labels.size
        wt = w[pos : pos + nt]
        a_sup = state.alpha[overlap.cells]
        loglik = wt @ a_sup.T - 0.5 * np.sum(a_sup * a_sup, axis=1)[None, :]
        logw = loglik + np.log(overlap.weights)[None, :]
        logw -= logw.max(axis=1, keepdims=True)
        pw = np.exp(logw)
        norm = pw.sum(axis=1)
        bad = ~np.isfinite(norm) | (norm <= 0)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise NumericalError(
                f"membership weights degenerate for tree {j} of township "
                f"{overlap.township_id}"
            )
        cdf = np.cumsum(pw / norm[:, None], axis=1)
        u = rng.random((nt, 1))
        choice = np.minimum((cdf < u).sum(axis=1), overlap.cells.size - 1)
        state.tree_cell[state.n_gridded + pos : state.n_gridded + pos + nt] = overlap.cells[choice]
        pos += nt


def reference_init_township_cells(townships, rng):
    """The per-township initial placement that _init_township_cells
    replaced: one generator call per township."""
    cells = []
    for ov, labels in zip(townships.overlaps, townships.taxon_labels):
        cdf = np.cumsum(ov.weights)
        u = rng.random((labels.size, 1))
        cells.append(ov.cells[np.minimum((cdf[None, :] < u).sum(axis=1), ov.cells.size - 1)])
    return np.concatenate(cells)


def reference_slots(townships, n_cells, state):
    """Each township tree's tally slot found the former way: by binary
    search over the sorted keys township * n_cells + cell."""
    towns = np.arange(len(townships.overlaps))
    sizes = [ov.cells.size for ov in townships.overlaps]
    n_trees = [labels.size for labels in townships.taxon_labels]
    cells = np.concatenate([ov.cells for ov in townships.overlaps])
    keys = np.repeat(towns, sizes) * n_cells + cells
    base = np.repeat(towns, n_trees) * n_cells
    return np.searchsorted(keys, base + state.tree_cell[state.n_gridded :])


def random_townships(data, p):
    """A state with gridded trees followed by township trees, over drawn
    support sizes, tree counts, fields and overlap weights."""
    m = 40
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sizes = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=6), label="sizes")
    n_trees = [data.draw(st.integers(1, 80), label="trees") for _ in sizes]
    n_gridded = data.draw(st.integers(1, 20), label="n_gridded")
    scale = data.draw(st.sampled_from([0.1, 1.0, 3.0]), label="field scale")
    taxa = TaxonRegistry(names=tuple(f"t{j}" for j in range(p)))
    overlaps, labels = [], []
    for t, (k, nt) in enumerate(zip(sizes, n_trees)):
        weights = rng.random(k) ** 3 + 1e-12
        cells = np.sort(rng.choice(m, k, replace=False))
        overlaps.append(TownshipOverlap(f"T{t}", cells=cells, weights=weights / weights.sum()))
        labels.append(rng.integers(0, p, nt))
    townships = TownshipTrees(taxa=taxa, overlaps=overlaps, taxon_labels=labels)
    n = n_gridded + sum(n_trees)
    cells = np.concatenate([rng.integers(0, m, n_gridded), np.zeros(n - n_gridded, int)])
    tree_taxon = np.concatenate([rng.integers(0, p, n_gridded), *labels])
    state, draws = make_state(scale * rng.standard_normal((m, p)), cells, tree_taxon, rng,
                              n_gridded)
    return state, draws.township, townships


def copy_state(state):
    return LatentState(alpha=state.alpha.copy(), others_max=state.others_max.copy(),
                       tree_cell=state.tree_cell.copy(), tree_taxon=state.tree_taxon.copy(),
                       n_gridded=state.n_gridded)


class TestMembershipsMatchReference:
    """Grouped by support size, update_memberships draws the same uniforms
    in the same order and sums each normalizer in the reference's order;
    only its dot products may differ from matmul's in the last place."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([1, 2, 5, 22]), chunk=st.sampled_from([4096, 7]))
    def test_random_townships(self, data, p, chunk):
        state, township_w, townships = random_townships(data, p)
        ref = copy_state(state)
        rng_new, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        with mock.patch.object(sampler, "_MEMBERSHIP_CHUNK", chunk):
            slot = update_memberships(state, township_w, TownshipLayout(townships), rng_new)
        reference_update_memberships(ref, township_w.T, townships, rng_ref)
        assert np.array_equal(state.tree_cell, ref.tree_cell)
        assert np.array_equal(slot, reference_slots(townships, state.alpha.shape[0], state))
        assert rng_new.random() == rng_ref.random()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([4096, 7]))
    def test_initial_placement(self, data, chunk):
        _, _, townships = random_townships(data, 2)
        rng_new, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        with mock.patch.object(sampler, "_MEMBERSHIP_CHUNK", chunk):
            got = _init_township_cells(TownshipLayout(townships), rng_new)
        assert np.array_equal(got, reference_init_township_cells(townships, rng_ref))
        assert rng_new.random() == rng_ref.random()

    def test_degenerate_township_named_in_township_order(self):
        # groups run k = 2, 3, 5, 7; the first bad tree in township order
        # is tree 4 of township B, drawn after C (k = 2) and before D (k = 7)
        taxa = TaxonRegistry(names=("a", "b"))
        sizes = {"A": 3, "B": 5, "C": 2, "D": 7}
        n_trees = {"A": 6, "B": 7, "C": 5, "D": 3}
        overlaps = [
            TownshipOverlap(t, cells=np.arange(k), weights=np.full(k, 1.0 / k))
            for t, k in sizes.items()
        ]
        labels = [np.zeros(n, dtype=np.int64) for n in n_trees.values()]
        townships = TownshipTrees(taxa=taxa, overlaps=overlaps, taxon_labels=labels)
        n = 3 + sum(n_trees.values())
        state = LatentState(alpha=np.zeros((7, 2)), others_max=np.zeros(n),
                            tree_cell=np.zeros(n, dtype=np.int64),
                            tree_taxon=np.zeros(n, dtype=np.int64), n_gridded=3)
        township_w = np.zeros((2, n - 3))
        township_w[:, 6 + 4] = np.nan  # B, tree 4
        township_w[:, 6 + 7 + 1] = np.inf  # C, tree 1
        township_w[:, 6 + 7 + 5] = np.nan  # D, tree 0
        with pytest.raises(NumericalError) as want, np.errstate(all="ignore"):
            reference_update_memberships(
                copy_state(state), township_w.T, townships, np.random.default_rng(0)
            )
        assert "tree 4 of township B" in str(want.value)
        # the non-finite normals are reported by the error alone, with no warning
        with pytest.raises(NumericalError) as got, warnings.catch_warnings():
            warnings.simplefilter("error")
            update_memberships(state, township_w, TownshipLayout(townships),
                               np.random.default_rng(0))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("k", [*range(1, 21), 127, 128, 129, 200, 300])
    def test_row_order_sum_matches_numpy_row_sum(self, k):
        x = np.exp(8.0 * np.random.default_rng(k).standard_normal((50, k)))
        assert _row_order_sum(np.ascontiguousarray(x.T)).tobytes() == x.sum(axis=1).tobytes()

    def test_no_townships_runs_like_no_township_records(self):
        grid = build_grid(3, 3, 0)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = CellCounts(grid=grid, taxa=taxa, counts=np.tile([[3, 2]], (grid.n_cells, 1)))
        cfg = SamplerConfig(n_iter=20, burn_in=10, n_retained=10, seed=2)
        empty = TownshipTrees(taxa=taxa, overlaps=[], taxon_labels=[])
        with_empty, diags = run_chain(Dataset(cell_counts=counts, townships=empty), cfg)
        without, _ = run_chain(Dataset(cell_counts=counts), cfg)
        assert with_empty.theta.tobytes() == without.theta.tobytes()
        assert diags.membership_freq == []

    def test_order_of_a_townships_trees_does_not_matter(self):
        ds, kind = township_case(6, 3, 4)
        rng = np.random.default_rng(9)
        towns = ds.townships

        def with_labels(labels):
            trees = TownshipTrees(taxa=towns.taxa, overlaps=towns.overlaps, taxon_labels=labels)
            return Dataset(cell_counts=ds.cell_counts, townships=trees)

        shuffled = [rng.permutation(labels) for labels in towns.taxon_labels]
        in_order = [np.sort(labels) for labels in towns.taxon_labels]
        assert any((a != b).any() for a, b in zip(shuffled, in_order))
        cfg = SamplerConfig(n_iter=30, burn_in=10, n_retained=10, seed=4, model_kind=kind)
        assert_same_run(run_chain(with_labels(shuffled), cfg), run_chain(with_labels(in_order), cfg))

    # block 2 gives townships of 4 cells; block 4 gives 16, 8 and 4
    @pytest.mark.parametrize("block", [2, 4])
    def test_chain_matches_reference_chain(self, monkeypatch, block):
        grid = build_grid(6, 6, 0)
        taxa = TaxonRegistry(names=("a", "b", "c"))
        ds, _, _ = simulate_dataset(
            grid, taxa, "car", np.random.default_rng(8), trees_per_cell=5, township_block=block
        )
        cfg = SamplerConfig(n_iter=40, burn_in=20, n_retained=10, seed=5)
        samples, diags = run_chain(ds, cfg)

        def reference(state, township_w, layout, rng):
            reference_update_memberships(state, township_w.T, ds.townships, rng)
            return reference_slots(ds.townships, grid.n_cells, state)

        monkeypatch.setattr(sampler, "update_memberships", reference)
        ref_samples, ref_diags = run_chain(ds, cfg)
        assert samples.theta.tobytes() == ref_samples.theta.tobytes()
        assert len(diags.membership_freq) == len(ds.townships.overlaps)
        for got, want in zip(diags.membership_freq, ref_diags.membership_freq):
            assert got.tobytes() == want.tobytes()


def reference_init_state(dataset, layout, rng):
    """_init_state on the (trees x P) matrix: one draw of every initial
    normal, then the first latent update, with each township's labels
    sorted."""
    p = dataset.taxa.n_taxa
    cell, taxon = sampler._expand_gridded_trees(dataset)
    n_gridded = cell.size
    if layout is not None:
        cell = np.concatenate([cell, _init_township_cells(layout, rng)])
        taxon = np.concatenate([taxon, *[np.sort(t) for t in dataset.townships.taxon_labels]])
    alpha = np.zeros((dataset.grid.n_cells, p))
    state = MatrixState(alpha, np.zeros((cell.size, p)), cell.astype(np.int64),
                        taxon.astype(np.int64), n_gridded)
    if cell.size:
        state.w[:] = alpha[cell] + rng.standard_normal((cell.size, p))
        reference_update_W(state, rng)
    return state, state


def matrix_chain(monkeypatch, n_cells):
    """Make _Chain run on the (trees x P) matrix: the reference latent
    update, argmax check and sufficient statistics."""

    def update(state, draws, rng):
        reference_update_W(state, rng)
        return reference_argmax_consistent(state)

    monkeypatch.setattr(sampler, "_init_state", reference_init_state)
    monkeypatch.setattr(sampler, "update_W", update)
    monkeypatch.setattr(sampler, "compute_sufficient_stats",
                        lambda state, draws: reference_sufficient_stats(state, n_cells))


def car_case():
    grid = build_grid(6, 6, 0)
    taxa = TaxonRegistry(names=("a", "b", "c", "d"))
    ds, _, _ = simulate_dataset(grid, taxa, "car", np.random.default_rng(3), trees_per_cell=9)
    return ds, "car"


def spde_buffer_case():
    # a buffer ring and a nonzero location exercise the 2-D proposal's
    # running moments and the mu / rho traces
    grid = build_grid(4, 4, 1)
    taxa = TaxonRegistry(names=("a", "b", "c"))
    ds, _, _ = simulate_dataset(
        grid, taxa, "spde", np.random.default_rng(4), mu=0.8, rho=3.0, trees_per_cell=8
    )
    return ds, "spde"


def township_case(nx=4, block=2, p=2):
    grid = build_grid(nx, nx, 0)
    taxa = TaxonRegistry(names=tuple("abcde"[:p]))
    ds, _, _ = simulate_dataset(
        grid, taxa, "car", np.random.default_rng(5), trees_per_cell=6, township_block=block
    )
    return ds, "car"


def assert_same_run(got, want):
    """Two run_chain results with the same theta bytes, traces,
    acceptance rates and membership frequencies."""
    (samples, diags), (ref_samples, ref_diags) = got, want
    assert samples.theta.tobytes() == ref_samples.theta.tobytes()
    for name in ("sigma2_trace", "mu_trace", "rho_trace"):
        a, b = getattr(diags, name), getattr(ref_diags, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    assert diags.acceptance.keys() == ref_diags.acceptance.keys()
    for block, rate in ref_diags.acceptance.items():
        assert diags.acceptance[block].tobytes() == rate.tobytes()
    if ref_diags.membership_freq is None:
        assert diags.membership_freq is None
    else:
        assert len(diags.membership_freq) == len(ref_diags.membership_freq)
        for a, b in zip(diags.membership_freq, ref_diags.membership_freq):
            assert a.tobytes() == b.tobytes()


class TestChainMatchesMatrixReference:
    """Whole chains that keep one float per tree run exactly as chains
    that keep every tree's P normals."""

    @pytest.mark.parametrize(
        "case", [car_case, spde_buffer_case, lambda: township_case(6, 3, 5)],
        ids=["car-6x6", "spde-buffer", "townships-6x6"],
    )
    def test_run_matches(self, monkeypatch, case):
        ds, kind = case()
        cfg = SamplerConfig(n_iter=40, burn_in=20, n_retained=10, seed=7, adapt_interval=5,
                            model_kind=kind)
        got = run_chain(ds, cfg)
        matrix_chain(monkeypatch, ds.grid.n_cells)
        assert_same_run(got, run_chain(ds, cfg))


class TestSufficientStats:
    def test_counts_and_means(self):
        # trees (1, 0) and (3, 2) gridded in cell 0, (5, -2) a township tree in cell 2
        state = LatentState(
            alpha=np.zeros((3, 2)),
            others_max=np.zeros(3),
            tree_cell=np.array([0, 0, 2]),
            tree_taxon=np.array([0, 0, 1]),
            n_gridded=2,
        )
        draws = LatentDraws(state)
        draws.grid_sums[:, 0] = [4.0, 2.0]
        draws.township[:, 0] = [5.0, -2.0]
        stats = compute_sufficient_stats(state, draws)
        assert np.array_equal(stats.a_diag, [2.0, 0.0, 1.0])
        assert np.array_equal(stats.wbar, [[2.0, 1.0], [0.0, 0.0], [5.0, -2.0]])
        assert np.array_equal(draws.grid_sums[:, 0], [4.0, 2.0])  # left for the next call


class TestRunChain:
    def small_dataset(self):
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = np.array([[3, 1], [2, 2], [0, 4], [1, 1]])
        return Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts)), grid

    def test_smoke(self):
        ds, grid = self.small_dataset()
        cfg = SamplerConfig(n_iter=10, burn_in=0, n_retained=5, seed=1)
        samples, _ = run_chain(ds, cfg)
        assert samples.theta.shape == (5, 4, 2)
        assert np.all(np.abs(samples.theta.sum(axis=2) - 1.0) < 1e-12)

    def test_determinism(self):
        ds, grid = self.small_dataset()
        cfg = SamplerConfig(n_iter=20, burn_in=10, n_retained=5, seed=7)
        s1, _ = run_chain(ds, cfg)
        s2, _ = run_chain(ds, cfg)
        assert np.array_equal(s1.theta, s2.theta)

    def test_retained_schedule_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(n_iter=100, burn_in=0, n_retained=33)
        with pytest.raises(ConfigError):
            SamplerConfig(n_iter=100, burn_in=100, n_retained=1)
        cfg = SamplerConfig(n_iter=100, burn_in=20, n_retained=16)
        idx = cfg.retained_iterations()
        assert idx[0] == 25 and idx[-1] == 100 and idx.size == 16

    def test_spde_prior_only(self):
        grid = build_grid(3, 3, 1)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = np.zeros((grid.n_cells, 2), dtype=int)
        ds = Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))
        cfg = SamplerConfig(n_iter=30, burn_in=10, n_retained=5, seed=0, model_kind="spde")
        samples, _ = run_chain(ds, cfg)
        assert np.all(np.isfinite(samples.theta))

    def test_store_alpha_flag(self):
        ds, grid = self.small_dataset()
        cfg = SamplerConfig(n_iter=10, burn_in=0, n_retained=5, seed=1, store_alpha=True)
        _, diags = run_chain(ds, cfg)
        assert diags.alpha_samples.shape == (5, 4, 2)

    def test_retention_draws_no_chain_randomness(self):
        # retained at 14, 18, ..., 30 and at 12, 14, ..., 30: the chain
        # must pass through the shared iterations in the same state
        ds, grid = self.small_dataset()
        runs = [
            run_chain(ds, SamplerConfig(n_iter=30, burn_in=10, n_retained=k, seed=2,
                                        store_alpha=True))
            for k in (5, 10)
        ]
        (few, few_diags), (many, many_diags) = runs
        assert np.array_equal(few_diags.alpha_samples, many_diags.alpha_samples[1::2])
        assert np.array_equal(few.theta, many.theta[1::2])

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path):
        ds, grid = self.small_dataset()
        cfg = SamplerConfig(n_iter=30, burn_in=10, n_retained=10, seed=3)
        full, _ = run_chain(ds, cfg)

        ckpt = tmp_path / "chain.npz"
        chain = _Chain(ds, cfg)
        while chain.iteration < 15:
            chain.sweep()
            if chain.k_done < cfg.retained_iterations().size and chain.iteration == cfg.retained_iterations()[chain.k_done]:
                chain.retain(chain.k_done)
        save_checkpoint(chain, ckpt)
        resumed, _ = run_chain(ds, cfg, resume_from=ckpt)
        assert np.array_equal(full.theta, resumed.theta)

    def test_checkpoint_config_mismatch_rejected(self, tmp_path):
        ds, grid = self.small_dataset()
        cfg = SamplerConfig(n_iter=30, burn_in=10, n_retained=10, seed=3)
        chain = _Chain(ds, cfg)
        chain.sweep()
        ckpt = tmp_path / "chain.npz"
        save_checkpoint(chain, ckpt)
        other = SamplerConfig(n_iter=40, burn_in=10, n_retained=10, seed=3)
        with pytest.raises(ConfigError):
            run_chain(ds, other, resume_from=ckpt)

    @pytest.mark.parametrize(
        "change", [{"target_accept_1d": 0.5}, {"target_accept_2d": 0.3}, {"store_alpha": True}]
    )
    def test_checkpoint_under_other_sampler_settings_rejected(self, tmp_path, change):
        ds, grid = self.small_dataset()
        cfg = SamplerConfig(n_iter=30, burn_in=10, n_retained=10, seed=3)
        chain = _Chain(ds, cfg)
        chain.sweep()
        ckpt = tmp_path / "chain.npz"
        save_checkpoint(chain, ckpt)
        other = SamplerConfig(n_iter=30, burn_in=10, n_retained=10, seed=3, **change)
        with pytest.raises(ConfigError, match="different configuration"):
            run_chain(ds, other, resume_from=ckpt)

    def test_checkpoint_tree_count_mismatch_rejected(self, tmp_path):
        ds, grid = self.small_dataset()
        cfg = SamplerConfig(n_iter=30, burn_in=10, n_retained=10, seed=3)
        chain = _Chain(ds, cfg)
        chain.sweep()
        ckpt = tmp_path / "chain.npz"
        save_checkpoint(chain, ckpt)
        counts = ds.cell_counts.counts.copy()
        counts[0, 0] += 1
        more = Dataset(cell_counts=CellCounts(grid=grid, taxa=ds.taxa, counts=counts))
        with pytest.raises(ConfigError, match="shape"):
            run_chain(more, cfg, resume_from=ckpt)

    def test_nan_field_raises_numerical_error(self):
        # a NaN in alpha turns the drawn w into NaN, whose argmax is not
        # the observed taxon: the sweep must raise, also under python -O
        ds, grid = self.small_dataset()
        chain = _Chain(ds, SamplerConfig(n_iter=10, burn_in=0, n_retained=5, seed=1))
        chain.sweep()
        chain.state.alpha[0, 1] = np.nan
        with pytest.raises(NumericalError, match="observed taxa at iteration 2"):
            chain.sweep()

    def test_prior_must_match_model_and_grid(self):
        ds, grid = self.small_dataset()
        cfg = SamplerConfig(n_iter=10, burn_in=0, n_retained=5, seed=1)
        with pytest.raises(ConfigError):
            run_chain(ds, cfg, prior=SpatialPrior.from_grid("spde", grid))
        with pytest.raises(InvalidArgumentError):
            run_chain(ds, cfg, prior=SpatialPrior.from_grid("car", build_grid(3, 2, 0)))


def run_to(chain, cfg, until):
    """Advance a chain to iteration ``until`` the way run_chain does,
    retaining at the scheduled iterations."""
    retained = cfg.retained_iterations()
    while chain.iteration < until:
        chain.sweep()
        if chain.k_done < retained.size and chain.iteration == retained[chain.k_done]:
            chain.retain(chain.k_done)


class TestResume:
    # burn-in ends at 30; the 2-D proposal shapes its steps from 20 samples on
    @pytest.mark.parametrize("case", [spde_buffer_case, township_case])
    @pytest.mark.parametrize("at", [22, 38])
    def test_resumed_run_matches_uninterrupted(self, tmp_path, case, at):
        ds, kind = case()
        cfg = SamplerConfig(
            n_iter=50, burn_in=30, n_retained=10, seed=6, adapt_interval=5, model_kind=kind
        )
        full, full_diags = run_chain(ds, cfg)
        chain = _Chain(ds, cfg)
        run_to(chain, cfg, at)
        ckpt = tmp_path / "chain.npz"
        save_checkpoint(chain, ckpt)
        resumed, diags = run_chain(ds, cfg, resume_from=ckpt)

        assert resumed.theta.tobytes() == full.theta.tobytes()
        for name in ("sigma2_trace", "mu_trace", "rho_trace"):
            want, got = getattr(full_diags, name), getattr(diags, name)
            if name != "sigma2_trace" and kind == "car":
                assert want is None and got is None
            else:
                assert got.tobytes() == want.tobytes()
        assert diags.acceptance.keys() == full_diags.acceptance.keys()
        for block, rate in full_diags.acceptance.items():
            assert diags.acceptance[block].tobytes() == rate.tobytes()
        if ds.townships is None:
            assert diags.membership_freq is None and full_diags.membership_freq is None
        else:
            assert len(diags.membership_freq) == len(ds.townships.overlaps)
            for got, want in zip(diags.membership_freq, full_diags.membership_freq):
                assert got.tobytes() == want.tobytes()

        # the generator continues where the uninterrupted chain's does
        uninterrupted = _Chain(ds, cfg)
        run_to(uninterrupted, cfg, cfg.n_iter)
        restored = _Chain(ds, cfg)
        _restore_checkpoint(restored, ckpt)
        assert restored.iteration == at
        run_to(restored, cfg, cfg.n_iter)
        assert restored.rng.random() == uninterrupted.rng.random()
