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
    _marginal,
    _mh_accept,
    _mu_conditional,
    _restore_checkpoint,
    _std_below_by_rejection,
    _std_trunc_below,
    _truncnorm_between,
    _update_scale,
    compute_sufficient_stats,
    run_chain,
    save_checkpoint,
    update_W,
    update_memberships,
)
from gridcomp.simulate import simulate_dataset


def trunc_mean(b):
    return np.exp(-0.5 * b * b) / (np.sqrt(2 * np.pi) * ndtr(-b))


def above(rng, lower, n):
    """n draws from N(0, 1) truncated below at lower: the mirror of the
    sampler's draw below -lower."""
    return -_std_trunc_below(rng, np.full(n, -lower))


class TestTruncatedNormal:
    def test_respects_bounds(self):
        rng = np.random.default_rng(0)
        lo = above(rng, 1.5, 2000)
        assert lo.min() > 1.5
        hi = _std_trunc_below(rng, np.full(2000, -0.5))
        assert hi.max() < -0.5

    def test_far_tail_is_finite_and_tight(self):
        rng = np.random.default_rng(1)
        z = above(rng, 12.0, 10_000)
        assert np.all(np.isfinite(z))
        assert z.min() > 12.0
        assert abs(z.mean() - trunc_mean(12.0)) < 0.01

    def test_mean_at_bound_three(self):
        rng = np.random.default_rng(2)
        z = above(rng, 3.0, 200_000)
        assert abs(z.mean() - 3.2831) < 3e-3

    def test_location_shift(self):
        # N(1, 1) above 1 is 1 plus a standard draw above 0
        rng = np.random.default_rng(3)
        z = 1.0 + above(rng, 0.0, 100_000)
        assert abs(z.mean() - (1.0 + trunc_mean(0.0))) < 5e-3

    def test_unbounded_reduces_to_normal(self):
        rng = np.random.default_rng(4)
        z = above(rng, -np.inf, 100_000)
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


def taxon_major(cells, taxa, n_gridded):
    """The trees as the chain stores them: sorted by taxon within each
    section (gridded, then township), ties in the given order."""
    cells, taxa = np.asarray(cells, dtype=np.int64), np.asarray(taxa, dtype=np.int64)
    order = np.lexsort((taxa, np.arange(taxa.size) >= n_gridded))
    return cells[order], taxa[order]


def make_state(alpha, cells, taxa, rng, n_gridded=0):
    """A state whose trees, stored taxon-major, start from alpha[cells] +
    N(0, I) normals, as the chain's do, after one latent draw; returns
    (state, draws). With the default n_gridded = 0 every tree is a
    township tree, so draws.township holds all of the last draw's
    normals (P, trees)."""
    cells, taxa_arr = taxon_major(cells, taxa, n_gridded)
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
        assert np.array_equal(state.tree_taxon, np.sort(labels))
        for _ in range(10):
            assert update_W(state, draws, rng)
            w = draws.township.T
            assert np.array_equal(np.argmax(w, axis=1), state.tree_taxon)
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

    @pytest.mark.parametrize("rival_max, consistent", [(np.inf, True), (-np.inf, True),
                                                       (np.nan, False)])
    @pytest.mark.parametrize("n_gridded", [0, 2, 4])
    def test_infinite_and_nan_rival_maxima(self, rival_max, consistent, n_gridded):
        # +inf draws the observed normal at +inf and -inf leaves it
        # untruncated; a NaN must fail the invariant in either section
        rng = np.random.default_rng(5)
        state, draws = make_state(np.zeros((2, 3)), [0, 1, 1, 0], [0, 1, 2, 1], rng, n_gridded)
        state.others_max[1] = rival_max
        assert update_W(state, draws, rng) == consistent
        if consistent:
            w = draws.township.T
            assert np.array_equal(np.argmax(w, axis=1), state.tree_taxon[n_gridded:])
            assert np.isfinite(state.others_max).all()

    def test_unsorted_section_is_rejected(self):
        # each section must be sorted by taxon on its own
        def state(taxa, n_gridded):
            n = len(taxa)
            return LatentState(alpha=np.zeros((2, 2)), others_max=np.zeros(n),
                               tree_cell=np.zeros(n, dtype=np.int64),
                               tree_taxon=np.array(taxa, dtype=np.int64), n_gridded=n_gridded)

        assert LatentDraws(state([1, 1, 0, 1], 2)).sections == [[0, 0, 2], [2, 3, 4]]
        for taxa, n_gridded, trees in [([0, 1, 1, 0], 2, "2:4"), ([1, 0, 0, 1], 2, "0:2"),
                                       ([0, 2, 1], 0, "0:3"), ([0, 2], 1, "1:2")]:
            with pytest.raises(InvalidArgumentError, match=f"trees {trees} are not sorted"):
                LatentDraws(state(taxa, n_gridded))

    def test_stationary_law_of_the_observed_draw(self):
        # one cell, fixed alpha: a tree recorded as t has the stationary
        # law of W_t given that W_t is the largest of P = 3 independent
        # N(alpha_j, 1), density phi(w - a_t) prod_{j != t} Phi(w - a_j) /
        # theta_t. Trees are independent chains, so the spread of their
        # time averages gives the standard error.
        from scipy.integrate import quad

        a = np.array([0.6, -0.4, 0.1])
        taxa = np.repeat(np.arange(3), 6000)
        rng = np.random.default_rng(12)
        state, draws = make_state(a[None, :], np.zeros(taxa.size), taxa, rng)
        rows = np.arange(taxa.size)
        for _ in range(10):
            assert update_W(state, draws, rng)
        sweeps, total = 40, np.zeros(taxa.size)
        for _ in range(sweeps):
            assert update_W(state, draws, rng)
            total += draws.township[taxa, rows]
        for t in range(3):
            def density(w, t=t):
                rivals = np.delete(a, t)
                return np.exp(-0.5 * (w - a[t]) ** 2) / np.sqrt(2 * np.pi) * ndtr(w - rivals).prod()

            theta = quad(density, -np.inf, np.inf)[0]
            want = quad(lambda w: w * density(w), -np.inf, np.inf)[0] / theta
            got = total[taxa == t] / sweeps
            assert abs(got.mean() - want) < 4 * got.std(ddof=1) / np.sqrt(got.size)


class TestRejectionDraw:
    """The rival draw: a plain normal kept below its bound, else a draw
    by inversion, is exactly N(0, 1) truncated above at the bound."""

    @pytest.mark.parametrize("keep", [0.01, 0.5, 0.87, 0.999])
    def test_matches_scipy_truncnorm(self, keep):
        from scipy.stats import kstest, truncnorm

        d = float(ndtri(keep))  # the share of plain normals kept
        y = _std_below_by_rejection(np.random.default_rng(21), np.full(20_000, d),
                                    np.empty(20_000))
        assert y.max() < d
        assert kstest(y, truncnorm(-np.inf, d).cdf).pvalue > 1e-3

    def test_mixed_bounds(self):
        # the probability integral transform Phi(y) / Phi(d) is uniform
        from scipy.stats import kstest

        rng = np.random.default_rng(22)
        d = 2.0 * rng.standard_normal(40_000)
        y = _std_below_by_rejection(rng, d, np.empty(d.size))
        assert np.all(y < d)
        assert kstest(ndtr(y) / ndtr(d), "uniform").pvalue > 1e-3

    def test_infinite_and_nan_bounds(self):
        from scipy.stats import kstest

        d = np.tile([np.inf, -np.inf, np.nan, -40.0], 5000)
        y = _std_below_by_rejection(np.random.default_rng(23), d, np.empty(d.size))
        assert kstest(y[0::4], "norm").pvalue > 1e-3
        assert np.all(y[1::4] == -np.inf)
        assert np.all(np.isnan(y[2::4]))
        assert np.all(y[3::4] < -40.0) and np.all(np.isfinite(y[3::4]))


def reference_std_trunc_lower(rng, a):
    """The standard truncated draw as first written, with nextafter on
    every entry: the oracle for the in-place version."""
    a = np.asarray(a, dtype=float)
    u = rng.random(a.shape)
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
    """update_W on the (trees x P) matrix with (trees x P) temporaries: the
    gathered alpha_tree, a masked copy of w and boolean selections. Every
    observed draw by inversion, then per taxon j and section the rival
    trees whose taxa come before j, then those after it, each a plain
    normal kept below its bound or else a draw by inversion. The update
    on taxon-major runs must draw the same normals bit for bit."""
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
    sections = [rows < state.n_gridded, rows >= state.n_gridded]
    for j in range(p):
        for section in filter(np.any, sections):
            for sel in (section & (taxon < j), section & (taxon > j)):
                mean = alpha_tree[sel, j]
                d = upper[sel] - mean
                y = rng.standard_normal(d.size)
                miss = ~(y < d)
                y[miss] = -reference_std_trunc_lower(rng, -d[miss])
                w[sel, j] = mean + y


def reference_argmax_consistent(state):
    """The argmax invariant as the chain first checked it: each row's
    first maximum is the observed taxon."""
    return bool(np.all(np.argmax(state.w, axis=1) == state.tree_taxon))


def reference_sufficient_stats(state, n_cells):
    """compute_sufficient_stats on the (trees x P) matrix: per taxon, the
    gridded trees' weighted bincount plus the township trees'."""
    counts = np.bincount(state.tree_cell, minlength=n_cells).astype(float)
    wbar = np.zeros((n_cells, state.w.shape[1]))
    ng = state.n_gridded
    for j in range(state.w.shape[1]):
        for trees in (slice(0, ng), slice(ng, None)):
            wbar[:, j] += np.bincount(state.tree_cell[trees], weights=state.w[trees, j],
                                      minlength=n_cells)
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

    def assert_same(self, d, seed=0):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _std_trunc_below(rng_new, d)
        want = -reference_std_trunc_lower(rng_ref, -np.asarray(d, dtype=float))
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
        d = np.repeat(d[:, None], len(u), axis=1)
        got = _std_trunc_below(FixedUniforms(u), d)
        want = -reference_std_trunc_lower(FixedUniforms(u), -d)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("shape", [(), 1000, (20, 30)])
    def test_bounds_of_any_shape(self, shape):
        y = self.assert_same(np.full(shape, -1.5), seed=6)
        assert y.shape == np.empty(shape).shape and y.max() < -1.5


def matched_states(seed, m, n, p, n_labels, n_gridded):
    """The same random trees as a MatrixState, whose w holds their initial
    normals, and as a LatentState, which keeps only their rival maxima."""
    rng = np.random.default_rng(seed)
    alpha = 2.0 * rng.standard_normal((m, p))
    cells, taxon = taxon_major(rng.integers(0, m, n), rng.integers(0, n_labels, n), n_gridded)
    ref = MatrixState(alpha, alpha[cells] + rng.standard_normal((n, p)), cells, taxon, n_gridded)
    new = LatentState(alpha=alpha.copy(), others_max=rival_max(ref.w, taxon),
                      tree_cell=cells.copy(), tree_taxon=taxon.copy(), n_gridded=n_gridded)
    return new, ref


class TestUpdateWMatchesReference:
    """update_W draws the same numbers in the same order and does the
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
    """The check on the runs before (ties allowed) and after (strictly
    below) each taxon's run of taxon-sorted trees fails exactly where
    argmax does, and also on a NaN observed draw."""

    @staticmethod
    def per_column(w, taxon):
        upper = w[np.arange(taxon.size), taxon]
        checks = []
        for j in range(w.shape[1]):
            start, stop = np.searchsorted(taxon, [j, j + 1])
            checks.append(_below_observed(w[:start, j], upper[:start], ties=True))
            checks.append(_below_observed(w[stop:, j], upper[stop:], ties=False))
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

    @pytest.mark.parametrize("observed, first_max", [(0, True), (1, False)])
    def test_ties_drawn_by_update_W(self, observed, first_max):
        # next to 1e17 doubles are 16 apart, so every draw rounds onto the
        # field and each rival draw ties its tree's observed draw
        n = 50
        state = LatentState(alpha=np.full((1, 2), 1e17), others_max=np.full(n, 1e17),
                            tree_cell=np.zeros(n, dtype=np.int64),
                            tree_taxon=np.full(n, observed, dtype=np.int64))
        draws = LatentDraws(state)
        assert update_W(state, draws, np.random.default_rng(0)) == first_max
        w = draws.township.T
        assert np.all(w == 1e17)
        assert reference_argmax_consistent(MatrixState(None, w, None, state.tree_taxon)) == first_max


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


def stored_positions(townships):
    """Where the chain stores each township tree, in township order: it
    keeps them taxon-major, ordered by label and then by township order."""
    labels = np.concatenate([np.zeros(0, np.int64), *townships.taxon_labels])
    order = sorted(range(labels.size), key=lambda i: (labels[i], i))
    where = np.empty(labels.size, dtype=np.int64)
    where[order] = np.arange(labels.size)
    return where


def reference_update_memberships(state, w, townships, rng):
    """The per-township membership draw that update_memberships replaced,
    given the township trees' normals w (trees, P) as the chain stores
    them: one generator call for every tree's uniform in stored order,
    then one (trees, k) block per township, dot products through matmul."""
    where = stored_positions(townships)
    uniforms = rng.random(where.size)
    pos = 0
    for overlap, labels in zip(townships.overlaps, townships.taxon_labels):
        nt = labels.size
        at = where[pos : pos + nt]
        wt = w[at]
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
        choice = np.minimum((cdf < uniforms[at, None]).sum(axis=1), overlap.cells.size - 1)
        state.tree_cell[state.n_gridded + at] = overlap.cells[choice]
        pos += nt


def reference_slots(townships, n_cells, state):
    """Each township tree's tally slot found the former way: by binary
    search over the sorted keys township * n_cells + cell."""
    towns = np.arange(len(townships.overlaps))
    sizes = [ov.cells.size for ov in townships.overlaps]
    n_trees = [labels.size for labels in townships.taxon_labels]
    cells = np.concatenate([ov.cells for ov in townships.overlaps])
    keys = np.repeat(towns, sizes) * n_cells + cells
    base = np.empty(sum(n_trees), dtype=np.int64)
    base[stored_positions(townships)] = np.repeat(towns, n_trees) * n_cells
    return np.searchsorted(keys, base + state.tree_cell[state.n_gridded :])


def random_townships(data, p):
    """A state with gridded trees followed by township trees, over drawn
    support sizes, tree counts, fields and overlap weights."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sizes = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=6), label="sizes")
    n_trees = [data.draw(st.integers(1, 80), label="trees") for _ in sizes]
    n_gridded = data.draw(st.integers(1, 20), label="n_gridded")
    scale = data.draw(st.sampled_from([0.1, 1.0, 3.0]), label="field scale")
    return township_state(rng, 40, p, sizes, n_trees, n_gridded, scale)


def township_state(rng, m, p, sizes, n_trees, n_gridded, scale):
    """n_gridded gridded trees on m cells followed by the trees of one
    township per entry of sizes (its support size) and n_trees, with a
    field of the given scale and random overlap weights; make_state
    stores the township trees as the chain does. Returns the state, the
    township trees' normals (P, trees) and the TownshipTrees."""
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
    in the same order as the reference. Its dot products may differ from
    matmul's, and its normalizers from the reference's row sums, in the
    last place, which moves no draw here."""

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

    @pytest.mark.parametrize("k", [*range(1, 21), 127, 128, 129, 200, 300])
    def test_support_of_k_cells(self, k):
        # the chain sums each normalizer over the k rows in order; numpy's
        # row sum in the reference adds eight interleaved partial sums from
        # k = 8 on and splits pairwise past 128
        rng = np.random.default_rng(k)
        state, township_w, townships = township_state(rng, k + 10, 3, [k, k], [150, 250], 5, 0.5)
        ref = copy_state(state)
        rng_new, rng_ref = np.random.default_rng(2), np.random.default_rng(2)
        slot = update_memberships(state, township_w, TownshipLayout(townships), rng_new)
        reference_update_memberships(ref, township_w.T, townships, rng_ref)
        assert np.array_equal(state.tree_cell, ref.tree_cell)
        assert np.array_equal(slot, reference_slots(townships, state.alpha.shape[0], state))
        assert rng_new.random() == rng_ref.random()
        if k > 1:  # the draws spread over the support
            assert np.unique(state.tree_cell[state.n_gridded :]).size > 1

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

    def test_degenerate_tree_named_in_township_order_when_stored_by_taxon(self):
        # stored by taxon: A1, B0 | A0, A2, B1. B0 is stored before A2, but
        # A2 comes first in township order
        taxa = TaxonRegistry(names=("a", "b"))
        overlaps = [TownshipOverlap("A", cells=np.arange(2), weights=np.full(2, 0.5)),
                    TownshipOverlap("B", cells=np.arange(3), weights=np.full(3, 1 / 3))]
        labels = [np.array([1, 0, 1]), np.array([0, 1])]
        townships = TownshipTrees(taxa=taxa, overlaps=overlaps, taxon_labels=labels)
        layout = TownshipLayout(townships)
        assert np.array_equal(layout.labels, [0, 0, 1, 1, 1])
        assert np.array_equal(layout.order, [1, 3, 0, 2, 4])
        state = LatentState(alpha=np.zeros((3, 2)), others_max=np.zeros(5),
                            tree_cell=np.zeros(5, dtype=np.int64), tree_taxon=layout.labels)
        township_w = np.zeros((2, 5))
        township_w[:, [1, 3]] = np.nan  # B0 and A2
        with pytest.raises(NumericalError) as want, np.errstate(all="ignore"):
            reference_update_memberships(copy_state(state), township_w.T, townships,
                                         np.random.default_rng(0))
        with pytest.raises(NumericalError) as got:
            update_memberships(state, township_w, layout, np.random.default_rng(0))
        assert str(got.value) == str(want.value)
        assert "tree 2 of township A" in str(got.value)

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


def first_support_cells(townships):
    """Each township tree's first support cell, as the chain stores the
    trees."""
    cells = np.empty(sum(lab.size for lab in townships.taxon_labels), dtype=np.int64)
    cells[stored_positions(townships)] = np.repeat(
        [ov.cells[0] for ov in townships.overlaps], [lab.size for lab in townships.taxon_labels])
    return cells


def reference_init_state(dataset, layout):
    """_init_state on the (trees x P) matrix, with the trees stored
    taxon-major in each section: a zero field, every rival normal at
    -inf and every observed one 0, and each township tree on its
    township's first support cell."""
    p = dataset.taxa.n_taxa
    counts = dataset.cell_counts.counts
    cells, taxa = np.indices(counts.shape).reshape(2, -1)
    cell, taxon = taxon_major(np.repeat(cells, counts.ravel()), np.repeat(taxa, counts.ravel()), 0)
    n_gridded = cell.size
    if layout is not None:
        labels = np.empty(layout.n_trees, dtype=np.int64)
        labels[stored_positions(dataset.townships)] = np.concatenate(dataset.townships.taxon_labels)
        cell = np.concatenate([cell, first_support_cells(dataset.townships)])
        taxon = np.concatenate([taxon, labels])
    w = np.full((cell.size, p), -np.inf)
    w[np.arange(cell.size), taxon] = 0.0
    return MatrixState(np.zeros((dataset.grid.n_cells, p)), w, cell.astype(np.int64),
                       taxon.astype(np.int64), n_gridded)


def matrix_chain(monkeypatch, n_cells):
    """Make _Chain run on the (trees x P) matrix: the reference start,
    latent update, argmax check and sufficient statistics, with the
    matrix state standing in for the chain's LatentDraws."""

    def update(state, draws, rng):
        reference_update_W(state, rng)
        return reference_argmax_consistent(state)

    monkeypatch.setattr(sampler, "_init_state", reference_init_state)
    monkeypatch.setattr(sampler, "LatentDraws", lambda state: state)
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


class TestFactorCache:
    """The chain factors A + Q_p once per taxon for its current state and
    once per proposal. Under the default bounds every car proposal is in
    bounds, so each sweep factors P proposals. The current states are
    factored in the first sweep and, with townships, in every sweep, as
    the membership draw changes A; on gridded data the factor a scale
    move keeps serves the next sweep."""

    @pytest.mark.parametrize(
        "case, per_sweep",
        [(car_case, 1), (lambda: township_case(4, 2, 3), 2)],
        ids=["gridded", "townships"],
    )
    def test_factorizations_per_sweep(self, case, per_sweep):
        ds, kind = case()
        p = ds.taxa.n_taxa
        chain = _Chain(ds, SamplerConfig(n_iter=10, burn_in=5, n_retained=5, seed=3,
                                         model_kind=kind))
        counts = []
        with mock.patch.object(prec, "factorize_prepermuted",
                               wraps=prec.factorize_prepermuted) as factorize:
            for _ in range(6):
                before = factorize.call_count
                chain.sweep()
                counts.append(factorize.call_count - before)
        assert counts == [2 * p] + [per_sweep * p] * 5

    def test_township_chain_caches_no_other_taxons_factor(self, monkeypatch):
        # each taxon's factor is dropped after its field draw, so a scale
        # move finds every other slot empty
        ds, kind = township_case(4, 2, 3)
        chain = _Chain(ds, SamplerConfig(n_iter=10, burn_in=5, n_retained=5, seed=3,
                                         model_kind=kind))
        cached, update_scale_fn = [], sampler._update_scale

        def update_scale(chain, p, prop):
            cached.append([q for q, f in enumerate(chain.factors) if q != p and f is not None])
            return update_scale_fn(chain, p, prop)

        monkeypatch.setattr(sampler, "_update_scale", update_scale)
        for _ in range(4):
            chain.sweep()
        assert cached == [[]] * (4 * ds.taxa.n_taxa)
        assert chain.factors == [None] * ds.taxa.n_taxa


class TestChainStart:
    @pytest.mark.parametrize("case", [car_case, spde_buffer_case, township_case],
                             ids=["car", "spde-buffer", "townships"])
    def test_start_draws_nothing(self, case):
        ds, kind = case()
        chain = _Chain(ds, SamplerConfig(n_iter=10, burn_in=5, n_retained=5, seed=11,
                                         model_kind=kind))
        assert chain.rng.bit_generator.state == np.random.default_rng(11).bit_generator.state
        assert np.all(chain.state.others_max == -np.inf)
        assert not chain.state.alpha.any()

    def test_township_trees_start_on_their_first_support_cell(self):
        ds, kind = township_case(6, 3, 3)
        chain = _Chain(ds, SamplerConfig(n_iter=10, burn_in=5, n_retained=5, model_kind=kind))
        assert np.array_equal(chain.state.tree_cell[chain.state.n_gridded :],
                              first_support_cells(ds.townships))


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

    @pytest.mark.parametrize("n_gridded", [0, 1, 300])
    @pytest.mark.parametrize("n_township", [0, 1, 500])
    def test_matches_matrix_reference(self, n_gridded, n_township):
        # 12 cells, so the small cases leave cells empty; the township
        # trees move between the two calls
        rng = np.random.default_rng(10 * n_gridded + n_township)
        m, p, n = 12, 3, n_gridded + n_township
        w = rng.standard_normal((n, p))
        cells = rng.integers(0, m, n)
        state = LatentState(alpha=np.zeros((m, p)), others_max=np.zeros(n), tree_cell=cells,
                            tree_taxon=np.zeros(n, dtype=np.int64), n_gridded=n_gridded)
        draws = LatentDraws(state)
        for j in range(p):
            draws.grid_sums[j] = np.bincount(cells[:n_gridded], weights=w[:n_gridded, j],
                                             minlength=m)
        draws.township[:] = w[n_gridded:].T
        grid_sums = draws.grid_sums.copy()
        for _ in range(2):
            stats = compute_sufficient_stats(state, draws)
            want = reference_sufficient_stats(MatrixState(state.alpha, w, cells, None, n_gridded), m)
            assert np.array_equal(stats.a_diag, want.a_diag)
            assert np.array_equal(bits(stats.wbar), bits(want.wbar))
            assert np.array_equal(draws.grid_sums, grid_sums)
            cells[n_gridded:] = rng.integers(0, m, n_township)


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
