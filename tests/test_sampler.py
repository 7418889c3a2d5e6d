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
    SamplerConfig,
    SufficientStats,
    TownshipLayout,
    _Chain,
    _init_township_cells,
    _marginal,
    _mh_accept,
    _restore_checkpoint,
    _row_order_sum,
    _std_trunc_lower,
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


def make_state(alpha, cells, taxa, rng, n_gridded=None):
    cells = np.asarray(cells, dtype=np.int64)
    taxa_arr = np.asarray(taxa, dtype=np.int64)
    n, p = cells.size, alpha.shape[1]
    state = LatentState(
        alpha=alpha,
        w=alpha[cells] + rng.standard_normal((n, p)),
        tree_cell=cells,
        tree_taxon=taxa_arr,
        n_gridded=cells.size if n_gridded is None else n_gridded,
    )
    update_W(state, rng)
    return state


class TestUpdateW:
    def test_truncation_direction(self):
        rng = np.random.default_rng(0)
        alpha = np.zeros((1, 2))
        state = make_state(alpha, [0] * 4000, [0] * 4000, rng)
        diffs = []
        for _ in range(5):
            update_W(state, rng)
            diffs.append((state.w[:, 0] - state.w[:, 1]).mean())
        assert np.mean(diffs) > 0

    def test_argmax_consistency(self):
        rng = np.random.default_rng(1)
        alpha = rng.standard_normal((6, 4))
        cells = rng.integers(0, 6, size=300)
        labels = rng.integers(0, 4, size=300)
        state = make_state(alpha, cells, labels, rng)
        for _ in range(10):
            update_W(state, rng)
            assert state.argmax_consistent()

    def test_single_taxon_untruncated(self):
        rng = np.random.default_rng(2)
        alpha = np.full((1, 1), 0.7)
        state = make_state(alpha, [0] * 50_000, [0] * 50_000, rng)
        update_W(state, rng)
        assert abs(state.w.mean() - 0.7) < 0.02
        assert abs(state.w.std() - 1.0) < 0.02

    def test_observed_taxon_mean_with_fixed_rivals(self):
        # freeze rival components at 3.0: the observed draw is TN(3, inf, 0, 1)
        rng = np.random.default_rng(3)
        n = 200_000
        state = LatentState(
            alpha=np.zeros((1, 2)),
            w=np.column_stack([np.full(n, 10.0), np.full(n, 3.0)]),
            tree_cell=np.zeros(n, dtype=np.int64),
            tree_taxon=np.zeros(n, dtype=np.int64),
        )
        masked = state.w.copy()
        masked[:, 0] = -np.inf
        lower = masked.max(axis=1)
        draws = truncnorm_lower(rng, lower, 0.0)
        assert abs(draws.mean() - 3.2831) < 4e-3


def reference_std_trunc_lower(rng, a, size=None):
    """The standard truncated draw as first written, with nextafter on
    every entry: the oracle for the in-place version."""
    a = np.asarray(a, dtype=float)
    shape = a.shape if size is None else size
    u = rng.random(shape)
    tail = (1.0 - u) * ndtr(-a)
    z = -ndtri(np.fmax(tail, 1e-320))
    return np.maximum(z, np.nextafter(a, np.inf))


def reference_update_W(state, rng):
    """update_W as first written, with (trees x P) temporaries: the gathered
    alpha_tree, a masked copy of w and boolean selections per taxon. The
    column-by-column version must match it bit for bit."""
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


def bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


class FixedUniforms:
    """Stands in for a Generator whose random(shape) returns chosen uniforms,
    so the draw can be driven onto its edge cases (u = 0, u next to 1)."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        return np.broadcast_to(self.u, shape).copy()


class TestStdTruncLowerMatchesReference:
    def assert_same(self, a, size=None, seed=0):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _std_trunc_lower(rng_new, a, size=size)
        want = reference_std_trunc_lower(rng_ref, a, size=size)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        return got

    def test_random_bounds(self):
        a = 3.0 * np.random.default_rng(5).standard_normal(20_000)
        self.assert_same(a, seed=1)

    def test_bounds_past_the_tail_floor(self):
        # ndtr(-a) underflows to 0 from a = 38, so the tail is clamped to
        # 1e-320 and z = -ndtri(1e-320) = 38.27; past that, every draw is a tie
        near = np.repeat([38.0, 38.1, 38.2], 1000)
        self.assert_same(near, seed=2)
        far = np.repeat([38.3, 40.0, 1e3, 1e300], 1000)
        z = self.assert_same(far, seed=3)
        assert np.array_equal(bits(z), bits(np.nextafter(far, np.inf)))

    def test_infinite_and_nan_bounds(self):
        a = np.tile([np.inf, -np.inf, np.nan, 0.0, -0.0, -5e-324, 5e-324], 500)
        z = self.assert_same(a, seed=4)
        assert np.all(z[0::7] == np.inf)
        assert np.all(np.isnan(z[2::7]))

    def test_edge_uniforms_with_broadcast_bounds(self):
        # u = 0 gives z = -inf at a = -inf and z = -0.0 at a = 0
        u = [0.0, 0.5, np.nextafter(1.0, 0.0)]
        a = np.array([-np.inf, -1e300, -5e-324, -0.0, 0.0, 5e-324, 1.0, 38.5, np.inf, np.nan])
        got = _std_trunc_lower(FixedUniforms(u), a[:, None], size=(a.size, len(u)))
        want = reference_std_trunc_lower(FixedUniforms(u), a[:, None], size=(a.size, len(u)))
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("size", [1000, (20, 30)])
    def test_scalar_bound_with_size(self, size):
        z = self.assert_same(1.5, size=size, seed=6)
        assert z.shape == np.empty(size).shape and z.min() > 1.5


def random_state(seed, m, n, p, n_labels, n_gridded=None):
    rng = np.random.default_rng(seed)
    alpha = 2.0 * rng.standard_normal((m, p))
    return make_state(alpha, rng.integers(0, m, n), rng.integers(0, n_labels, n), rng, n_gridded)


def copy_state(state, order="C"):
    return LatentState(alpha=state.alpha.copy(), w=np.array(state.w, order=order),
                       tree_cell=state.tree_cell.copy(), tree_taxon=state.tree_taxon.copy(),
                       n_gridded=state.n_gridded)


class TestUpdateWMatchesReference:
    """The column-by-column update_W draws the same uniforms in the same
    order and does the same float operations as the reference, so w and
    the generator state stay bit-equal sweep after sweep."""

    def run_both(self, state, sweeps, order="C", move_cells=None):
        new, ref = copy_state(state, order), copy_state(state)
        w_new = new.w
        rng_new, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(sweeps):
            update_W(new, rng_new)
            reference_update_W(ref, rng_ref)
            assert new.w is w_new  # written in place, whatever the memory order
            assert np.array_equal(bits(new.w), bits(ref.w))
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
            assert new.argmax_consistent()
            if move_cells is not None:
                new.tree_cell[:] = ref.tree_cell[:] = move_cells(ref)

    @pytest.mark.parametrize("p, n_labels", [(1, 1), (2, 2), (2, 1), (5, 5), (22, 15)])
    def test_gridded(self, p, n_labels):
        # n_labels < p leaves taxa that no tree observes; (2, 1) leaves the
        # observed taxon with no rival draws at all
        state = random_state(p, 9, 2000, p, n_labels)
        self.run_both(state, sweeps=4)

    def test_township_cells_move_between_sweeps(self):
        state = random_state(7, 16, 3000, 5, 5, n_gridded=2000)
        moves = np.random.default_rng(8)

        def move_cells(s):
            cells = s.tree_cell.copy()
            cells[s.n_gridded:] = moves.integers(0, 16, s.w.shape[0] - s.n_gridded)
            return cells

        self.run_both(state, sweeps=5, move_cells=move_cells)

    @pytest.mark.parametrize("p", [2, 5])
    def test_fortran_ordered_w(self, p):
        state = random_state(9, 9, 2000, p, p)
        self.run_both(state, sweeps=3, order="F")


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
        prop = chain.proposals["sigma"]
        assert prop.frozen.all()
        assert np.array_equal(prop.batches, [0, 0])
        assert np.array_equal(prop.log_scale, np.log([0.5, 0.5]))


def one_township(alpha, cells, weights, n_trees, w=0.0):
    """A single-taxon state whose n_trees trees all sit in one township."""
    taxa = TaxonRegistry(names=("a",))
    overlap = TownshipOverlap("t", cells=np.array(cells), weights=np.array(weights))
    townships = TownshipTrees(
        taxa=taxa, overlaps=[overlap], taxon_labels=[np.zeros(n_trees, dtype=int)]
    )
    state = LatentState(
        alpha=np.asarray(alpha, dtype=float),
        w=np.full((n_trees, 1), w),
        tree_cell=np.full(n_trees, cells[-1], dtype=np.int64),
        tree_taxon=np.zeros(n_trees, dtype=np.int64),
        n_gridded=0,
    )
    return state, TownshipLayout(townships)


class TestMemberships:
    def test_probabilities_hand_computed(self):
        # P=1, W=0, alpha = (0, 1): probs prop to (1, e^-1/2) = (0.6225, 0.3775);
        # the binomial sd of the frequency over 40000 trees is 0.0024
        state, layout = one_township([[0.0], [1.0]], [0, 1], [0.5, 0.5], 40_000)
        update_memberships(state, layout, np.random.default_rng(2))
        assert abs((state.tree_cell == 0).mean() - 0.62245933) < 0.01

    def test_point_mass_prior(self):
        # a 1e-300 prior weight outweighs the likelihood ratio e^1/2 toward cell 1
        state, layout = one_township([[0.0], [1.0]], [0, 1], [1.0, 1e-300], 10_000, w=1.0)
        update_memberships(state, layout, np.random.default_rng(3))
        assert np.all(state.tree_cell == 0)

    def test_symmetric_cells_sample_evenly(self):
        state, layout = one_township(np.zeros((2, 1)), [0, 1], [0.5, 0.5], 4000)
        update_memberships(state, layout, np.random.default_rng(0))
        frac = (state.tree_cell == 0).mean()
        assert abs(frac - 0.5) < 0.03

    def test_forced_cell(self):
        state, layout = one_township(np.zeros((6, 1)), [3, 5], [1.0, 1e-300], 100)
        update_memberships(state, layout, np.random.default_rng(1))
        assert np.all(state.tree_cell == 3)


def reference_update_memberships(state, townships, rng):
    """The per-township membership draw that update_memberships replaced:
    one generator call and one (trees, k) block per township, dot products
    through matmul."""
    pos = state.n_gridded
    for overlap, labels in zip(townships.overlaps, townships.taxon_labels):
        nt = labels.size
        wt = state.w[pos : pos + nt]
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
        state.tree_cell[pos : pos + nt] = overlap.cells[choice]
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
    state = make_state(scale * rng.standard_normal((m, p)), cells, tree_taxon, rng, n_gridded)
    return state, townships


class TestMembershipsMatchReference:
    """Grouped by support size, update_memberships draws the same uniforms
    in the same order and sums each normalizer in the reference's order;
    only its dot products may differ from matmul's in the last place."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([1, 2, 5, 22]), chunk=st.sampled_from([4096, 7]))
    def test_random_townships(self, data, p, chunk):
        state, townships = random_townships(data, p)
        ref = copy_state(state)
        rng_new, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        with mock.patch.object(sampler, "_MEMBERSHIP_CHUNK", chunk):
            slot = update_memberships(state, TownshipLayout(townships), rng_new)
        reference_update_memberships(ref, townships, rng_ref)
        assert np.array_equal(state.tree_cell, ref.tree_cell)
        assert np.array_equal(slot, reference_slots(townships, state.alpha.shape[0], state))
        assert rng_new.random() == rng_ref.random()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([4096, 7]))
    def test_initial_placement(self, data, chunk):
        _, townships = random_townships(data, 2)
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
        state = LatentState(alpha=np.zeros((7, 2)), w=np.zeros((n, 2)),
                            tree_cell=np.zeros(n, dtype=np.int64),
                            tree_taxon=np.zeros(n, dtype=np.int64), n_gridded=3)
        state.w[3 + 6 + 4] = np.nan  # B, tree 4
        state.w[3 + 6 + 7 + 1] = np.inf  # C, tree 1
        state.w[3 + 6 + 7 + 5] = np.nan  # D, tree 0
        with pytest.raises(NumericalError) as want:
            reference_update_memberships(copy_state(state), townships, np.random.default_rng(0))
        assert "tree 4 of township B" in str(want.value)
        with pytest.raises(NumericalError) as got:
            update_memberships(state, TownshipLayout(townships), np.random.default_rng(0))
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

        def reference(state, layout, rng):
            reference_update_memberships(state, ds.townships, rng)
            return reference_slots(ds.townships, grid.n_cells, state)

        monkeypatch.setattr(sampler, "update_memberships", reference)
        ref_samples, ref_diags = run_chain(ds, cfg)
        assert samples.theta.tobytes() == ref_samples.theta.tobytes()
        assert len(diags.membership_freq) == len(ds.townships.overlaps)
        for got, want in zip(diags.membership_freq, ref_diags.membership_freq):
            assert got.tobytes() == want.tobytes()


class TestSufficientStats:
    def test_counts_and_means(self):
        state = LatentState(
            alpha=np.zeros((3, 2)),
            w=np.array([[1.0, 0.0], [3.0, 2.0], [5.0, -2.0]]),
            tree_cell=np.array([0, 0, 2]),
            tree_taxon=np.array([0, 0, 1]),
        )
        stats = compute_sufficient_stats(state, 3)
        assert np.array_equal(stats.a_diag, [2.0, 0.0, 1.0])
        assert np.allclose(stats.wbar[0], [2.0, 1.0])
        assert np.array_equal(stats.wbar[1], [0.0, 0.0])
        assert stats.a_diag.sum() == state.w.shape[0]


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


def spde_buffer_case():
    # a buffer ring and a nonzero location exercise the 2-D proposal's
    # running moments and the mu / rho traces
    grid = build_grid(4, 4, 1)
    taxa = TaxonRegistry(names=("a", "b", "c"))
    ds, _, _ = simulate_dataset(
        grid, taxa, "spde", np.random.default_rng(4), mu=0.8, rho=3.0, trees_per_cell=8
    )
    return ds, "spde"


def township_case():
    grid = build_grid(4, 4, 0)
    taxa = TaxonRegistry(names=("a", "b"))
    ds, _, _ = simulate_dataset(
        grid, taxa, "car", np.random.default_rng(5), trees_per_cell=6, township_block=2
    )
    return ds, "car"


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
