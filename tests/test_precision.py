import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky_banded
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from gridcomp.domain_grid import build_grid
from gridcomp.errors import InvalidArgumentError, NumericalError
from gridcomp.model_core import Hyperpriors
from gridcomp.precision import (
    SpatialPrior,
    band_depth,
    build_car_structure,
    build_spde_structure,
    factorize_prepermuted,
    fill_reducing_permutation,
    logdet,
    q_scale,
    quadratic_form,
    sample_gaussian,
    solve,
)
from gridcomp.sampler import _marginal


def car_q(nx, ny):
    return build_car_structure(build_grid(nx, ny, 0))


def spde_q(nx, ny, rho):
    return build_spde_structure(build_grid(nx, ny, 0), rho)


class TestCarStructure:
    def test_1x2(self):
        q = car_q(2, 1).toarray()
        assert np.array_equal(q, [[1.0, -1.0], [-1.0, 1.0]])

    def test_2x2(self):
        q = car_q(2, 2).toarray()
        assert np.array_equal(np.diag(q), [2.0, 2.0, 2.0, 2.0])
        assert np.all((q + np.diag([3, 3, 3, 3])).sum(axis=1) >= 0)
        for row in q:
            assert np.sum(row == -1.0) == 2

    def test_3x3_center_row(self):
        q = car_q(3, 3).toarray()
        center = 4
        assert q[center, center] == 4.0
        assert np.sum(q[center] == -1.0) == 4
        assert q[center].sum() == 0.0

    def test_zero_row_sums_exact_and_symmetry(self):
        q = car_q(7, 5)
        assert np.all(np.asarray(q.sum(axis=1)).ravel() == 0.0)
        assert (q != q.T).nnz == 0

    def test_rank_deficiency_one(self):
        q = car_q(5, 4).toarray()
        evals = np.linalg.eigvalsh(q)
        assert abs(evals[0]) < 1e-10
        assert evals[1] > 0


class TestSpdeStructure:
    def test_rho_one_stencil_values(self):
        # a = 4 + 1 = 5: diagonal 29, cardinal -10, diagonal-neighbor 2, 2nd-order 1
        q = spde_q(5, 5, 1.0).toarray()
        center = 12
        assert q[center, center] == 29.0
        assert q[center, center + 1] == -10.0
        assert q[center, center + 6] == 2.0  # (+1, +1) neighbor
        assert q[center, center + 2] == 1.0
        assert (spde_q(5, 5, 1.0) != spde_q(5, 5, 1.0).T).nnz == 0

    def test_large_rho_limit(self):
        # a -> 4: diagonal -> 20, cardinal -> -8
        q = spde_q(5, 5, 1e9).toarray()
        center = 12
        assert abs(q[center, center] - 20.0) < 1e-8
        assert abs(q[center, center + 1] + 8.0) < 1e-8

    def test_positive_definite_6x6(self):
        for rho in (0.05, 0.7, 13.0):
            evals = np.linalg.eigvalsh(spde_q(6, 6, rho).toarray())
            assert evals[0] > 0

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0, float(np.exp(5.0))])
    def test_positive_definite_up_to_10x10(self, rho):
        evals = np.linalg.eigvalsh(spde_q(10, 10, rho).toarray())
        assert evals[0] > 0

    def test_invalid_rho(self):
        with pytest.raises(InvalidArgumentError):
            build_spde_structure(build_grid(3, 3, 0), 0.0)


RHO_LOWER, RHO_UPPER = Hyperpriors().rho_lower, Hyperpriors().rho_upper

# The neighbor classes of the module docstring, as offsets (drow, dcol)
CARDINAL = [(0, 1), (0, -1), (1, 0), (-1, 0)]
DIAGONAL = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
SECOND_ORDER = [(0, 2), (0, -2), (2, 0), (-2, 0)]


def dense_stencil(grid, rho=None):
    """The structure matrix filled cell by cell from the module
    docstring: car (rho None) is -1 per cardinal neighbor and the
    degree on the diagonal; spde is (4 + a^2, -2a, 2, 1) on the
    diagonal and the three classes, a = 4 + 1/rho^2."""
    h, w = grid.height, grid.width
    if rho is None:
        classes = [(CARDINAL, -1.0)]
    else:
        a = 4.0 + 1.0 / rho**2
        classes = [(CARDINAL, -2.0 * a), (DIAGONAL, 2.0), (SECOND_ORDER, 1.0)]
    q = np.zeros((h * w, h * w))
    for r in range(h):
        for c in range(w):
            i = r * w + c
            for offsets, value in classes:
                for dr, dc in offsets:
                    if 0 <= r + dr < h and 0 <= c + dc < w:
                        q[i, (r + dr) * w + c + dc] = value
            q[i, i] = -q[i].sum() if rho is None else 4.0 + a * a
    return q


class TestStencilOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(1, 7),
        ny=st.integers(1, 7),
        buffer=st.integers(0, 2),
        log_rho=st.floats(float(np.log(RHO_LOWER)), float(np.log(RHO_UPPER))),
    )
    @example(nx=1, ny=1, buffer=0, log_rho=0.0)
    @example(nx=2, ny=2, buffer=0, log_rho=0.0)
    @example(nx=3, ny=3, buffer=0, log_rho=0.0)
    @example(nx=4, ny=3, buffer=2, log_rho=0.0)
    @example(nx=5, ny=5, buffer=0, log_rho=0.0)
    def test_structures_match_the_definition(self, nx, ny, buffer, log_rho):
        grid = build_grid(nx, ny, buffer)
        rho = float(np.exp(log_rho))
        car = build_car_structure(grid).toarray()
        spde = build_spde_structure(grid, rho).toarray()
        assert np.array_equal(car, dense_stencil(grid))
        assert np.array_equal(spde, dense_stencil(grid, rho))
        # symmetric, and the degrees sum to twice the cardinal pairs
        assert np.array_equal(car, car.T) and np.array_equal(spde, spde.T)
        assert np.trace(car) == np.count_nonzero(car == -1.0) == 2 * (
            (grid.height - 1) * grid.width + grid.height * (grid.width - 1))
        # corner, edge and centre degrees
        degree = np.diag(car).reshape(grid.height, grid.width)
        if grid.height > 1 and grid.width > 2:
            assert degree[0, 0] == 2 and degree[0, 1] == 3
        if grid.height > 2 and grid.width > 2:
            assert degree[1, 1] == 4
        if grid.height > 4 and grid.width > 4:
            assert np.count_nonzero(spde[grid.index(2, 2)]) == 13
        # the buffered lattice's core couples its cells as the bare core does
        core = grid.core_cells()
        bare = build_car_structure(build_grid(nx, ny, 0)).toarray()
        off = ~np.eye(core.size, dtype=bool)
        assert np.array_equal(car[np.ix_(core, core)][off], bare[off])


class TestClosedFormStructureLogdet:
    # structure_logdet uses Q = K^2 + D and the DST spectrum of K; the
    # oracles factor or densify the stencil matrix itself

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
        buffer=st.integers(0, 4),
        log_rho=st.floats(float(np.log(RHO_LOWER)), float(np.log(RHO_UPPER))),
    )
    def test_matches_sparse_factorization(self, nx, ny, buffer, log_rho):
        grid = build_grid(nx, ny, buffer)
        rho = float(np.exp(log_rho))
        q = build_spde_structure(grid, rho)
        oracle = logdet(factorize_in_order(q, fill_reducing_permutation(grid.height, grid.width)))
        ours = SpatialPrior.from_grid("spde", grid).structure_logdet(rho)
        assert abs(ours - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize(
        "shape", [(1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 6, 0), (6, 1, 0), (2, 2, 0),
                  (2, 7, 0), (3, 1, 1), (7, 5, 2)]
    )
    @pytest.mark.parametrize("rho", [RHO_LOWER, 0.3, 2.0, 50.0, RHO_UPPER])
    def test_thin_and_small_lattices_match_dense(self, shape, rho):
        grid = build_grid(*shape)
        sign, oracle = np.linalg.slogdet(build_spde_structure(grid, rho).toarray())
        assert sign == 1.0
        ours = SpatialPrior.from_grid("spde", grid).structure_logdet(rho)
        assert abs(ours - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize(
        "shape", [(3, 4, 0), (4, 3, 0), (5, 5, 0), (8, 9, 1)] + [(3, n, 0) for n in range(1, 8)]
    )
    @pytest.mark.parametrize("rho", [RHO_LOWER, 1.0, 20.0, RHO_UPPER])
    def test_even_and_odd_sides_match_dense(self, shape, rho):
        # every pairing of even and odd sides fills the four reflection
        # sectors differently
        grid = build_grid(*shape)
        sign, oracle = np.linalg.slogdet(build_spde_structure(grid, rho).toarray())
        assert sign == 1.0
        ours = SpatialPrior.from_grid("spde", grid).structure_logdet(rho)
        assert abs(ours - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("shape", [(1, 1, 0), (2, 1, 0), (1, 2, 0), (2, 2, 0), (3, 1, 0),
                                       (3, 4, 0), (4, 3, 0), (5, 5, 0), (8, 9, 1), (40, 40, 4)])
    def test_sectors_split_the_boundary(self, shape):
        # the sector blocks together have one row per boundary cell: at
        # most four blocks, each at most a quarter of the boundary plus two
        grid = build_grid(*shape)
        degree = build_car_structure(grid).diagonal()
        widths = [f.shape[1] + g.shape[1]
                  for _, _, _, f, g, _, _ in SpatialPrior.from_grid("spde", grid).spde_logdet.sectors]
        assert sum(widths) == np.count_nonzero(degree < 4)
        assert len(widths) <= 4
        assert max(widths) <= (grid.height + grid.width + 2) // 2

    @pytest.mark.filterwarnings("ignore:invalid value encountered in slogdet")
    def test_invalid_rho(self):
        prior = SpatialPrior.from_grid("spde", build_grid(3, 2, 1))
        for rho in (0.0, -1.0):
            with pytest.raises(InvalidArgumentError):
                prior.structure_logdet(rho)
        with pytest.raises(NumericalError):
            prior.structure_logdet(float("nan"))


def assert_factors(prior, dense, *args):
    """prior.conditional_factor(*args) factors the dense matrix A + Q_p."""
    f = prior.conditional_factor(*args)
    eye = np.eye(dense.shape[0])
    inverse = np.column_stack([solve(f, e) for e in eye])
    assert np.allclose(dense @ inverse, eye, rtol=0, atol=1e-10)
    assert abs(logdet(f) - np.linalg.slogdet(dense)[1]) < 1e-10


class TestEffectivePrecision:
    def test_car_unit_sigma_identity(self):
        prior = SpatialPrior.from_grid("car", build_grid(2, 1, 0))
        assert q_scale("car", 1.0) == 1.0
        a_diag = np.array([1.0, 2.0])
        assert_factors(prior, car_q(2, 1).toarray() + np.diag(a_diag), 1.0, a_diag)

    def test_car_scalar_scaling(self):
        prior = SpatialPrior.from_grid("car", build_grid(2, 1, 0))
        a_diag = np.array([1.0, 0.0])
        dense = np.array([[0.25, -0.25], [-0.25, 0.25]]) + np.diag(a_diag)
        assert_factors(prior, dense, 4.0, a_diag)

    def test_spde_scaling(self):
        prior = SpatialPrior.from_grid("spde", build_grid(5, 5, 0))
        scale = q_scale("spde", 1.0, 1.0)
        assert abs(29.0 * scale - 29.0 / (4.0 * np.pi)) < 1e-12
        assert abs(29.0 * scale - 2.3077) < 5e-4
        assert_factors(prior, spde_q(5, 5, 1.0).toarray() * scale, 1.0, np.zeros(25), 1.0)
        assert_factors(
            prior, spde_q(5, 5, 3.0).toarray() * q_scale("spde", 2.0, 3.0), 2.0, np.zeros(25), 3.0
        )

    def test_sigma_validation(self):
        car = SpatialPrior.from_grid("car", build_grid(2, 1, 0))
        with pytest.raises(InvalidArgumentError):
            car.conditional_factor(0.0, np.ones(2))
        spde = SpatialPrior.from_grid("spde", build_grid(3, 3, 0))
        for sigma2, rho in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)]:
            with pytest.raises(InvalidArgumentError):
                spde.conditional_factor(sigma2, np.ones(9), rho)
            with pytest.raises(InvalidArgumentError):
                spde.qp_rowsum(sigma2, rho)
        with pytest.raises(InvalidArgumentError):
            spde.structure_logdet(0.0)

    def test_qp_rowsum_of_structure_priors(self):
        # Q_p @ 1 is the structure's row sums times q_scale: zero for the
        # intrinsic car structure, and the dense row sums over sigma2 for
        # an explicit structure
        car = SpatialPrior.from_grid("car", build_grid(4, 3, 0))
        assert np.array_equal(car.qp_rowsum(2.5), np.zeros(12))
        q = np.array([[3.0, -1.0, 0.5], [-1.0, 2.0, 0.0], [0.5, 0.0, 4.0]])
        prior = SpatialPrior.from_structure(sp.csc_matrix(q), 3)
        assert np.allclose(prior.qp_rowsum(2.0), q.sum(axis=1) / 2.0, rtol=1e-15, atol=0)
        with pytest.raises(InvalidArgumentError):
            prior.qp_rowsum(0.0)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(0.1, 100.0))
    def test_scaling_is_exact(self, c):
        prior = SpatialPrior.from_grid("car", build_grid(3, 3, 0))
        assert_factors(prior, car_q(3, 3).toarray() / c + np.eye(9), c, np.ones(9))


def factorize(matrix):
    """Factor of an SPD matrix through the prior object the chain runs:
    a full-rank prior on the matrix as its structure, at sigma2 = 1 and
    no data."""
    n = matrix.shape[0]
    return SpatialPrior.from_structure(sp.csc_matrix(matrix), n).conditional_factor(
        1.0, np.zeros(n)
    )


def lower_band(matrix, perm):
    """The lower band of matrix[perm][:, perm] in LAPACK order, as a
    Fortran-order ndarray: the LAPACK wrappers are handed only ndarrays."""
    lower = sp.tril(sp.csr_matrix(matrix)[perm][:, perm]).tocoo()
    band = np.zeros((int((lower.row - lower.col).max()) + 1, matrix.shape[0]), order="F")
    band[lower.row - lower.col, lower.col] = lower.data
    return band


def factorize_in_order(matrix, perm):
    """Factor of a matrix in the given row and column order."""
    return factorize_prepermuted(lower_band(matrix, perm), perm)


class TestFactorization:
    def test_identity_solve(self):
        f = factorize(sp.identity(3, format="csc"))
        assert np.array_equal(solve(f, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_logdet_diag(self):
        f = factorize(sp.diags([2.0, 2.0], format="csc"))
        assert abs(logdet(f) - 2.0 * np.log(2.0)) < 1e-12

    def test_logdet_vs_dense_oracle(self):
        q = car_q(5, 5)
        m = (q + sp.identity(25, format="csc")).tocsc()
        dense = np.linalg.slogdet(m.toarray())[1]
        f = factorize(m)
        assert abs(logdet(f) - dense) <= 1e-8 * abs(dense)

    def test_solve_residual(self):
        rng = np.random.default_rng(0)
        q = car_q(6, 4)
        m = (q + sp.diags(rng.uniform(0.5, 2.0, 24))).tocsc()
        b = rng.standard_normal(24)
        x = solve(factorize(m), b)
        assert np.abs(m @ x - b).max() <= 1e-8 * np.abs(b).max()

    def test_non_pd_raises_with_pivot(self):
        m = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NumericalError) as err:
            factorize(m)
        assert err.value.pivot_index is not None

    def test_singular_raises(self):
        with pytest.raises(NumericalError):
            factorize(car_q(2, 1))

    def test_sample_gaussian_moments(self):
        # empirical covariance over 1e5 draws within 3 MC standard errors
        rng = np.random.default_rng(42)
        m_dense = np.array([[2.0, -0.5, 0.0], [-0.5, 1.5, -0.3], [0.0, -0.3, 1.0]])
        m = sp.csc_matrix(m_dense)
        f = factorize(m)
        b = np.array([0.4, -1.0, 2.0])
        n = 100_000
        draws = np.stack([sample_gaussian(f, b, rng) for _ in range(n)])
        cov_true = np.linalg.inv(m_dense)
        mean_true = cov_true @ b
        se_mean = np.sqrt(np.diag(cov_true) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean_true) < 3 * se_mean)
        centered = draws - draws.mean(axis=0)
        cov_emp = centered.T @ centered / (n - 1)
        se_cov = np.sqrt(
            (np.outer(np.diag(cov_true), np.diag(cov_true)) + cov_true**2) / n
        )
        assert np.all(np.abs(cov_emp - cov_true) < 3 * se_cov)


def lattice_case(name):
    """(prior, dense A + Q_p, conditional_factor args) of one ordering case."""
    rng = np.random.default_rng(len(name))
    if name == "one_cell":
        prior = SpatialPrior.from_structure(sp.csc_matrix([[2.0]]), 1)
        return prior, np.array([[2.0 / 0.5 + 1.5]]), (0.5, np.array([1.5]))
    kind, nx, ny, buffer = {
        "car": ("car", 7, 5, 0),
        "spde": ("spde", 8, 6, 2),
        "car_one_row": ("car", 9, 1, 0),
        "spde_one_row": ("spde", 9, 1, 0),
    }[name]
    grid = build_grid(nx, ny, buffer)
    m = grid.n_cells
    a_diag = rng.uniform(0.0, 3.0, m)
    prior = SpatialPrior.from_grid(kind, grid)
    if kind == "car":
        q = build_car_structure(grid).toarray() / 0.7
        return prior, q + np.diag(a_diag), (0.7, a_diag)
    q = build_spde_structure(grid, 2.5).toarray()
    return prior, q * q_scale("spde", 0.7, 2.5) + np.diag(a_diag), (0.7, a_diag, 2.5)


ORDERING_CASES = ["car", "spde", "one_cell", "car_one_row", "spde_one_row"]


class TestQuadraticForm:
    @pytest.mark.parametrize("name", ORDERING_CASES)
    def test_matches_dense(self, name):
        prior, dense, args = lattice_case(name)
        b = np.random.default_rng(5).standard_normal(dense.shape[0])
        want = b @ np.linalg.solve(dense, b)
        assert abs(quadratic_form(prior.conditional_factor(*args), b) - want) <= 1e-12 * want

    def test_extreme_scale(self):
        # the band is scaled by a power of two before factoring; the form is not
        m = sp.diags([1e-200, 3e-200], format="csc")
        got = quadratic_form(factorize(m), np.array([1e-100, 2e-100]))
        assert abs(got - (1.0 + 4.0 / 3.0)) <= 1e-14


class TestFillReducingOrdering:
    @pytest.mark.parametrize("name", ORDERING_CASES)
    def test_is_a_permutation(self, name):
        prior, dense, _ = lattice_case(name)
        assert np.array_equal(np.sort(prior.perm), np.arange(dense.shape[0]))

    def test_paper_scale_spde_lattice_is_a_permutation(self):
        grid = build_grid(40, 40, 4)
        perm = SpatialPrior.from_grid("spde", grid).perm
        assert np.array_equal(np.sort(perm), np.arange(grid.n_cells))

    def test_explicit_structure_keeps_its_own_order(self):
        prior = SpatialPrior.from_structure(sp.csc_matrix(np.ones((3, 3))), 3)
        assert np.array_equal(prior.perm, np.arange(3))

    def test_repeated_entry_is_refused(self):
        # a non-canonical matrix storing entry (0, 0) twice
        q = sp.csc_matrix((np.array([2.0, 1.0, 3.0]), np.array([0, 0, 1]), np.array([0, 2, 3])),
                          shape=(2, 2))
        with pytest.raises(NumericalError, match="^duplicate entries in the structure matrix$"):
            SpatialPrior.from_structure(q, 2)

    @pytest.mark.parametrize("name", ORDERING_CASES)
    def test_conditional_factor_matches_dense(self, name):
        prior, dense, args = lattice_case(name)
        assert_factors(prior, dense, *args)

    @pytest.mark.parametrize(
        "kind, shape, bandwidth",
        [("car", (60, 20, 0), 20), ("car", (20, 60, 0), 20), ("spde", (60, 20, 2), 48),
         # the car-dense, mixed-townships and spde-buffer benchmark lattices
         ("car", (30, 30, 0), 30), ("car", (40, 40, 0), 40), ("spde", (40, 40, 4), 96)],
    )
    def test_band_is_one_lattice_line_wide(self, kind, shape, bandwidth):
        grid = build_grid(*shape)
        prior = SpatialPrior.from_grid(kind, grid)
        q = car_q(*shape[:2]) if kind == "car" else build_spde_structure(grid, 3.0)
        ordered = q.tocsr()[prior.perm][:, prior.perm].tocoo()
        assert prior.depth - 1 == np.abs(ordered.row - ordered.col).max() <= bandwidth
        assert prior.depth == band_depth(kind, grid.height, grid.width)


def assert_matches_dense(prior, dense, a_diag, sigma2=1.0, n_draws=0):
    """Solve and log-determinant of prior.conditional_factor(sigma2,
    a_diag) match the dense matrix A + Q_p, and so do the mean and
    covariance of n_draws field draws, within 4 Monte Carlo standard
    errors."""
    f = prior.conditional_factor(sigma2, a_diag)
    rng = np.random.default_rng(11)
    cov = np.linalg.inv(dense)
    sd = np.sqrt(np.diag(cov))
    b = dense @ (sd * rng.standard_normal(dense.shape[0]))  # a mean on the draws' scale
    x = np.linalg.solve(dense, b)
    assert np.abs(solve(f, b) - x).max() <= 1e-10 * np.abs(x).max()
    oracle = np.linalg.slogdet(dense)[1]
    assert abs(logdet(f) - oracle) <= 1e-12 * max(1.0, abs(oracle))
    if n_draws:
        draws = np.stack([sample_gaussian(f, b, rng) for _ in range(n_draws)])
        assert np.all(np.abs(draws.mean(axis=0) - x) < 4 * sd / np.sqrt(n_draws))
        corr = np.corrcoef(draws, rowvar=False)
        assert np.all(np.abs(corr - cov / np.outer(sd, sd)) < 4 / np.sqrt(n_draws))
        assert np.all(np.abs(draws.std(axis=0) / sd - 1.0) < 4 / np.sqrt(2 * n_draws))


class TestBandScaling:
    # the band is scaled by an even power of two before it is factored, so
    # the factor of a matrix at any scale has the relative accuracy of the
    # factor at scale one

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_extreme_diagonals_match_dense(self, scale):
        prior = SpatialPrior.from_grid("car", build_grid(3, 2, 0))
        a_diag = scale * np.array([1.0, 0.5, 2.0, 0.0, 3.0, 1.5])
        dense = car_q(3, 2).toarray() * (scale / 0.8) + np.diag(a_diag)
        assert_matches_dense(prior, dense, a_diag, 0.8 / scale, n_draws=20_000)

    def test_wide_band_whose_unscaled_fill_underflows(self):
        # 40 x 40 car lattice, bandwidth 40, 1e9 trees in every cell: the
        # fill of an unscaled band Cholesky decays into the subnormals
        grid = build_grid(40, 40, 0)
        prior = SpatialPrior.from_grid("car", grid)
        m = grid.n_cells
        a_diag = np.full(m, 1e9)
        dense = car_q(40, 40).toarray() + np.diag(a_diag)
        unscaled = cholesky_banded(lower_band(dense, prior.perm), lower=True)
        assert ((unscaled != 0) & (np.abs(unscaled) < np.finfo(float).tiny)).any()
        assert_matches_dense(prior, dense, a_diag)

    @pytest.mark.parametrize("top", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_largest_diagonal_not_positive_finite_raises(self, top):
        prior = SpatialPrior.from_structure(sp.csc_matrix((3, 3)), 3)
        with pytest.raises(NumericalError):
            prior.conditional_factor(1.0, np.array([top, -2.0, top]))
        band = np.asfortranarray([[top, 1.0], [0.0, 0.0]])
        with pytest.raises(NumericalError):
            factorize_prepermuted(band, np.arange(2))


def car_logdet_term(prior, sigma2):
    """log|Q_p| as the field-marginalized density uses it: with no data
    term (wbar = 0, mu = 0) the marginal is half of log|Q_p| minus half of
    log|A + Q_p|, and the second half is read off the factor."""
    a_diag = np.ones(prior.n_cells)
    val = _marginal(prior, sigma2, 0.0, 1.0, a_diag, np.zeros(prior.n_cells))[0]
    return 2.0 * val + logdet(prior.conditional_factor(sigma2, a_diag))


class TestGeneralizedLogdet:
    # the car term is rank * log(1/sigma2): the generalized determinant of
    # the fixed structure is a constant taken as 0.0

    def test_unit_sigma_is_zero(self):
        prior = SpatialPrior.from_grid("car", build_grid(5, 5, 0))
        assert prior.structure_logdet(3.0) == 0.0
        assert car_logdet_term(prior, 1.0) == 0.0

    def test_sigma_e(self):
        prior = SpatialPrior.from_grid("car", build_grid(5, 2, 0))
        assert abs(car_logdet_term(prior, np.e) - (-9.0)) < 1e-12

    def test_ratio_matches_dense_pseudo_determinant(self):
        q = car_q(3, 3).toarray()
        evals = np.linalg.eigvalsh(q)
        nonzero = evals[evals > 1e-10]

        def dense_gdet(sigma2):
            return float(np.log(nonzero / sigma2).sum())

        prior = SpatialPrior.from_grid("car", build_grid(3, 3, 0))
        for sigma2 in (4.0, 0.3, 17.0):
            ours = car_logdet_term(prior, 1.0) - car_logdet_term(prior, sigma2)
            oracle = dense_gdet(1.0) - dense_gdet(sigma2)
            assert abs(ours - oracle) < 1e-10

    def test_invalid_sigma(self):
        prior = SpatialPrior.from_grid("car", build_grid(5, 1, 0))
        for sigma2 in (0.0, -1.0):
            with pytest.raises(InvalidArgumentError):
                q_scale("car", sigma2)
            with pytest.raises(InvalidArgumentError):
                prior.conditional_factor(sigma2, np.ones(5))
            with pytest.raises(InvalidArgumentError):
                _marginal(prior, sigma2, 0.0, 1.0, np.ones(5), np.zeros(5))


def matern_correlation(d: float, rho: float, nu: float) -> float:
    """Matern correlation at distance d with range rho and smoothness nu:
    R(d) = (2 sqrt(nu) d / rho)^nu K_nu(...) / (Gamma(nu) 2^(nu-1)), with
    R(0) = 1 as the limit. nu = 0.5 reduces to exp(-sqrt(2) d / rho)."""
    if d < 0 or rho <= 0 or nu <= 0:
        raise InvalidArgumentError("matern_correlation requires d >= 0, rho > 0, nu > 0")
    if d == 0:
        return 1.0
    x = 2.0 * np.sqrt(nu) * d / rho
    val = x**nu * kv(nu, x) / (gamma_fn(nu) * 2.0 ** (nu - 1.0))
    return float(min(val, 1.0))


class TestMaternCorrelation:
    def test_zero_distance(self):
        assert matern_correlation(0.0, 2.0, 1.0) == 1.0

    def test_exponential_special_case(self):
        # nu = 1/2 reduces to exp(-sqrt(2) d / rho)
        for d, rho in [(0.5, 1.0), (2.0, 3.0), (10.0, 4.0)]:
            expected = np.exp(-np.sqrt(2.0) * d / rho)
            assert abs(matern_correlation(d, rho, 0.5) - expected) < 1e-10

    def test_limit_at_large_distance(self):
        assert matern_correlation(500.0, 1.0, 1.0) < 1e-12

    def test_monotone_decreasing(self):
        grid_d = np.linspace(0.01, 20.0, 60)
        vals = [matern_correlation(d, 3.0, 1.0) for d in grid_d]
        assert np.all(np.diff(vals) < 0)

    def test_invalid_args(self):
        for bad in [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(InvalidArgumentError):
                matern_correlation(*bad)
