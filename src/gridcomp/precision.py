"""The spatial prior object the sampler runs on, the structure matrices
of the two priors, and the factorization machinery (solve, joint
Gaussian draw, log-determinant).

The conditional-autoregression structure is Q = D - C on the cardinal
graph: rank m-1 with a flat direction along the constant vector. The
Matern-approximation structure Q(rho) lives on the extended graph with
a = 4 + 1/rho^2 and interior stencil (diag, cardinal, diagonal, 2nd-order
cardinal) = (4 + a^2, -2a, 2, 1). Stencil entries falling outside the
lattice are dropped with the diagonal kept at 4 + a^2; boundary effects
are handled by the buffer ring, not by boundary conditions.

On the rectangular lattice that stencil is exactly Q(rho) = K^2 + D,
with K = aI - C (C the cardinal adjacency) and D = diag(4 - deg_C),
which is nonzero only on the r boundary cells (Lindgren, Rue &
Lindstrom 2011, on why the stencil is a squared operator). K is the
Kronecker sum of two path graphs, so the 2-D DST-I diagonalizes it
with eigenvalues a - 2cos(pi j/(H+1)) - 2cos(pi k/(W+1)) (Strang 1999,
SIAM Review 41), and by the matrix determinant lemma

    log|Q| = 2 sum log lambda_jk + log|I_r + D^1/2 (K^-2)_bb D^1/2|.

The boundary block (K^-2)_bb is a separable product of DST rows for
each pair of boundary lines, so the structure log-determinant costs
O(n^3) on an n x n lattice plus one r x r dense determinant, and no
sparse factorization.

Factorization is a band Cholesky (LAPACK dpbtrf) of A + Q_p, the lattice
ordered line by line along its shorter side into a band one line wide,
two for the spde stencil (Rue 2001, JRSS-B 63; Rue & Held 2005, Gaussian
Markov Random Fields, section 2.4). Before factoring, the band is scaled
by the even power of two 2^e that puts its largest diagonal near 2^1000,
which keeps the fill, decaying away from the nonzero profile, out of the
slow subnormal range. The scaling is exact: the factor is 2^(-e/2) times
the computed one, and solves scale their right-hand sides instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .domain_grid import (
    CARDINAL,
    DIAGONAL,
    SECOND_ORDER,
    GridSpec,
    NeighborGraph,
    build_neighbor_graph,
)
from .errors import InvalidArgumentError, NumericalError

CAR = "car"
SPDE = "spde"

# Neighbor classes of the spde stencil; class code 0 is the diagonal and
# class k > 0 is _SPDE_CLASSES[k - 1].
_SPDE_CLASSES = (CARDINAL, DIAGONAL, SECOND_ORDER)

# log2 of the largest diagonal of a band when it is factored
_SCALED_EXPONENT = 1000


def build_car_structure(graph: NeighborGraph) -> sp.csc_matrix:
    """Q = D - C on the cardinal graph: Q_ii = degree, Q_ik = -1 for neighbors."""
    if graph.order != CARDINAL:
        raise InvalidArgumentError("car structure requires a cardinal-order graph")
    m = graph.n_cells
    e = graph.edges[CARDINAL]
    off = sp.coo_matrix((-np.ones(e.shape[0]), (e[:, 0], e[:, 1])), shape=(m, m))
    deg = graph.degree(CARDINAL).astype(float)
    return (off.tocsc() + sp.diags(deg, format="csc")).tocsc()


def _spde_a(rho: float) -> float:
    """The diagonal a = 4 + 1/rho^2 of the operator K = aI - C."""
    if rho <= 0:
        raise InvalidArgumentError(f"rho must be > 0, got {rho}")
    return 4.0 + 1.0 / rho**2


def _spde_stencil(rho: float) -> np.ndarray:
    """Values of Q(rho) by stencil class code: (diag, cardinal, diagonal, 2nd-order)."""
    a = _spde_a(rho)
    return np.array([4.0 + a * a, -2.0 * a, 2.0, 1.0])


def _spde_entries(graph: NeighborGraph):
    """(rows, cols, stencil class codes) of the entries of Q(rho), diagonal first."""
    if graph.order != "extended":
        raise InvalidArgumentError("spde structure requires an extended-order graph")
    m = graph.n_cells
    rows, cols, codes = [np.arange(m)], [np.arange(m)], [np.zeros(m, dtype=np.int8)]
    for code, kind in enumerate(_SPDE_CLASSES, start=1):
        e = graph.edges[kind]
        rows.append(e[:, 0])
        cols.append(e[:, 1])
        codes.append(np.full(e.shape[0], code, dtype=np.int8))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(codes)


def build_spde_structure(graph: NeighborGraph, rho: float) -> sp.csc_matrix:
    """Q(rho) on the extended graph; see module docstring for the stencil."""
    rows, cols, codes = _spde_entries(graph)
    m = graph.n_cells
    return sp.coo_matrix((_spde_stencil(rho)[codes], (rows, cols)), shape=(m, m)).tocsc()


def q_scale(kind: str, sigma2: float, rho: float = 1.0) -> float:
    """Factor taking the structure matrix to the prior precision Q_p:
    1/sigma2 for car, rho^2/(4*pi*sigma2) for spde."""
    if sigma2 <= 0:
        raise InvalidArgumentError(f"sigma2 must be > 0, got {sigma2}")
    if kind == CAR:
        return 1.0 / sigma2
    return rho**2 / (4.0 * np.pi * sigma2)


def _dst_basis(n: int):
    """(S, 2cos(pi j/(n+1))): the orthonormal DST-I eigenbasis of the
    path graph on n vertices, and the adjacency eigenvalues of column j."""
    j = np.arange(1, n + 1)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    return s, 2.0 * np.cos(np.pi * j / (n + 1))


class _BoundaryLogdet:
    """log|Q(rho)| of the spde structure on an H x W lattice by the
    closed form in the module docstring.

    The boundary cells are the row lines 0 and H-1 (every column) and
    the column lines 0 and W-1 (rows 1..H-2); on a lattice one or two
    cells thin the line sets deduplicate or empty out. ``sqrt_d`` holds
    D^1/2 of those cells in that order.
    """

    def __init__(self, height: int, width: int, cardinal_degree: np.ndarray):
        s_h, self.cos_h = _dst_basis(height)
        self.s_w, self.cos_w = _dst_basis(width)
        rows = np.unique([0, height - 1])
        cols = np.unique([0, width - 1])
        inner = np.arange(1, height - 1)
        # DST rows of the row lines, the column lines and the inner rows
        self.s_r, self.s_c, self.s_i = s_h[rows], self.s_w[cols], s_h[inner]
        cells = np.concatenate(
            [r * width + np.arange(width) for r in rows] + [inner * width + c for c in cols]
        )
        self.sqrt_d = np.sqrt(4.0 - cardinal_degree[cells])

    def __call__(self, a: float) -> float:
        lam = a - self.cos_h[:, None] - self.cos_w[None, :]  # eigenvalues of K, (H, W)
        inv2 = lam**-2.0
        s_w, s_r, s_c, s_i = self.s_w, self.s_r, self.s_c, self.s_i
        nr, nc, w, ni = s_r.shape[0], s_c.shape[0], s_w.shape[0], s_i.shape[0]
        # row line r1 x row line r2: S_W diag(sum_j S_H[r1,j] S_H[r2,j] inv2[j]) S_W^T
        g = np.einsum("aj,bj,jk->abk", s_r, s_r, inv2)
        rr = ((s_w * g[:, :, None, :]) @ s_w.T).transpose(0, 2, 1, 3).reshape(nr * w, nr * w)
        # column line c1 x column line c2, over the inner rows
        v = np.einsum("ak,bk,jk->abj", s_c, s_c, inv2)
        cc = ((s_i * v[:, :, None, :]) @ s_i.T).transpose(0, 2, 1, 3).reshape(nc * ni, nc * ni)
        # row line r x column line c: S_W diag(S_W[c]) inv2^T diag(S_H[r]) S_I^T
        f = s_c[None, :, :, None] * inv2.T * s_r[:, None, None, :]
        rc = (s_w @ f @ s_i.T).transpose(0, 2, 1, 3).reshape(nr * w, nc * ni)
        block = np.block([[rr, rc], [rc.T, cc]])
        m = self.sqrt_d[:, None] * block * self.sqrt_d[None, :]
        m[np.diag_indices_from(m)] += 1.0
        sign, logdet_m = np.linalg.slogdet(m)
        value = 2.0 * np.log(lam).sum() + logdet_m
        if sign <= 0 or not np.isfinite(value):
            raise NumericalError(f"spde structure log-determinant failed at a = {a!r}")
        return float(value)


class SpatialPrior:
    """One spatial prior on a fixed lattice, set up once per chain.

    For kind "car" the prior is N(0, sigma2 * Q^-) with Q of rank
    ``rank``; for kind "spde" it is N(mu * 1, sigma2 * (4*pi/rho^2) *
    Q(rho)^-1). Either way Q_p = q_scale * Q, so both kinds answer the
    same questions: log|Q_p| = rank * log(q_scale) + structure_logdet(rho)
    and Q_p @ 1 = qp_rowsum. The sparsity pattern of A + Q_p never
    changes within a chain, so the band slots of its lower-triangle
    entries (band order applied) are found once and refactorizations
    only refill their values: Q entries are either fixed (car) or a
    four-value lookup by stencil class (spde), plus the tree counts A on
    the band's diagonal row.
    """

    def __init__(self, kind, n_cells, rank, perm, rows, cols, base=None, codes=None,
                 class_degree=None, boundary=None):
        self.kind = kind
        self.n_cells = m = n_cells
        self.rank = rank
        self.class_degree = class_degree
        self.boundary = boundary
        self.perm = perm
        inv = np.empty(m, dtype=np.int64)
        inv[self.perm] = np.arange(m)
        # LAPACK lower band storage, column-major: entry (i, j), i >= j in
        # band order, sits at row i - j of column j, flat slot i - j + depth * j
        d, j = inv[rows] - inv[cols], inv[cols]
        self.depth = int(d.max(initial=0)) + 1
        lower = d >= 0
        self.slots = d[lower] + self.depth * j[lower]
        if np.unique(self.slots).size != self.slots.size:
            raise NumericalError("duplicate entries in the structure matrix")
        self.base_band = base[lower] if base is not None else None
        self.base_rowsum = np.bincount(rows, base, m) if base is not None else None
        self.codes_band = codes[lower] if codes is not None else None

    @classmethod
    def from_grid(cls, kind: str, grid: GridSpec) -> "SpatialPrior":
        """The car (cardinal graph) or spde (extended graph) prior of a lattice."""
        perm = fill_reducing_permutation(grid.height, grid.width)
        if kind == CAR:
            graph = build_neighbor_graph(grid, CARDINAL)
            return cls.from_structure(build_car_structure(graph), grid.n_cells - 1, perm)
        if kind != SPDE:
            raise InvalidArgumentError(f"unknown spatial prior kind {kind!r}")
        graph = build_neighbor_graph(grid, "extended")
        rows, cols, codes = _spde_entries(graph)
        class_degree = np.stack([graph.degree(k).astype(float) for k in _SPDE_CLASSES])
        boundary = _BoundaryLogdet(grid.height, grid.width, class_degree[0])
        return cls(SPDE, grid.n_cells, grid.n_cells, perm, rows, cols, codes=codes,
                   class_degree=class_degree, boundary=boundary)

    @classmethod
    def from_structure(cls, structure: sp.spmatrix, rank: int, perm=None) -> "SpatialPrior":
        """Car-scaled prior N(0, sigma2 * structure^-) on an explicit
        structure matrix of the given rank, e.g. a proper 1x1 prior for
        conjugate test fixtures, factored in the order perm (the
        structure's own order by default)."""
        coo = structure.tocsc().tocoo()
        m = structure.shape[0]
        perm = np.arange(m) if perm is None else perm
        return cls(CAR, m, rank, perm, coo.row, coo.col, base=coo.data.astype(float))

    def _q_values(self, rho):
        """Band-slot values of the unscaled structure matrix."""
        if self.base_band is not None:
            return self.base_band
        return _spde_stencil(rho)[self.codes_band]

    def conditional_factor(self, sigma2, a_diag, rho=1.0) -> SparseFactor:
        """Factor of A + Q_p at the given hyperparameters."""
        m = self.n_cells
        flat = np.zeros(self.depth * m)
        flat[self.slots] = self._q_values(rho) * q_scale(self.kind, sigma2, rho)
        band = flat.reshape((self.depth, m), order="F")
        band[0] += a_diag[self.perm]
        try:
            return factorize_prepermuted(band, self.perm)
        except NumericalError as exc:
            if self.kind == CAR and self.rank < self.n_cells:
                raise NumericalError(
                    "car field conditional is singular: the intrinsic prior needs "
                    "at least one cell with data"
                ) from exc
            raise

    def structure_logdet(self, rho) -> float:
        """logdet of the unscaled structure matrix Q(rho), for spde in
        closed form (module docstring). A car structure is fixed, so its
        generalized determinant is a constant that cancels in every
        Metropolis ratio; it is taken as 0.0."""
        if self.kind == CAR:
            return 0.0
        return self.boundary(_spde_a(rho))

    def qp_rowsum(self, sigma2, rho=1.0) -> np.ndarray:
        """Row sums of the scaled precision, Q_p @ 1."""
        if self.base_rowsum is not None:
            unscaled = self.base_rowsum
        else:
            v = _spde_stencil(rho)
            deg = self.class_degree
            unscaled = v[0] + v[1] * deg[0] + v[2] * deg[1] + v[3] * deg[2]
        return unscaled * q_scale(self.kind, sigma2, rho)


@dataclass
class SparseFactor:
    """Opaque handle to the Cholesky factor M[perm][:, perm] = C C^T of an
    SPD matrix M, with 2^half C held as a lower band in LAPACK order."""

    n: int
    perm: np.ndarray
    band: np.ndarray
    half: int
    _logdet: float

    @property
    def lu(self) -> SparseFactor:
        """The factor itself; perfbench reads nnz(L) as factor.lu.L.nnz."""
        return self

    @property
    def L(self) -> sp.csc_matrix:
        """C as a sparse matrix of the band's nonzeros."""
        offsets = -np.arange(self.band.shape[0])
        c = sp.dia_matrix((self.band, offsets), shape=(self.n,) * 2).tocsc()
        c.eliminate_zeros()
        c.data = np.ldexp(c.data, -self.half)
        return c


def fill_reducing_permutation(height: int, width: int) -> np.ndarray:
    """Band order of a row-major height x width lattice: line by line
    along its shorter side, so that the cardinal neighbors lie within
    min(height, width) of the diagonal, twice that for the spde stencil.
    Returns ``perm`` with ``M[perm][:, perm]`` the reordered matrix
    (``perm[new] = old``).

    Reverse Cuthill-McKee reaches the same bandwidth, but its levels are
    anti-diagonals, so cells up to about two lines apart share the band,
    and with many trees per cell the fill decays through the subnormal
    range: 438 against 230 ms per factor on a 296 x 180 car lattice with
    200 trees per cell (2-CPU x86 host, one BLAS thread).
    """
    cells = np.arange(height * width).reshape(height, width)
    return (cells if width <= height else cells.T).ravel()


def factorize_prepermuted(band: np.ndarray, perm: np.ndarray) -> SparseFactor:
    """Factor the SPD matrix M whose rows and columns in ``perm`` order
    have the lower band ``band``: M[perm][:, perm] at (j + d, j) in
    band[d, j], float64 in Fortran order, overwritten by the factor.

    Low-level entry for callers that keep the band layout of a fixed
    sparsity pattern and only refill values between factorizations.
    """
    top = band[0].max()
    if not (np.isfinite(top) and top > 0):
        raise NumericalError(f"largest diagonal {top!r} is not positive and finite")
    half = (_SCALED_EXPONENT - int(np.frexp(top)[1])) // 2
    c, info = dpbtrf(np.ldexp(band, 2 * half, out=band), lower=1, overwrite_ab=1)
    if info > 0:
        raise NumericalError("matrix is not positive definite", pivot_index=info - 1)
    log_diag = np.log(np.ldexp(c[0], -half))
    return SparseFactor(c.shape[1], perm, c, half, 2.0 * float(log_diag.sum()))


def _substitute(factor: SparseFactor, b, z=None) -> np.ndarray:
    """C^-T (C^-1 b + z) in the original order (M^-1 b without z). Each
    triangular solve takes its right-hand side times 2^half, so that
    C^-1 b comes out at its own scale."""
    c, half = factor.band, factor.half
    rhs = np.ldexp(np.asarray(b, dtype=float)[factor.perm], half)
    y, _ = dtbtrs(c, rhs, uplo="L", overwrite_b=1)
    if z is not None:
        y += z
    xp, _ = dtbtrs(c, np.ldexp(y, half, out=y), uplo="L", trans="T", overwrite_b=1)
    x = np.empty(factor.n)
    x[factor.perm] = xp
    return x


def solve(factor: SparseFactor, b: np.ndarray) -> np.ndarray:
    """Solve M x = b through the cached factorization."""
    return _substitute(factor, b)


def logdet(factor: SparseFactor) -> float:
    """log |M| of the factored matrix."""
    return factor._logdet


def sample_gaussian(factor: SparseFactor, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from N(M^-1 b, M^-1) via perturbation sampling.

    With M[perm][:, perm] = C C^T, x = C^-T (C^-1 b + z) for standard
    normal z has mean M^-1 b and covariance C^-T C^-1 = M^-1, with one
    pair of triangular solves.
    """
    return _substitute(factor, b, rng.standard_normal(factor.n))
