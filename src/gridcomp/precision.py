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

Factorization uses SuperLU in symmetric mode on a matrix whose rows and
columns are already in a fill-reducing order, which for an SPD matrix
yields U = diag(U) L^T, i.e. an LDL^T factorization we can sample
through. The order is a minimum-degree ordering of the sparsity pattern
(Rue & Held 2005, Gaussian Markov Random Fields, section 2.4): it
depends on the pattern alone, so a prior computes it once per lattice
and every refactorization reuses it with SuperLU's NATURAL ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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
    changes within a chain, so the permuted CSC skeleton (fill-reducing
    order applied) is built once and refactorizations only refill the
    value array: Q entries are either fixed (car) or a four-value lookup
    by stencil class (spde), plus the tree counts A on the diagonal
    slots.
    """

    def __init__(self, kind, n_cells, rank, rows, cols, base=None, codes=None,
                 class_degree=None, boundary=None):
        self.kind = kind
        self.n_cells = m = n_cells
        self.rank = rank
        self.class_degree = class_degree
        self.boundary = boundary
        diag = np.arange(m)
        pattern = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(m, m)).tocsc()
        self.perm = fill_reducing_permutation(pattern)
        inv = np.empty(m, dtype=np.int64)
        inv[self.perm] = diag
        tagged = sp.coo_matrix(
            (np.arange(1.0, rows.size + 1.0), (inv[rows], inv[cols])), shape=(m, m)
        ).tocsc()
        if tagged.nnz != rows.size:
            raise NumericalError("duplicate entries in the structure matrix")
        slot = np.rint(tagged.data - 1.0).astype(np.int64)
        self.indices = tagged.indices
        self.indptr = tagged.indptr
        self.base_slotted = base[slot] if base is not None else None
        self.base_rowsum = np.bincount(rows, base, m) if base is not None else None
        self.codes_slotted = codes[slot] if codes is not None else None
        dslots = np.empty(m, dtype=np.int64)
        for j in range(m):
            lo, hi = self.indptr[j], self.indptr[j + 1]
            dslots[j] = lo + np.searchsorted(self.indices[lo:hi], j)
        self.diag_slots = dslots

    @classmethod
    def from_grid(cls, kind: str, grid: GridSpec) -> "SpatialPrior":
        """The car (cardinal graph) or spde (extended graph) prior of a lattice."""
        if kind == CAR:
            graph = build_neighbor_graph(grid, CARDINAL)
            return cls.from_structure(build_car_structure(graph), grid.n_cells - 1)
        if kind != SPDE:
            raise InvalidArgumentError(f"unknown spatial prior kind {kind!r}")
        graph = build_neighbor_graph(grid, "extended")
        rows, cols, codes = _spde_entries(graph)
        class_degree = np.stack([graph.degree(k).astype(float) for k in _SPDE_CLASSES])
        boundary = _BoundaryLogdet(grid.height, grid.width, class_degree[0])
        return cls(SPDE, grid.n_cells, grid.n_cells, rows, cols, codes=codes,
                   class_degree=class_degree, boundary=boundary)

    @classmethod
    def from_structure(cls, structure: sp.spmatrix, rank: int) -> "SpatialPrior":
        """Car-scaled prior N(0, sigma2 * structure^-) on an explicit
        structure matrix of the given rank, e.g. a proper 1x1 prior for
        conjugate test fixtures."""
        coo = structure.tocsc().tocoo()
        m = structure.shape[0]
        rows, cols, base = coo.row, coo.col, coo.data.astype(float)
        present = np.zeros(m, dtype=bool)
        present[rows[rows == cols]] = True
        missing = np.flatnonzero(~present)
        rows = np.concatenate([rows, missing])
        cols = np.concatenate([cols, missing])
        base = np.concatenate([base, np.zeros(missing.size)])
        return cls(CAR, m, rank, rows, cols, base=base)

    def _q_values(self, rho):
        """Permuted-slot values of the unscaled structure matrix."""
        if self.base_slotted is not None:
            return self.base_slotted
        return _spde_stencil(rho)[self.codes_slotted]

    def _permuted(self, data) -> sp.csc_matrix:
        m = self.n_cells
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(m, m), copy=False)

    def conditional_factor(self, sigma2, a_diag, rho=1.0) -> SparseFactor:
        """Factor of A + Q_p at the given hyperparameters."""
        data = self._q_values(rho) * q_scale(self.kind, sigma2, rho)
        data[self.diag_slots] += a_diag[self.perm]
        try:
            return factorize_prepermuted(self._permuted(data), self.perm)
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
    """Opaque handle to an SPD factorization P M P^T = L diag(U) L^T."""

    n: int
    perm: np.ndarray
    lu: object
    sqrt_d: np.ndarray
    _logdet: float

    @property
    def shape(self):
        return (self.n, self.n)


def fill_reducing_permutation(pattern: sp.spmatrix) -> np.ndarray:
    """Minimum-degree ordering of a symmetric sparsity pattern.

    Returns ``perm`` with ``M[perm][:, perm]`` the reordered matrix
    (``perm[new] = old``). SuperLU's MMD_AT_PLUS_A ordering is read off
    an LU of a surrogate with the pattern's sparsity: off-diagonals -1
    and a diagonal of nnz + 1, strictly diagonally dominant, so the
    factorization cannot fail where the values of the real matrix (or a
    pattern of ones) would be singular. SuperLU reports the column
    permutation as ``perm_c[old] = new``, the inverse of the convention
    here, hence the argsort; taking ``perm_c`` itself roughly
    multiplies nnz(L) by eight on the spde lattices.

    Computed once per pattern and reused across refactorizations; only
    the matrix values change between sampler iterations.
    """
    coo = sp.coo_matrix(pattern)
    m = coo.shape[0]
    off = coo.row != coo.col
    rows = np.concatenate([coo.row[off], coo.col[off]])
    cols = np.concatenate([coo.col[off], coo.row[off]])
    offdiag = sp.csc_matrix((np.ones(rows.size), (rows, cols)), shape=(m, m))
    offdiag.data[:] = -1.0
    surrogate = (offdiag + sp.identity(m, format="csc") * (offdiag.nnz + 1.0)).tocsc()
    lu = splu(
        surrogate,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    return np.argsort(lu.perm_c)


def factorize_prepermuted(mp: sp.csc_matrix, perm: np.ndarray) -> SparseFactor:
    """Factor a matrix whose rows/columns are already in ``perm`` order.

    Low-level entry for callers that maintain the permuted sparsity
    pattern themselves and only refill values between factorizations.
    """
    try:
        lu = splu(
            mp,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise NumericalError(f"sparse factorization failed: {exc}") from exc
    d = lu.U.diagonal()
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        raise NumericalError("matrix is not positive definite", pivot_index=int(bad[0]))
    return SparseFactor(
        n=mp.shape[0], perm=perm, lu=lu, sqrt_d=np.sqrt(d), _logdet=float(np.log(d).sum())
    )


def solve(factor: SparseFactor, b: np.ndarray) -> np.ndarray:
    """Solve M x = b through the cached factorization."""
    x = np.empty_like(b, dtype=float)
    x[factor.perm] = factor.lu.solve(np.asarray(b, dtype=float)[factor.perm])
    return x


def logdet(factor: SparseFactor) -> float:
    """log |M| of the factored matrix."""
    return factor._logdet


def sample_gaussian(factor: SparseFactor, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from N(M^-1 b, M^-1) via perturbation sampling.

    With P M P^T = Lc Lc^T, x = P^T M_p^-1 (P b + Lc z) has the required
    mean and covariance using a single triangular solve pair.
    """
    z = rng.standard_normal(factor.n)
    lcz = factor.lu.L @ (factor.sqrt_d * z)
    x = np.empty(factor.n)
    x[factor.perm] = factor.lu.solve(np.asarray(b, dtype=float)[factor.perm] + lcz)
    return x
