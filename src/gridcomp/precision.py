"""The spatial prior object the sampler runs on, the structure matrices
of the two priors, and the factorization machinery (solve, quadratic
form, joint Gaussian draw, log-determinant).

Both structures are stencils on the row-major lattice, their neighbor
classes the offsets (drow, dcol) of a cell: cardinal (0, +-1), (+-1, 0);
diagonal (+-1, +-1); second-order cardinal (0, +-2), (+-2, 0). The
conditional-autoregression structure is Q = D - C on the cardinal class:
the cell's cardinal degree on the diagonal and -1 for each cardinal
neighbor, rank m-1 with a flat direction along the constant vector. The
Matern-approximation structure Q(rho) is the 13-point stencil of all
three classes with a = 4 + 1/rho^2 and values (diag, cardinal, diagonal,
2nd-order cardinal) = (4 + a^2, -2a, 2, 1). Stencil entries falling
outside the lattice are dropped with the diagonal kept at 4 + a^2;
boundary effects are handled by the buffer ring, not by boundary
conditions.

On the rectangular lattice that stencil is exactly Q(rho) = K^2 + D,
with K = aI - C (C the cardinal adjacency) and D = diag(4 - deg_C),
which is nonzero only on the r boundary cells (Lindgren, Rue &
Lindstrom 2011, on why the stencil is a squared operator). K is the
Kronecker sum of two path graphs, so the 2-D DST-I diagonalizes it
with eigenvalues a - 2cos(pi j/(H+1)) - 2cos(pi k/(W+1)) (Strang 1999,
SIAM Review 41), and by the matrix determinant lemma

    log|Q| = 2 sum log lambda_jk + log|I_r + D^1/2 (K^-2)_bb D^1/2|.

K, D and the boundary set are unchanged by both lattice reflections,
rows i -> H-1-i and columns k -> W-1-k, and DST-I mode j (1-based) is
even under its reflection for odd j and odd for even j. So in a basis
of symmetric and antisymmetric boundary combinations the r x r matrix
splits into four blocks, (even, odd) in H times (even, odd) in W, each
about r/4 wide and built from the modes of its parities alone. Within
a block, (K^-2)_bb is a separable product of DST rows, so the structure
log-determinant costs O(n^3) on an n x n lattice plus four dense
determinants of about r/4, and no sparse factorization.

Factorization is a band Cholesky (LAPACK dpbtrf) of A + Q_p, the lattice
ordered line by line along its shorter side into a band one line wide,
two for the spde stencil (Rue 2001, JRSS-B 63; Rue & Held 2005, Gaussian
Markov Random Fields, section 2.4). Before factoring, the band is scaled
by the even power of two 2^e that puts its largest diagonal near 2^1000,
which keeps the fill, decaying away from the nonzero profile, out of the
slow subnormal range. The scaling is exact: the factor is 2^(-e/2) times
the computed one, and solves scale their right-hand sides instead.
With M[perm][:, perm] = C C^T, a quadratic form b'M^-1 b is
|C^-1 b[perm]|^2: one forward triangular pass, half a solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .domain_grid import GridSpec
from .errors import InvalidArgumentError, NumericalError

CAR = "car"
SPDE = "spde"

# Stencil offsets (drow, dcol) by neighbor class: class code k > 0 is
# _CLASS_OFFSETS[k - 1], cardinal, diagonal and second-order cardinal;
# code 0 is the diagonal. The car stencil is the cardinal class alone.
_CLASS_OFFSETS = (
    ((0, 1), (0, -1), (1, 0), (-1, 0)),
    ((1, 1), (1, -1), (-1, 1), (-1, -1)),
    ((0, 2), (0, -2), (2, 0), (-2, 0)),
)

# log2 of the largest diagonal of a band when it is factored
_SCALED_EXPONENT = 1000


def _stencil_entries(grid: GridSpec, n_classes: int):
    """(rows, cols, class codes) of the entries of the lattice's stencil
    with its first n_classes neighbor classes: the m diagonal entries
    first, then each class's offsets in turn, those falling off the
    lattice dropped."""
    m, h, w = grid.n_cells, grid.height, grid.width
    cell = np.arange(m)
    row, col = np.divmod(cell, w)
    rows, cols, codes = [cell], [cell], [np.zeros(m, dtype=np.int8)]
    for code, offsets in enumerate(_CLASS_OFFSETS[:n_classes], start=1):
        for dr, dc in offsets:
            on = (row + dr >= 0) & (row + dr < h) & (col + dc >= 0) & (col + dc < w)
            rows.append(cell[on])
            cols.append(cell[on] + dr * w + dc)
            codes.append(np.full(on.sum(), code, dtype=np.int8))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(codes)


def _car_values(rows, codes, m):
    """Q = D - C by entry: the cardinal degree on the diagonal, -1 off it."""
    return np.where(codes == 0, np.bincount(rows[codes == 1], minlength=m)[rows], -1.0)


def build_car_structure(grid: GridSpec) -> sp.csc_matrix:
    """Q = D - C on the cardinal lattice: Q_ii = degree, Q_ik = -1 for neighbors."""
    rows, cols, codes = _stencil_entries(grid, 1)
    m = grid.n_cells
    return sp.csc_matrix((_car_values(rows, codes, m), (rows, cols)), shape=(m, m))


def _spde_a(rho: float) -> float:
    """The diagonal a = 4 + 1/rho^2 of the operator K = aI - C."""
    if rho <= 0:
        raise InvalidArgumentError(f"rho must be > 0, got {rho}")
    return 4.0 + 1.0 / rho**2


def _spde_stencil(rho: float) -> np.ndarray:
    """Values of Q(rho) by stencil class code: (diag, cardinal, diagonal, 2nd-order)."""
    a = _spde_a(rho)
    return np.array([4.0 + a * a, -2.0 * a, 2.0, 1.0])


def build_spde_structure(grid: GridSpec, rho: float) -> sp.csc_matrix:
    """Q(rho) on the 13-point stencil; see module docstring."""
    rows, cols, codes = _stencil_entries(grid, 3)
    m = grid.n_cells
    return sp.csc_matrix((_spde_stencil(rho)[codes], (rows, cols)), shape=(m, m))


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


def _reflection_bases(n: int):
    """Per parity (even, odd) of the DST-I modes of the path on n
    vertices: the adjacency eigenvalues of those modes, and in those
    modes the orthonormal basis of the vectors even (odd) under the
    reflection i -> n-1-i. Basis vector h belongs to vertex h of the
    first half: (e_h + e_{n-1-h})/sqrt 2, or (e_h - e_{n-1-h})/sqrt 2
    for odd parity, has coefficients sqrt 2 S[j, h] on the modes j of
    its parity; the middle vertex of an odd path, e_h itself, has
    S[j, h] and is even only."""
    s, cos = _dst_basis(n)
    half = (n + 1) // 2
    scale = np.full(half, np.sqrt(2.0))
    if n % 2:
        scale[-1] = 1.0  # the middle vertex
    bases = []
    for parity in (0, 1):
        k = half - (parity and n % 2)
        bases.append((cos[parity::2], s[parity::2, :k] * scale[:k]))
    return bases


class _SectorLogdet:
    """log|Q(rho)| of the spde structure on an H x W lattice by the
    closed form in the module docstring, one reflection sector at a time.

    Each sector pairs a parity of the H-modes with one of the W-modes.
    Its boundary basis is the row lines' combination with coefficients
    r (basis vector 0 of the H-parity) times every W-basis vector (F),
    then the inner H-basis vectors (G) times the column lines'
    combination c (basis vector 0 of the W-parity), with D^1/2 of their
    cells folded into F and G. A lattice one or two cells thin leaves a
    sector without inner rows or without any mode; such a sector is
    one-sided or skipped.
    """

    def __init__(self, height: int, width: int, cardinal_degree: np.ndarray):
        sqrt_d = np.sqrt(4.0 - cardinal_degree).reshape(height, width)
        self.sectors = []
        bases_w = _reflection_bases(width)
        for cos_h, b_h in _reflection_bases(height):
            for cos_w, b_w in bases_w:
                if b_h.size == 0 or b_w.size == 0:
                    continue
                r, c = b_h[:, 0], b_w[:, 0]
                f = b_w * sqrt_d[0, : b_w.shape[1]]
                g = b_h[:, 1:] * sqrt_d[1 : b_h.shape[1], 0]
                self.sectors.append((cos_h[:, None] + cos_w, r * r, c * c, f, g, f.T * c,
                                     r[:, None] * g))

    def __call__(self, a: float) -> float:
        value = 0.0
        for cos_sum, r2, c2, f, g, fc, rg in self.sectors:
            lam = a - cos_sum  # eigenvalues of K on this sector's modes
            inv2 = 1.0 / (lam * lam)
            k = f.shape[1]
            m = np.empty((k + g.shape[1],) * 2)
            m[:k, :k] = (f.T * (r2 @ inv2)) @ f  # F^T diag(sum_j r_j^2 lam^-2_jk) F
            m[k:, k:] = (g.T * (inv2 @ c2)) @ g  # G^T diag(sum_k c_k^2 lam^-2_jk) G
            m[:k, k:] = fc @ inv2.T @ rg  # F^T diag(c) (lam^-2)^T diag(r) G
            m[k:, :k] = m[:k, k:].T
            m.flat[:: m.shape[0] + 1] += 1.0
            sign, logdet_m = np.linalg.slogdet(m)
            if not sign > 0:
                raise NumericalError(f"spde structure log-determinant failed at a = {a!r}")
            value += 2.0 * np.log(lam).sum() + logdet_m
        if not np.isfinite(value):
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
                 class_degree=None, spde_logdet=None):
        self.kind = kind
        self.n_cells = m = n_cells
        self.rank = rank
        self.class_degree = class_degree
        self.spde_logdet = spde_logdet
        self.perm = perm
        inv = np.empty(m, dtype=np.int64)
        inv[self.perm] = np.arange(m)
        # LAPACK lower band storage, column-major: entry (i, j), i >= j in
        # band order, sits at row i - j of column j, flat slot i - j + depth * j
        d, j = inv[rows] - inv[cols], inv[cols]
        self.depth = int(d.max(initial=0)) + 1
        lower = d >= 0
        self.slots = d[lower] + self.depth * j[lower]
        if (np.diff(np.sort(self.slots)) == 0).any():
            raise NumericalError("duplicate entries in the structure matrix")
        self.base_band = base[lower] if base is not None else None
        self.base_rowsum = np.bincount(rows, base, m) if base is not None else None
        self.codes_band = codes[lower] if codes is not None else None

    @classmethod
    def from_grid(cls, kind: str, grid: GridSpec) -> "SpatialPrior":
        """The car (cardinal stencil) or spde (13-point stencil) prior of a lattice."""
        if kind not in (CAR, SPDE):
            raise InvalidArgumentError(f"unknown spatial prior kind {kind!r}")
        perm = fill_reducing_permutation(grid.height, grid.width)
        m = grid.n_cells
        rows, cols, codes = _stencil_entries(grid, 1 if kind == CAR else 3)
        if kind == CAR:
            return cls(CAR, m, m - 1, perm, rows, cols, base=_car_values(rows, codes, m))
        class_degree = np.stack([np.bincount(rows[codes == k], minlength=m)
                                 for k in (1, 2, 3)]).astype(float)
        spde_logdet = _SectorLogdet(grid.height, grid.width, class_degree[0])
        return cls(SPDE, m, m, perm, rows, cols, codes=codes, class_degree=class_degree,
                   spde_logdet=spde_logdet)

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
        return self.spde_logdet(_spde_a(rho))

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


def band_depth(kind: str, height: int, width: int) -> int:
    """Rows of the lower band of A + Q_p in the order of
    fill_reducing_permutation: the diagonal and one line of the shorter
    side for car, two lines for the spde stencil. Exact unless the
    lattice is too small to hold a neighbor that far (a single cell,
    or up to 2 x 2 for spde); there an upper bound."""
    side = min(height, width)
    return (side if kind == CAR else 2 * side) + 1


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


def _forward(factor: SparseFactor, b) -> np.ndarray:
    """C^-1 b in band order. The triangular solve takes its right-hand
    side times 2^half, so that C^-1 b comes out at its own scale."""
    rhs = np.ldexp(np.asarray(b, dtype=float)[factor.perm], factor.half)
    y, _ = dtbtrs(factor.band, rhs, uplo="L", overwrite_b=1)
    return y


def _substitute(factor: SparseFactor, b, z=None) -> np.ndarray:
    """C^-T (C^-1 b + z) in the original order (M^-1 b without z)."""
    y = _forward(factor, b)
    if z is not None:
        y += z
    c, half = factor.band, factor.half
    xp, _ = dtbtrs(c, np.ldexp(y, half, out=y), uplo="L", trans="T", overwrite_b=1)
    x = np.empty(factor.n)
    x[factor.perm] = xp
    return x


def solve(factor: SparseFactor, b: np.ndarray) -> np.ndarray:
    """Solve M x = b through the cached factorization."""
    return _substitute(factor, b)


def quadratic_form(factor: SparseFactor, b: np.ndarray) -> float:
    """b' M^-1 b = |C^-1 b_perm|^2, with one forward triangular solve."""
    y = _forward(factor, b)
    return float(y @ y)


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
