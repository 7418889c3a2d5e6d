"""Exact conversion of latent fields to composition proportions,
posterior summaries, and effective-sample-size diagnostics.

A cell's composition is the multinomial-probit probability that each
taxon's unit-variance latent normal is the largest, a one-dimensional
integral computed by Gauss-Hermite quadrature, so proportions carry no
Monte Carlo noise and draw no random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import erfc

from .domain_grid import GridSpec
from .errors import InvalidArgumentError
from .model_core import TaxonRegistry

# A 48-node probabilists' Gauss-Hermite rule for E f(Z), Z ~ N(0, 1),
# taken in the variable U = Z / s: nodes s u_k, weights proportional to
# w_k exp((1 - s^2) u_k^2 / 2). The left tail of prod_q Phi(z + d_q)
# narrows as P grows; s = 0.6 puts more nodes there. Against adaptive
# quadrature the largest error is ~1e-15 for P <= 15 and 6e-14 at P = 22,
# where s = 1 gives 1.5e-10 at P = 7 and 3e-7 at P = 22. The nodes stay
# symmetric (z[n-1-k] == -z[k] exactly), which estimate_theta relies on.
_GH_SCALE = 0.6
_u, _w = hermegauss(48)
_GH_NODES = _GH_SCALE * _u
_GH_WEIGHTS = _w * np.exp(0.5 * (1.0 - _GH_SCALE**2) * _u**2)
_GH_WEIGHTS /= _GH_WEIGHTS.sum()
del _u, _w
_SQRT_HALF = np.sqrt(0.5)
_GH_SCALED = _GH_NODES * _SQRT_HALF

# Cap on the cells x pairs x nodes floats of one estimate_theta block;
# 256 KiB per array keeps a block's passes in cache.
_THETA_BLOCK = 1 << 15

# Cap on floats materialized per batch: FFT length x series in
# effective_sample_size.
_BATCH_BUDGET = 8_000_000


@dataclass
class PosteriorSamples:
    """K retained draws of per-cell, per-taxon proportions.

    theta has shape (K, m_core, P) over core (unbuffered) cells in
    core-row-major order; this is the shippable product.
    """

    grid: GridSpec
    taxa: TaxonRegistry
    theta: np.ndarray
    seed: int | None = None
    model_kind: str | None = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        k, m, p = self.theta.shape
        if m != self.grid.n_core_cells or p != self.taxa.n_taxa:
            raise InvalidArgumentError(
                f"theta shape {self.theta.shape} does not match grid/taxa "
                f"({self.grid.n_core_cells} core cells, {self.taxa.n_taxa} taxa)"
            )

    @property
    def n_samples(self) -> int:
        return self.theta.shape[0]

    def posterior_mean(self) -> np.ndarray:
        return self.theta.mean(axis=0)


@dataclass
class PosteriorSummary:
    """Pointwise posterior mean, sd, and central 95% interval.

    All arrays are (m_core, P). Quantiles use linear interpolation of
    order statistics (numpy's default convention).
    """

    grid: GridSpec
    taxa: TaxonRegistry
    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q975: np.ndarray


def estimate_theta(alpha: np.ndarray) -> np.ndarray:
    """Exact multinomial-probit proportions for one set of latent fields.

    theta[c, p] = P(W_p is the largest | alpha[c]) with W ~ N(alpha[c], I),
    that is E_Z prod_{q != p} Phi(Z + alpha_p - alpha_q) for Z ~ N(0, 1),
    by a fixed Gauss-Hermite rule; rows are normalized to sum to 1.

    One erfc per unordered taxon pair p < q serves both orientations:
    with x_k = z_k + alpha_p - alpha_q, node symmetry gives
    Phi(z_k + alpha_q - alpha_p) = Phi(-x_{n-1-k}). Every factor is read
    from the smaller tail erfc(|x| / sqrt 2), so tiny proportions keep
    their relative precision. The factors are 2 Phi, a constant 2^(P-1)
    per row that the normalization removes exactly.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    m, p = alpha.shape
    if p == 1:
        return np.ones((m, 1))
    first, second = np.triu_indices(p, 1)
    diag = np.arange(p)
    scaled = alpha * _SQRT_HALF
    out = np.empty((m, p))
    batch = max(1, _THETA_BLOCK // (first.size * _GH_NODES.size))
    for lo in range(0, m, batch):
        a = scaled[lo : lo + batch]
        x = (a[:, first] - a[:, second])[:, :, None] + _GH_SCALED  # (cells, pairs, nodes)
        below = x < 0
        tail = erfc(np.abs(x, out=x), out=x)  # 2 Phi(-|x|)
        body = 2.0 - tail
        # factors[c, p, q, k] = 2 Phi(z_k + alpha_p - alpha_q), and 1 on the diagonal
        factors = np.empty((a.shape[0], p, p, _GH_NODES.size))
        factors[:, first, second] = np.where(below, tail, body)
        factors[:, second, first] = np.where(below, body, tail)[:, :, ::-1]
        factors[:, diag, diag] = 1.0
        out[lo : lo + batch] = factors.prod(axis=2) @ _GH_WEIGHTS
    out /= out.sum(axis=1, keepdims=True)
    return out


def summarize(samples: PosteriorSamples) -> PosteriorSummary:
    """Exact sample statistics over the K retained draws."""
    th = samples.theta
    if th.shape[0] < 2:
        raise InvalidArgumentError("summaries require at least 2 posterior samples")
    q = np.quantile(th, [0.025, 0.975], axis=0)
    return PosteriorSummary(
        grid=samples.grid,
        taxa=samples.taxa,
        mean=th.mean(axis=0),
        sd=th.std(axis=0, ddof=1),
        q025=q[0],
        q975=q[1],
    )


def effective_sample_size(series: np.ndarray):
    """Autocorrelation-adjusted sample size of MCMC series along axis 0.

    ``series`` has shape (K, ...): every trailing index is one series of
    K draws. Uses the initial-positive-sequence truncation:
    autocovariances are summed while consecutive even/odd pair sums stay
    positive. Clamped to (0, K]; a constant series returns K by
    convention. Returns a float for a 1-D input, else an array of the
    trailing shape.
    """
    x = np.asarray(series, dtype=float)
    k = x.shape[0] if x.ndim else 0
    if k < 10:
        raise InvalidArgumentError(f"need at least 10 points, got {k}")
    flat = x.reshape(k, -1)
    nfft = int(2 ** np.ceil(np.log2(2 * k)))
    n_pairs = k // 2
    out = np.empty(flat.shape[1])
    # FFT autocovariances at lags 0..k-1, a block of series at a time
    batch = max(1, _BATCH_BUDGET // nfft)
    for lo in range(0, flat.shape[1], batch):
        block = flat[:, lo : lo + batch]
        xc = block - block.mean(axis=0)
        var = np.einsum("ij,ij->j", xc, xc) / k
        f = np.fft.rfft(xc, nfft, axis=0)
        acov = np.fft.irfft(f * np.conj(f), nfft, axis=0)[:k] / k
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = acov / acov[0]
        # initial positive sequence: sum pairs (rho_2t + rho_2t+1) while positive
        pairs = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
        kept = np.logical_and.accumulate(pairs > 0, axis=0)
        tau = -1.0 + 2.0 * np.where(kept, pairs, 0.0).sum(axis=0)
        with np.errstate(divide="ignore"):
            ess = np.minimum(k / tau, k)
        out[lo : lo + batch] = np.where((var == 0) | (tau <= 0), float(k), ess)
    if x.ndim == 1:
        return float(out[0])
    return out.reshape(x.shape[1:])
