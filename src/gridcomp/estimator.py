"""Exact conversion of latent fields to composition proportions,
posterior summaries, and effective-sample-size diagnostics.

A cell's composition is the multinomial-probit probability that each
taxon's unit-variance latent normal is the largest, a one-dimensional
integral computed by the trapezoid rule on a grid anchored at the cell's
largest field, so proportions carry no Monte Carlo noise and draw no
random numbers. The rule's spacing shrinks as 1 / sqrt(2 ln P), and
its error is at rounding level (about 2e-15 against adaptive
quadrature up to P = 40).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .domain_grid import GridSpec
from .errors import InvalidArgumentError
from .model_core import TaxonRegistry

_SQRT_HALF = np.sqrt(0.5)

# The trapezoid rule for estimate_theta runs over u = alpha_max + h k,
# |k| <= ceil(_THETA_HALF_WIDTH / h), at spacing h = _THETA_STEP /
# sqrt(2 ln P). Farther than 9 from alpha_max every integrand is below
# phi(9) ~ 1e-18; the spacing shrinks with the density of the largest of
# P normals, whose width falls like 1 / sqrt(2 ln P).
_THETA_HALF_WIDTH = 9.0
_THETA_STEP = 0.6

# Cap on the cells x taxa x nodes floats of one estimate_theta block;
# 256 KiB per array keeps a block's passes in cache.
_THETA_BLOCK = 1 << 15

# Cap on the draws x cells x taxa floats of one summarize block.
_SUMMARY_BLOCK = 1 << 18

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
    that is int phi(u - alpha_p) prod_{q != p} Phi(u - alpha_q) du, by the
    trapezoid rule on u_k = alpha_max + h k; rows are normalized to sum
    to 1.

    Each cell's taxa are stably sorted by decreasing alpha, so with
    d_q = alpha_max - alpha_q >= 0 the factors are Phi(d_q + h k) and
    phi(d_q + h k): one erfc and one exp per non-largest taxon and node,
    while the largest taxon's Phi(h k) and phi(h k) are shared by every
    cell. The product over q != p is a prefix times a suffix product, so
    nothing is divided. Factors are read as erfc(-x / sqrt 2) = 2 Phi(x),
    which keeps small proportions to full relative precision; the
    constants 2^(P-1), sqrt(2 pi) and h are common to a row and the
    normalization removes them.

    The integrand is entire with Gaussian tails, so the rule converges
    exponentially in 1 / h (Trefethen & Weideman 2014). With
    h = 0.6 / sqrt(2 ln P) and |h k| <= 9 (rounded up to a whole node) the
    absolute error against adaptive quadrature is about 2e-15 for
    P <= 40, and a two-taxon proportion of 1e-12 keeps a relative error
    below 1e-10.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    m, p = alpha.shape
    if p == 1:
        return np.ones((m, 1))
    h = _THETA_STEP / np.sqrt(2.0 * np.log(p))
    half = int(np.ceil(_THETA_HALF_WIDTH / h))
    nodes = np.arange(-half, half + 1) * (h * _SQRT_HALF)  # (u - alpha_max) / sqrt 2
    n = nodes.size
    top_cdf = erfc(-nodes)  # 2 Phi(h k)
    top_pdf = np.exp(-nodes * nodes)  # sqrt(2 pi) phi(h k)
    order = np.argsort(-alpha, axis=1, kind="stable")
    scaled = np.take_along_axis(alpha, order, axis=1) * _SQRT_HALF
    neg_shift = (scaled[:, 1:] - scaled[:, :1]).T  # -d_q / sqrt 2, (taxa, cells)
    sorted_theta = np.empty((p, m))
    batch = max(1, _THETA_BLOCK // ((p - 1) * n))
    work = np.empty((3, (p - 1) * min(batch, m) * n))
    for lo in range(0, m, batch):
        b = min(batch, m - lo)
        # taxon-major blocks [q, c, k] over the non-largest taxa q
        x, cdf, pdf = work[:, : (p - 1) * b * n].reshape(3, p - 1, b, n)
        np.subtract(neg_shift[:, lo : lo + b, None], nodes, out=x)
        erfc(x, out=cdf)  # 2 Phi(d_q + h k)
        np.square(x, out=x)
        np.negative(x, out=x)
        np.exp(x, out=pdf)  # sqrt(2 pi) phi(d_q + h k)
        # prefix products over the sorted non-largest taxa; the largest
        # taxon's factor top_cdf enters through the weights below
        run = cdf[0].copy()
        for q in range(1, p - 1):
            pdf[q] *= run
            run *= cdf[q]
        sorted_theta[0, lo : lo + b] = run @ top_pdf
        # suffix products, from the smallest field back
        run[:] = cdf[-1]
        for q in range(p - 3, -1, -1):
            pdf[q] *= run
            if q:
                run *= cdf[q]
        sorted_theta[1:, lo : lo + b] = (pdf.reshape(-1, n) @ top_cdf).reshape(p - 1, b)
    sorted_theta /= sorted_theta.sum(axis=0)
    out = np.empty((m, p))
    np.put_along_axis(out, order, sorted_theta.T, axis=1)
    return out


def summarize(samples: PosteriorSamples) -> PosteriorSummary:
    """Exact sample statistics over the K retained draws, taken over
    blocks of cells so that no temporary is a copy of the whole theta."""
    th = samples.theta
    k, m, p = th.shape
    if k < 2:
        raise InvalidArgumentError("summaries require at least 2 posterior samples")
    mean, sd, q025, q975 = (np.empty((m, p)) for _ in range(4))
    batch = max(1, _SUMMARY_BLOCK // (k * p))
    for lo in range(0, m, batch):
        cells = slice(lo, lo + batch)
        block = th[:, cells]
        mean[cells] = block.mean(axis=0)
        sd[cells] = block.std(axis=0, ddof=1)
        q025[cells], q975[cells] = np.quantile(block, [0.025, 0.975], axis=0)
    return PosteriorSummary(
        grid=samples.grid, taxa=samples.taxa, mean=mean, sd=sd, q025=q025, q975=q975
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
