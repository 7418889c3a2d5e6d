"""Monte Carlo conversion of latent fields to composition proportions,
posterior summaries, and effective-sample-size diagnostics.

Proportions are estimated per cell as argmax frequencies over simulated
latent draws, so every sample is an exact empirical proportion (a
multiple of 1/T) and sums to one by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain_grid import GridSpec
from .errors import InvalidArgumentError
from .model_core import TaxonRegistry

DEFAULT_MC_DRAWS = 10_000

# Cap on floats materialized per batch: cells x T x P in estimate_theta,
# FFT length x series in effective_sample_size.
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


def estimate_theta(alpha: np.ndarray, t_mc: int, rng: np.random.Generator) -> np.ndarray:
    """Argmax-frequency proportions for one set of latent fields.

    For each cell draws t_mc iid P-vectors W ~ N(alpha_row, I) and
    returns the per-taxon frequency with which each taxon attains the
    maximum. Output rows sum to 1 exactly.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    if t_mc < 1:
        raise InvalidArgumentError(f"t_mc must be >= 1, got {t_mc}")
    m, p = alpha.shape
    if p == 1:
        return np.ones((m, 1))
    out = np.empty((m, p))
    batch = max(1, _BATCH_BUDGET // (t_mc * p))
    for lo in range(0, m, batch):
        hi = min(lo + batch, m)
        draws = rng.standard_normal((hi - lo, t_mc, p))
        draws += alpha[lo:hi, None, :]
        winners = draws.argmax(axis=2)
        flat = winners + (np.arange(hi - lo) * p)[:, None]
        counts = np.bincount(flat.ravel(), minlength=(hi - lo) * p).reshape(hi - lo, p)
        out[lo:hi] = counts / float(t_mc)
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
