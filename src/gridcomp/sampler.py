"""MCMC engine: truncated-normal latent updates, joint Gaussian field
draws, cross-level hyperparameter moves with adaptive proposals, and
township membership resampling.

One sweep is: update latent tree normals -> resample township
memberships -> refresh sufficient statistics -> per taxon, the scale
move (Metropolis on the field-marginalized density), for spde an exact
draw of the mean, then one Gibbs draw of the field. Retained
iterations stream through the exact proportion estimator, which draws
no random numbers, so latent-field histories never need to be stored
and the chain's trajectory does not depend on when it retains.
"""

from __future__ import annotations

import hashlib
import json
import time
import zipfile
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from . import estimator as est
from . import precision as prec
from .errors import ConfigError, InvalidArgumentError, NumericalError
from .io_formats import atomic_write
from .model_core import Dataset, Hyperpriors, LatentState, TownshipTrees

# Proposals below this sigma are auto-rejected: the prior mass there is
# negligible and 1/sigma^2 would overflow the precision scaling.
_SIGMA_FLOOR = 1e-8

CHECKPOINT_VERSION = 6


# ---------------------------------------------------------------------------
# Truncated normal draws, stable in far tails
# ---------------------------------------------------------------------------


def _std_trunc_below(rng, d):
    """Y ~ N(0,1) conditioned on Y < d, via CDF inversion, one draw per
    entry of d.

    Works directly in the lower tail so bounds many standard deviations
    out stay exact.
    """
    d = np.asarray(d, dtype=float)
    return _invert_below(rng.random(d.shape), d, ndtr(d))


def _invert_below(y, d, cdf):
    """Turn the uniforms y, in place, into N(0,1) draws below d by
    inverting the CDF, given cdf = ndtr(d); returns y."""
    np.multiply(np.subtract(1.0, y, out=y), cdf, out=y)
    ndtri(np.fmax(y, 1e-320, out=y), out=y)
    # enforce the open bound exactly; only ties after rounding (and NaN) fail y < d
    below = y < d
    if not below.all():
        tie = ~below
        y[tie] = np.minimum(y[tie], np.nextafter(np.broadcast_to(d, y.shape)[tie], -np.inf))
    return y


def _std_below_by_rejection(rng, d, out):
    """Y ~ N(0,1) conditioned on Y < d, into out: a plain normal where it
    falls strictly below d, else a draw by inversion. The kept normals
    carry weight Phi(d) and the inverted draws 1 - Phi(d), so the mixture
    is exactly the truncated law (Robert 1995). With d above about -1,
    as for most rival draws, most draws need neither ndtr nor ndtri."""
    rng.standard_normal(out=out)
    miss = ~(out < d)  # a NaN bound misses, and inversion keeps it NaN
    if miss.any():
        out[miss] = _std_trunc_below(rng, d[miss])
    return out


def _truncnorm_between(u, mean, tau, bound):
    """N(mean, 1/tau) truncated to [-bound, bound] by inverting its CDF at
    the uniform u, or U(-bound, bound) when tau <= 0. A negative mean is
    mirrored, so the standardized interval (a, b) is centred at or below
    0, and the CDF is taken in logs: a mean far outside stays exact."""
    if tau <= 0:
        return bound * (2.0 * u - 1.0)
    sd, m = tau**-0.5, abs(mean)
    a, b = (-bound - m) / sd, (bound - m) / sd
    log_b = log_ndtr(b)
    # log Phi(y) = log Phi(b) + log(1 - (1 - u)(1 - Phi(a) / Phi(b)))
    y = np.clip(ndtri_exp(log_b + np.log1p((1.0 - u) * np.expm1(log_ndtr(a) - log_b))), a, b)
    return (-1.0 if mean < 0 else 1.0) * np.clip(m + sd * y, -bound, bound)


# ---------------------------------------------------------------------------
# Configuration and per-chain state
# ---------------------------------------------------------------------------


@dataclass
class SamplerConfig:
    """Chain schedule, proposal targets, and prior bounds."""

    n_iter: int = 150_000
    burn_in: int = 25_000
    n_retained: int = 250
    seed: int = 0
    adapt_interval: int = 50
    target_accept_1d: float = 0.44
    target_accept_2d: float = 0.234
    hyperpriors: Hyperpriors = field(default_factory=Hyperpriors)
    model_kind: str = prec.CAR
    store_alpha: bool = False

    def __post_init__(self):
        if self.model_kind not in (prec.CAR, prec.SPDE):
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
        if self.burn_in < 0 or self.n_iter <= self.burn_in:
            raise ConfigError(f"need 0 <= burn_in < n_iter, got {self.burn_in}, {self.n_iter}")
        span = self.n_iter - self.burn_in
        if self.n_retained < 1 or span % self.n_retained != 0:
            raise ConfigError(
                f"n_retained={self.n_retained} must divide n_iter - burn_in = {span} evenly"
            )
        if self.adapt_interval < 1:
            raise ConfigError("adapt_interval must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def thin(self) -> int:
        return (self.n_iter - self.burn_in) // self.n_retained

    def retained_iterations(self) -> np.ndarray:
        """Evenly spaced 1-based iteration indices in (burn_in, n_iter]."""
        return self.burn_in + self.thin * np.arange(1, self.n_retained + 1)


class AdaptiveProposal:
    """Random-walk proposals for one hyperparameter block, one per taxon,
    each adapting its scale (and 2-D shape) toward a target rate.

    The state is held in arrays over the P taxa, and every method takes
    the taxon index p. log_scale moves by batches**-0.5 * (rate - target)
    once per adaptation batch of attempts, so adjustments diminish over
    time; frozen stops adaptation at the end of burn-in. A 2-D block also
    keeps the running count, mean (P, 2) and sum of squared deviations
    m2 (P, 2, 2) of its sampled values to shape the proposal covariance.
    """

    def __init__(self, dim: int, target: float, log_scale: float, n_taxa: int):
        self.dim = dim
        self.target = target
        self.log_scale = np.full(n_taxa, float(log_scale))
        self.attempts = np.zeros(n_taxa, dtype=np.int64)  # in the current batch
        self.accepts = np.zeros(n_taxa, dtype=np.int64)
        self.batches = np.zeros(n_taxa, dtype=np.int64)
        self.frozen = np.zeros(n_taxa, dtype=bool)
        if dim == 2:
            self.count = np.zeros(n_taxa, dtype=np.int64)
            self.mean = np.zeros((n_taxa, 2))
            self.m2 = np.zeros((n_taxa, 2, 2))

    def arrays(self) -> dict:
        """The state arrays by attribute name."""
        return {name: a for name, a in vars(self).items() if isinstance(a, np.ndarray)}

    def propose(self, rng, p, phi):
        step = np.exp(self.log_scale[p])
        if self.dim == 1:
            return phi + step * rng.standard_normal()
        chol = np.linalg.cholesky(self.shape_matrix(p))
        return phi + step * (chol @ rng.standard_normal(2))

    def shape_matrix(self, p):
        if self.count[p] >= 20:
            return self.m2[p] / (self.count[p] - 1) + 1e-9 * np.eye(2)
        return 0.01 * np.eye(2)

    def record_sample(self, p, phi):
        if self.dim != 2 or self.frozen[p]:
            return
        self.count[p] += 1
        mean = self.mean[p]
        delta = phi - mean
        mean += delta / self.count[p]
        self.m2[p] += np.outer(delta, phi - mean)

    def register(self, p, accepted: bool):
        self.attempts[p] += 1
        self.accepts[p] += int(accepted)

    def maybe_adapt(self, p, interval: int):
        if self.frozen[p] or self.attempts[p] < interval:
            return
        rate = int(self.accepts[p]) / int(self.attempts[p])
        self.batches[p] += 1
        self.log_scale[p] += int(self.batches[p]) ** -0.5 * (rate - self.target)
        self.attempts[p] = 0
        self.accepts[p] = 0


@dataclass
class SufficientStats:
    """Per-cell tree counts and latent-normal means under the current
    tree placement; recomputed whenever memberships or W change."""

    a_diag: np.ndarray  # (m,) tree count per cell
    wbar: np.ndarray  # (m, P), zero where a_diag == 0


def _taxon_runs(taxon, lo: int, hi: int, p: int) -> list:
    """Where each taxon's run of trees starts among trees lo:hi, whose
    labels must be sorted: P + 1 positions, lo first and hi last."""
    t = taxon[lo:hi]
    if (t[1:] < t[:-1]).any() or t[0] < 0 or t[-1] >= p:
        raise InvalidArgumentError(f"trees {lo}:{hi} are not sorted by taxon in 0..{p - 1}")
    return (lo + np.searchsorted(t, np.arange(p + 1))).tolist()


class LatentDraws:
    """What one latent draw needs and leaves, in buffers reused every
    sweep. Trees are stored taxon-major within each section (gridded,
    then township). Each section has an entry ``starts`` in
    ``sections``: its trees of taxon j are the run
    starts[j]:starts[j + 1], and those not recorded as j are the runs
    before and after it.

    The draw works in column-sized buffers: ``column`` holds the taxon
    being drawn over every tree, ``upper`` the observed draws, ``mean``
    and ``bound`` each draw's mean and standardized bound. It leaves
    the per-cell sums of the gridded trees' normals, one contiguous row
    per taxon (P, m), and the township trees' normals (P, township
    trees), which the membership draw reads and compute_sufficient_stats
    adds on the trees' new cells."""

    def __init__(self, state: LatentState):
        m, p = state.alpha.shape
        n, ng = state.tree_cell.size, state.n_gridded
        self.sections = [_taxon_runs(state.tree_taxon, lo, hi, p)
                         for lo, hi in ((0, ng), (ng, n)) if hi > lo]
        self.grid_cell = state.tree_cell[:ng]  # static, so a view stays valid
        self.column, self.upper, self.mean, self.bound = (np.empty(n) for _ in range(4))
        self.grid_sums = np.zeros((p, m))
        self.township = np.zeros((p, n - ng))

    def keep(self, j: int) -> None:
        """Reduce taxon j's column: sum the gridded trees per cell and
        copy out the township trees."""
        ng, col = self.grid_cell.size, self.column
        self.grid_sums[j] = np.bincount(
            self.grid_cell, weights=col[:ng], minlength=self.grid_sums.shape[1]
        )
        self.township[j] = col[ng:]


def compute_sufficient_stats(state: LatentState, draws: LatentDraws) -> SufficientStats:
    """Counts and means under the current tree placement: the gridded
    trees' per-cell sums plus the township trees' on their new cells."""
    m = state.alpha.shape[0]
    counts = np.bincount(state.tree_cell, minlength=m).astype(float)
    sums = draws.grid_sums.copy()
    town_cell = state.tree_cell[state.n_gridded :]
    for row, w in zip(sums, draws.township):
        row += np.bincount(town_cell, weights=w, minlength=m)
    np.divide(sums, counts, out=sums, where=counts > 0)
    return SufficientStats(a_diag=counts, wbar=sums.T)


# ---------------------------------------------------------------------------
# Latent updates
# ---------------------------------------------------------------------------


def _below_observed(drawn, upper, ties: bool) -> bool:
    """Whether a taxon's draws for a run of trees keep each one's observed
    draw (upper) its first maximum: below it, or equal to it when ties
    (the run's observed taxa come before the drawn one). A NaN on either
    side fails."""
    return bool((drawn <= upper).all() if ties else (drawn < upper).all())


def _draw_below(rng, draws: LatentDraws, mean_row, cells, run: slice, ties: bool) -> bool:
    """One taxon's draws for the trees of run, none recorded as it, each
    below the tree's observed draw, into draws.column[run] (by rejection
    from plain normals); returns _below_observed for them."""
    y, mean, d, upper = draws.column[run], draws.mean[run], draws.bound[run], draws.upper[run]
    np.take(mean_row, cells, out=mean, mode="clip")  # cells are valid; see update_W
    _std_below_by_rejection(rng, np.subtract(upper, mean, out=d), out=y)
    np.add(mean, y, out=y)
    return _below_observed(y, upper, ties)


def update_W(state: LatentState, draws: LatentDraws, rng: np.random.Generator) -> bool:
    """Resample every tree's latent normals from their truncated
    conditionals, one taxon column at a time in draws.column: the
    observed taxon first, above others_max, by inversion; then each
    taxon j below the observed draw for the trees not recorded as j,
    the two runs beside j's run in each section (_draw_below). Each
    column is reduced as it is drawn: folded into others_max and kept
    by draws.keep.

    Returns whether every tree's observed draw is its first maximum with
    no NaN drawn (the argmax invariant of the probit link)."""
    alpha, cell = state.alpha, state.tree_cell
    n, p = cell.size, alpha.shape[1]
    if n == 0:
        return True
    col = draws.column
    alpha_t = np.ascontiguousarray(alpha.T)  # one contiguous row per taxon
    # every cell indexes the grid; mode="clip" only spares take its
    # bounds-checked copy of out
    if p == 1:
        np.take(alpha_t[0], cell, out=col, mode="clip")
        col += rng.standard_normal(out=draws.mean)
        draws.keep(0)
        return not np.isnan(col).any()
    others_max, upper, mean, bound = state.others_max, draws.upper, draws.mean, draws.bound
    for starts in draws.sections:
        for t in range(p):
            run = slice(starts[t], starts[t + 1])
            np.take(alpha_t[t], cell[run], out=mean[run], mode="clip")
    # the observed draw is mean - Y with Y < mean - others_max
    np.subtract(mean, others_max, out=bound)
    _invert_below(rng.random(out=col), bound, ndtr(bound, out=upper))
    np.subtract(mean, col, out=upper)
    others_max.fill(-np.inf)
    consistent = True
    for j in range(p):
        for starts in draws.sections:
            start, stop = starts[j], starts[j + 1]
            col[start:stop] = upper[start:stop]
            # argmax takes the first maximum, so only trees observed as a
            # taxon before j may tie; every tree has a rival run, so a NaN
            # observed draw fails too
            for run, ties in ((slice(starts[0], start), True), (slice(stop, starts[-1]), False)):
                consistent &= _draw_below(rng, draws, alpha_t[j], cell[run], run, ties)
                np.maximum(others_max[run], col[run], out=others_max[run])
        draws.keep(j)
    return consistent


# trees per block of a membership draw; bounds its (k, trees) temporaries
_MEMBERSHIP_CHUNK = 4096


@dataclass
class _SupportGroup:
    """The township trees whose township has k support cells, in
    township order."""

    # per township (T of them), one column each
    cells: np.ndarray  # (k, T) int32 support cells
    log_weights: np.ndarray  # (k, T)
    first_slot: np.ndarray  # (T,) first tally slot
    # per tree (n of them)
    pos: np.ndarray  # (n,) position among the township trees, ascending
    local: np.ndarray  # (n,) its township's column

    def chunks(self):
        """Blocks of at most _MEMBERSHIP_CHUNK trees: their positions, their
        townships' columns and their support cells (k, trees)."""
        for lo in range(0, self.pos.size, _MEMBERSHIP_CHUNK):
            local = self.local[lo : lo + _MEMBERSHIP_CHUNK]
            yield self.pos[lo : lo + _MEMBERSHIP_CHUNK], local, np.take(self.cells, local, axis=1)


class TownshipLayout:
    """Township trees grouped by the size k of their township's support,
    built once per chain. Township trees sit after the gridded ones,
    taxon-major: a stable sort of their labels, so each taxon's trees
    keep township order, and labels holds them in that order. A tree's
    position counts from the first township tree; order[pos] is its
    index among the township trees in township order. The chain does
    not depend on the order of a township's labels. The membership
    tally has one flat slot per (township, support cell) pair in
    township order, starting at slot_starts[township].

    The layout also owns the buffers each membership draw fills: the
    uniforms and every tree's chosen slot. Allocating them afresh every
    sweep raised the peak RSS of a 46,200-tree fit by about 10 MB."""

    def __init__(self, townships: TownshipTrees):
        sizes = np.array([ov.cells.size for ov in townships.overlaps], dtype=np.int64)
        n_trees = np.array([labels.size for labels in townships.taxon_labels], dtype=np.int64)
        self.township_ids = [ov.township_id for ov in townships.overlaps]
        self.starts = np.cumsum(n_trees) - n_trees
        self.slot_starts = np.cumsum(sizes) - sizes
        self.n_slots = int(sizes.sum())
        self.n_trees = int(n_trees.sum())
        self.uniforms = np.empty(self.n_trees)
        self.slot = np.empty(self.n_trees, dtype=np.int64)
        labels = np.concatenate([np.zeros(0, np.int64), *townships.taxon_labels])
        self.order = np.argsort(labels, kind="stable")
        self.labels = labels[self.order]
        tree_town = np.repeat(np.arange(sizes.size), n_trees)[self.order]
        self.groups = []
        for k in np.unique(sizes):
            towns = np.flatnonzero(sizes == k)
            cells = np.stack([townships.overlaps[t].cells for t in towns], axis=1)
            weights = np.stack([townships.overlaps[t].weights for t in towns], axis=1)
            pos = np.flatnonzero(sizes[tree_town] == k)
            local = np.searchsorted(towns, tree_town[pos])
            self.groups.append(
                _SupportGroup(
                    cells=cells.astype(np.int32),
                    log_weights=np.log(weights),
                    first_slot=self.slot_starts[towns],
                    pos=pos,
                    local=local,
                )
            )

    def degenerate(self, index: int) -> NumericalError:
        """The error naming the township tree of the given index in
        township order."""
        t = int(np.searchsorted(self.starts, index, side="right")) - 1
        return NumericalError(
            f"membership weights degenerate for tree {index - self.starts[t]} of township "
            f"{self.township_ids[t]}"
        )


def update_memberships(
    state: LatentState, township_w: np.ndarray, layout: TownshipLayout, rng
) -> np.ndarray:
    """Redraw the latent cell of every township tree from its discrete
    posterior over the township's support cells, given the trees' latent
    normals township_w (P, township trees); return each tree's flat slot
    in the membership tally (layout.slot, overwritten by the next draw).

    One generator call draws the uniforms in tree order. Trees are drawn
    by support size in (k, trees) blocks, so the max, exp, normalizing
    sum and cdf reduce over the k rows element-wise along the trees. The
    dot products w . alpha_c are multiply-adds over the taxa in order,
    so a log likelihood may differ from a matmul's in the last place."""
    tree_cell = state.tree_cell[state.n_gridded :]
    u = rng.random(out=layout.uniforms)
    slot = layout.slot
    # one contiguous row per taxon
    alpha_t = np.ascontiguousarray(state.alpha.T)
    half_sq = 0.5 * np.sum(state.alpha * state.alpha, axis=1)
    first_bad = layout.n_trees
    for group in layout.groups:
        k = group.cells.shape[0]
        for pos, local, cells in group.chunks():
            w_t = np.take(township_w, pos, axis=1)  # (P, trees)
            # non-finite normals or fields surface as a bad normalizer below
            with np.errstate(invalid="ignore", over="ignore"):
                logw = np.take(alpha_t[0], cells)
                logw *= w_t[0]
                term = np.empty_like(logw)
                for p in range(1, w_t.shape[0]):
                    np.take(alpha_t[p], cells, out=term)
                    term *= w_t[p]
                    logw += term
                logw -= np.take(half_sq, cells)
                logw += np.take(group.log_weights, local, axis=1)
                logw -= logw.max(axis=0)
                np.exp(logw, out=logw)
                norm = logw.sum(axis=0)
            bad = ~np.isfinite(norm) | (norm <= 0)
            if bad.any():  # the first bad tree in township order
                first_bad = min(first_bad, int(layout.order[pos[bad]].min()))
                continue
            logw /= norm
            # the cdf row by row: np.cumsum along axis 0 took about ten
            # times as long on these (k, trees) blocks
            for j in range(1, k):
                logw[j] += logw[j - 1]
            choice = np.minimum((logw < u[pos]).sum(axis=0), k - 1)
            tree_cell[pos] = cells[choice, np.arange(pos.size)]
            slot[pos] = group.first_slot[local] + choice
    if first_bad < layout.n_trees:
        raise layout.degenerate(first_bad)
    return slot


# ---------------------------------------------------------------------------
# Field conditional and marginalized hyperparameter density
# ---------------------------------------------------------------------------


def _marginal(prior, sigma2, mu, rho, a_diag, wbar_p, factor=None, structure_logdet=None):
    """Log density of the latent normals with the field integrated out,
    up to terms constant in (sigma, mu, rho): half of
    log|Q_p| - log|A + Q_p| + b'(A + Q_p)^-1 b - mu^2 1'Q_p 1 with
    b = A wbar + mu Q_p 1. The same expression serves both priors (mu
    stays 0 for car). Also returns the factor and the structure logdet,
    so a move can keep what it accepts."""
    scale = prec.q_scale(prior.kind, sigma2, rho)
    if structure_logdet is None:
        structure_logdet = prior.structure_logdet(rho)
    rowsum = prior.qp_rowsum(sigma2, rho)
    if factor is None:
        factor = prior.conditional_factor(sigma2, a_diag, rho)
    b = a_diag * wbar_p + mu * rowsum
    logdet_qp = prior.rank * np.log(scale) + structure_logdet
    val = (
        0.5 * logdet_qp
        - 0.5 * prec.logdet(factor)
        + 0.5 * float(b @ prec.solve(factor, b))
        - 0.5 * mu**2 * float(rowsum.sum())
    )
    return val, factor, structure_logdet


# ---------------------------------------------------------------------------
# Cross-level joint hyperparameter updates
# ---------------------------------------------------------------------------


def _mh_accept(rng, log_ratio: float) -> bool:
    if log_ratio >= 0:
        return True
    return np.log(rng.random()) < log_ratio


def _hyper(chain, p):
    """Taxon p's (sigma2, mu, rho) as Python floats."""
    return float(chain.sigma2[p]), float(chain.mu[p]), float(chain.rho[p])


def _update_scale(chain, p, prop):
    """Joint (log sigma, field) move when prop.dim == 1 (car), joint
    (log sigma, log rho, field) move with a bivariate adapted proposal
    when prop.dim == 2 (spde); the field draw itself is deferred to the
    trailing Gibbs step. Only the 2-D move reads the rho bounds."""
    prior, stats, hp = chain.prior, chain.stats, chain.hp
    sigma2, mu, rho = _hyper(chain, p)
    wbar_p = stats.wbar[:, p]
    cur_val, chain.factors[p], chain.structure_logdets[p] = _marginal(
        prior, sigma2, mu, rho, stats.a_diag, wbar_p, chain.factors[p], chain.structure_logdets[p]
    )
    phi = np.array([0.5 * np.log(sigma2), np.log(rho)])[: prop.dim]
    phi_star = prop.propose(chain.rng, p, phi)
    star_scale = np.exp(phi_star)
    sigma_star = star_scale[0]
    rho_star = star_scale[1] if prop.dim == 2 else rho
    accepted = False
    sigma_ok = _SIGMA_FLOOR < sigma_star <= hp.sigma_upper
    if sigma_ok and (prop.dim == 1 or hp.rho_lower < rho_star < hp.rho_upper):
        star = _marginal(prior, sigma_star**2, mu, rho_star, stats.a_diag, wbar_p)
        log_ratio = (star[0] + phi_star.sum()) - (cur_val + phi.sum())
        if _mh_accept(chain.rng, log_ratio):
            chain.sigma2[p] = sigma_star**2
            chain.rho[p] = rho_star
            _, chain.factors[p], chain.structure_logdets[p] = star
            accepted = True
    prop.register(p, accepted)
    prop.record_sample(p, np.array([0.5 * np.log(chain.sigma2[p]), np.log(chain.rho[p])]))
    return accepted


def _mu_conditional(factor, rowsum, a_diag, wbar_p):
    """(mean, precision tau) of the Gaussian in mu that _marginal is, from
    the factor of M^-1 = A + Q_p and r = Q_p 1 (rowsum): with x = M r,
    tau = x . a_diag (= 1'Q_p 1 - r'M r without the cancellation; exactly
    0 with no data) and the mean is x . (A wbar_p) / tau. Elementwise
    sums, so the bits do not depend on the stride of wbar_p."""
    xa = prec.solve(factor, rowsum) * a_diag
    tau = float(xa.sum())
    return (float((xa * wbar_p).sum()) / tau if tau > 0 else 0.0), tau


# ---------------------------------------------------------------------------
# Chain driver
# ---------------------------------------------------------------------------


@dataclass
class ChainDiagnostics:
    """Post-run acceptance rates, hyperparameter traces, and ESS."""

    acceptance: dict
    sigma2_trace: np.ndarray  # (K, P)
    mu_trace: np.ndarray | None
    rho_trace: np.ndarray | None
    theta_ess: np.ndarray | None  # (m_core, P)
    hyper_ess: dict | None  # trace name ("sigma2", spde "mu", "rho") -> (P,)
    membership_freq: list | None  # per township: (n_support_cells,) post-burn
    elapsed_s: float
    alpha_samples: np.ndarray | None = None  # (K, m, P) if store_alpha


def _expand_gridded_trees(dataset: Dataset):
    """Each gridded tree's (cell, taxon), taxon-major: cells ascending
    within each taxon."""
    counts = dataset.cell_counts.counts.T
    taxon_idx, cell_idx = np.nonzero(counts)
    reps = counts[taxon_idx, cell_idx]
    return np.repeat(cell_idx, reps), np.repeat(taxon_idx, reps)


def _init_state(dataset: Dataset, layout: TownshipLayout | None) -> LatentState:
    """The chain's start, drawn from nothing: a zero field, no rival
    bound (others_max = -inf), so the first sweep's observed draws are
    unconstrained, and each township tree on its township's first
    support cell until the first membership draw. Trees are taxon-major
    within each section, gridded then township, as LatentDraws needs
    them."""
    cell, taxon = _expand_gridded_trees(dataset)
    n_gridded = cell.size
    if layout is not None:
        first = np.empty(layout.n_trees, dtype=np.int64)
        for group in layout.groups:
            first[group.pos] = group.cells[0, group.local]
        cell, taxon = np.concatenate([cell, first]), np.concatenate([taxon, layout.labels])
    return LatentState(
        alpha=np.zeros((dataset.grid.n_cells, dataset.taxa.n_taxa)),
        others_max=np.full(cell.size, -np.inf),
        tree_cell=cell.astype(np.int64),
        tree_taxon=taxon.astype(np.int64),
        n_gridded=n_gridded,
    )


class _Chain:
    """Mutable chain runtime shared by run_chain and checkpointing.

    Every value a checkpoint carries lives in a numpy array registered
    once in ``table`` (name -> array, counters as 0-d arrays); the chain
    only ever writes these arrays in place, so saving writes the table
    and restoring copies into it.
    """

    def __init__(self, dataset: Dataset, config: SamplerConfig, prior=None):
        self.dataset = dataset
        self.config = config
        self.grid = dataset.grid
        self.p = p = dataset.taxa.n_taxa
        if prior is None:
            prior = prec.SpatialPrior.from_grid(config.model_kind, self.grid)
        elif prior.kind != config.model_kind:
            raise ConfigError(
                f"prior kind {prior.kind!r} does not match model kind {config.model_kind!r}"
            )
        elif prior.n_cells != self.grid.n_cells:
            raise InvalidArgumentError("prior does not match the dataset's grid")
        self.prior = prior
        self.rng = np.random.default_rng(config.seed)
        townships = dataset.townships
        self.layout = None if townships is None else TownshipLayout(townships)
        self.fingerprint = _fingerprint(config, dataset)
        self.state = _init_state(dataset, self.layout)
        self.draws = LatentDraws(self.state)
        self.hp = hp = config.hyperpriors
        # start at sigma = 1, rho = 10 where the prior allows, else inside it
        sigma = 1.0 if hp.sigma_upper >= 1.0 else 0.5 * hp.sigma_upper
        rho = 10.0 if hp.rho_lower < 10.0 < hp.rho_upper else np.sqrt(hp.rho_lower * hp.rho_upper)
        self.sigma2, self.mu, self.rho = np.full(p, sigma**2), np.zeros(p), np.full(p, rho)
        # per taxon: factor of A + Q_p and logdet of Q(rho_p) (0.0 for car),
        # None until computed; with townships a factor is dropped after its
        # field draw, so at most the current one and a proposal's are live
        self.factors = [None] * p
        self.structure_logdets = [None] * p
        # the one proposal block: log sigma (car) or (log sigma, log rho) (spde)
        car = config.model_kind == prec.CAR
        self.block = "sigma" if car else "sigma_rho"
        self.proposal = (AdaptiveProposal(1, config.target_accept_1d, np.log(0.5), p) if car
                         else AdaptiveProposal(2, config.target_accept_2d, 0.0, p))
        if config.burn_in == 0:  # no adaptation: every sweep is retained
            self.proposal.frozen[:] = True
        self.accept_post = np.zeros((2, p))  # post-burn-in (accepts, attempts)
        self.iteration = np.zeros((), dtype=np.int64)
        self.k_done = np.zeros((), dtype=np.int64)
        k = config.n_retained
        self.theta = np.zeros((k, self.grid.n_core_cells, p))
        self.sigma2_trace = np.zeros((k, p))
        self.mu_trace = None if car else np.zeros((k, p))
        self.rho_trace = None if car else np.zeros((k, p))
        self.alpha_samples = np.zeros((k, self.grid.n_cells, p)) if config.store_alpha else None
        # one flat count per (township, support cell) pair
        self.membership_counts = None if self.layout is None else np.zeros(self.layout.n_slots)
        self._core_cells = self.grid.core_cells()
        table = {
            "iteration": self.iteration,
            "k_done": self.k_done,
            "alpha": self.state.alpha,
            "others_max": self.state.others_max,
            "tree_cell": self.state.tree_cell,
            "sigma2": self.sigma2,
            "mu": self.mu,
            "rho": self.rho,
            "theta": self.theta,
            "sigma2_trace": self.sigma2_trace,
            "mu_trace": self.mu_trace,
            "rho_trace": self.rho_trace,
            "alpha_samples": self.alpha_samples,
            "membership_counts": self.membership_counts,
            "accept": self.accept_post,
        }
        table.update((f"prop_{name}", a) for name, a in self.proposal.arrays().items())
        self.table = {name: a for name, a in table.items() if a is not None}
        # last, as set-up ends (the tracer's loop window opens after it):
        # the normals are zero until the first sweep draws them
        self.stats = compute_sufficient_stats(self.state, self.draws)

    def membership_freq(self, sweeps: int) -> list:
        """Per township, the fraction of (tree, post-burn-in sweep) pairs
        placed in each support cell."""
        counts = np.split(self.membership_counts, self.layout.slot_starts[1:])
        labels = self.dataset.townships.taxon_labels
        return [c / (sweeps * lab.size) for c, lab in zip(counts, labels)]

    def sweep(self):
        """One full MCMC iteration."""
        cfg, state, prior = self.config, self.state, self.prior
        self.iteration += 1
        post_burn = self.iteration > cfg.burn_in
        if not update_W(state, self.draws, self.rng):
            raise NumericalError(
                f"latent normals disagree with the observed taxa at iteration {self.iteration}"
            )
        if self.layout is not None:
            slot = update_memberships(state, self.draws.township, self.layout, self.rng)
            if post_burn:
                self.membership_counts += np.bincount(slot, minlength=self.layout.n_slots)
        self.stats = compute_sufficient_stats(state, self.draws)
        prop, a_diag = self.proposal, self.stats.a_diag
        for p in range(self.p):
            accepted = _update_scale(self, p, prop)
            if post_burn:
                self.accept_post[:, p] += (int(accepted), 1)
            prop.maybe_adapt(p, cfg.adapt_interval)
            sigma2, _, rho = _hyper(self, p)
            rowsum, wbar_p = prior.qp_rowsum(sigma2, rho), self.stats.wbar[:, p]
            if self.mu_trace is not None:  # spde: the exact draw of the mean
                mean, tau = _mu_conditional(self.factors[p], rowsum, a_diag, wbar_p)
                self.mu[p] = _truncnorm_between(self.rng.random(), mean, tau, self.hp.mu_bound)
            # unconditional field refresh so alpha mixes even on rejection
            b = a_diag * wbar_p + self.mu[p] * rowsum
            state.alpha[:, p] = prec.sample_gaussian(self.factors[p], b, self.rng)
            if self.layout is not None:  # the next membership draw changes A
                self.factors[p] = None
        if self.iteration == cfg.burn_in:
            prop.frozen[:] = True

    def retain(self, k_idx):
        self.theta[k_idx] = est.estimate_theta(self.state.alpha[self._core_cells])
        self.sigma2_trace[k_idx] = self.sigma2
        if self.mu_trace is not None:
            self.mu_trace[k_idx] = self.mu
            self.rho_trace[k_idx] = self.rho
        if self.alpha_samples is not None:
            self.alpha_samples[k_idx] = self.state.alpha
        self.k_done[...] = k_idx + 1


def run_chain(
    dataset: Dataset,
    config: SamplerConfig,
    progress_path=None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    resume_from=None,
    prior=None,
):
    """Run one chain and return (PosteriorSamples, ChainDiagnostics).

    Retained proportion samples are computed in-stream at the evenly
    spaced post-burn-in iterations. With a fixed seed the run is
    bitwise reproducible; checkpoint/resume restores the generator
    state so a resumed run matches an uninterrupted one exactly, and
    drops the progress records past the checkpoint before appending.
    ``prior`` replaces the lattice's car or spde prior, e.g. with
    ``SpatialPrior.from_structure``; its kind must be config.model_kind.
    """
    chain = _Chain(dataset, config, prior)
    if resume_from is not None:
        _restore_checkpoint(chain, resume_from)
        if progress_path:
            _truncate_progress(progress_path, int(chain.iteration))
    retained = config.retained_iterations()
    t0 = time.time()
    mode = "w" if resume_from is None else "a"  # a fresh run starts a new log
    progress = open(progress_path, mode, encoding="utf-8") if progress_path else None
    log_every = max(1, config.n_iter // 200)
    try:
        while chain.iteration < config.n_iter:
            chain.sweep()
            if chain.k_done < retained.size and chain.iteration == retained[chain.k_done]:
                chain.retain(chain.k_done)
            if progress and (chain.iteration % log_every == 0 or chain.iteration == config.n_iter):
                # Python floats: numpy's round can differ in the last digit
                rec = {
                    "iter": int(chain.iteration),
                    "elapsed_s": round(time.time() - t0, 3),
                    "sigma2": [round(v, 6) for v in chain.sigma2.tolist()],
                }
                if config.model_kind == prec.SPDE:
                    rec["rho"] = [round(v, 6) for v in chain.rho.tolist()]
                    rec["mu"] = [round(v, 6) for v in chain.mu.tolist()]
                progress.write(json.dumps(rec) + "\n")
                progress.flush()
            if (
                checkpoint_path
                and checkpoint_every
                and chain.iteration % checkpoint_every == 0
                and chain.iteration < config.n_iter
            ):
                save_checkpoint(chain, checkpoint_path)
    finally:
        if progress:
            progress.close()
    elapsed = time.time() - t0
    samples = est.PosteriorSamples(
        grid=dataset.grid,
        taxa=dataset.taxa,
        theta=chain.theta,
        seed=config.seed,
        model_kind=config.model_kind,
    )
    acc = chain.accept_post
    acceptance = {chain.block: acc[0] / np.maximum(acc[1], 1)}
    theta_ess = hyper_ess = None
    if config.n_retained >= 10:
        theta_ess = est.effective_sample_size(chain.theta)
        traces = {"sigma2": chain.sigma2_trace, "mu": chain.mu_trace, "rho": chain.rho_trace}
        hyper_ess = {
            name: est.effective_sample_size(t) for name, t in traces.items() if t is not None
        }
    membership_freq = None
    if chain.membership_counts is not None:
        membership_freq = chain.membership_freq(config.n_iter - config.burn_in)
    diags = ChainDiagnostics(
        acceptance=acceptance,
        sigma2_trace=chain.sigma2_trace,
        mu_trace=chain.mu_trace,
        rho_trace=chain.rho_trace,
        theta_ess=theta_ess,
        hyper_ess=hyper_ess,
        membership_freq=membership_freq,
        elapsed_s=elapsed,
        alpha_samples=chain.alpha_samples,
    )
    return samples, diags


def _truncate_progress(path, last_iter: int) -> None:
    """Rewrite a progress log keeping the complete records with
    iter <= last_iter, so a resumed run does not log iterations twice.
    A torn last line is dropped; a damaged complete line is a
    ConfigError, before anything is written."""
    path = Path(path)
    if not path.exists():
        return
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines(keepends=True)
    kept = []
    for number, line in enumerate(lines, start=1):
        if not line.endswith("\n"):
            continue
        try:
            if json.loads(line)["iter"] <= last_iter:
                kept.append(line)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(
                f"progress log {path} line {number} is not a progress record; "
                "repair or remove the log to resume"
            ) from exc
    with atomic_write(path) as fh:
        fh.write("".join(kept).encode("utf-8"))


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def _fingerprint(config: SamplerConfig, dataset: Dataset) -> str:
    """Digest of everything a resumed chain must share with the run that
    wrote its checkpoint: every sampler setting, the grid shape, and a
    SHA-256 of the data the chain conditions on (the gridded counts, and
    each township's tree labels, support cells and weights). A chain
    computes it once."""
    grid, townships = dataset.grid, dataset.townships
    settings = [astuple(config), [grid.nx, grid.ny, grid.buffer]]
    digest = hashlib.sha256(json.dumps(settings).encode())
    arrays = [dataset.cell_counts.counts]
    if townships is not None:
        for ov, labels in zip(townships.overlaps, townships.taxon_labels):
            arrays += [labels, ov.cells, ov.weights]
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def save_checkpoint(chain: _Chain, path) -> None:
    """Serialize the chain's state table with the format version, the
    fingerprint and the generator state (as JSON) to an npz archive;
    layout documented in the README. The write is atomic, so a failure
    part-way keeps the previous checkpoint."""
    payload = {
        "version": np.int64(CHECKPOINT_VERSION),
        "fingerprint": np.bytes_(chain.fingerprint.encode()),
        "rng_state": np.bytes_(json.dumps(chain.rng.bit_generator.state).encode()),
        **chain.table,
    }
    with atomic_write(path) as fh:
        np.savez(fh, **payload)


def _restore_checkpoint(chain: _Chain, path) -> None:
    """Load a checkpoint into a freshly built chain (no cached factors).
    An unreadable file, a missing key, an array of another shape or a
    damaged generator state is a ConfigError."""
    try:
        # np.load does not close a file it opened when parsing it fails
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            _restore_from(chain, data)
    except (OSError, EOFError, zipfile.BadZipFile, KeyError, IndexError, TypeError, ValueError,
            OverflowError) as exc:
        raise ConfigError(f"cannot resume from checkpoint {path}: {exc}") from exc


def _copy_into(target: np.ndarray, value: np.ndarray) -> None:
    if value.shape != target.shape:
        raise ConfigError("checkpoint shape does not match the dataset")
    target[...] = value


def _restore_from(chain: _Chain, data) -> None:
    version = int(data["version"])
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    # shapes before the fingerprint, so a dataset of another size gets the
    # more specific message; missing arrays after it, since a run under
    # other settings (another model, store_alpha) writes other arrays
    stored = set(data.files)
    for name, target in chain.table.items():
        if name in stored:
            _copy_into(target, data[name])
    if bytes(data["fingerprint"]).decode() != chain.fingerprint:
        raise ConfigError("checkpoint was written under a different configuration or dataset")
    missing = chain.table.keys() - stored
    if missing:
        raise KeyError(min(missing))
    chain.rng.bit_generator.state = json.loads(bytes(data["rng_state"]).decode())
