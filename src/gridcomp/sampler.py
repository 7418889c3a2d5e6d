"""MCMC engine: truncated-normal latent updates, joint Gaussian field
draws, cross-level hyperparameter moves with adaptive proposals, and
township membership resampling.

One sweep is: update latent tree normals -> resample township
memberships -> refresh sufficient statistics -> per-taxon joint
hyperparameter move (Metropolis on the field-marginalized density)
followed by one unconditional Gibbs draw of the field. Retained
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
from scipy.special import ndtr, ndtri

from . import estimator as est
from . import precision as prec
from .domain_grid import GridSpec
from .errors import ConfigError, InvalidArgumentError, NumericalError
from .io_formats import atomic_write
from .model_core import Dataset, Hyperpriors, LatentState, TownshipTrees

# Proposals below this sigma are auto-rejected: the prior mass there is
# negligible and 1/sigma^2 would overflow the precision scaling.
_SIGMA_FLOOR = 1e-8

CHECKPOINT_VERSION = 2


# ---------------------------------------------------------------------------
# Truncated normal draws, stable in far tails
# ---------------------------------------------------------------------------


def _std_trunc_lower(rng, a, size=None):
    """Z ~ N(0,1) conditioned on Z > a, via complementary-CDF inversion.

    Works directly in the upper tail so bounds many standard deviations
    out stay exact; rejection sampling is never used.
    """
    a = np.asarray(a, dtype=float)
    shape = a.shape if size is None else size
    u = rng.random(shape)
    tail = (1.0 - u) * ndtr(-a)
    z = -ndtri(np.fmax(tail, 1e-320))
    # enforce the open bound exactly (ties are possible after rounding)
    return np.maximum(z, np.nextafter(a, np.inf))


def truncnorm_lower(rng, lower, mean=0.0, size=None):
    """Draws from N(mean, 1) truncated below at ``lower``."""
    lower = np.asarray(lower, dtype=float)
    mean = np.asarray(mean, dtype=float)
    return mean + _std_trunc_lower(rng, lower - mean, size=size)


def truncnorm_upper(rng, upper, mean=0.0, size=None):
    """Draws from N(mean, 1) truncated above at ``upper``."""
    upper = np.asarray(upper, dtype=float)
    mean = np.asarray(mean, dtype=float)
    return mean - _std_trunc_lower(rng, mean - upper, size=size)


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

    @property
    def thin(self) -> int:
        return (self.n_iter - self.burn_in) // self.n_retained

    def retained_iterations(self) -> np.ndarray:
        """Evenly spaced 1-based iteration indices in (burn_in, n_iter]."""
        return self.burn_in + self.thin * np.arange(1, self.n_retained + 1)


@dataclass
class AdaptiveProposal:
    """Random-walk scale (and 2-D shape) adapted toward a target rate.

    The log-scale moves by batch_number**-0.5 * (rate - target) once per
    adaptation batch, so adjustments diminish over time; adaptation is
    frozen at the end of burn-in. 2-D blocks additionally track running
    moments of the sampled block to shape the proposal covariance.
    """

    dim: int
    target: float
    log_scale: float
    attempts: int = 0
    accepts: int = 0
    batches: int = 0
    frozen: bool = False
    count: int = 0
    mean: np.ndarray | None = None
    m2: np.ndarray | None = None

    def __post_init__(self):
        if self.dim == 2 and self.mean is None:
            self.mean = np.zeros(2)
            self.m2 = np.zeros((2, 2))

    def propose(self, rng, phi):
        step = np.exp(self.log_scale)
        if self.dim == 1:
            return phi + step * rng.standard_normal()
        cov = self.shape_matrix()
        chol = np.linalg.cholesky(cov)
        return phi + step * (chol @ rng.standard_normal(2))

    def shape_matrix(self):
        if self.count >= 20:
            c = self.m2 / (self.count - 1)
            return c + 1e-9 * np.eye(2)
        return 0.01 * np.eye(2)

    def record_sample(self, phi):
        if self.dim != 2 or self.frozen:
            return
        self.count += 1
        delta = phi - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, phi - self.mean)

    def register(self, accepted: bool):
        self.attempts += 1
        self.accepts += int(accepted)

    def maybe_adapt(self, interval: int):
        if self.frozen or self.attempts < interval:
            return
        rate = self.accepts / self.attempts
        self.batches += 1
        self.log_scale += self.batches**-0.5 * (rate - self.target)
        self.attempts = 0
        self.accepts = 0


@dataclass
class SufficientStats:
    """Per-cell tree counts and latent-normal means under the current
    tree placement; recomputed whenever memberships or W change."""

    a_diag: np.ndarray  # (m,) tree count per cell
    wbar: np.ndarray  # (m, P), zero where a_diag == 0


def compute_sufficient_stats(state: LatentState, n_cells: int) -> SufficientStats:
    counts = np.bincount(state.tree_cell, minlength=n_cells).astype(float)
    p = state.w.shape[1]
    wbar = np.zeros((n_cells, p))
    for j in range(p):
        wbar[:, j] = np.bincount(state.tree_cell, weights=state.w[:, j], minlength=n_cells)
    nz = counts > 0
    wbar[nz] /= counts[nz, None]
    return SufficientStats(a_diag=counts, wbar=wbar)


# ---------------------------------------------------------------------------
# Latent updates
# ---------------------------------------------------------------------------


def update_W(state: LatentState, rng: np.random.Generator) -> None:
    """Resample every tree's latent normals from their truncated
    conditionals: the observed taxon first against the running maximum
    of the others, then the rest below the fresh observed value."""
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
    w[rows, taxon] = truncnorm_lower(rng, lower, alpha_tree[rows, taxon])
    upper = w[rows, taxon]
    for j in range(p):
        sel = taxon != j
        if sel.any():
            w[sel, j] = truncnorm_upper(rng, upper[sel], alpha_tree[sel, j])


def update_memberships(state: LatentState, townships: TownshipTrees, rng) -> None:
    """Redraw the latent cell of every township tree from its discrete
    posterior over the township's support cells."""
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


# ---------------------------------------------------------------------------
# Field conditional and marginalized hyperparameter density
# ---------------------------------------------------------------------------


@dataclass
class _TaxonState:
    """Current hyperparameters and cached factorizations for one taxon."""

    sigma2: float
    mu: float = 0.0
    rho: float = 10.0
    factor: prec.SparseFactor | None = None  # factor of A + Q_p
    structure_logdet: float | None = None  # logdet of Q(rho); 0.0 for car


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


def _update_mu(prior, ts, stats, wbar_p, hp, prop, rng):
    """Location move: Q_p is unchanged, so log determinants cancel and
    the cached factorization is reused."""
    factor = ts.factor
    rowsum = prior.qp_rowsum(ts.sigma2, ts.rho)
    qsum = float(rowsum.sum())
    aw = stats.a_diag * wbar_p

    def part(mu):
        b = aw + mu * rowsum
        return 0.5 * float(b @ prec.solve(factor, b)) - 0.5 * mu**2 * qsum

    mu_star = prop.propose(rng, ts.mu)
    accepted = False
    if abs(mu_star) <= hp.mu_bound:
        if _mh_accept(rng, part(mu_star) - part(ts.mu)):
            ts.mu = float(mu_star)
            accepted = True
    prop.register(accepted)
    return accepted


def _update_scale(prior, ts, stats, wbar_p, hp, prop, rng):
    """Joint (log sigma, field) move when prop.dim == 1 (car), joint
    (log sigma, log rho, field) move with a bivariate adapted proposal
    when prop.dim == 2 (spde); the field draw itself is deferred to the
    trailing Gibbs step. Only the 2-D move reads the rho bounds."""
    cur_val, ts.factor, ts.structure_logdet = _marginal(
        prior, ts.sigma2, ts.mu, ts.rho, stats.a_diag, wbar_p, ts.factor, ts.structure_logdet
    )
    phi = np.array([0.5 * np.log(ts.sigma2), np.log(ts.rho)])[: prop.dim]
    phi_star = prop.propose(rng, phi)
    star_scale = np.exp(phi_star)
    sigma_star = star_scale[0]
    rho_star = star_scale[1] if prop.dim == 2 else ts.rho
    accepted = False
    sigma_ok = _SIGMA_FLOOR < sigma_star <= hp.sigma_upper
    if sigma_ok and (prop.dim == 1 or hp.rho_lower < rho_star < hp.rho_upper):
        star = _marginal(prior, sigma_star**2, ts.mu, rho_star, stats.a_diag, wbar_p)
        log_ratio = (star[0] + phi_star.sum()) - (cur_val + phi.sum())
        if _mh_accept(rng, log_ratio):
            ts.sigma2 = float(sigma_star**2)
            ts.rho = float(rho_star)
            _, ts.factor, ts.structure_logdet = star
            accepted = True
    prop.register(accepted)
    prop.record_sample(np.array([0.5 * np.log(ts.sigma2), np.log(ts.rho)]))
    return accepted


# The move run for each proposal block, in block order within a sweep.
_MOVES = {"sigma": _update_scale, "mu": _update_mu, "sigma_rho": _update_scale}


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
    membership_freq: list | None  # per township: (n_support_cells,) post-burn
    elapsed_s: float
    alpha_samples: np.ndarray | None = None  # (K, m, P) if store_alpha


def _expand_gridded_trees(dataset: Dataset):
    counts = dataset.cell_counts.counts
    cell_idx, taxon_idx = np.nonzero(counts)
    reps = counts[cell_idx, taxon_idx]
    return np.repeat(cell_idx, reps), np.repeat(taxon_idx, reps)


def _init_township_cells(townships: TownshipTrees, rng):
    cells, taxa = [], []
    for ov, labels in zip(townships.overlaps, townships.taxon_labels):
        nt = labels.size
        cdf = np.cumsum(ov.weights)
        pick = np.minimum((cdf[None, :] < rng.random((nt, 1))).sum(axis=1), ov.cells.size - 1)
        cells.append(ov.cells[pick])
        taxa.append(np.asarray(labels, dtype=np.int64))
    return np.concatenate(cells), np.concatenate(taxa)


def _init_state(dataset: Dataset, rng) -> LatentState:
    grid = dataset.grid
    p = dataset.taxa.n_taxa
    g_cell, g_taxon = _expand_gridded_trees(dataset)
    if dataset.townships is not None:
        t_cell, t_taxon = _init_township_cells(dataset.townships, rng)
        cell = np.concatenate([g_cell, t_cell])
        taxon = np.concatenate([g_taxon, t_taxon])
    else:
        cell, taxon = g_cell, g_taxon
    n = cell.size
    alpha = np.zeros((grid.n_cells, p))
    state = LatentState(
        alpha=alpha,
        w=np.zeros((n, p)),
        tree_cell=cell.astype(np.int64),
        tree_taxon=taxon.astype(np.int64),
        n_gridded=g_cell.size,
    )
    if n:
        # draw once from the truncated conditionals given the initial field
        state.w[:] = alpha[cell] + rng.standard_normal((n, p))
        update_W(state, rng)
    return state


class _Chain:
    """Mutable chain runtime shared by run_chain and checkpointing."""

    def __init__(self, dataset: Dataset, config: SamplerConfig, prior=None):
        self.dataset = dataset
        self.config = config
        self.grid = dataset.grid
        self.p = dataset.taxa.n_taxa
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
        self.state = _init_state(dataset, self.rng)
        self.stats = compute_sufficient_stats(self.state, self.grid.n_cells)
        hp = config.hyperpriors
        self.hp = hp
        self.taxon_states = [_TaxonState(sigma2=1.0, mu=0.0, rho=10.0) for _ in range(self.p)]
        self.proposals = self._init_proposals()
        self.iteration = 0
        k = config.n_retained
        core = self.grid.n_core_cells
        self.theta = np.zeros((k, core, self.p))
        self.sigma2_trace = np.zeros((k, self.p))
        self.mu_trace = np.zeros((k, self.p)) if config.model_kind == prec.SPDE else None
        self.rho_trace = np.zeros((k, self.p)) if config.model_kind == prec.SPDE else None
        self.alpha_samples = (
            np.zeros((k, self.grid.n_cells, self.p)) if config.store_alpha else None
        )
        self.k_done = 0
        self.accept_post = {}  # block -> (accepts, attempts) arrays over taxa
        self.membership_counts = None
        if dataset.townships is not None:
            self.membership_counts = [
                np.zeros(ov.cells.size) for ov in dataset.townships.overlaps
            ]
            self.membership_sweeps = 0
        self._core_cells = self.grid.core_cells()

    def _init_proposals(self):
        cfg = self.config
        dims = {"sigma": 1} if cfg.model_kind == prec.CAR else {"mu": 1, "sigma_rho": 2}
        target = {1: cfg.target_accept_1d, 2: cfg.target_accept_2d}
        step = {1: 0.5, 2: 1.0}
        return {
            block: [
                AdaptiveProposal(dim=d, target=target[d], log_scale=np.log(step[d]))
                for _ in range(self.p)
            ]
            for block, d in dims.items()
        }

    def _ensure_factors(self):
        for ts in self.taxon_states:
            if ts.factor is not None:
                continue
            ts.factor = self.prior.conditional_factor(ts.sigma2, self.stats.a_diag, ts.rho)
            if ts.structure_logdet is None:
                ts.structure_logdet = self.prior.structure_logdet(ts.rho)

    def _invalidate_factors(self):
        for ts in self.taxon_states:
            ts.factor = None

    def _record_acceptance(self, block, p_idx, accepted):
        if self.iteration <= self.config.burn_in:
            return
        acc = self.accept_post.setdefault(block, np.zeros((2, self.p)))
        acc[0, p_idx] += int(accepted)
        acc[1, p_idx] += 1

    def sweep(self):
        """One full MCMC iteration."""
        cfg, state, prior = self.config, self.state, self.prior
        self.iteration += 1
        update_W(state, self.rng)
        assert state.argmax_consistent()  # full scan; stripped under -O
        if self.dataset.townships is not None:
            update_memberships(state, self.dataset.townships, self.rng)
            self.stats = compute_sufficient_stats(state, self.grid.n_cells)
            self._invalidate_factors()
            if self.iteration > cfg.burn_in:
                pos = state.n_gridded
                for t, ov in enumerate(self.dataset.townships.overlaps):
                    nt = self.dataset.townships.taxon_labels[t].size
                    seen = state.tree_cell[pos : pos + nt]
                    local = np.searchsorted(ov.cells, seen)
                    self.membership_counts[t] += np.bincount(local, minlength=ov.cells.size)
                    pos += nt
                self.membership_sweeps += 1
        else:
            # counts are static; only the latent means move
            self.stats = compute_sufficient_stats(state, self.grid.n_cells)
        self._ensure_factors()
        at_burn_end = self.iteration == cfg.burn_in
        for p_idx, ts in enumerate(self.taxon_states):
            wbar_p = self.stats.wbar[:, p_idx]
            for block, props in self.proposals.items():
                prop = props[p_idx]
                accepted = _MOVES[block](prior, ts, self.stats, wbar_p, self.hp, prop, self.rng)
                self._record_acceptance(block, p_idx, accepted)
                prop.maybe_adapt(cfg.adapt_interval)
            # unconditional field refresh so alpha mixes even on rejection
            b = self.stats.a_diag * wbar_p + ts.mu * prior.qp_rowsum(ts.sigma2, ts.rho)
            state.alpha[:, p_idx] = prec.sample_gaussian(ts.factor, b, self.rng)
        if at_burn_end:
            for props in self.proposals.values():
                for prop in props:
                    prop.frozen = True

    def retain(self, k_idx):
        alpha_core = self.state.alpha[self._core_cells]
        self.theta[k_idx] = est.estimate_theta(alpha_core)
        for p_idx, ts in enumerate(self.taxon_states):
            self.sigma2_trace[k_idx, p_idx] = ts.sigma2
            if self.mu_trace is not None:
                self.mu_trace[k_idx, p_idx] = ts.mu
                self.rho_trace[k_idx, p_idx] = ts.rho
        if self.alpha_samples is not None:
            self.alpha_samples[k_idx] = self.state.alpha
        self.k_done = k_idx + 1


def run_chain(
    dataset: Dataset,
    grid: GridSpec,
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
    if grid is not dataset.grid and grid != dataset.grid:
        raise InvalidArgumentError("grid does not match the dataset's grid")
    chain = _Chain(dataset, config, prior)
    if resume_from is not None:
        _restore_checkpoint(chain, resume_from)
        if progress_path:
            _truncate_progress(progress_path, chain.iteration)
    retained = config.retained_iterations()
    t0 = time.time()
    progress = open(progress_path, "a", encoding="utf-8") if progress_path else None
    log_every = max(1, config.n_iter // 200)
    try:
        while chain.iteration < config.n_iter:
            chain.sweep()
            if chain.k_done < retained.size and chain.iteration == retained[chain.k_done]:
                chain.retain(chain.k_done)
            if progress and (chain.iteration % log_every == 0 or chain.iteration == config.n_iter):
                rec = {
                    "iter": chain.iteration,
                    "elapsed_s": round(time.time() - t0, 3),
                    "sigma2": [round(ts.sigma2, 6) for ts in chain.taxon_states],
                }
                if config.model_kind == prec.SPDE:
                    rec["rho"] = [round(ts.rho, 6) for ts in chain.taxon_states]
                    rec["mu"] = [round(ts.mu, 6) for ts in chain.taxon_states]
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
        grid=grid,
        taxa=dataset.taxa,
        theta=chain.theta,
        seed=config.seed,
        model_kind=config.model_kind,
    )
    acceptance = {
        block: (acc[0] / np.maximum(acc[1], 1)) for block, acc in chain.accept_post.items()
    }
    theta_ess = None
    if config.n_retained >= 10:
        theta_ess = est.effective_sample_size(chain.theta)
    membership_freq = None
    if chain.membership_counts is not None and chain.membership_sweeps:
        # fraction of (tree, sweep) pairs placed in each support cell
        membership_freq = [
            c / (chain.membership_sweeps * labels.size)
            for c, labels in zip(chain.membership_counts, dataset.townships.taxon_labels)
        ]
    diags = ChainDiagnostics(
        acceptance=acceptance,
        sigma2_trace=chain.sigma2_trace,
        mu_trace=chain.mu_trace,
        rho_trace=chain.rho_trace,
        theta_ess=theta_ess,
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


def _fingerprint(chain: _Chain) -> str:
    """Digest of everything a resumed chain must share with the run that
    wrote its checkpoint: every sampler setting, the grid shape, and a
    SHA-256 of the data the chain conditions on (the gridded counts, and
    each township's tree labels, support cells and weights)."""
    cfg, ds = chain.config, chain.dataset
    settings = [astuple(cfg), [ds.grid.nx, ds.grid.ny, ds.grid.buffer]]
    digest = hashlib.sha256(json.dumps(settings).encode())
    arrays = [ds.cell_counts.counts]
    if ds.townships is not None:
        for ov, labels in zip(ds.townships.overlaps, ds.townships.taxon_labels):
            arrays += [labels, ov.cells, ov.weights]
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()[:16]


def save_checkpoint(chain: _Chain, path) -> None:
    """Serialize the full chain state (latents, hyperparameters,
    adaptation state, retained samples so far, RNG state) to an npz
    archive with a format version; layout documented in the README.
    The write is atomic, so a failure part-way keeps the previous
    checkpoint."""
    rng_state = chain.rng.bit_generator.state
    payload = {
        "version": np.int64(CHECKPOINT_VERSION),
        "fingerprint": np.bytes_(_fingerprint(chain).encode()),
        "iteration": np.int64(chain.iteration),
        "alpha": chain.state.alpha,
        "w": chain.state.w,
        "tree_cell": chain.state.tree_cell,
        "k_done": np.int64(chain.k_done),
        "theta": chain.theta,
        "sigma2_trace": chain.sigma2_trace,
        "sigma2": np.array([ts.sigma2 for ts in chain.taxon_states]),
        "mu": np.array([ts.mu for ts in chain.taxon_states]),
        "rho": np.array([ts.rho for ts in chain.taxon_states]),
        "rng_state": np.bytes_(str(rng_state["state"]["state"]).encode()),
        "rng_inc": np.bytes_(str(rng_state["state"]["inc"]).encode()),
        "rng_has_uint32": np.int64(rng_state["has_uint32"]),
        "rng_uinteger": np.int64(rng_state["uinteger"]),
    }
    if chain.mu_trace is not None:
        payload["mu_trace"] = chain.mu_trace
        payload["rho_trace"] = chain.rho_trace
    if chain.alpha_samples is not None:
        payload["alpha_samples"] = chain.alpha_samples
    if chain.membership_counts is not None:
        payload["membership_sweeps"] = np.int64(chain.membership_sweeps)
        for t, c in enumerate(chain.membership_counts):
            payload[f"membership_counts_{t}"] = c
    for block, props in chain.proposals.items():
        payload[f"prop_{block}_log_scale"] = np.array([pr.log_scale for pr in props])
        payload[f"prop_{block}_attempts"] = np.array([pr.attempts for pr in props])
        payload[f"prop_{block}_accepts"] = np.array([pr.accepts for pr in props])
        payload[f"prop_{block}_batches"] = np.array([pr.batches for pr in props])
        payload[f"prop_{block}_frozen"] = np.array([pr.frozen for pr in props])
        if props and props[0].dim == 2:
            payload[f"prop_{block}_count"] = np.array([pr.count for pr in props])
            payload[f"prop_{block}_mean"] = np.stack([pr.mean for pr in props])
            payload[f"prop_{block}_m2"] = np.stack([pr.m2 for pr in props])
    for block, acc in chain.accept_post.items():
        payload[f"accept_{block}"] = acc
    with atomic_write(path) as fh:
        np.savez(fh, **payload)


def _restore_checkpoint(chain: _Chain, path) -> None:
    """Load a checkpoint into a freshly built chain (no cached factors).
    An unreadable file, a missing key or an array of another shape is a
    ConfigError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            _restore_from(chain, data)
    except (OSError, EOFError, KeyError, IndexError, ValueError, zipfile.BadZipFile) as exc:
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
    # shapes before the fingerprint: a dataset of another size gets the
    # more specific message
    _copy_into(chain.state.alpha, data["alpha"])
    _copy_into(chain.state.w, data["w"])
    _copy_into(chain.state.tree_cell, data["tree_cell"])
    if bytes(data["fingerprint"]).decode() != _fingerprint(chain):
        raise ConfigError("checkpoint was written under a different configuration or dataset")
    chain.iteration = int(data["iteration"])
    chain.k_done = int(data["k_done"])
    _copy_into(chain.theta, data["theta"])
    _copy_into(chain.sigma2_trace, data["sigma2_trace"])
    sigma2, mu, rho = data["sigma2"], data["mu"], data["rho"]
    for p_idx, ts in enumerate(chain.taxon_states):
        ts.sigma2 = float(sigma2[p_idx])
        ts.mu = float(mu[p_idx])
        ts.rho = float(rho[p_idx])
    if chain.mu_trace is not None:
        _copy_into(chain.mu_trace, data["mu_trace"])
        _copy_into(chain.rho_trace, data["rho_trace"])
    if chain.alpha_samples is not None:
        _copy_into(chain.alpha_samples, data["alpha_samples"])
    if chain.membership_counts is not None:
        chain.membership_sweeps = int(data["membership_sweeps"])
        for t, counts in enumerate(chain.membership_counts):
            _copy_into(counts, data[f"membership_counts_{t}"])
    for block, props in chain.proposals.items():
        for p_idx, pr in enumerate(props):
            pr.log_scale = float(data[f"prop_{block}_log_scale"][p_idx])
            pr.attempts = int(data[f"prop_{block}_attempts"][p_idx])
            pr.accepts = int(data[f"prop_{block}_accepts"][p_idx])
            pr.batches = int(data[f"prop_{block}_batches"][p_idx])
            pr.frozen = bool(data[f"prop_{block}_frozen"][p_idx])
            if pr.dim == 2:
                pr.count = int(data[f"prop_{block}_count"][p_idx])
                pr.mean = data[f"prop_{block}_mean"][p_idx].copy()
                pr.m2 = data[f"prop_{block}_m2"][p_idx].copy()
    for key in data.files:
        if key.startswith("accept_"):
            chain.accept_post[key[len("accept_") :]] = data[key].copy()
    state = chain.rng.bit_generator.state
    state["state"]["state"] = int(bytes(data["rng_state"]).decode())
    state["state"]["inc"] = int(bytes(data["rng_inc"]).decode())
    state["has_uint32"] = int(data["rng_has_uint32"])
    state["uinteger"] = int(data["rng_uinteger"])
    chain.rng.bit_generator.state = state
