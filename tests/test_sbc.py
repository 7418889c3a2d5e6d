"""Reduced simulation-based calibration of the spde chain (Talts,
Betancourt, Simpson, Vehtari & Gelman 2018, arXiv:1804.06788).

Each replicate draws every taxon's sigma, rho and mu independently from
the sampler's own bounded uniform priors, a field per taxon from the
spde prior with those values, and the trees as probit argmaxes, then
fits the chain and ranks each true value among the thinned posterior
draws. If the chain samples its posterior, every rank is uniform on
0..K; a chi-square test checks the rank histogram of each parameter,
pooled over taxa and replicates. The whole sampler is in the loop: the
latent draws, the scale move and its Jacobian, the exact draw of the
mean and the field draw.

The rho bounds exclude the chain's default start rho = 10, so the test
also covers the rule that starts the chain inside the prior.

The seed is fixed, so the outcome is deterministic. On 4x4 cells with
two trees per cell the slowest trace needs up to about 60 sweeps per
effective draw; a thin of 40 after a 250-sweep burn-in keeps the ranks
near independent, and the run takes about half a minute on one core.
"""

import numpy as np
import pytest
from scipy.stats import chisquare

from gridcomp.domain_grid import build_grid
from gridcomp.model_core import CellCounts, Dataset, Hyperpriors, TaxonRegistry
from gridcomp.precision import SpatialPrior
from gridcomp.sampler import SamplerConfig, run_chain
from gridcomp.simulate import draw_spde_fields

pytestmark = pytest.mark.acceptance

N_REPLICATES = 50
TREES_PER_CELL = 2
N_RETAINED = 9  # ranks 0..9: ten bins
THIN = 40
BURN_IN = 250
LEVEL = 1e-3  # chi-square p-value below which a rank histogram fails
HYPERPRIORS = Hyperpriors(sigma_upper=1.5, mu_bound=1.0, rho_lower=1.0, rho_upper=4.0)


def sbc_ranks(seed):
    """Per parameter name, the rank of each true value among its
    retained draws, over replicates and taxa."""
    rng = np.random.default_rng(seed)
    grid = build_grid(4, 4, 0)
    prior = SpatialPrior.from_grid("spde", grid)
    taxa = TaxonRegistry(names=("a", "b"))
    p, hp = taxa.n_taxa, HYPERPRIORS
    ranks = {"mu": [], "sigma": [], "rho": []}
    for rep in range(N_REPLICATES):
        sigma = rng.uniform(0.0, hp.sigma_upper, p)
        mu = rng.uniform(-hp.mu_bound, hp.mu_bound, p)
        rho = rng.uniform(hp.rho_lower, hp.rho_upper, p)
        alpha = np.column_stack(
            [draw_spde_fields(grid, sigma[j], rho[j], mu[j], 1, rng)[:, 0] for j in range(p)]
        )
        w = alpha[:, None, :] + rng.standard_normal((grid.n_cells, TREES_PER_CELL, p))
        counts = np.stack([np.bincount(labels, minlength=p) for labels in w.argmax(axis=2)])
        dataset = Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))
        config = SamplerConfig(
            n_iter=BURN_IN + THIN * N_RETAINED,
            burn_in=BURN_IN,
            n_retained=N_RETAINED,
            seed=rep,
            adapt_interval=25,
            hyperpriors=hp,
            model_kind="spde",
        )
        _, diags = run_chain(dataset, config, prior=prior)
        ranks["mu"].append((diags.mu_trace < mu).sum(axis=0))
        ranks["sigma"].append((diags.sigma2_trace < sigma**2).sum(axis=0))
        ranks["rho"].append((diags.rho_trace < rho).sum(axis=0))
    return {name: np.concatenate(r) for name, r in ranks.items()}


def test_spde_chain_is_calibrated():
    for name, ranks in sbc_ranks(seed=0).items():
        counts = np.bincount(ranks, minlength=N_RETAINED + 1)
        pvalue = chisquare(counts).pvalue
        print(f"SBC {name}: rank counts {counts.tolist()}, chi-square p = {pvalue:.3g}")
        assert pvalue > LEVEL, f"{name} ranks are not uniform: {counts.tolist()}"
