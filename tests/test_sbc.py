"""Reduced simulation-based calibration of the spde chain (Talts,
Betancourt, Simpson, Vehtari & Gelman 2018, arXiv:1804.06788), on
gridded trees and on trees in townships.

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

The township variant puts the trees of some or all cells in 2x2-cell
townships with unequal overlap weights, draws each tree's cell from
those weights, and so puts the membership draw in the loop as well.

The seeds are fixed, so the outcome is deterministic. On 4x4 cells with
two trees per cell the slowest trace needs up to about 60 sweeps per
effective draw; a thin of 40 after a 250-sweep burn-in keeps the ranks
near independent, and the run takes about half a minute on one core.
"""

import numpy as np
import pytest
from scipy.stats import chisquare

from gridcomp.domain_grid import build_grid
from gridcomp.model_core import CellCounts, Dataset, Hyperpriors, TaxonRegistry, TownshipTrees
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
BLOCK = 2  # township side, in cells


def label_counts(rng, alpha, cells, p):
    """Per cell, the taxon counts of TREES_PER_CELL probit trees."""
    w = alpha[cells, None, :] + rng.standard_normal((cells.size, TREES_PER_CELL, p))
    return (w.argmax(axis=2)[:, :, None] == np.arange(p)).sum(axis=1)


def gridded_dataset(rng, grid, taxa, alpha, rep):
    counts = label_counts(rng, alpha, np.arange(grid.n_cells), taxa.n_taxa)
    return Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts))


def township_dataset(rng, grid, taxa, alpha, rep):
    """The trees of every cell in even replicates, of the southern half in
    odd ones, recorded in BLOCK x BLOCK townships: each township gets
    overlap weights from a Dirichlet(2, ..., 2) draw and TREES_PER_CELL
    trees per cell, each placed in a cell drawn from those weights. The
    other cells keep gridded counts."""
    p = taxa.n_taxa
    first_row = 0 if rep % 2 == 0 else grid.ny // 2
    counts = np.zeros((grid.n_cells, p), dtype=np.int64)
    counts[: first_row * grid.nx] = label_counts(rng, alpha, np.arange(first_row * grid.nx), p)
    ids, support, weights, labels = [], [], [], []
    for row in range(first_row, grid.ny, BLOCK):
        for col in range(0, grid.nx, BLOCK):
            cells = ((row + np.arange(BLOCK))[:, None] * grid.nx + col + np.arange(BLOCK)).ravel()
            share = rng.dirichlet(np.full(cells.size, 2.0))
            tree_cells = cells[rng.choice(cells.size, size=TREES_PER_CELL * cells.size, p=share)]
            w = alpha[tree_cells] + rng.standard_normal((tree_cells.size, p))
            ids.append(f"t{row}_{col}")
            support.append(cells)
            weights.append(share)
            labels.append(w.argmax(axis=1))
    townships = TownshipTrees(
        taxa=taxa,
        ids=tuple(ids),
        cell_start=np.cumsum([0, *map(len, support)]),
        cells=np.concatenate(support),
        weights=np.concatenate(weights),
        tree_start=np.cumsum([0, *map(len, labels)]),
        labels=np.concatenate(labels),
    )
    return Dataset(cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts), townships=townships)


def sbc_ranks(seed, make_dataset):
    """Per parameter name, the rank of each true value among its
    retained draws, over replicates and taxa; make_dataset(rng, grid,
    taxa, alpha, replicate) draws each replicate's trees."""
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
        dataset = make_dataset(rng, grid, taxa, alpha, rep)
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


def assert_calibrated(ranks_by_name):
    for name, ranks in ranks_by_name.items():
        counts = np.bincount(ranks, minlength=N_RETAINED + 1)
        pvalue = chisquare(counts).pvalue
        print(f"SBC {name}: rank counts {counts.tolist()}, chi-square p = {pvalue:.3g}")
        assert pvalue > LEVEL, f"{name} ranks are not uniform: {counts.tolist()}"


def test_spde_chain_is_calibrated():
    assert_calibrated(sbc_ranks(0, gridded_dataset))


def test_spde_chain_with_townships_is_calibrated():
    assert_calibrated(sbc_ranks(1, township_dataset))
