"""Synthetic data generation following the fitted model exactly: latent
fields drawn from the chosen spatial prior, tree taxa as argmaxes of
unit-variance normals around the fields, and (optionally) township
aggregation of the simulated trees.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import precision as prec
from .domain_grid import CARDINAL, GridSpec, TownshipOverlap, build_neighbor_graph
from .errors import InvalidArgumentError
from .estimator import estimate_theta
from .model_core import CellCounts, Dataset, TaxonRegistry, TownshipTrees


def draw_car_fields(grid: GridSpec, sigma: float, n_taxa: int, rng) -> np.ndarray:
    """Exact centered draws from the intrinsic prior via a dense
    eigendecomposition of the structure matrix (desk-scale only: cost is
    cubic in the cell count)."""
    graph = build_neighbor_graph(grid, CARDINAL)
    q = prec.build_car_structure(graph).toarray()
    evals, evecs = np.linalg.eigh(q)
    keep = evals > 1e-10 * evals.max()
    scale = np.zeros_like(evals)
    scale[keep] = 1.0 / np.sqrt(evals[keep])
    z = rng.standard_normal((evals.size, n_taxa))
    return sigma * (evecs @ (scale[:, None] * z))


def draw_spde_fields(grid: GridSpec, sigma: float, rho: float, mu: float, n_taxa: int,
                     rng) -> np.ndarray:
    """Exact draws from the Matern-approximation prior through the
    prior's sparse factor of Q_p, with mean mu: Q_p x = mu * Q_p @ 1."""
    prior = prec.SpatialPrior.from_grid(prec.SPDE, grid)
    sigma2 = sigma**2
    factor = prior.conditional_factor(sigma2, np.zeros(grid.n_cells), rho)
    b = mu * prior.qp_rowsum(sigma2, rho)
    return np.stack(
        [prec.sample_gaussian(factor, b, rng) for _ in range(n_taxa)], axis=1
    )


def simulate_dataset(
    grid: GridSpec,
    taxa: TaxonRegistry,
    model_kind: str,
    rng: np.random.Generator,
    sigma: float = 1.0,
    rho: float = 10.0,
    mu: float = 0.0,
    trees_per_cell: int = 100,
    observed_fraction: float = 1.0,
    township_block: int = 0,
):
    """Simulate (Dataset, truth theta over core cells, latent fields).

    Data are generated on core cells only; each observed cell receives
    ``trees_per_cell`` trees whose taxa are argmax draws. The truth
    proportions are the exact probit probabilities of the drawn fields
    (``estimate_theta``), which draw no random numbers. With
    township_block = b > 0 the core grid is tiled into b-by-b townships
    (equal overlap weights) and all trees are emitted as township
    records instead of gridded counts.
    """
    if trees_per_cell < 0:
        raise InvalidArgumentError("trees_per_cell must be >= 0")
    p = taxa.n_taxa
    if model_kind == prec.CAR:
        alpha = draw_car_fields(grid, sigma, p, rng)
    else:
        alpha = draw_spde_fields(grid, sigma, rho, mu, p, rng)
    core = grid.core_cells()
    truth = estimate_theta(alpha[core])

    n_core = core.size
    observed = np.ones(n_core, dtype=bool)
    if observed_fraction < 1.0:
        observed[:] = False
        n_obs = int(round(observed_fraction * n_core))
        observed[rng.choice(n_core, size=n_obs, replace=False)] = True

    counts = np.zeros((grid.n_cells, p), dtype=np.int64)
    cell_tree_taxa = {}
    for c in np.flatnonzero(observed):
        if trees_per_cell == 0:
            continue
        w = alpha[core[c]][None, :] + rng.standard_normal((trees_per_cell, p))
        labels = w.argmax(axis=1)
        cell_tree_taxa[c] = labels
        counts[core[c]] = np.bincount(labels, minlength=p)

    townships = None
    if township_block > 0:
        counts[:] = 0
        cols, rows = grid.core_coords()
        overlaps, label_lists = [], []
        block_of_cell = (rows // township_block) * (
            (grid.nx + township_block - 1) // township_block
        ) + (cols // township_block)
        for b_id in np.unique(block_of_cell):
            members = np.flatnonzero(block_of_cell == b_id)
            labels = np.concatenate(
                [cell_tree_taxa[c] for c in members if c in cell_tree_taxa] or [np.array([], int)]
            )
            if labels.size == 0:
                continue
            overlaps.append(
                TownshipOverlap(
                    township_id=f"block_{b_id}",
                    cells=core[members],
                    weights=np.full(members.size, 1.0 / members.size),
                )
            )
            label_lists.append(labels.astype(np.int64))
        townships = TownshipTrees(taxa=taxa, overlaps=overlaps, taxon_labels=label_lists)

    dataset = Dataset(
        cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts), townships=townships
    )
    return dataset, truth, alpha


def write_truth_csv(truth: np.ndarray, grid: GridSpec, taxa: TaxonRegistry, path) -> None:
    """Truth proportions in the same long format as summary files."""
    cols, rows = grid.core_coords()
    lines = ["cell_x,cell_y,taxon,theta"]
    for c in range(grid.n_core_cells):
        for p, name in enumerate(taxa.names):
            lines.append(f"{cols[c]},{rows[c]},{name},{truth[c, p]:.10g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
