"""Synthetic data generation following the fitted model exactly: latent
fields drawn from the chosen spatial prior, tree taxa as argmaxes of
unit-variance normals around the fields, and (optionally) township
aggregation of the simulated trees.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import precision as prec
from .domain_grid import GridSpec
from .errors import InvalidArgumentError
from .estimator import estimate_theta
from .model_core import CellCounts, Dataset, TaxonRegistry, TownshipTrees


def draw_car_fields(grid: GridSpec, sigma: float, n_taxa: int, rng) -> np.ndarray:
    """Exact centered draws from the intrinsic prior, in closed form: with
    free edges the orthonormal 2-D DCT-II diagonalizes D - C (Strang 1999),
    with eigenvalues (2 - 2 cos(pi j / height)) + (2 - 2 cos(pi k / width)).
    The constant mode, whose eigenvalue is exactly 0, is dropped."""
    from scipy.fft import idctn  # not at module level: the CLI imports this module for `fit`

    h, w = grid.height, grid.width
    lam = np.add.outer(*(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n) for n in (h, w)))
    lam[0, 0] = np.inf
    x = idctn(rng.standard_normal((n_taxa, h, w)) / np.sqrt(lam), type=2, norm="ortho", axes=(1, 2))
    return sigma * x.reshape(n_taxa, h * w).T


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

    # trees_per_cell trees per observed cell, in cell order, drawn cell by cell
    cells = np.flatnonzero(observed)
    w = alpha[core[cells]][:, None, :] + rng.standard_normal((cells.size, trees_per_cell, p))
    labels = w.argmax(axis=2).ravel()
    tree_cell = np.repeat(cells, trees_per_cell)

    counts = np.zeros((grid.n_cells, p), dtype=np.int64)
    townships = None
    if township_block == 0:
        np.add.at(counts, (core[tree_cell], labels), 1)
    else:
        cols, rows = grid.core_coords()
        block_of_cell = (rows // township_block) * (
            (grid.nx + township_block - 1) // township_block
        ) + (cols // township_block)
        # the blocks that hold trees, each over all of its cells
        tree_block = block_of_cell[tree_cell]
        n_trees = np.bincount(tree_block, minlength=block_of_cell.max() + 1)
        n_cells = np.bincount(block_of_cell)
        blocks = np.flatnonzero(n_trees)
        members = np.argsort(block_of_cell, kind="stable")
        members = members[n_trees[block_of_cell[members]] > 0]
        townships = TownshipTrees(
            taxa=taxa,
            ids=tuple(map("block_{}".format, blocks.tolist())),
            cell_start=np.r_[0, np.cumsum(n_cells[blocks])],
            cells=core[members],
            weights=1.0 / n_cells[block_of_cell[members]],
            tree_start=np.r_[0, np.cumsum(n_trees[blocks])],
            labels=labels[np.argsort(tree_block, kind="stable")],
        )

    dataset = Dataset(
        cell_counts=CellCounts(grid=grid, taxa=taxa, counts=counts), townships=townships
    )
    return dataset, truth, alpha


def write_truth_csv(truth: np.ndarray, grid: GridSpec, taxa: TaxonRegistry, path) -> None:
    """Truth proportions in the same long format as summary files: 10
    significant digits, 2 below 1e-12, where estimate_theta loses
    relative precision (about 2.5e-7 of a two-taxon 1e-17)."""
    cols, rows = grid.core_coords()
    lines = ["cell_x,cell_y,taxon,theta"]
    for c in range(grid.n_core_cells):
        for p, name in enumerate(taxa.names):
            theta = truth[c, p]
            lines.append(f"{cols[c]},{rows[c]},{name},{theta:.{10 if theta >= 1e-12 else 2}g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
