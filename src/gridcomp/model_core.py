"""Data-facing model types: counts, township tree records, hyperprior
bounds, and the multinomial log probability used by scoring.

The observation model is multinomial: the taxon of each tree is the
argmax of P latent unit-variance normals centered at the per-taxon
spatial fields, so category probabilities are never needed inside the
sampler and are only materialized by the quadrature in the estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .domain_grid import GridSpec
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class TaxonRegistry:
    """Fixed string-to-index mapping for taxa, set at ingestion."""

    names: tuple

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise InvalidArgumentError("duplicate taxon names")
        if not self.names:
            raise InvalidArgumentError("empty taxon registry")

    @property
    def n_taxa(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidArgumentError(f"unknown taxon {name!r}") from None


@dataclass
class CellCounts:
    """Per-cell taxon counts on the buffered lattice.

    counts is a dense (m, P) integer array; buffer cells and cells
    without data hold zeros. Cells with zero totals are permitted (no
    data; their fields come from the prior conditional).
    """

    grid: GridSpec
    taxa: TaxonRegistry
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.grid.n_cells, self.taxa.n_taxa):
            raise InvalidArgumentError(
                f"counts shape {self.counts.shape} does not match "
                f"(m={self.grid.n_cells}, P={self.taxa.n_taxa})"
            )
        if np.any(self.counts < 0):
            raise InvalidArgumentError("negative counts")

    @property
    def totals(self) -> np.ndarray:
        """n_i = total trees per cell."""
        return self.counts.sum(axis=1)

    @property
    def n_trees(self) -> int:
        return int(self.counts.sum())


@dataclass
class TownshipTrees:
    """Trees recorded per township, each with a taxon but no cell, as
    flat arrays in township order. Township t, named ids[t], covers the
    support cells cells[cell_start[t]:cell_start[t + 1]], strictly
    ascending, with overlap weights at the same positions of weights;
    its trees' taxa are labels[tree_start[t]:tree_start[t + 1]]. A
    tree's cell is latent and resampled by the chain.
    """

    taxa: TaxonRegistry
    ids: tuple
    cell_start: np.ndarray
    cells: np.ndarray
    weights: np.ndarray
    tree_start: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.cell_start, self.cells, self.tree_start, self.labels = (
            np.asarray(a, dtype=np.int64)
            for a in (self.cell_start, self.cells, self.tree_start, self.labels)
        )
        self.weights = np.asarray(self.weights, dtype=float)
        n = len(self.ids)
        for start, flat in ((self.cell_start, self.cells), (self.cell_start, self.weights),
                            (self.tree_start, self.labels)):
            if flat.ndim != 1 or start.shape != (n + 1,) or start[0] != 0 or start[-1] != flat.size:
                raise InvalidArgumentError("township offsets do not match their arrays")

        def check(bad, why, start=None):
            # bad flags townships, or entries of the flat array start indexes
            if bad.any():
                i = int(np.argmax(bad))
                t = i if start is None else int(np.searchsorted(start, i, side="right")) - 1
                raise InvalidArgumentError(f"township {self.ids[t]}: {why}")

        check(np.diff(self.tree_start) <= 0, "no trees")
        check((self.labels < 0) | (self.labels >= self.taxa.n_taxa), "taxon label out of range",
              self.tree_start)
        check(np.diff(self.cell_start) <= 0, "no support cells")
        # one membership tally slot per support cell, ascending within a township
        falling = np.diff(self.cells) <= 0
        falling[self.cell_start[1:-1] - 1] = False
        check(np.append(False, falling), "cells are not strictly increasing", self.cell_start)


@dataclass(frozen=True)
class Hyperpriors:
    """Truncation bounds for the hyperparameter priors.

    sigma_p ~ U(0, sigma_upper); mu_p flat on [-mu_bound, mu_bound];
    rho_p ~ U(rho_lower, rho_upper).
    """

    sigma_upper: float = 1000.0
    mu_bound: float = 10.0
    rho_lower: float = 0.1
    rho_upper: float = float(np.exp(5.0))

    def __post_init__(self):
        if min(self.sigma_upper, self.mu_bound, self.rho_lower, self.rho_upper) <= 0:
            raise InvalidArgumentError("hyperprior bounds must be positive")
        if self.rho_lower >= self.rho_upper:
            raise InvalidArgumentError("rho_lower must be < rho_upper")


@dataclass
class Dataset:
    """Gridded counts plus optional township records."""

    cell_counts: CellCounts
    townships: TownshipTrees | None = None

    @property
    def grid(self) -> GridSpec:
        return self.cell_counts.grid

    @property
    def taxa(self) -> TaxonRegistry:
        return self.cell_counts.taxa


@dataclass
class LatentState:
    """All latent variables of one chain (owned by the sampler).

    alpha: (m, P) spatial fields; others_max: (N,) each tree's largest
    latent normal over the taxa it was not recorded as, from the last
    latent draw (-inf with one taxon); tree_cell: current cell of each
    tree (static for gridded trees, resampled memberships for township
    trees); tree_taxon: the observed labels, sorted within each section
    (the n_gridded gridded trees, then the township trees). The latent
    normals themselves are not kept: the next draw reads the previous
    ones only through others_max, and the rest of a sweep only through
    what the draw reduces them to as it goes.
    """

    alpha: np.ndarray
    others_max: np.ndarray
    tree_cell: np.ndarray
    tree_taxon: np.ndarray
    n_gridded: int = 0


def multinomial_log_pmf(y, theta, check_normalized: bool = True):
    """Log multinomial probability of each count row of y under the
    matching row of theta, for (..., P) arrays; a float for one row.

    Includes the multinomial coefficient. A row scores -inf when some
    category has y_p > 0 with theta_p = 0. ``check_normalized=False``
    skips the per-row sum-to-one precondition for floored (unnormalized)
    predictions used in scoring.
    """
    y = np.asarray(y)
    theta = np.asarray(theta, dtype=float)
    if y.shape != theta.shape:
        raise InvalidArgumentError(f"length mismatch: y has {y.shape}, theta has {theta.shape}")
    if np.any(y < 0) or not np.issubdtype(y.dtype, np.integer):
        raise InvalidArgumentError("y must be non-negative integers")
    if np.any(theta < 0):
        raise InvalidArgumentError("theta must be non-negative")
    if check_normalized:
        sums = theta.sum(axis=-1)
        off = np.abs(sums - 1.0) > 1e-9
        if off.any():
            raise InvalidArgumentError(f"theta sums to {sums[off][0]}, expected 1")
    with np.errstate(divide="ignore"):
        log_theta = np.log(np.where(y > 0, theta, 1.0))
    out = gammaln(y.sum(axis=-1) + 1) - gammaln(y + 1).sum(axis=-1) + (y * log_theta).sum(axis=-1)
    return float(out) if out.ndim == 0 else out
