"""Grid geometry and township overlap structure.

Cells are indexed row-major from the southwest corner of the *buffered*
lattice: ``index = row * width + col`` with row 0 the southernmost row.
The buffer is a ring of prediction-only cells added on all sides; data
and outputs live on the inner (core) cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class GridSpec:
    """Rectangular cell lattice with an optional buffer ring.

    nx, ny are the core (data-carrying) dimensions; the full lattice is
    (nx + 2*buffer) by (ny + 2*buffer). cell_size and origin are carried
    as metadata only and never enter any computation.
    """

    nx: int
    ny: int
    buffer: int = 0
    cell_size: float = 8000.0
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise InvalidArgumentError(f"grid dimensions must be >= 1, got {self.nx}x{self.ny}")
        if self.buffer < 0:
            raise InvalidArgumentError(f"buffer must be >= 0, got {self.buffer}")
        if not (np.isfinite(self.cell_size) and self.cell_size > 0):
            raise InvalidArgumentError(f"cell_size must be finite and > 0, got {self.cell_size}")

    @property
    def width(self) -> int:
        return self.nx + 2 * self.buffer

    @property
    def height(self) -> int:
        return self.ny + 2 * self.buffer

    @property
    def n_cells(self) -> int:
        """Total cell count m, buffer included."""
        return self.width * self.height

    @property
    def n_core_cells(self) -> int:
        return self.nx * self.ny

    def index(self, row: int, col: int) -> int:
        """Row-major index in the buffered lattice."""
        return row * self.width + col

    def core_index_to_full(self, core_row, core_col):
        """Map core (unbuffered) coordinates to a buffered-lattice index."""
        core_row = np.asarray(core_row)
        core_col = np.asarray(core_col)
        if np.any((core_row < 0) | (core_row >= self.ny) | (core_col < 0) | (core_col >= self.nx)):
            raise InvalidArgumentError("core cell coordinates outside the unbuffered grid")
        return (core_row + self.buffer) * self.width + (core_col + self.buffer)

    def core_cells(self) -> np.ndarray:
        """Buffered-lattice indices of all core cells, core-row-major order."""
        rows = np.repeat(np.arange(self.ny), self.nx)
        cols = np.tile(np.arange(self.nx), self.ny)
        return (rows + self.buffer) * self.width + (cols + self.buffer)

    def core_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(col, row) core coordinates aligned with core_cells() order."""
        rows = np.repeat(np.arange(self.ny), self.nx)
        cols = np.tile(np.arange(self.nx), self.ny)
        return cols, rows


def build_grid(nx: int, ny: int, buffer: int = 0, **metadata) -> GridSpec:
    """Construct a GridSpec; raises InvalidArgumentError on bad dimensions."""
    return GridSpec(nx=int(nx), ny=int(ny), buffer=int(buffer), **metadata)


def normalize_overlaps(ids, town, cells, areas):
    """Normalize overlap entries (township index, cell index, area >= 0,
    finite), in any order, into flat arrays in township order: township
    t of ids covers cells[cell_start[t]:cell_start[t + 1]], ascending,
    with weights summing to 1. Entries whose share of their township's
    total rounds to zero are dropped and those of one cell merged. A
    township without entries, with all areas zero or with a total that
    overflows is invalid.
    """
    town = np.asarray(town, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    areas = np.asarray(areas, dtype=float)
    sizes = np.bincount(town, minlength=len(ids))
    # each township's entries in entry order: rows of equal length sum,
    # pairwise from 8 entries on, as one township's ndarray.sum does
    entries = np.argsort(town, kind="stable")
    first = np.cumsum(sizes) - sizes
    total = np.zeros(sizes.size)
    with np.errstate(over="ignore"):
        for k in np.unique(sizes[sizes > 0]):
            rows = np.flatnonzero(sizes == k)
            total[rows] = areas[entries[first[rows, None] + np.arange(k)]].sum(axis=1)
    for bad, why in (
        (sizes == 0, "no overlap entries"),
        (~np.isfinite(total), "total overlap area overflows"),
        (total <= 0, "all overlap areas are zero"),
    ):
        if bad.any():
            raise InvalidArgumentError(f"township {ids[int(np.argmax(bad))]}: {why}")
    share = areas / total[town]
    keep = share > 0
    span = int(cells.max(initial=0)) + 1
    keys, merged = np.unique(town[keep] * span + cells[keep], return_inverse=True)
    weights = np.bincount(merged, weights=share[keep], minlength=keys.size)
    return np.r_[0, np.cumsum(np.bincount(keys // span, minlength=len(ids)))], keys % span, weights
