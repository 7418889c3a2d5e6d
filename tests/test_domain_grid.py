import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcomp.domain_grid import build_grid, normalize_overlaps
from gridcomp.errors import InvalidArgumentError
from gridcomp.precision import _stencil_entries

CARDINAL, DIAGONAL, SECOND_ORDER = 1, 2, 3


def neighbors(grid, i, n_classes=3):
    """All (neighbor index, class code) pairs of cell i in the stencil
    with its first n_classes neighbor classes."""
    rows, cols, codes = _stencil_entries(grid, n_classes)
    off = (rows == i) & (codes > 0)
    return list(zip(cols[off].tolist(), codes[off].tolist()))


def degree(grid, code):
    """Each cell's number of neighbors of one class."""
    rows, _, codes = _stencil_entries(grid, 3)
    return np.bincount(rows[codes == code], minlength=grid.n_cells)


def pairs(grid, code, n_classes=3):
    """The directed (cell, neighbor) pairs of one class."""
    rows, cols, codes = _stencil_entries(grid, n_classes)
    on = codes == code
    return set(zip(rows[on].tolist(), cols[on].tolist()))


def test_single_cell_grid():
    grid = build_grid(1, 1, 0)
    assert grid.n_cells == 1
    assert neighbors(grid, 0) == []


def test_2x2_grid_each_cell_two_cardinal_neighbors():
    grid = build_grid(2, 2, 0)
    assert grid.n_cells == 4
    assert np.all(degree(grid, CARDINAL) == 2)


def test_buffered_grid_cell_count():
    # 146 x 180 core plus a 6-cell ring: (146+12) * (180+12)
    grid = build_grid(146, 180, 6)
    assert grid.n_cells == 30336
    assert grid.n_core_cells == 146 * 180


def test_invalid_dimensions_rejected():
    with pytest.raises(InvalidArgumentError):
        build_grid(0, 5)
    with pytest.raises(InvalidArgumentError):
        build_grid(5, -1)
    with pytest.raises(InvalidArgumentError):
        build_grid(5, 5, -1)


def test_3x3_cardinal_center_degree():
    grid = build_grid(3, 3, 0)
    center = grid.index(1, 1)
    assert degree(grid, CARDINAL)[center] == 4
    assert sorted(neighbors(grid, center, 1)) == [
        (grid.index(0, 1), CARDINAL), (grid.index(1, 0), CARDINAL),
        (grid.index(1, 2), CARDINAL), (grid.index(2, 1), CARDINAL)]


def test_3x3_extended_center_classes():
    grid = build_grid(3, 3, 0)
    center = grid.index(1, 1)
    assert degree(grid, CARDINAL)[center] == 4
    assert degree(grid, DIAGONAL)[center] == 4
    # the (+-2, 0) / (0, +-2) offsets all fall outside a 3x3 lattice
    assert degree(grid, SECOND_ORDER)[center] == 0


def test_5x5_extended_center_classes():
    grid = build_grid(5, 5, 0)
    center = grid.index(2, 2)
    assert degree(grid, CARDINAL)[center] == 4
    assert degree(grid, DIAGONAL)[center] == 4
    assert degree(grid, SECOND_ORDER)[center] == 4


def test_corner_and_edge_cardinal_degrees():
    grid = build_grid(4, 3, 0)
    deg = degree(grid, CARDINAL)
    assert deg[grid.index(0, 0)] == 2
    assert deg[grid.index(0, 1)] == 3
    assert deg[grid.index(1, 1)] == 4


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    buffer=st.integers(0, 2),
    n_classes=st.sampled_from([1, 3]),
)
def test_graph_symmetry_property(nx, ny, buffer, n_classes):
    grid = build_grid(nx, ny, buffer)
    for code in range(1, n_classes + 1):
        fwd = pairs(grid, code, n_classes)
        assert fwd == {(k, i) for i, k in fwd}, f"class {code} entries not symmetric"


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6))
def test_handshake_lemma(nx, ny):
    grid = build_grid(nx, ny, 0)
    deg_sum = int(degree(grid, CARDINAL).sum())
    n_undirected = (grid.height - 1) * grid.width + grid.height * (grid.width - 1)
    assert deg_sum == len(pairs(grid, CARDINAL)) == 2 * n_undirected


def test_buffered_interior_matches_unbuffered_graph():
    inner = build_grid(3, 4, 0)
    outer = build_grid(3, 4, 2)
    core = outer.core_cells()
    remap = {int(full): i for i, full in enumerate(core)}
    restricted = {(remap[i], remap[k]) for i, k in pairs(outer, CARDINAL)
                  if i in remap and k in remap}
    assert restricted == pairs(inner, CARDINAL)


def normalize(entries, n_towns=1):
    """normalize_overlaps over (township index, cell, area) entries of
    the townships t0, t1, ..."""
    town, cells, areas = (list(col) for col in zip(*entries)) if entries else ([], [], [])
    return normalize_overlaps([f"t{i}" for i in range(n_towns)], town, cells, areas)


def support(entries):
    """One township's normalized weights by cell."""
    cell_start, cells, weights = normalize([(0, c, a) for c, a in entries])
    assert cell_start.tolist() == [0, cells.size]
    return dict(zip(cells.tolist(), weights.tolist()))


def test_normalize_overlaps_symmetric():
    assert support([(7, 2.0), (8, 2.0)]) == {7: 0.5, 8: 0.5}


def test_normalize_overlaps_single_cell():
    assert support([(3, 1.0)]) == {3: 1.0}


def test_normalize_overlaps_proportional():
    assert support([(1, 1.0), (2, 3.0)]) == {1: 0.25, 2: 0.75}


def test_normalize_overlaps_drops_zero_area_and_validates():
    assert support([(1, 1.0), (2, 0.0)]) == {1: 1.0}
    with pytest.raises(InvalidArgumentError, match="township t0: all overlap areas are zero"):
        support([(1, 0.0)])
    with pytest.raises(InvalidArgumentError, match="township t1: no overlap entries"):
        normalize([(0, 1, 1.0), (2, 1, 1.0)], n_towns=3)
    # two finite areas whose total overflows, with no warning
    with pytest.raises(InvalidArgumentError, match="township t0: total overlap area overflows"):
        support([(1, 1e308), (2, 1e308)])


def test_normalize_overlaps_merges_cells_in_township_order():
    # entries of three townships, interleaved; t2's cell 4 appears twice
    entries = [(2, 4, 1.0), (0, 3, 2.0), (2, 1, 2.0), (1, 0, 5.0), (2, 4, 1.0), (0, 1, 2.0)]
    cell_start, cells, weights = normalize(entries, n_towns=3)
    assert cell_start.tolist() == [0, 2, 3, 5]
    assert cells.tolist() == [1, 3, 0, 1, 4]
    assert weights.tolist() == [0.5, 0.5, 1.0, 0.5, 0.5]


def test_normalize_overlaps_of_no_townships():
    cell_start, cells, weights = normalize([], n_towns=0)
    assert cell_start.tolist() == [0] and cells.size == 0 and weights.size == 0


@settings(max_examples=30, deadline=None)
@given(
    areas=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6).filter(
        lambda xs: sum(xs) > 1e-6
    )
)
@example(areas=[2.0, 5e-324])
def test_normalize_overlaps_weights_sum_to_one(areas):
    _, _, weights = normalize([(0, i % 9, a) for i, a in enumerate(areas)])
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.all(weights > 0)
