
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridcomp.domain_grid import build_grid
from gridcomp.errors import (
    ArchiveIntegrityError,
    ArchiveVersionError,
    ConfigError,
    DataError,
    ParseError,
)
from gridcomp.estimator import PosteriorSamples, PosteriorSummary
from gridcomp.io_formats import (
    apply_overrides,
    atomic_write,
    config_grid,
    config_row_mask,
    parse_config,
    read_cell_counts,
    read_samples,
    read_townships,
    validate_config,
    write_cell_counts,
    write_config,
    write_raster,
    write_samples,
    write_summary_csv,
    write_townships,
)
from gridcomp.model_core import TaxonRegistry


class TestCellCounts:
    def test_single_row(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,oak,pine\n0,0,3,1\n")
        grid = build_grid(2, 2, 0)
        cc = read_cell_counts(path, grid)
        assert cc.taxa.names == ("oak", "pine")
        assert np.array_equal(cc.counts[grid.core_index_to_full(0, 0)], [3, 1])
        assert cc.totals[grid.core_index_to_full(0, 0)] == 4

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,oak\n")
        cc = read_cell_counts(path, build_grid(2, 2, 0))
        assert cc.n_trees == 0

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,oak\n1,1,2\n1,1,3\n")
        with pytest.raises(ParseError, match=r"duplicate cell \(1,1\)"):
            read_cell_counts(path, build_grid(2, 2, 0))

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,oak\n0,0,-1\n")
        with pytest.raises(ParseError, match="negative"):
            read_cell_counts(path, build_grid(2, 2, 0))

    def test_malformed_row_carries_line_number(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,oak\n0,0,2\nnope\n")
        with pytest.raises(ParseError) as err:
            read_cell_counts(path, build_grid(2, 2, 0))
        assert err.value.line == 3

    def test_unknown_taxa_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,elm\n0,0,2\n")
        with pytest.raises(DataError):
            read_cell_counts(path, build_grid(2, 2, 0), taxa=TaxonRegistry(names=("oak",)))

    @pytest.mark.parametrize("text, message", [
        ("cell_x,cell_y,oak\n0,0,2\n1,0,99999999999999999999999\n",
         r"count in cell \(1,0\) exceeds 9223372036854775807 \[.*counts.csv:3\]"),
        ("cell_x,cell_y,oak,oak\n0,0,2,1\n",
         r"duplicate taxon name 'oak' in the header \[.*counts.csv:1\]"),
        ("# taxa\ncell_x,cell_y,oak,\n0,0,2,1\n",
         r"empty taxon name in the header \[.*counts.csv:2\]"),
    ])
    def test_bad_header_or_count_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            read_cell_counts(path, build_grid(2, 2, 0))

    # int() alone reads each of these: as 10, 5 and the Arabic-Indic 3
    @pytest.mark.parametrize("token", ["1_0", "+5", "\u0663"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_integer_fields_are_ascii_digits(self, tmp_path, token, column):
        row = ["0", "1", "4"]
        row[column] = token
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,oak\n1,1,2\n" + ",".join(row) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"non-integer field .*{re.escape(repr(token))}") as err:
            read_cell_counts(path, build_grid(2, 2, 0))
        assert err.value.path == str(path) and err.value.line == 3

    def test_largest_int64_count_accepted(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(f"cell_x,cell_y,oak\n0,0,{2**63 - 1}\n")
        assert read_cell_counts(path, build_grid(2, 2, 0)).counts.max() == 2**63 - 1

    def test_out_of_grid_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,oak\n5,0,2\n")
        with pytest.raises(ParseError, match="outside"):
            read_cell_counts(path, build_grid(2, 2, 0))

    def test_row_mask(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("cell_x,cell_y,oak\n0,2,1\n")
        mask = np.array([True, True, False])
        with pytest.raises(ParseError, match="masked row"):
            read_cell_counts(path, build_grid(3, 3, 0), row_mask=mask)

    def test_round_trip(self, tmp_path):
        grid = build_grid(3, 2, 1)
        taxa = TaxonRegistry(names=("a", "b"))
        counts = np.zeros((grid.n_cells, 2), dtype=np.int64)
        core = grid.core_cells()
        counts[core[0]] = [2, 5]
        counts[core[4]] = [1, 0]
        from gridcomp.model_core import CellCounts

        cc = CellCounts(grid=grid, taxa=taxa, counts=counts)
        write_cell_counts(cc, tmp_path / "c.csv")
        back = read_cell_counts(tmp_path / "c.csv", grid)
        assert np.array_equal(back.counts, counts)


def by_id(towns):
    """Per township id, its support cells, weights and labels."""
    cs, ts = towns.cell_start, towns.tree_start
    return {tid: (towns.cells[cs[t]:cs[t + 1]], towns.weights[cs[t]:cs[t + 1]],
                  towns.labels[ts[t]:ts[t + 1]]) for t, tid in enumerate(towns.ids)}


def reference_normalize(entries):
    """One township's (cell, area) entries, in file order, normalized one
    township at a time: the areas summed by ndarray.sum, zero shares
    dropped, the shares of one cell added by np.add.at."""
    idx = np.array([cell for cell, _ in entries], dtype=np.int64)
    areas = np.array([area for _, area in entries], dtype=float)
    share = areas / areas.sum()
    keep = share > 0
    cells, inv = np.unique(idx[keep], return_inverse=True)
    weights = np.zeros(cells.size)
    np.add.at(weights, inv, share[keep])
    return cells, weights


# ids whose sorted order differs from their order of first appearance
TOWNSHIP_IDS = ("b10", "b2", "a", "B", "b1", "c 3")


@st.composite
def township_files(draw):
    """Trees and overlaps files of up to six townships on a 3 x 2 grid:
    1-12 overlap entries each, with repeated cells and zero or tiny
    areas, 0-25 trees each, and both files' lines shuffled."""
    ids = draw(st.lists(st.sampled_from(TOWNSHIP_IDS), min_size=1, max_size=6, unique=True))
    area = st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-3, 1e4))
    entries, trees = [], []
    for tid in ids:
        n = draw(st.integers(1, 12))
        xy = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=n,
                           max_size=n))
        areas = [draw(st.floats(1e-3, 1e4))] + [draw(area) for _ in range(n - 1)]
        entries += [(tid, x, y, a) for (x, y), a in zip(xy, areas)]
        trees += [(tid, lab) for lab in draw(st.lists(st.integers(0, 2), max_size=25))]
    entries = draw(st.permutations(entries))
    trees = draw(st.permutations(trees))
    return entries, trees


class TestTownships:
    def write_pair(self, tmp_path, trees, overlaps):
        tp = tmp_path / "trees.csv"
        op = tmp_path / "overlaps.csv"
        tp.write_text("township_id,taxon\n" + trees, encoding="utf-8")
        op.write_text("township_id,cell_x,cell_y,area\n" + overlaps, encoding="utf-8")
        return tp, op

    def test_point_mass(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,oak\n", "t1,0,0,4.0\n")
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("oak",))
        tt = read_townships(tp, op, grid, taxa)
        assert tt.ids == ("t1",)
        assert tt.cell_start.tolist() == [0, 1] and tt.weights.tolist() == [1.0]

    def test_four_equal_cells(self, tmp_path):
        tp, op = self.write_pair(
            tmp_path,
            "t1,oak\nt1,pine\n",
            "t1,0,0,1\nt1,1,0,1\nt1,0,1,1\nt1,1,1,1\n",
        )
        tt = read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak", "pine")))
        assert np.allclose(tt.weights, 0.25)

    def test_three_townships_hand_normalized(self, tmp_path):
        tp, op = self.write_pair(
            tmp_path,
            "a,oak\nb,oak\nc,oak\n",
            "a,0,0,2\na,1,0,6\nb,0,1,5\nc,1,1,1\nc,0,0,3\n",
        )
        tt = by_id(read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",))))
        assert np.allclose(sorted(tt["a"][1]), [0.25, 0.75])
        assert np.allclose(tt["b"][1], [1.0])
        assert np.allclose(sorted(tt["c"][1]), [0.25, 0.75])

    def test_buffered_grid_keeps_support_in_the_core(self, tmp_path):
        grid = build_grid(2, 2, 1)  # 4x4 lattice, core is the inner 2x2
        taxa = TaxonRegistry(names=("oak",))
        tt = read_townships(*self.write_pair(tmp_path, "t,oak\n", "t,1,1,2\nt,0,0,2\n"),
                            grid, taxa)
        assert tt.cells.tolist() == [grid.core_index_to_full(0, 0), grid.core_index_to_full(1, 1)]
        with pytest.raises(ParseError, match="outside the core grid"):
            read_townships(*self.write_pair(tmp_path, "t,oak\n", "t,2,0,1\n"), grid, taxa)

    def test_orphan_township_rejected(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,oak\nt2,oak\n", "t1,0,0,1\n")
        with pytest.raises(DataError, match="t2: no overlap entries"):
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))

    def test_zero_area_rejected(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,oak\n", "t1,0,0,0.0\n")
        with pytest.raises(DataError, match="overlaps.csv: township t1: all overlap areas"):
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))

    def test_overflowing_total_rejected(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,oak\n", "t1,0,0,1e308\nt1,1,0,1e308\n")
        with pytest.raises(DataError, match="overlaps.csv: township t1: total overlap area"):
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))

    # the second township has no trees: its entries are checked all the same
    @pytest.mark.parametrize("area", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("town", ["t1", "t2"])
    def test_bad_area_names_its_line(self, tmp_path, area, town):
        tp, op = self.write_pair(tmp_path, "t1,oak\n", f"t1,0,0,1\n\n{town},1,0,{area}\n")
        with pytest.raises(ParseError, match="is not a finite number >= 0") as err:
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))
        assert err.value.line == 4 and err.value.path == str(op)

    @pytest.mark.parametrize("field, token", [(1, "1_0"), (1, "+5"), (2, "\u0663"),
                                              (3, "1_0"), (3, "\u0663"), (3, "1e\u0663")])
    def test_fields_are_ascii_numbers(self, tmp_path, field, token):
        entry = ["t1", "0", "0", "1"]
        entry[field] = token
        tp, op = self.write_pair(tmp_path, "t1,oak\n", "t1,1,1,1\n" + ",".join(entry) + "\n")
        with pytest.raises(ParseError, match=f"bad field .*{re.escape(repr(token))}") as err:
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))
        assert err.value.path == str(op) and err.value.line == 3

    @pytest.mark.parametrize("trees, overlaps, which", [(",oak\n", "t1,0,0,1\n", "trees"),
                                                       ("t1,oak\n", ",0,0,1\n", "overlaps")])
    def test_empty_township_id_rejected(self, tmp_path, trees, overlaps, which):
        tp, op = self.write_pair(tmp_path, trees, overlaps)
        with pytest.raises(ParseError, match="empty township id") as err:
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))
        assert err.value.path == str(tmp_path / f"{which}.csv") and err.value.line == 2

    def test_unknown_taxon_rejected(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,elm\n", "t1,0,0,1\n")
        with pytest.raises(ParseError, match="elm"):
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))

    def test_repeated_lines_comments_and_padding(self, tmp_path):
        # repeated lines split once must still give one label per line,
        # in file order within each township
        clean = "b,pine\na,oak\nb,pine\na,pine\nb,oak\na,oak\nb,pine\n"
        messy = ("b,pine\n# a comment\na,oak\n\nb,pine  # trailing\n  a , pine\n"
                 "b,oak\n   \na,oak\nb,pine\n")
        overlaps = "a,0,0,1\na,1,1,3\nb,1,0,2\n"
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("oak", "pine"))
        want = read_townships(*self.write_pair(tmp_path, clean, overlaps), grid, taxa)
        got = read_townships(*self.write_pair(tmp_path, messy, overlaps), grid, taxa)
        assert got.ids == want.ids == ("a", "b")
        assert got.tree_start.tolist() == [0, 3, 7]
        assert got.labels.tolist() == [0, 1, 0, 1, 1, 0, 1]
        for name in ("cell_start", "cells", "weights", "tree_start", "labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("bad, message", [("a,elm", "unknown taxon 'elm'"),
                                              ("a,oak,3", "expected township_id,taxon")])
    def test_repeated_bad_line_reported_at_its_first_line(self, tmp_path, bad, message):
        # line numbers count the comment and blank lines
        trees = f"# note\na,oak\n\n{bad}\na,oak\n{bad}\n{bad}\n"
        tp, op = self.write_pair(tmp_path, trees, "a,0,0,1\n")
        with pytest.raises(ParseError, match=message) as err:
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))
        assert err.value.line == 5

    def test_round_trip(self, tmp_path):
        tp, op = self.write_pair(
            tmp_path, "a,oak\na,pine\nb,oak\n", "a,0,0,1\na,1,1,3\nb,1,0,2\n"
        )
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("oak", "pine"))
        tt = read_townships(tp, op, grid, taxa)
        write_townships(tt, grid, tmp_path / "t2.csv", tmp_path / "o2.csv")
        tt2 = read_townships(tmp_path / "t2.csv", tmp_path / "o2.csv", grid, taxa)
        for name in ("cell_start", "cells", "tree_start", "labels"):
            assert np.array_equal(getattr(tt, name), getattr(tt2, name))
        assert np.allclose(tt.weights, tt2.weights)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(files=township_files())
    def test_matches_per_township_reference(self, tmp_path, files):
        # the one pass over every entry gives each township's cells,
        # weights (bit for bit) and labels (in file order) as normalizing
        # it alone does
        entries, trees = files
        grid = build_grid(3, 2, 1)
        taxa = TaxonRegistry(names=("oak", "pine", "elm"))
        tp, op = self.write_pair(
            tmp_path,
            "".join(f"{tid},{taxa.names[lab]}\n" for tid, lab in trees),
            "".join(f"{tid},{x},{y},{a!r}\n" for tid, x, y, a in entries),
        )
        got = read_townships(tp, op, grid, taxa)
        with_trees = sorted({tid for tid, _ in trees})
        assert got.ids == tuple(with_trees)
        assert got.cells.dtype == got.labels.dtype == np.int64
        for tid, (cells, weights, labels) in by_id(got).items():
            want_cells, want_weights = reference_normalize(
                [(int(grid.core_index_to_full(y, x)), a) for t, x, y, a in entries if t == tid]
            )
            assert cells.tolist() == want_cells.tolist()
            assert weights.tobytes() == want_weights.tobytes()
            assert labels.tolist() == [lab for t, lab in trees if t == tid]


def make_archive(k=4, nx=3, ny=2, p=2, seed=0, buffer=0):
    rng = np.random.default_rng(seed)
    grid = build_grid(nx, ny, buffer)
    taxa = TaxonRegistry(names=tuple(f"t{i}" for i in range(p)))
    theta = rng.dirichlet(np.ones(p), size=(k, grid.n_core_cells))
    return PosteriorSamples(grid=grid, taxa=taxa, theta=theta, seed=seed, model_kind="car")


class TestArchive:
    def test_round_trip_bitwise(self, tmp_path):
        archive = make_archive()
        path = tmp_path / "s.gcsa"
        write_samples(archive, path)
        back = read_samples(path)
        assert np.array_equal(back.theta, archive.theta)
        assert back.taxa.names == archive.taxa.names
        assert back.grid == archive.grid
        assert back.seed == archive.seed
        # writing the read archive reproduces identical bytes
        write_samples(back, tmp_path / "s2.gcsa")
        assert (tmp_path / "s.gcsa").read_bytes() == (tmp_path / "s2.gcsa").read_bytes()

    def test_payload_size(self, tmp_path):
        archive = make_archive(k=250, nx=10, ny=10, p=23)
        path = tmp_path / "s.gcsa"
        write_samples(archive, path)
        back = read_samples(path)
        assert back.theta.size == 250 * 100 * 23

    def test_no_extra_copies_of_theta(self, tmp_path):
        grid = build_grid(1000, 1, 0)
        theta = np.random.default_rng(3).random((2000, 1000, 1))  # 16 MB
        archive = PosteriorSamples(grid=grid, taxa=TaxonRegistry(names=("t0",)), theta=theta)
        path = tmp_path / "s.gcsa"
        tracemalloc.start()
        try:
            write_samples(archive, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            back = read_samples(path)
            read_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert write_peak < 0.1 * theta.nbytes
        assert read_peak < 1.1 * theta.nbytes
        assert np.array_equal(back.theta, theta)
        back.theta[0, 0, 0] = 2.0  # the returned array is writable

    def test_version_mismatch(self, tmp_path):
        archive = make_archive()
        path = tmp_path / "s.gcsa"
        write_samples(archive, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # bump version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ArchiveVersionError):
            read_samples(path)

    def test_truncated_payload(self, tmp_path):
        archive = make_archive()
        path = tmp_path / "s.gcsa"
        write_samples(archive, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        with pytest.raises(ArchiveIntegrityError):
            read_samples(path)

    @pytest.mark.parametrize("n_samples", [-1, 5, 10**15, 10**30])
    def test_bad_sample_count_in_header(self, tmp_path, n_samples):
        path = tmp_path / "s.gcsa"
        write_samples(make_archive(k=4), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + hlen])
        header["n_samples"] = n_samples
        edited = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(edited)) + edited + raw[12 + hlen :])
        with pytest.raises(ArchiveIntegrityError, match="truncated payload"):
            read_samples(path)

    def test_corrupted_payload_checksum(self, tmp_path):
        archive = make_archive()
        path = tmp_path / "s.gcsa"
        write_samples(archive, path)
        raw = bytearray(path.read_bytes())
        raw[-40] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ArchiveIntegrityError, match="checksum"):
            read_samples(path)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "s.gcsa"
        path.write_bytes(b"hello world")
        with pytest.raises(ArchiveIntegrityError):
            read_samples(path)

    def test_failed_rewrite_keeps_previous_archive(self, tmp_path):
        path = tmp_path / "s.gcsa"
        write_samples(make_archive(seed=1), path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write(before[: len(before) // 2])
                raise RuntimeError("crash mid-write")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.gcsa"]
        write_samples(make_archive(seed=2), path)
        assert np.array_equal(read_samples(path).theta, make_archive(seed=2).theta)

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        k=st.integers(1, 5),
        nx=st.integers(1, 4),
        ny=st.integers(1, 4),
        p=st.integers(1, 4),
        seed=st.integers(0, 100),
    )
    def test_round_trip_property(self, tmp_path, k, nx, ny, p, seed):
        archive = make_archive(k=k, nx=nx, ny=ny, p=p, seed=seed)
        path = tmp_path / f"s_{k}_{nx}_{ny}_{p}_{seed}.gcsa"
        write_samples(archive, path)
        back = read_samples(path)
        assert np.array_equal(back.theta, archive.theta)


class TestSummaryOutputs:
    def make_summary(self):
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("oak", "pine"))
        mean = np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1], [0.4, 0.6]])
        sd = np.full((4, 2), 0.05)
        return PosteriorSummary(
            grid=grid, taxa=taxa, mean=mean, sd=sd, q025=mean - 0.1, q975=mean + 0.1
        )

    def test_summary_csv(self, tmp_path):
        s = self.make_summary()
        path = tmp_path / "summary.csv"
        write_summary_csv(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cell_x,cell_y,taxon,mean,sd,q025,q975"
        assert len(lines) == 1 + 4 * 2
        assert lines[1].startswith("0,0,oak,0.25")
        # per-cell means sum to one
        for c in range(4):
            vals = [float(lines[1 + 2 * c + p].split(",")[3]) for p in range(2)]
            assert abs(sum(vals) - 1.0) < 1e-9

    def test_raster_orientation(self, tmp_path):
        # southwest corner value must be the first entry of the LAST line
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("a",))
        field = np.array([10.0, 20.0, 30.0, 40.0])  # rows: south(10,20), north(30,40)
        path = tmp_path / "r.txt"
        write_raster(field, grid, taxa, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split() == ["30", "40"]
        assert lines[1].split() == ["10", "20"]

    @pytest.mark.parametrize("n_cols", [1, 3])
    def test_raster_rejects_field_not_matching_taxa(self, tmp_path, n_cols):
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("a", "b"))
        path = tmp_path / "r.txt"
        with pytest.raises(DataError, match="core grid and taxa"):
            write_raster(np.ones((4, n_cols)), grid, taxa, path)
        assert not path.exists()


class TestRunConfig:
    def write_config(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body, encoding="utf-8")
        return path

    def test_parse_and_defaults(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\nny = 5\nmodel = spde  # comment\n")
        cfg = parse_config(path)
        assert cfg.values["nx"] == 4 and cfg.values["ny"] == 5
        assert cfg.values["model"] == "spde"
        assert cfg.values["buffer"] == 0
        assert cfg.values["sigma_upper"] == 1000.0
        validate_config(cfg)

    def test_unknown_key(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\nny = 5\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(path)

    def test_missing_required(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\n")
        with pytest.raises(ConfigError, match="ny"):
            validate_config(parse_config(path))

    def test_bad_value_type(self, tmp_path):
        path = self.write_config(tmp_path, "nx = four\nny = 5\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("line", ["nx = 1_0", "nx = +5", "nx = \u0663",
                                      "sigma_upper = 1_0", "sigma_upper = \u0663"])
    def test_numbers_are_ascii_without_separators(self, tmp_path, line):
        path = self.write_config(tmp_path, f"ny = 5\n{line}\n")
        key, token = line.split(" = ")
        with pytest.raises(ConfigError, match=rf"bad value for {key}: .*{re.escape(repr(token))} \[.*:2\]"):
            parse_config(path)
        with pytest.raises(ConfigError, match=rf"bad value for {key}"):
            apply_overrides(parse_config(self.write_config(tmp_path, "nx = 4\nny = 5\n")),
                            [f"{key}={token}"])

    def test_repeated_key_is_an_error(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\nseed = 1\nny = 5\n\nseed = 2\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"config key 'seed' set twice, on lines 2 and 5 [{path}:5]"

    def test_overrides_compose_left_to_right(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\nny = 5\nseed = 1\n")
        cfg = parse_config(path)
        cfg = apply_overrides(cfg, ["seed=3", "seed=9", "model=spde"])
        assert cfg.values["seed"] == 9
        assert cfg.values["model"] == "spde"

    def test_missing_file_reference(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\nny = 5\ncounts_file = nope.csv\n")
        with pytest.raises(ConfigError, match="nope.csv"):
            validate_config(parse_config(path))
        validate_config(parse_config(path), check_files=False)

    def test_retention_divisibility(self, tmp_path):
        path = self.write_config(
            tmp_path, "nx = 4\nny = 5\nn_iter = 100\nburn_in = 10\nn_retained = 7\n"
        )
        with pytest.raises(ConfigError, match="divide"):
            validate_config(parse_config(path))

    def test_row_mask(self, tmp_path):
        path = self.write_config(
            tmp_path, "nx = 4\nny = 10\nmask_rows_north = 2\nmask_rows_south = 3\n"
        )
        cfg = parse_config(path)
        mask = config_row_mask(cfg)
        assert mask.tolist() == [False] * 3 + [True] * 5 + [False] * 2

    def test_grid_from_config(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\nny = 5\nbuffer = 2\ncell_size = 1000\n")
        grid = config_grid(parse_config(path))
        assert grid.n_cells == 8 * 9
        assert grid.cell_size == 1000.0

    def test_resolved_round_trip(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\nny = 5\nseed = 11\n")
        cfg = parse_config(path)
        write_config(cfg, tmp_path / "resolved.cfg")
        back = parse_config(tmp_path / "resolved.cfg")
        assert back.values == cfg.values
