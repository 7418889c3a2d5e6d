
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


class TestTownships:
    def write_pair(self, tmp_path, trees, overlaps):
        tp = tmp_path / "trees.csv"
        op = tmp_path / "overlaps.csv"
        tp.write_text("township_id,taxon\n" + trees)
        op.write_text("township_id,cell_x,cell_y,area\n" + overlaps)
        return tp, op

    def test_point_mass(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,oak\n", "t1,0,0,4.0\n")
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("oak",))
        tt = read_townships(tp, op, grid, taxa)
        assert len(tt.overlaps) == 1
        assert np.allclose(tt.overlaps[0].weights, [1.0])

    def test_four_equal_cells(self, tmp_path):
        tp, op = self.write_pair(
            tmp_path,
            "t1,oak\nt1,pine\n",
            "t1,0,0,1\nt1,1,0,1\nt1,0,1,1\nt1,1,1,1\n",
        )
        tt = read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak", "pine")))
        assert np.allclose(tt.overlaps[0].weights, 0.25)

    def test_three_townships_hand_normalized(self, tmp_path):
        tp, op = self.write_pair(
            tmp_path,
            "a,oak\nb,oak\nc,oak\n",
            "a,0,0,2\na,1,0,6\nb,0,1,5\nc,1,1,1\nc,0,0,3\n",
        )
        tt = read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))
        by_id = {ov.township_id: ov for ov in tt.overlaps}
        assert np.allclose(sorted(by_id["a"].weights), [0.25, 0.75])
        assert np.allclose(by_id["b"].weights, [1.0])
        assert np.allclose(sorted(by_id["c"].weights), [0.25, 0.75])

    def test_orphan_township_rejected(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,oak\nt2,oak\n", "t1,0,0,1\n")
        with pytest.raises(DataError, match="t2"):
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))

    def test_zero_area_rejected(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,oak\n", "t1,0,0,0.0\n")
        with pytest.raises(DataError):
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))

    def test_unknown_taxon_rejected(self, tmp_path):
        tp, op = self.write_pair(tmp_path, "t1,elm\n", "t1,0,0,1\n")
        with pytest.raises(ParseError, match="elm"):
            read_townships(tp, op, build_grid(2, 2, 0), TaxonRegistry(names=("oak",)))

    def test_round_trip(self, tmp_path):
        tp, op = self.write_pair(
            tmp_path, "a,oak\na,pine\nb,oak\n", "a,0,0,1\na,1,1,3\nb,1,0,2\n"
        )
        grid = build_grid(2, 2, 0)
        taxa = TaxonRegistry(names=("oak", "pine"))
        tt = read_townships(tp, op, grid, taxa)
        write_townships(tt, grid, tmp_path / "t2.csv", tmp_path / "o2.csv")
        tt2 = read_townships(tmp_path / "t2.csv", tmp_path / "o2.csv", grid, taxa)
        for ov1, ov2 in zip(tt.overlaps, tt2.overlaps):
            assert np.array_equal(ov1.cells, ov2.cells)
            assert np.allclose(ov1.weights, ov2.weights)


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


class TestRunConfig:
    def write_config(self, tmp_path, body):
        path = tmp_path / "run.cfg"
        path.write_text(body)
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

    def test_overrides_compose_left_to_right(self, tmp_path):
        path = self.write_config(tmp_path, "nx = 4\nny = 5\n")
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
