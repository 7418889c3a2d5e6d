"""File formats: delimited ingestion of counts and townships, the
binary posterior-sample archive, summary/raster emission, and the flat
key=value run configuration.

All readers validate and reject rather than coerce; parse errors carry
file and line context. Cell coordinates in every text format are
0-based (cell_x, cell_y) on the core (unbuffered) grid, x increasing
eastward and y increasing northward from the southwest corner.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .domain_grid import GridSpec, build_grid, normalize_township
from .errors import (
    ArchiveIntegrityError,
    ArchiveVersionError,
    ConfigError,
    DataError,
    InvalidArgumentError,
    ParseError,
)
from .estimator import PosteriorSamples, PosteriorSummary
from .model_core import CellCounts, Dataset, Hyperpriors, TaxonRegistry, TownshipTrees
from .scoring import HoldoutDesign

ARCHIVE_MAGIC = b"GCSA"
ARCHIVE_VERSION = 1


# ---------------------------------------------------------------------------
# Delimited readers/writers
# ---------------------------------------------------------------------------


def _read_rows(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append((lineno, [f.strip() for f in line.split(",")]))
    if not rows:
        raise ParseError("file has no header row", path=str(path))
    return path, rows


def read_cell_counts(path, grid: GridSpec, taxa: TaxonRegistry | None = None,
                     row_mask=None) -> CellCounts:
    """Read per-cell counts: header ``cell_x,cell_y,<taxon>...`` then one
    integer row per cell. Duplicate cells, negative counts, and cells
    outside the core grid (or in masked rows) are rejected.
    """
    path, rows = _read_rows(path)
    lineno, header = rows[0]
    if len(header) < 3 or header[0] != "cell_x" or header[1] != "cell_y":
        raise ParseError("header must be cell_x,cell_y,<taxon names>", path=str(path), line=lineno)
    names = tuple(header[2:])
    if taxa is None:
        taxa = TaxonRegistry(names=names)
    elif names != taxa.names:
        raise DataError(
            f"{path}: taxa {names} do not match the expected registry {taxa.names}"
        )
    rows_by_cell = {}  # (x, y) -> counts, in file order
    for lineno, fields_ in rows[1:]:
        if len(fields_) != 2 + taxa.n_taxa:
            raise ParseError(
                f"expected {2 + taxa.n_taxa} fields, got {len(fields_)}",
                path=str(path),
                line=lineno,
            )
        try:
            x, y = int(fields_[0]), int(fields_[1])
            vals = [int(v) for v in fields_[2:]]
        except ValueError as exc:
            raise ParseError(f"non-integer field ({exc})", path=str(path), line=lineno) from exc
        if not (0 <= x < grid.nx and 0 <= y < grid.ny):
            raise ParseError(f"cell ({x},{y}) outside the {grid.nx}x{grid.ny} core grid",
                             path=str(path), line=lineno)
        if row_mask is not None and not row_mask[y]:
            raise ParseError(f"cell ({x},{y}) lies in a masked row", path=str(path), line=lineno)
        if (x, y) in rows_by_cell:
            raise ParseError(f"duplicate cell ({x},{y})", path=str(path), line=lineno)
        if min(vals) < 0:
            raise ParseError(f"negative count in cell ({x},{y})", path=str(path), line=lineno)
        rows_by_cell[(x, y)] = vals
    counts = np.zeros((grid.n_cells, taxa.n_taxa), dtype=np.int64)
    # every cell was bounds-checked above, so one vectorized mapping suffices
    xy = np.array(list(rows_by_cell), dtype=np.int64).reshape(-1, 2)
    values = np.array(list(rows_by_cell.values()), dtype=np.int64)
    counts[grid.core_index_to_full(xy[:, 1], xy[:, 0])] = values.reshape(-1, taxa.n_taxa)
    return CellCounts(grid=grid, taxa=taxa, counts=counts)


def write_cell_counts(counts: CellCounts, path) -> None:
    grid = counts.grid
    cols, rows = grid.core_coords()
    core = grid.core_cells()
    lines = ["cell_x,cell_y," + ",".join(counts.taxa.names)]
    for x, y, idx in zip(cols, rows, core):
        row = counts.counts[idx]
        if row.sum() > 0:
            lines.append(f"{x},{y}," + ",".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_townships(trees_path, overlaps_path, grid: GridSpec, taxa: TaxonRegistry) -> TownshipTrees:
    """Read township tree records and overlap areas and join them.

    trees file: ``township_id,taxon``; overlaps file:
    ``township_id,cell_x,cell_y,area``. Townships with trees but no
    overlap entries (or zero total area) are rejected.
    """
    tpath, trows = _read_rows(trees_path)
    lineno, header = trows[0]
    if header != ["township_id", "taxon"]:
        raise ParseError("header must be township_id,taxon", path=str(tpath), line=lineno)
    tree_labels: dict[str, list] = {}
    for lineno, fields_ in trows[1:]:
        if len(fields_) != 2:
            raise ParseError("expected township_id,taxon", path=str(tpath), line=lineno)
        tid, taxon = fields_
        try:
            tree_labels.setdefault(tid, []).append(taxa.index(taxon))
        except InvalidArgumentError:
            raise ParseError(f"unknown taxon {taxon!r}", path=str(tpath), line=lineno) from None

    opath, orows = _read_rows(overlaps_path)
    lineno, header = orows[0]
    if header != ["township_id", "cell_x", "cell_y", "area"]:
        raise ParseError(
            "header must be township_id,cell_x,cell_y,area", path=str(opath), line=lineno
        )
    entries = []  # (township id, x, y, area) per line
    for lineno, fields_ in orows[1:]:
        if len(fields_) != 4:
            raise ParseError("expected township_id,cell_x,cell_y,area", path=str(opath), line=lineno)
        tid = fields_[0]
        try:
            x, y = int(fields_[1]), int(fields_[2])
            area = float(fields_[3])
        except ValueError as exc:
            raise ParseError(f"bad field ({exc})", path=str(opath), line=lineno) from exc
        if not (0 <= x < grid.nx and 0 <= y < grid.ny):
            raise ParseError(f"cell ({x},{y}) outside the core grid", path=str(opath), line=lineno)
        entries.append((tid, x, y, area))
    xy = np.array([entry[1:3] for entry in entries], dtype=np.int64).reshape(-1, 2)
    cells = grid.core_index_to_full(xy[:, 1], xy[:, 0]).tolist()
    raw_overlaps: dict[str, list] = {}
    for (tid, _, _, area), cell in zip(entries, cells):
        raw_overlaps.setdefault(tid, []).append((cell, area))

    overlaps, labels = [], []
    for tid in sorted(tree_labels):
        if tid not in raw_overlaps:
            raise DataError(f"township {tid} has trees but no overlap entries")
        try:
            overlaps.append(normalize_township(tid, raw_overlaps[tid], grid))
        except InvalidArgumentError as exc:
            raise DataError(f"{opath}: {exc}") from exc
        labels.append(np.array(tree_labels[tid], dtype=np.int64))
    return TownshipTrees(taxa=taxa, overlaps=overlaps, taxon_labels=labels)


def write_townships(townships: TownshipTrees, grid: GridSpec, trees_path, overlaps_path) -> None:
    tlines = ["township_id,taxon"]
    olines = ["township_id,cell_x,cell_y,area"]
    b, w = grid.buffer, grid.width
    for ov, labels in zip(townships.overlaps, townships.taxon_labels):
        for lab in labels:
            tlines.append(f"{ov.township_id},{townships.taxa.names[lab]}")
        for cell, weight in zip(ov.cells, ov.weights):
            x = cell % w - b
            y = cell // w - b
            olines.append(f"{ov.township_id},{x},{y},{weight}")
    Path(trees_path).write_text("\n".join(tlines) + "\n", encoding="utf-8")
    Path(overlaps_path).write_text("\n".join(olines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Posterior sample archive
# ---------------------------------------------------------------------------
#
# Layout (little endian):
#   bytes 0-3    magic "GCSA"
#   bytes 4-7    uint32 format version
#   bytes 8-11   uint32 header length H
#   bytes 12-    H bytes of UTF-8 JSON header
#   payload      K * m_core * P float64 values, C order (k, cell, taxon)
#   final 32     SHA-256 over everything before it
#
# The header alone (fixed prefix + H bytes) suffices to learn the
# dimensions without touching the payload.


def _archive_header(samples: PosteriorSamples, created_by: str) -> dict:
    g = samples.grid
    return {
        "version": ARCHIVE_VERSION,
        "nx": g.nx,
        "ny": g.ny,
        "buffer": g.buffer,
        "cell_size": g.cell_size,
        "origin_x": g.origin_x,
        "origin_y": g.origin_y,
        "taxa": list(samples.taxa.names),
        "n_samples": int(samples.theta.shape[0]),
        "seed": samples.seed,
        "model_kind": samples.model_kind,
        "created_by": created_by,
    }


@contextmanager
def atomic_write(path):
    """Binary file handle whose content replaces ``path`` only once the
    block completes: it writes ``<path>.tmp`` in the same directory and
    then ``os.replace``s it over ``path``. A failure part-way removes the
    temporary file and leaves any earlier file at ``path`` intact; an
    ``OSError`` that names no file (a failed write on the handle) is
    re-raised naming ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is None:
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
        raise


def write_samples(samples: PosteriorSamples, path, created_by: str = "") -> None:
    """Write the samples as an archive, atomically; byte-for-byte
    deterministic for equal content. ``created_by`` names the writer in
    the header."""
    theta = np.ascontiguousarray(samples.theta, dtype="<f8")
    header = json.dumps(_archive_header(samples, created_by), sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with atomic_write(path) as fh:
        for chunk in (
            ARCHIVE_MAGIC,
            struct.pack("<I", ARCHIVE_VERSION),
            struct.pack("<I", len(header)),
            header,
            theta.tobytes(),
        ):
            digest.update(chunk)
            fh.write(chunk)
        fh.write(digest.digest())


def _read_archive_header(fh, path):
    prefix = fh.read(12)
    if len(prefix) < 12 or prefix[:4] != ARCHIVE_MAGIC:
        raise ArchiveIntegrityError(f"{path}: not a sample archive")
    version, hlen = struct.unpack("<II", prefix[4:12])
    if version != ARCHIVE_VERSION:
        raise ArchiveVersionError(
            f"{path}: archive format version {version} is not supported "
            f"(this build reads version {ARCHIVE_VERSION})"
        )
    raw = fh.read(hlen)
    if len(raw) < hlen:
        raise ArchiveIntegrityError(f"{path}: truncated header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ArchiveIntegrityError(f"{path}: corrupt header ({exc})") from exc
    return header, prefix + raw


def read_samples(path):
    """Read an archive into its PosteriorSamples, verifying the trailing
    checksum."""
    with open(path, "rb") as fh:
        header, raw_prefix = _read_archive_header(fh, path)
        grid = build_grid(
            header["nx"],
            header["ny"],
            header["buffer"],
            cell_size=header["cell_size"],
            origin_x=header["origin_x"],
            origin_y=header["origin_y"],
        )
        taxa = TaxonRegistry(names=tuple(header["taxa"]))
        k = header["n_samples"]
        count = k * grid.n_core_cells * taxa.n_taxa
        payload = fh.read(count * 8)
        if len(payload) < count * 8:
            raise ArchiveIntegrityError(f"{path}: truncated payload")
        stored = fh.read(32)
        if len(stored) < 32 or fh.read(1):
            raise ArchiveIntegrityError(f"{path}: truncated or oversized checksum block")
        digest = hashlib.sha256()
        digest.update(raw_prefix)
        digest.update(payload)
        if digest.digest() != stored:
            raise ArchiveIntegrityError(f"{path}: checksum mismatch (file corrupted)")
        theta = np.frombuffer(payload, dtype="<f8").reshape(k, grid.n_core_cells, taxa.n_taxa)
        return PosteriorSamples(
            grid=grid,
            taxa=taxa,
            theta=theta.copy(),
            seed=header.get("seed"),
            model_kind=header.get("model_kind"),
        )


# ---------------------------------------------------------------------------
# Summary and raster emission
# ---------------------------------------------------------------------------


def write_summary_csv(summary: PosteriorSummary, path) -> None:
    """Long-format summary: cell_x,cell_y,taxon,mean,sd,q025,q975."""
    grid = summary.grid
    cols, rows = grid.core_coords()
    lines = ["cell_x,cell_y,taxon,mean,sd,q025,q975"]
    for c in range(grid.n_core_cells):
        for p, name in enumerate(summary.taxa.names):
            lines.append(
                f"{cols[c]},{rows[c]},{name},{summary.mean[c, p]:.10g},"
                f"{summary.sd[c, p]:.10g},{summary.q025[c, p]:.10g},{summary.q975[c, p]:.10g}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_raster(field: np.ndarray, grid: GridSpec, taxa: TaxonRegistry, path) -> None:
    """Plain-text raster, one ny-by-nx block per taxon.

    Within a block the LAST text line is the southernmost row (row 0)
    and values run west to east, so the block reads like a map of the
    southwest-origin grid.
    """
    field = np.asarray(field)
    if field.ndim == 1:
        field = field[:, None]
    if field.shape != (grid.n_core_cells, field.shape[1]):
        raise DataError(f"field shape {field.shape} does not match the core grid")
    lines = []
    for p in range(field.shape[1]):
        name = taxa.names[p] if p < len(taxa.names) else f"field_{p}"
        lines.append(f"# taxon: {name} ({grid.nx} cols x {grid.ny} rows, last line is row 0)")
        block = field[:, p].reshape(grid.ny, grid.nx)
        for r in range(grid.ny - 1, -1, -1):
            lines.append(" ".join(f"{v:.8g}" for v in block[r]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_CONFIG_SCHEMA = {
    # grid
    "nx": (int, None),
    "ny": (int, None),
    "buffer": (int, 0),
    "cell_size": (float, 8000.0),
    "origin_x": (float, 0.0),
    "origin_y": (float, 0.0),
    "mask_rows_north": (int, 0),
    "mask_rows_south": (int, 0),
    # model + chain schedule
    "model": (str, "car"),
    "n_iter": (int, 150_000),
    "burn_in": (int, 25_000),
    "n_retained": (int, 250),
    "seed": (int, 0),
    "adapt_interval": (int, 50),
    "t_mc": (int, None),
    "store_alpha": (bool, False),
    "threads": (int, 0),
    # hyperprior bounds
    "sigma_upper": (float, 1000.0),
    "mu_bound": (float, 10.0),
    "rho_lower": (float, 0.1),
    "rho_upper": (float, float(np.exp(5.0))),
    # data files
    "counts_file": (str, ""),
    "trees_file": (str, ""),
    "overlaps_file": (str, ""),
    # holdout experiment
    "holdout_kind": (str, "full_cell"),
    "holdout_fraction": (float, 0.95),
    "holdout_seed": (int, 0),
    "holdout_subregion_col_max": (int, -1),
    "holdout_min_trees": (int, 50),
    "interval_include_binomial": (bool, True),
    # simulation
    "sim_taxa": (str, "taxon_a,taxon_b,taxon_c"),
    "sim_sigma": (float, 1.0),
    "sim_rho": (float, 10.0),
    "sim_mu": (float, 0.0),
    "sim_trees_per_cell": (int, 100),
    "sim_observed_fraction": (float, 1.0),
    "sim_township_block": (int, 0),
    "sim_truth_draws": (int, None),
}

_REQUIRED_KEYS = ("nx", "ny")

# Keys that older configs set but that no longer do anything: they still
# parse (None when unset), are never forwarded, and each one set gets a
# note from ignored_key_notes.
_IGNORED_KEYS = {
    "t_mc": "composition is computed exactly",
    "sim_truth_draws": "composition is computed exactly",
}


@dataclass
class RunConfig:
    """Typed view of one flat key=value config file."""

    values: dict
    base_dir: Path

    def resolve_path(self, key):
        val = self.values[key]
        if not val:
            return None
        p = Path(val)
        return p if p.is_absolute() else self.base_dir / p


def _parse_value(key, raw, path=None, line=None):
    typ, _ = _CONFIG_SCHEMA[key]
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}" + (f" [{path}:{line}]" if path else ""))


def parse_config(path) -> RunConfig:
    """Parse a key=value config file ('#' starts a comment)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {k: default for k, (_, default) in _CONFIG_SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value [{path}:{lineno}]")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r} [{path}:{lineno}]")
        values[key] = _parse_value(key, val, path, lineno)
    return RunConfig(values=values, base_dir=path.parent.resolve())


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply repeatable key=value overrides left-to-right."""
    values = dict(config.values)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        if key not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r} in override")
        values[key] = _parse_value(key, val)
    return replace(config, values=values)


def validate_config(
    config: RunConfig, require_counts: bool = False, check_files: bool = True
) -> None:
    """Check a config by building every typed setting of a run from it
    (grid, hyperpriors, sampler, holdout design, simulated taxa), then
    the keys no such object checks; raises ConfigError.

    ``check_files=False`` skips the existence check of the data files,
    for commands that write them rather than read them."""
    v = config.values
    missing = [k for k in _REQUIRED_KEYS if v.get(k) is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    try:
        config_hyperpriors(config)
    except InvalidArgumentError as exc:
        raise ConfigError(f"bad hyperprior bounds: {exc}") from exc
    try:
        for build in (config_grid, config_sampler, config_holdout, config_sim_taxa):
            build(config)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    if v["threads"] < 0:
        raise ConfigError(f"threads must be >= 0, got {v['threads']}")
    if v["mask_rows_north"] < 0 or v["mask_rows_south"] < 0:
        raise ConfigError("row masks must be >= 0")
    if v["mask_rows_north"] + v["mask_rows_south"] >= v["ny"]:
        raise ConfigError("row masks remove every row")
    if not 0.0 <= v["sim_observed_fraction"] <= 1.0:
        raise ConfigError("sim_observed_fraction must be in [0, 1]")
    if v["sim_trees_per_cell"] < 0 or v["sim_township_block"] < 0:
        raise ConfigError("simulation sizes must be >= 0")
    if v["sim_sigma"] <= 0 or v["sim_rho"] <= 0:
        raise ConfigError("sim_sigma and sim_rho must be > 0")
    for key in ("counts_file", "trees_file", "overlaps_file"):
        p = config.resolve_path(key)
        if check_files and p is not None and not p.exists():
            raise ConfigError(f"{key} does not exist: {p}")
    if (v["trees_file"] == "") != (v["overlaps_file"] == ""):
        raise ConfigError("trees_file and overlaps_file must be given together")
    if require_counts and config.resolve_path("counts_file") is None:
        raise ConfigError(
            "a counts_file is required for this command; it defines the taxon registry "
            "(a header row and no data rows is enough for township-only data)"
        )


def ignored_key_notes(config: RunConfig) -> list:
    """One note per set key whose value is no longer used."""
    return [
        f"`{key}` is ignored: {why}"
        for key, why in _IGNORED_KEYS.items()
        if config.values[key] is not None
    ]


def write_config(config: RunConfig, path) -> None:
    """Persist the resolved configuration (full provenance for a run);
    keys whose values are unused are left out."""
    lines = [f"{k} = {config.values[k]}" for k in _CONFIG_SCHEMA if k not in _IGNORED_KEYS]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_grid(config: RunConfig) -> GridSpec:
    v = config.values
    return build_grid(
        v["nx"],
        v["ny"],
        v["buffer"],
        cell_size=v["cell_size"],
        origin_x=v["origin_x"],
        origin_y=v["origin_y"],
    )


def config_row_mask(config: RunConfig) -> np.ndarray | None:
    """Allowed-row mask over core rows (True = data permitted)."""
    v = config.values
    north, south = v["mask_rows_north"], v["mask_rows_south"]
    if north == 0 and south == 0:
        return None
    mask = np.ones(v["ny"], dtype=bool)
    if south:
        mask[:south] = False
    if north:
        mask[-north:] = False
    return mask


def config_hyperpriors(config: RunConfig) -> Hyperpriors:
    v = config.values
    return Hyperpriors(
        sigma_upper=v["sigma_upper"],
        mu_bound=v["mu_bound"],
        rho_lower=v["rho_lower"],
        rho_upper=v["rho_upper"],
    )


def config_sampler(config: RunConfig):
    """The chain's SamplerConfig; raises ConfigError on a bad schedule,
    model or seed."""
    from .sampler import SamplerConfig  # sampler imports this module

    v = config.values
    return SamplerConfig(
        n_iter=v["n_iter"],
        burn_in=v["burn_in"],
        n_retained=v["n_retained"],
        seed=v["seed"],
        adapt_interval=v["adapt_interval"],
        hyperpriors=config_hyperpriors(config),
        model_kind=v["model"],
        store_alpha=v["store_alpha"],
    )


def config_holdout(config: RunConfig) -> HoldoutDesign:
    v = config.values
    return HoldoutDesign(
        kind=v["holdout_kind"],
        fraction=v["holdout_fraction"],
        seed=v["holdout_seed"],
        # -1, the default, means no subregion
        subregion_col_max=(
            None if v["holdout_subregion_col_max"] == -1 else v["holdout_subregion_col_max"]
        ),
        min_trees=v["holdout_min_trees"],
        include_binomial=v["interval_include_binomial"],
    )


def config_sim_taxa(config: RunConfig) -> TaxonRegistry:
    """The taxa `simulate` draws: the comma-separated names of sim_taxa."""
    names = (t.strip() for t in config.values["sim_taxa"].split(","))
    return TaxonRegistry(names=tuple(t for t in names if t))


def load_dataset(config: RunConfig) -> Dataset:
    """Build the Dataset referenced by a validated config."""
    grid = config_grid(config)
    mask = config_row_mask(config)
    counts_path = config.resolve_path("counts_file")
    trees_path = config.resolve_path("trees_file")
    overlaps_path = config.resolve_path("overlaps_file")
    if counts_path is None:
        raise ConfigError("no counts_file configured")
    counts = read_cell_counts(counts_path, grid, row_mask=mask)
    townships = None
    if trees_path is not None:
        townships = read_townships(trees_path, overlaps_path, grid, counts.taxa)
    return Dataset(cell_counts=counts, townships=townships)
