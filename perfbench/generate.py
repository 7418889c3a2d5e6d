"""Seed-driven input generator for the benchmark workloads (numpy only).

Writes the files `gridcomp fit` reads (counts.csv, and for township
workloads trees.csv and overlaps.csv) plus truth.csv, the true per-cell
proportions the correctness check compares against. The same workload
and seed always give byte-identical files.

    python3 perfbench/generate.py --workload car-dense --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload

TAXA = ("oak", "pine", "elm", "maple", "birch", "beech", "ash", "hickory")
FIELD_SCALE_CELLS = 4.0  # Gaussian smoothing length of the latent fields
FIELD_AMPLITUDE = 0.8
TRUTH_DRAWS = 4000  # Monte Carlo draws per cell for the true proportions
CELL_AREA_KM2 = 64.0  # 8 km cells, the program's default cell_size
SLIVER = 1e-3  # overlaps below this share of a cell are dropped


def smooth_field(rng, ny, nx, scale):
    """Unit-variance stationary field: white noise under a Gaussian kernel."""
    pad = int(np.ceil(3 * scale))
    h, w = ny + 2 * pad, nx + 2 * pad
    noise = rng.standard_normal((h, w))
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    kernel = np.exp(-2.0 * (np.pi * scale) ** 2 * (fx**2 + fy**2))
    field = np.fft.irfft2(np.fft.rfft2(noise) * kernel, s=(h, w))[pad : pad + ny, pad : pad + nx]
    return (field - field.mean()) / field.std()


def latent_fields(rng, wl: Workload):
    """(ny * nx, P) true latent means over core cells, core-row-major."""
    means = np.linspace(0.4, -0.4, wl.n_taxa)
    cols = [
        means[p] + FIELD_AMPLITUDE * smooth_field(rng, wl.ny, wl.nx, FIELD_SCALE_CELLS).ravel()
        for p in range(wl.n_taxa)
    ]
    return np.stack(cols, axis=1)


def probit_labels(rng, alpha_rows):
    """Taxon of one tree per row of latent means: argmax of N(alpha, I)."""
    return np.argmax(alpha_rows + rng.standard_normal(alpha_rows.shape), axis=1)


def true_proportions(rng, alpha, draws=TRUTH_DRAWS):
    m, p = alpha.shape
    theta = np.empty((m, p))
    batch = max(1, 4_000_000 // (draws * p))
    for lo in range(0, m, batch):
        a = alpha[lo : lo + batch]
        win = np.argmax(a[:, None, :] + rng.standard_normal((a.shape[0], draws, p)), axis=2)
        for j in range(p):
            theta[lo : lo + a.shape[0], j] = (win == j).mean(axis=1)
    return theta


def township_overlaps(rng, wl: Workload):
    """Jittered squares tiling the southern rows; per township the
    (core cell index, area share of a cell) pairs it overlaps."""
    south = wl.ny - wl.gridded_rows
    sx, sy = wl.nx / wl.township_cols, south / wl.township_rows
    side = 0.5 * (sx + sy)
    out = []
    for j in range(wl.township_rows):
        for i in range(wl.township_cols):
            cx = (i + 0.5) * sx + rng.uniform(-0.25, 0.25)
            cy = (j + 0.5) * sy + rng.uniform(-0.25, 0.25)
            half = 0.5 * side * rng.uniform(0.9, 1.1)
            x0, x1 = max(cx - half, 0.0), min(cx + half, wl.nx)
            y0, y1 = max(cy - half, 0.0), min(cy + half, south)
            cells, areas = [], []
            for gy in range(int(np.floor(y0)), int(np.ceil(y1))):
                ly = min(y1, gy + 1) - max(y0, gy)
                for gx in range(int(np.floor(x0)), int(np.ceil(x1))):
                    area = ly * (min(x1, gx + 1) - max(x0, gx))
                    if area >= SLIVER:
                        cells.append(gy * wl.nx + gx)
                        areas.append(area)
            out.append((np.array(cells), np.array(areas)))
    return out


def generate(wl: Workload, seed: int, out_dir) -> dict:
    """Write the workload's input files and truth.csv into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    field_rng, tree_rng, town_rng, truth_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    names = TAXA[: wl.n_taxa]
    alpha = latent_fields(field_rng, wl)

    first_row = wl.ny - wl.gridded_rows
    gridded = np.arange(first_row * wl.nx, wl.ny * wl.nx)
    labels = probit_labels(tree_rng, np.repeat(alpha[gridded], wl.trees_per_cell, axis=0))
    counts = np.bincount(
        np.repeat(np.arange(gridded.size), wl.trees_per_cell) * wl.n_taxa + labels,
        minlength=gridded.size * wl.n_taxa,
    ).reshape(gridded.size, wl.n_taxa)
    lines = ["cell_x,cell_y," + ",".join(names)]
    for idx, row in zip(gridded, counts):
        lines.append(f"{idx % wl.nx},{idx // wl.nx}," + ",".join(str(int(v)) for v in row))
    files = {"counts_file": out / "counts.csv"}
    files["counts_file"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    if wl.has_townships:
        tlines, olines = ["township_id,taxon"], ["township_id,cell_x,cell_y,area"]
        for t, (cells, areas) in enumerate(township_overlaps(town_rng, wl)):
            tid = f"T{t:04d}"
            share = areas / areas.sum()
            home = cells[np.minimum(
                np.searchsorted(np.cumsum(share), town_rng.random(wl.trees_per_township)),
                cells.size - 1,
            )]
            tlines += [f"{tid},{names[k]}" for k in probit_labels(town_rng, alpha[home])]
            olines += [
                f"{tid},{c % wl.nx},{c // wl.nx},{a * CELL_AREA_KM2:.6f}"
                for c, a in zip(cells, areas)
            ]
        files["trees_file"] = out / "trees.csv"
        files["overlaps_file"] = out / "overlaps.csv"
        files["trees_file"].write_text("\n".join(tlines) + "\n", encoding="utf-8")
        files["overlaps_file"].write_text("\n".join(olines) + "\n", encoding="utf-8")

    truth = true_proportions(truth_rng, alpha)
    tlines = ["cell_x,cell_y," + ",".join(names)]
    for idx, row in enumerate(truth):
        tlines.append(f"{idx % wl.nx},{idx // wl.nx}," + ",".join(f"{v:.6f}" for v in row))
    (out / "truth.csv").write_text("\n".join(tlines) + "\n", encoding="utf-8")
    return {"files": files, "truth": truth}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
