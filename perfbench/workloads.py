"""Benchmark workload definitions: input sizes, fit schedule and the
correctness tolerance of each workload.

Every size here is fixed; only the seed changes the generated values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "car" or "spde"
    nx: int
    ny: int
    buffer: int
    n_taxa: int
    trees_per_cell: int  # gridded trees in every cell of the gridded rows
    gridded_rows: int  # northern core rows that carry gridded counts
    n_iter: int
    burn_in: int
    n_retained: int  # 10, the least for which fit computes the post-run ESS
    # below the program default, so that theta estimation keeps about the
    # share of these short loops that it has in long, sparsely thinned runs
    t_mc: int
    checkpoint_every: int = 0
    # townships cover the southern ny - gridded_rows rows
    township_cols: int = 0
    township_rows: int = 0
    trees_per_township: int = 0
    # Bound on the RMSE of the posterior mean against the generator's truth:
    # about twice the largest RMSE seen over seeds 1-10, and well under the
    # RMSE of the flat 1/P guess (0.16-0.22 on every workload).
    rmse_tol: float = 0.0

    @property
    def has_townships(self) -> bool:
        return self.township_cols > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="car-dense",
            model="car",
            nx=30,
            ny=30,
            buffer=0,
            n_taxa=5,
            trees_per_cell=200,
            gridded_rows=30,
            n_iter=24,
            burn_in=4,
            n_retained=10,
            t_mc=2_000,
            rmse_tol=0.04,
        ),
        Workload(
            name="spde-buffer",
            model="spde",
            nx=40,
            ny=40,
            buffer=4,
            n_taxa=4,
            trees_per_cell=20,
            gridded_rows=40,
            n_iter=20,
            burn_in=10,
            n_retained=10,
            t_mc=250,
            rmse_tol=0.06,
        ),
        Workload(
            name="mixed-townships",
            model="car",
            nx=40,
            ny=40,
            buffer=0,
            n_taxa=5,
            trees_per_cell=50,
            gridded_rows=16,
            n_iter=20,
            burn_in=10,
            n_retained=10,
            t_mc=250,
            checkpoint_every=5,
            township_cols=33,
            township_rows=20,
            trees_per_township=70,
            rmse_tol=0.07,
        ),
    )
}
