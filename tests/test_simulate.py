import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridcomp.domain_grid import build_grid
from gridcomp.model_core import TaxonRegistry
from gridcomp.simulate import draw_car_fields, write_truth_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")


def dense_car_structure(height, width):
    """D - C of the 4-neighbor lattice with free edges, entry by entry."""
    q = np.zeros((height * width, height * width))
    for r in range(height):
        for c in range(width):
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                if 0 <= r + dr < height and 0 <= c + dc < width:
                    q[r * width + c, r * width + c] += 1.0
                    q[r * width + c, (r + dr) * width + c + dc] -= 1.0
    return q


class UnitNormals:
    """Stands in for a generator: its "normals" are the rows of an identity,
    so a draw with one taxon per cell returns the draw's linear map."""

    def standard_normal(self, shape):
        return np.eye(int(np.sqrt(np.prod(shape)))).reshape(shape)


def run_python(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


class TestCarDraw:
    @pytest.mark.parametrize(
        "nx, ny, buffer", [(9, 6, 0), (1, 7, 0), (5, 1, 0), (1, 1, 0), (3, 2, 2)]
    )
    def test_covariance_is_sigma2_pinv_of_structure(self, nx, ny, buffer):
        grid = build_grid(nx, ny, buffer)
        m = grid.n_cells
        sigma = 1.3
        linear_map = draw_car_fields(grid, sigma, m, UnitNormals())
        oracle = sigma**2 * np.linalg.pinv(dense_car_structure(grid.height, grid.width))
        assert np.abs(linear_map @ linear_map.T - oracle).max() < 1e-12

    def test_paper_grid_in_bounded_memory(self):
        # 296 x 180 cells: the dense structure alone would take 22.7 GB
        code = (
            "import resource, numpy as np\n"
            "from gridcomp.domain_grid import build_grid\n"
            "from gridcomp.simulate import draw_car_fields\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "a = draw_car_fields(build_grid(296, 180), 1.0, 2, np.random.default_rng(1))\n"
            "assert a.shape == (53280, 2) and np.all(np.isfinite(a))\n"
            "assert np.abs(a.sum(axis=0)).max() < 1e-8\n"
        )
        done = run_python(code)
        assert done.returncode == 0, done.stderr


def test_cli_import_skips_scipy_fft():
    # `fit` imports the CLI, which imports gridcomp.simulate
    done = run_python("import sys, gridcomp.cli; assert 'scipy.fft' not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_truth_csv_rounds_proportions_below_1e12(tmp_path):
    # estimate_theta knows at most a few digits of proportions this small
    truth = np.array([[1.0 - 1e-12 - 1.234567891e-17, 1e-12, 1.234567891e-17]])
    path = tmp_path / "truth.csv"
    write_truth_csv(truth, build_grid(1, 1), TaxonRegistry(names=("a", "b", "c")), path)
    values = [line.split(",")[3] for line in path.read_text().splitlines()[1:]]
    assert values == [f"{truth[0, 0]:.10g}", "1e-12", "1.2e-17"]
