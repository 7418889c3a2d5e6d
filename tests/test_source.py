"""Checks over the package's own source."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridcomp
from gridcomp import io_formats, sampler
from gridcomp.domain_grid import build_grid
from gridcomp.model_core import TaxonRegistry
from gridcomp.simulate import simulate_dataset

PACKAGE = Path(gridcomp.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements: a check written as one vanishes
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "raise an error from the package instead of asserting"


def test_readme_config_table_names_every_used_key():
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[2] for line in section.splitlines() if line.startswith("| ")][2:]
    named = [name for row in rows for name in re.findall(r"`(\w+)`", row)]
    assert len(named) == len(set(named))
    assert set(named) == set(io_formats._CONFIG_SCHEMA) - set(io_formats._IGNORED_KEYS)


def test_readme_names_the_current_checkpoint_version():
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("**Checkpoint `.npz`**", 1)[1]
    stated = re.search(r"`version` \(currently (\d+)\)", section)[1]
    assert stated == str(sampler.CHECKPOINT_VERSION)


def readme_checkpoint_keys():
    """Per "written by" entry of README's checkpoint table, the keys it names."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("**Checkpoint `.npz`**", 1)[1].split("\n\n|", 1)[1]
    rows = [line.split("|")[1:3] for line in section.split("\n\n", 1)[0].splitlines()[2:]]
    keys = {}
    for names, written_by in rows:
        keys.setdefault(written_by.strip(), []).extend(re.findall(r"`(\w+)`", names))
    return keys


@pytest.mark.parametrize(
    "model, store_alpha, block, written_by",
    [("car", False, 0, []), ("spde", True, 0, ["spde", "`store_alpha`"]),
     ("car", False, 2, ["townships"])],
    ids=["car", "spde-store-alpha", "townships"],
)
def test_readme_checkpoint_table_names_the_written_keys(tmp_path, model, store_alpha, block,
                                                         written_by):
    grid = build_grid(4, 4, 0)
    dataset, _, _ = simulate_dataset(grid, TaxonRegistry(names=("a", "b")), model,
                                     np.random.default_rng(0), trees_per_cell=3,
                                     township_block=block)
    chain = sampler._Chain(dataset, sampler.SamplerConfig(
        n_iter=4, burn_in=2, n_retained=2, model_kind=model, store_alpha=store_alpha))
    chain.sweep()
    sampler.save_checkpoint(chain, tmp_path / "chain.npz")
    with np.load(tmp_path / "chain.npz") as data:
        written = sorted(data.files)
    table = readme_checkpoint_keys()
    named = [key for entry in ["every chain", *written_by] for key in table.pop(entry)]
    assert sorted(named) == written
    # the rows of the other chains name keys this chain does not write
    assert not set(written) & {key for keys in table.values() for key in keys}


@pytest.mark.parametrize("setting, seen", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_import_defaults_blas_threads_to_one(setting, seen):
    # a fresh process, since the BLAS reads the variables as numpy loads
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    if setting is not None:
        env.update(dict.fromkeys(names, setting))
    code = "import os, gridcomp; print(*(os.environ[k] for k in %r))" % (names,)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == [seen] * 3
