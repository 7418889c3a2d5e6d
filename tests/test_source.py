"""Checks over the package's own source."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridcomp
from gridcomp import io_formats, sampler

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
