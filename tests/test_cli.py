import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gridcomp import io_formats
from gridcomp import precision as prec
from gridcomp.cli import main
from gridcomp.io_formats import read_samples


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


SIM_CFG = """
nx = 6
ny = 6
model = car
seed = 4
sim_taxa = oak,pine
sim_sigma = 0.8
sim_trees_per_cell = 40
"""

FIT_KEYS = """
n_iter = 40
burn_in = 20
n_retained = 10
"""


def test_validate_config_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nx = 3\nny = 3\n")
    assert main(["validate-config", "--config", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_config_bad_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "nx = 3\n")  # missing ny
    assert main(["validate-config", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "sets, reason",
    [
        (["rho_lower=5", "rho_upper=1"], "rho_lower must be < rho_upper"),
        (["sigma_upper=0"], "hyperprior bounds must be positive"),
    ],
)
def test_bad_hyperprior_bounds_exit_code(tmp_path, capsys, sets, reason):
    cfg = write_cfg(tmp_path, "nx = 3\nny = 3\n")
    overrides = [arg for kv in sets for arg in ("--set", kv)]
    assert main(["validate-config", "--config", cfg, *overrides]) == 2
    assert capsys.readouterr().err == f"config error: bad hyperprior bounds: {reason}\n"


def test_unknown_override_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "nx = 3\nny = 3\n")
    assert main(["validate-config", "--config", cfg, "--set", "bogus=1"]) == 2


@pytest.mark.parametrize(
    "sets, message",
    [
        (["adapt_interval=0"], "adapt_interval must be >= 1"),
        (["seed=-1"], "seed must be >= 0, got -1"),
        (["holdout_seed=-1"], "holdout seed must be >= 0, got -1"),
        (["sim_taxa=a,a"], "duplicate taxon names"),
        (["sim_taxa=,"], "empty taxon registry"),
        (["model=spde", "sim_rho=-1"], "sim_sigma and sim_rho must be > 0"),
        (["sim_sigma=0"], "sim_sigma and sim_rho must be > 0"),
        (["nx=0"], "grid dimensions must be >= 1, got 0x4"),
        (["buffer=-1"], "buffer must be >= 0, got -1"),
        (["n_retained=7"], "n_retained=7 must divide n_iter - burn_in = 20 evenly"),
        (["holdout_fraction=0"], "holdout fraction must be in (0, 1], got 0.0"),
        (["holdout_kind=x"], "unknown holdout kind 'x'"),
        (["model=x"], "unknown model kind 'x'"),
        (["holdout_min_trees=-1"], "holdout min_trees must be >= 0, got -1"),
        (["holdout_subregion_col_max=-7"], "holdout subregion_col_max must be >= 0, got -7"),
        (["cell_size=-1"], "cell_size must be finite and > 0, got -1.0"),
        (["cell_size=nan"], "cell_size must be finite and > 0, got nan"),
        (["threads=-3"], "threads must be >= 0, got -3"),
    ],
)
def test_every_command_rejects_a_bad_setting_alike(tmp_path, capsys, sets, message):
    (tmp_path / "counts.csv").write_text("cell_x,cell_y,a,b\n0,0,3,2\n")
    cfg = write_cfg(tmp_path, "nx = 4\nny = 4\ncounts_file = counts.csv\n" + FIT_KEYS)
    overrides = [arg for kv in sets for arg in ("--set", kv)]
    out = tmp_path / "out"
    for command in ("validate-config", "simulate", "fit", "holdout"):
        argv = [command, "--config", cfg, *overrides]
        if command != "validate-config":
            argv += ["--out", str(out)]
        assert main(argv) == 2, command
        assert capsys.readouterr().err == f"config error: {message}\n", command
        assert not out.exists(), command


@pytest.mark.parametrize("command", ["fit", "holdout"])
def test_township_files_without_counts_file_write_nothing(tmp_path, capsys, command):
    # the counts file defines the taxon registry, so township files alone
    # are a config error, caught before --out is made
    (tmp_path / "trees.csv").write_text("township_id,taxon\n")
    (tmp_path / "overlaps.csv").write_text("township_id,cell_x,cell_y,weight\n")
    cfg = write_cfg(tmp_path, "nx = 4\nny = 4\ntrees_file = trees.csv\n"
                    "overlaps_file = overlaps.csv\n" + FIT_KEYS)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: a counts_file is required for this command")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fit", "--config", "run.cfg", "--checkpoint-every", "-3"], "--checkpoint-every"),
        (["fit", "--config", "run.cfg", "--threads", "-3"], "--threads"),
        (["score", "--archive", "a.gcsa", "--counts", "c.csv", "--seed", "-1"], "--seed"),
        (["score", "--archive", "a.gcsa", "--counts", "c.csv", "--min-trees", "-1"], "--min-trees"),
    ],
)
def test_negative_integer_flags_exit_code(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 0, got -" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_outputs(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    counts = (out / "counts.csv").read_text().splitlines()
    assert counts[0] == "cell_x,cell_y,oak,pine"
    assert len(counts) == 1 + 36
    # truth rows sum to one per cell
    truth_lines = (out / "truth.csv").read_text().splitlines()[1:]
    sums = {}
    for line in truth_lines:
        x, y, taxon, val = line.split(",")
        sums[(x, y)] = sums.get((x, y), 0.0) + float(val)
    assert all(abs(s - 1.0) < 1e-9 for s in sums.values())
    # empirical global proportion is near 1/2 for symmetric taxa
    tot = np.zeros(2)
    for line in counts[1:]:
        parts = line.split(",")
        tot += [int(parts[2]), int(parts[3])]
    frac = tot[0] / tot.sum()
    assert 0.3 < frac < 0.7
    assert (out / "run_config.txt").exists()


def test_simulate_tiny_sigma_flat_surface(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG.replace("sim_sigma = 0.8", "sim_sigma = 0.0001"))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    truth_lines = (out / "truth.csv").read_text().splitlines()[1:]
    vals = [float(l.split(",")[3]) for l in truth_lines if l.split(",")[2] == "oak"]
    assert np.ptp(vals) < 0.05  # near-constant composition surface


def fit_dir(tmp_path, seed=4, name="fit1", extra=""):
    cfg = write_cfg(
        tmp_path,
        SIM_CFG + FIT_KEYS + f"counts_file = sim/counts.csv\nseed = {seed}\n" + extra,
        name=f"{name}.cfg",
    )
    out = tmp_path / name
    rc = main(["fit", "--config", cfg, "--out", str(out)])
    return rc, out


def test_fit_and_outputs(tmp_path):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    rc, out = fit_dir(tmp_path)
    assert rc == 0
    archive = read_samples(out / "samples.gcsa")
    assert archive.theta.shape == (10, 36, 2)
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["acceptance"].keys() == {"sigma"}
    assert 0.0 < diag["sigma2_ess_min"] <= 10.0
    assert "mu_ess_min" not in diag and "rho_ess_min" not in diag
    assert (out / "progress.jsonl").exists()
    first = json.loads((out / "progress.jsonl").read_text().splitlines()[0])
    assert "iter" in first and "sigma2" in first


def test_fit_determinism_checksums(tmp_path):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")])
    _, out1 = fit_dir(tmp_path, name="fit1")
    _, out2 = fit_dir(tmp_path, name="fit2")
    h1 = hashlib.sha256((out1 / "samples.gcsa").read_bytes()).hexdigest()
    h2 = hashlib.sha256((out2 / "samples.gcsa").read_bytes()).hexdigest()
    assert h1 == h2


def test_fit_empty_data_spde_prior_only(tmp_path):
    counts = tmp_path / "empty.csv"
    counts.write_text("cell_x,cell_y,oak,pine\n")
    cfg = write_cfg(
        tmp_path,
        "nx = 3\nny = 3\nbuffer = 1\nmodel = spde\n" + FIT_KEYS + "counts_file = empty.csv\n",
    )
    out = tmp_path / "prior"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    archive = read_samples(out / "samples.gcsa")
    assert np.all(np.isfinite(archive.theta))


def test_fit_empty_data_car_numerical_exit(tmp_path):
    counts = tmp_path / "empty.csv"
    counts.write_text("cell_x,cell_y,oak,pine\n")
    cfg = write_cfg(
        tmp_path, "nx = 3\nny = 3\nmodel = car\n" + FIT_KEYS + "counts_file = empty.csv\n"
    )
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "x")]) == 4


def test_fit_nan_field_numerical_exit(tmp_path, monkeypatch, capsys):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    draw = prec.sample_gaussian

    def nan_in_first_cell(factor, b, rng):
        alpha = draw(factor, b, rng)
        alpha[0] = np.nan
        return alpha

    monkeypatch.setattr(prec, "sample_gaussian", nan_in_first_cell)
    rc, _ = fit_dir(tmp_path)
    assert rc == 4
    assert "numerical failure: latent normals disagree" in capsys.readouterr().err


def test_summarize_and_score(tmp_path):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")])
    _, fit_out = fit_dir(tmp_path)
    summ = tmp_path / "summ"
    assert main(["summarize", "--archive", str(fit_out / "samples.gcsa"), "--out", str(summ)]) == 0
    lines = (summ / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 36 * 2
    assert (summ / "mean.raster.txt").exists()

    score_out = tmp_path / "score"
    rc = main(
        [
            "score",
            "--archive",
            str(fit_out / "samples.gcsa"),
            "--counts",
            str(tmp_path / "sim" / "counts.csv"),
            "--min-trees",
            "30",
            "--out",
            str(score_out),
        ]
    )
    assert rc == 0
    report = (score_out / "score_report.csv").read_text().splitlines()
    assert report[0] == "model,metric,variant,value"
    vals = [float(r.split(",")[-1]) for r in report[1:]]
    assert all(np.isfinite(v) for v in vals)


def test_score_data_error_exit(tmp_path):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")])
    _, fit_out = fit_dir(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("cell_x,cell_y,oak,pine\n0,0,-2,1\n")
    rc = main(
        [
            "score",
            "--archive",
            str(fit_out / "samples.gcsa"),
            "--counts",
            str(bad),
            "--out",
            str(tmp_path / "s"),
        ]
    )
    assert rc == 3


def test_holdout_smoke(tmp_path):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")])
    cfg = write_cfg(
        tmp_path,
        SIM_CFG
        + FIT_KEYS
        + "counts_file = sim/counts.csv\n"
        + "buffer = 1\nholdout_kind = per_tree\nholdout_fraction = 0.5\nholdout_min_trees = 10\n",
        name="holdout.cfg",
    )
    out = tmp_path / "holdout"
    assert main(["holdout", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "holdout_report.txt").read_text()
    assert "brier" in text and "P(car<spde)" in text
    rows = (out / "holdout_report.csv").read_text().splitlines()[1:]
    assert any("p_first_lower" in r for r in rows)
    vals = [float(r.split(",")[-1]) for r in rows]
    assert all(np.isfinite(v) for v in vals)


def test_simulate_townships(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG + "sim_township_block = 3\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    trees = (out / "trees.csv").read_text().splitlines()
    overlaps = (out / "overlaps.csv").read_text().splitlines()
    assert trees[0] == "township_id,taxon"
    assert overlaps[0] == "township_id,cell_x,cell_y,area"
    # 6x6 grid tiled into 3x3 blocks -> 4 townships of 9 cells each
    town_ids = {line.split(",")[0] for line in overlaps[1:]}
    assert len(town_ids) == 4
    assert len(overlaps) - 1 == 36
    # the simulated township files are re-readable as a dataset
    fit_cfg = write_cfg(
        tmp_path,
        SIM_CFG
        + FIT_KEYS
        + "counts_file = sim/counts.csv\ntrees_file = sim/trees.csv\n"
        + "overlaps_file = sim/overlaps.csv\n",
        name="townfit.cfg",
    )
    fit_out = tmp_path / "townfit"
    assert main(["fit", "--config", fit_cfg, "--out", str(fit_out)]) == 0
    archive = read_samples(fit_out / "samples.gcsa")
    assert np.all(np.isfinite(archive.theta))


def test_fit_diagnostics_report_township_memberships(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG + "sim_township_block = 3\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    fit_cfg = write_cfg(
        tmp_path,
        SIM_CFG + FIT_KEYS + "counts_file = sim/counts.csv\ntrees_file = sim/trees.csv\n"
        + "overlaps_file = sim/overlaps.csv\n",
        name="townfit.cfg",
    )
    out = tmp_path / "townfit"
    assert main(["fit", "--config", fit_cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert "mu_last" not in diag and "rho_last" not in diag
    support = {}
    for line in (tmp_path / "sim" / "overlaps.csv").read_text().splitlines()[1:]:
        tid, x, y, _ = line.split(",")
        support.setdefault(tid, set()).add((int(x), int(y)))
    freq = diag["membership_freq"]
    assert freq.keys() == support.keys()
    for tid, cells in support.items():
        entry = freq[tid]
        assert set(zip(entry["cell_x"], entry["cell_y"])) == cells
        assert len(entry["freq"]) == len(cells)
        assert min(entry["freq"]) >= 0.0 and abs(sum(entry["freq"]) - 1.0) < 1e-12


def test_fit_diagnostics_report_spde_location_and_range(tmp_path):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    rc, out = fit_dir(tmp_path, extra="model = spde\n")
    assert rc == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert "membership_freq" not in diag
    # the mean is drawn exactly, so the one Metropolis block is (sigma, rho)
    assert diag["acceptance"].keys() == {"sigma_rho"}
    for key in ("sigma2_ess_min", "mu_ess_min", "rho_ess_min"):
        assert 0.0 < diag[key] <= 10.0
    for key in ("mu_last", "rho_last"):
        assert len(diag[key]) == 2 and all(np.isfinite(diag[key]))
    assert all(v > 0 for v in diag["rho_last"])
    last = json.loads((out / "progress.jsonl").read_text().splitlines()[-1])
    assert last["iter"] == 40
    assert np.allclose(diag["mu_last"], last["mu"], atol=1e-6)
    assert np.allclose(diag["rho_last"], last["rho"], atol=1e-6)


def readme_run_cfg():
    """The run.cfg of the README's minimal end-to-end session, verbatim."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    body = readme.split("cat > run.cfg <<EOF\n", 1)[1]
    return body.split("\nEOF\n", 1)[0] + "\n"


def test_readme_session_simulate_then_fit(tmp_path, monkeypatch):
    # simulate writes sim/counts.csv, so it must not require it to exist
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(readme_run_cfg())
    assert main(["simulate", "--config", "run.cfg", "--out", "sim"]) == 0
    assert (tmp_path / "sim" / "counts.csv").exists()
    short = ["n_iter=40", "burn_in=20", "n_retained=10"]
    sets = [arg for kv in short for arg in ("--set", kv)]
    assert main(["fit", "--config", "run.cfg", "--out", "fit", *sets]) == 0
    assert main(["summarize", "--archive", "fit/samples.gcsa", "--out", "summ"]) == 0
    assert read_samples(tmp_path / "fit" / "samples.gcsa").theta.shape == (10, 400, 3)


def test_fit_still_requires_existing_counts_file(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG + FIT_KEYS + "counts_file = sim/counts.csv\n")
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "fit")]) == 2
    assert main(["validate-config", "--config", cfg]) == 2


def test_crash_mid_checkpoint_keeps_previous_and_resumes(tmp_path, monkeypatch, capsys):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    rc, full = fit_dir(tmp_path, name="full")
    assert rc == 0

    real_savez = np.savez
    calls = []

    def crash_on_second(fh, **payload):
        calls.append(1)
        if len(calls) == 2:
            fh.write(b"PK\x03\x04 partial checkpoint")
            raise OSError("simulated crash mid-write")
        real_savez(fh, **payload)

    monkeypatch.setattr(np, "savez", crash_on_second)
    cfg = write_cfg(tmp_path, SIM_CFG + FIT_KEYS + "counts_file = sim/counts.csv\n")
    out = tmp_path / "crashed"
    args = ["fit", "--config", cfg, "--out", str(out), "--checkpoint-every", "10"]
    capsys.readouterr()
    assert main(args) == 1
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err == f"error: {out / 'checkpoint.npz'}: simulated crash mid-write\n"

    ckpt = out / "checkpoint.npz"
    with np.load(ckpt) as data:
        assert int(data["iteration"]) == 10
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint.npz",
        "progress.jsonl",
        "run_config.txt",
    ]
    assert main(args + ["--resume", str(ckpt)]) == 0
    assert (out / "samples.gcsa").read_bytes() == (full / "samples.gcsa").read_bytes()


@pytest.mark.parametrize("name", ["diagnostics.json", "alpha_samples.npy"])
def test_crash_mid_output_write_keeps_previous(tmp_path, monkeypatch, capsys, name):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    cfg = write_cfg(tmp_path, SIM_CFG + FIT_KEYS + "counts_file = sim/counts.csv\nstore_alpha = true\n")
    out = tmp_path / "fit"
    args = ["fit", "--config", cfg, "--out", str(out)]
    assert main(args) == 0
    before = (out / name).read_bytes()

    class Torn:
        """A file that takes half of the first write, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(bytes(data)[: len(data) // 2])
            raise OSError("simulated crash mid-write")

    def torn_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return Torn(fh) if Path(path).name == name + ".tmp" else fh

    monkeypatch.setattr(io_formats, "open", torn_open, raising=False)
    capsys.readouterr()
    assert main(args) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == f"error: {out / name}: simulated crash mid-write\n"
    assert (out / name).read_bytes() == before
    assert not (out / f"{name}.tmp").exists()


def test_ignored_keys_noted_and_not_forwarded(tmp_path, capsys):
    sim_cfg = write_cfg(tmp_path, SIM_CFG + "sim_truth_draws = 2000\n")
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    assert capsys.readouterr().err == "`sim_truth_draws` is ignored: composition is computed exactly\n"
    assert "sim_truth_draws" not in (tmp_path / "sim" / "run_config.txt").read_text()
    cfg = write_cfg(tmp_path, SIM_CFG + FIT_KEYS + "counts_file = sim/counts.csv\n")
    note = "`t_mc` is ignored: composition is computed exactly\n"
    assert main(["validate-config", "--config", cfg, "--set", "t_mc=1"]) == 0
    assert capsys.readouterr().err == note
    archives = []
    for t_mc in (1, 5000):
        out = tmp_path / f"fit_{t_mc}"
        assert main(["fit", "--config", cfg, "--out", str(out), "--set", f"t_mc={t_mc}"]) == 0
        assert capsys.readouterr().err == note
        archives.append((out / "samples.gcsa").read_bytes())
    assert archives[0] == archives[1]
    assert main(["fit", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "plain" / "samples.gcsa").read_bytes() == archives[0]


def progress_records(path):
    """Progress records without their wall-clock field."""
    lines = path.read_text().splitlines()
    return [{k: v for k, v in json.loads(line).items() if k != "elapsed_s"} for line in lines]


def test_resume_keeps_one_progress_record_per_iteration(tmp_path):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    cfg = write_cfg(tmp_path, SIM_CFG + FIT_KEYS + "counts_file = sim/counts.csv\n")
    out = tmp_path / "fit"
    args = ["fit", "--config", cfg, "--out", str(out), "--checkpoint-every", "10"]
    assert main(args) == 0
    uninterrupted = progress_records(out / "progress.jsonl")
    assert [r["iter"] for r in uninterrupted] == list(range(1, 41))
    ckpt = out / "checkpoint.npz"
    with np.load(ckpt) as data:
        assert int(data["iteration"]) == 30
    assert main(args + ["--resume", str(ckpt)]) == 0
    assert progress_records(out / "progress.jsonl") == uninterrupted


def test_fresh_fit_into_used_directory_starts_a_new_progress_log(tmp_path):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    cfg = write_cfg(
        tmp_path, SIM_CFG + "n_iter = 20\nburn_in = 10\nn_retained = 10\n"
        "counts_file = sim/counts.csv\n"
    )
    out = tmp_path / "fit"
    for _ in range(2):
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    assert [r["iter"] for r in progress_records(out / "progress.jsonl")] == list(range(1, 21))


def test_resume_from_version_1_checkpoint_is_config_error(tmp_path, capsys):
    sim_cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    cfg = write_cfg(tmp_path, SIM_CFG + FIT_KEYS + "counts_file = sim/counts.csv\n")
    out = tmp_path / "fit"
    args = ["fit", "--config", cfg, "--out", str(out), "--checkpoint-every", "10"]
    assert main(args) == 0
    ckpt = out / "checkpoint.npz"
    with np.load(ckpt) as data:
        payload = {key: data[key] for key in data.files}
    payload["version"] = np.int64(1)
    np.savez(ckpt, **payload)
    capsys.readouterr()
    assert main(args + ["--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: checkpoint version 1 unsupported (expected 6)\n"


@pytest.fixture(scope="module")
def checkpointed_fit(tmp_path_factory):
    """A simulated 6x6 car dataset and a fit whose last checkpoint is at
    iteration 30; returns the directory and the fit's config path."""
    root = tmp_path_factory.mktemp("checkpointed")
    assert main(["simulate", "--config", write_cfg(root, SIM_CFG), "--out", str(root / "sim")]) == 0
    cfg = write_cfg(root, SIM_CFG + FIT_KEYS + "counts_file = sim/counts.csv\n")
    assert main(["fit", "--config", cfg, "--out", str(root / "fit"), "--checkpoint-every", "10"]) == 0
    return root, cfg


def resume(cfg, ckpt, out, *sets):
    overrides = [arg for kv in sets for arg in ("--set", kv)]
    return main(["fit", "--config", cfg, "--out", str(out), "--resume", str(ckpt), *overrides])


class Killed(BaseException):
    """Stands in for a signal that ends the process: no handler catches it."""


def test_kill_after_last_checkpoint_before_archive_resumes_to_same_bytes(
    checkpointed_fit, tmp_path, monkeypatch
):
    root, cfg = checkpointed_fit

    def killed(*args, **kwargs):
        raise Killed()

    monkeypatch.setattr(io_formats, "write_samples", killed)
    out = tmp_path / "fit"
    args = ["fit", "--config", cfg, "--out", str(out), "--checkpoint-every", "10"]
    with pytest.raises(Killed):
        main(args)
    monkeypatch.undo()
    assert not (out / "samples.gcsa").exists()
    with np.load(out / "checkpoint.npz") as data:
        assert int(data["iteration"]) == 30
    uninterrupted = progress_records(root / "fit" / "progress.jsonl")
    assert progress_records(out / "progress.jsonl") == uninterrupted
    assert main(args + ["--resume", str(out / "checkpoint.npz")]) == 0
    assert (out / "samples.gcsa").read_bytes() == (root / "fit" / "samples.gcsa").read_bytes()
    assert progress_records(out / "progress.jsonl") == uninterrupted


@pytest.mark.parametrize("damaged", ["not json", '{"elapsed_s": 0.1}', "[3]", '{"iter": "3"}'])
def test_resume_with_damaged_progress_log_is_config_error(
    checkpointed_fit, tmp_path, capsys, damaged
):
    root, cfg = checkpointed_fit
    out = tmp_path / "fit"
    out.mkdir()
    lines = (root / "fit" / "progress.jsonl").read_text().splitlines(keepends=True)
    lines[2] = damaged + "\n"
    log = out / "progress.jsonl"
    log.write_text("".join(lines))
    capsys.readouterr()
    assert resume(cfg, root / "fit" / "checkpoint.npz", out) == 2
    assert capsys.readouterr().err == (
        f"config error: progress log {log} line 3 is not a progress record; "
        "repair or remove the log to resume\n"
    )
    assert log.read_text() == "".join(lines)
    assert not (out / "samples.gcsa").exists()


def test_resume_from_truncated_checkpoint_is_config_error(checkpointed_fit, tmp_path, capsys):
    root, cfg = checkpointed_fit
    ckpt = tmp_path / "checkpoint.npz"
    ckpt.write_bytes((root / "fit" / "checkpoint.npz").read_bytes()[:300])
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot resume from checkpoint {ckpt}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["rng_state", "sigma2", "prop_log_scale", "accept", "fingerprint"])
def test_resume_from_checkpoint_missing_a_key_is_config_error(
    checkpointed_fit, tmp_path, capsys, key
):
    root, cfg = checkpointed_fit
    with np.load(root / "fit" / "checkpoint.npz") as data:
        payload = {name: data[name] for name in data.files if name != key}
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, **payload)
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    assert capsys.readouterr().err.startswith("config error: cannot resume from checkpoint")


def test_resume_from_version_2_checkpoint_is_config_error(checkpointed_fit, tmp_path, capsys):
    root, cfg = checkpointed_fit
    with np.load(root / "fit" / "checkpoint.npz") as data:
        payload = {name: data[name] for name in data.files}
    payload["version"] = np.int64(2)
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, **payload)
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    err = capsys.readouterr().err
    assert err == "config error: checkpoint version 2 unsupported (expected 6)\n"


def version_3_payload(ckpt):
    """The checkpoint in the version-3 layout: the (trees x P) latent
    normals w where later versions keep others_max."""
    with np.load(ckpt) as data:
        payload = {name: data[name] for name in data.files if name != "others_max"}
        n_trees = data["others_max"].size
    payload["w"] = np.zeros((n_trees, payload["alpha"].shape[1]))
    payload["version"] = np.int64(3)
    return payload


def test_resume_from_version_3_checkpoint_is_config_error(checkpointed_fit, tmp_path, capsys):
    root, cfg = checkpointed_fit
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, **version_3_payload(root / "fit" / "checkpoint.npz"))
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    err = capsys.readouterr().err
    assert err == "config error: checkpoint version 3 unsupported (expected 6)\n"
    assert not (tmp_path / "fit" / "samples.gcsa").exists()


def test_resume_from_version_3_layout_marked_current_is_config_error(
    checkpointed_fit, tmp_path, capsys
):
    root, cfg = checkpointed_fit
    payload = version_3_payload(root / "fit" / "checkpoint.npz")
    payload["version"] = np.int64(6)
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, **payload)
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    assert capsys.readouterr().err == (
        f"config error: cannot resume from checkpoint {ckpt}: 'others_max'\n"
    )


def version_4_payload(ckpt):
    """The checkpoint in the version-4 layout, which named the entries of
    each proposal block after it (a car chain's one block, sigma):
    prop_sigma_<name> and accept_sigma where later versions keep
    prop_<name> and accept."""
    with np.load(ckpt) as data:
        payload = {name: data[name] for name in data.files}
    for name in [name for name in payload if name.startswith("prop_")]:
        payload["prop_sigma_" + name[len("prop_"):]] = payload.pop(name)
    payload["accept_sigma"] = payload.pop("accept")
    payload["version"] = np.int64(4)
    return payload


def test_resume_from_version_4_checkpoint_is_config_error(checkpointed_fit, tmp_path, capsys):
    root, cfg = checkpointed_fit
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, **version_4_payload(root / "fit" / "checkpoint.npz"))
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    err = capsys.readouterr().err
    assert err == "config error: checkpoint version 4 unsupported (expected 6)\n"
    assert not (tmp_path / "fit" / "samples.gcsa").exists()


def test_resume_from_version_4_layout_marked_current_is_config_error(
    checkpointed_fit, tmp_path, capsys
):
    root, cfg = checkpointed_fit
    payload = version_4_payload(root / "fit" / "checkpoint.npz")
    payload["version"] = np.int64(6)
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, **payload)
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    assert capsys.readouterr().err == (
        f"config error: cannot resume from checkpoint {ckpt}: 'accept'\n"
    )


def test_resume_from_version_5_checkpoint_is_config_error(checkpointed_fit, tmp_path, capsys):
    # version 5 has the same arrays, but others_max and tree_cell follow
    # the trees in another order: its shapes and fingerprint would pass
    root, cfg = checkpointed_fit
    with np.load(root / "fit" / "checkpoint.npz") as data:
        payload = {name: data[name] for name in data.files}
    payload["version"] = np.int64(5)
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, **payload)
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    err = capsys.readouterr().err
    assert err == "config error: checkpoint version 5 unsupported (expected 6)\n"
    assert not (tmp_path / "fit" / "samples.gcsa").exists()


@pytest.mark.parametrize(
    "rng_state",
    [
        b"not json",
        b"[3]",
        b'{"bit_generator": "MT19937"}',
        b'{"bit_generator": "PCG64"}',
        b'{"bit_generator": "PCG64", "state": {"state": -1, "inc": 1}, "has_uint32": 0, '
        b'"uinteger": 0}',
    ],
)
def test_resume_from_checkpoint_with_damaged_rng_state_is_config_error(
    checkpointed_fit, tmp_path, capsys, rng_state
):
    root, cfg = checkpointed_fit
    with np.load(root / "fit" / "checkpoint.npz") as data:
        payload = {name: data[name] for name in data.files}
    payload["rng_state"] = np.bytes_(rng_state)
    ckpt = tmp_path / "checkpoint.npz"
    np.savez(ckpt, **payload)
    capsys.readouterr()
    assert resume(cfg, ckpt, tmp_path / "fit") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot resume from checkpoint {ckpt}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "fit" / "samples.gcsa").exists()


@pytest.mark.parametrize(
    "override",
    ["sigma_upper=500", "mu_bound=5", "rho_lower=0.2", "rho_upper=100", "store_alpha=true"],
)
def test_resume_under_other_settings_is_config_error(checkpointed_fit, tmp_path, capsys, override):
    root, cfg = checkpointed_fit
    capsys.readouterr()
    assert resume(cfg, root / "fit" / "checkpoint.npz", tmp_path / "fit", override) == 2
    err = capsys.readouterr().err
    assert err == "config error: checkpoint was written under a different configuration or dataset\n"
    assert not (tmp_path / "fit" / "samples.gcsa").exists()


def test_resume_against_other_counts_with_same_total_is_config_error(checkpointed_fit, tmp_path):
    # moving one tree between taxa keeps every array shape
    root, cfg = checkpointed_fit
    lines = (root / "sim" / "counts.csv").read_text().splitlines()
    x, y, oak, pine = next(line.split(",") for line in lines[1:] if int(line.split(",")[2]) > 0)
    moved = f"{x},{y},{int(oak) - 1},{int(pine) + 1}"
    lines[lines.index(f"{x},{y},{oak},{pine}")] = moved
    counts = tmp_path / "counts.csv"
    counts.write_text("\n".join(lines) + "\n")
    ckpt = root / "fit" / "checkpoint.npz"
    assert resume(cfg, ckpt, tmp_path / "fit", f"counts_file={counts}") == 2
    # the digest is of the content, not the path: the same counts resume
    # to the uninterrupted archive
    assert resume(cfg, ckpt, tmp_path / "same", f"counts_file={root / 'sim' / 'counts.csv'}") == 0
    resumed = (tmp_path / "same" / "samples.gcsa").read_bytes()
    assert resumed == (root / "fit" / "samples.gcsa").read_bytes()


def test_resume_with_membership_counts_of_another_shape_is_config_error(tmp_path, capsys):
    sim_cfg = write_cfg(tmp_path, SIM_CFG + "sim_township_block = 3\n")
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
    cfg = write_cfg(
        tmp_path,
        SIM_CFG
        + FIT_KEYS
        + "counts_file = sim/counts.csv\ntrees_file = sim/trees.csv\n"
        + "overlaps_file = sim/overlaps.csv\n",
        name="townfit.cfg",
    )
    out = tmp_path / "fit"
    assert main(["fit", "--config", cfg, "--out", str(out), "--checkpoint-every", "10"]) == 0
    ckpt = out / "checkpoint.npz"
    with np.load(ckpt) as data:
        payload = {key: data[key] for key in data.files}
    # four 3x3 townships, nine support cells each, in township order
    assert payload["membership_counts"].shape == (36,)
    payload["membership_counts"] = payload["membership_counts"][:31]
    np.savez(ckpt, **payload)
    capsys.readouterr()
    assert resume(cfg, ckpt, out) == 2
    assert "checkpoint shape does not match the dataset" in capsys.readouterr().err
