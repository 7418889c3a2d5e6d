"""Command-line entry point: simulate, fit, summarize, score, holdout,
and validate-config subcommands.

Every run directory receives a copy of the fully-resolved configuration
so outputs can be reproduced exactly (bitwise at a fixed seed). Exit
codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import io_formats as iof
from . import scoring
from .errors import ConfigError, DataError, GridCompError, NumericalError
from .sampler import check_memory, run_chain
from .simulate import simulate_dataset, write_truth_csv
from .estimator import summarize as summarize_samples

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _load_config(args, require_counts=False, check_files=True):
    config = iof.parse_config(args.config)
    config = iof.apply_overrides(config, getattr(args, "set", None))
    iof.validate_config(config, require_counts=require_counts, check_files=check_files)
    for note in iof.ignored_key_notes(config):
        print(note, file=sys.stderr)
    return config


def _prepare_outdir(args, config=None):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if config is not None:
        iof.write_config(config, out / "run_config.txt")
    return out


def cmd_validate_config(args) -> int:
    _load_config(args)
    print("config ok")
    return 0


def cmd_simulate(args) -> int:
    # simulate writes the data files, so they need not exist yet
    config = _load_config(args, check_files=False)
    out = _prepare_outdir(args, config)
    v = config.values
    grid = iof.config_grid(config)
    taxa = iof.config_sim_taxa(config)
    rng = np.random.default_rng(v["seed"])
    dataset, truth, _ = simulate_dataset(
        grid,
        taxa,
        v["model"],
        rng,
        sigma=v["sim_sigma"],
        rho=v["sim_rho"],
        mu=v["sim_mu"],
        trees_per_cell=v["sim_trees_per_cell"],
        observed_fraction=v["sim_observed_fraction"],
        township_block=v["sim_township_block"],
    )
    iof.write_cell_counts(dataset.cell_counts, out / "counts.csv")
    write_truth_csv(truth, grid, taxa, out / "truth.csv")
    if dataset.townships is not None:
        iof.write_townships(dataset.townships, grid, out / "trees.csv", out / "overlaps.csv")
    print(f"simulated dataset written to {out}")
    return 0


def _membership_payload(dataset, membership_freq) -> dict:
    """Per township id, its support cells' core coordinates and the
    post-burn-in fraction of its trees placed in each."""
    grid, towns = dataset.grid, dataset.townships
    x = (towns.cells % grid.width - grid.buffer).tolist()
    y = (towns.cells // grid.width - grid.buffer).tolist()
    freq = membership_freq.tolist()
    bounds = zip(towns.ids, towns.cell_start[:-1].tolist(), towns.cell_start[1:].tolist())
    return {tid: {"cell_x": x[a:b], "cell_y": y[a:b], "freq": freq[a:b]} for tid, a, b in bounds}


def cmd_fit(args) -> int:
    config = _load_config(args, require_counts=True)
    dataset = iof.load_dataset(config)
    scfg = iof.config_sampler(config)
    check_memory(dataset, scfg)
    out = _prepare_outdir(args, config)
    samples, diags = run_chain(
        dataset,
        scfg,
        progress_path=out / "progress.jsonl",
        checkpoint_path=out / "checkpoint.npz",
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
    )
    iof.write_samples(samples, out / "samples.gcsa", created_by=f"gridcomp {__version__}")
    ess = diags.theta_ess
    diag_payload = {
        "elapsed_s": diags.elapsed_s,
        "acceptance": {k: list(map(float, v)) for k, v in diags.acceptance.items()},
        "theta_ess_median": None if ess is None else float(np.median(ess)),
        "theta_ess_min": None if ess is None else float(ess.min()),
        "sigma2_last": list(map(float, diags.sigma2_trace[-1])),
    }
    for name, trace_ess in (diags.hyper_ess or {}).items():  # sigma2; mu, rho for spde
        diag_payload[f"{name}_ess_min"] = float(trace_ess.min())
    if diags.mu_trace is not None:
        diag_payload["mu_last"] = list(map(float, diags.mu_trace[-1]))
        diag_payload["rho_last"] = list(map(float, diags.rho_trace[-1]))
    if diags.membership_freq is not None:
        diag_payload["membership_freq"] = _membership_payload(dataset, diags.membership_freq)
    with iof.atomic_write(out / "diagnostics.json") as fh:
        fh.write(json.dumps(diag_payload, indent=2).encode("utf-8"))
    if diags.alpha_samples is not None:
        with iof.atomic_write(out / "alpha_samples.npy") as fh:
            np.save(fh, diags.alpha_samples)
    print(f"fit complete: {out / 'samples.gcsa'}")
    return 0


def cmd_summarize(args) -> int:
    out = _prepare_outdir(args)
    samples = iof.read_samples(args.archive)
    summary = summarize_samples(samples)
    iof.write_summary_csv(summary, out / "summary.csv")
    iof.write_raster(summary.mean, samples.grid, samples.taxa, out / "mean.raster.txt")
    iof.write_raster(summary.sd, samples.grid, samples.taxa, out / "sd.raster.txt")
    print(f"summaries written to {out}")
    return 0


def cmd_score(args) -> int:
    out = _prepare_outdir(args)
    samples = iof.read_samples(args.archive)
    counts = iof.read_cell_counts(args.counts, samples.grid, taxa=samples.taxa)
    core = samples.grid.core_cells()
    core_counts = counts.counts[core]
    rows = np.flatnonzero(core_counts.sum(axis=1) > 0)
    if rows.size == 0:
        raise DataError(f"{args.counts}: no held-out trees to score")
    heldout = scoring.HeldoutCounts(rows=rows, counts=core_counts[rows])
    design = scoring.HoldoutDesign(
        kind=scoring.FULL_CELL,
        fraction=1.0,
        seed=args.seed,
        min_trees=args.min_trees,
    )
    report = scoring.score_model(
        "model",
        samples,
        heldout,
        design,
        coverage_rng=np.random.default_rng(args.seed),
    )
    result = scoring.ExperimentResult(
        design=design, reports={"model": report}, comparison={}, labels=("model",)
    )
    (out / "score_report.txt").write_text(scoring.render_report_text(result), encoding="utf-8")
    _write_report_csv(result, out / "score_report.csv")
    print((out / "score_report.txt").read_text(encoding="utf-8"))
    return 0


def _write_report_csv(result, path) -> None:
    rows = scoring.report_rows(result)
    lines = ["model,metric,variant,value"]
    lines += [f"{r['model']},{r['metric']},{r['variant']},{r['value']:.10g}" for r in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_holdout(args) -> int:
    config = _load_config(args, require_counts=True)
    dataset = iof.load_dataset(config)
    design = iof.config_holdout(config)
    scfg = iof.config_sampler(config)
    configs = {kind: replace(scfg, model_kind=kind) for kind in ("car", "spde")}
    for kind_config in configs.values():
        check_memory(dataset, kind_config)
    out = _prepare_outdir(args, config)
    result = scoring.run_holdout_experiment(dataset, design, configs)
    text = scoring.render_report_text(result)
    (out / "holdout_report.txt").write_text(text, encoding="utf-8")
    _write_report_csv(result, out / "holdout_report.csv")
    print(text)
    return 0


def non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 (argparse exits 2 otherwise)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcomp",
        description="Bayesian spatial multinomial composition modeling on grids "
        "and townships",
    )
    parser.add_argument("--version", action="version", version=f"gridcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True, outdir=True):
        if config:
            p.add_argument("--config", required=True, help="run config file (key = value lines)")
            p.add_argument(
                "--set",
                action="append",
                metavar="KEY=VALUE",
                help="override a config key (repeatable, applied left to right)",
            )
        if outdir:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--threads",
            type=non_negative_int,
            default=0,
            help="accepted for orchestration compatibility and ignored: the "
            "engine is single-threaded per chain",
        )

    p = sub.add_parser("validate-config", help="check a config file and exit")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_validate_config)

    p = sub.add_parser("simulate", help="write a synthetic dataset + truth file")
    add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("fit", help="run the sampler and write a sample archive")
    add_common(p)
    p.add_argument("--resume", default=None, help="resume from a checkpoint file")
    p.add_argument(
        "--checkpoint-every",
        type=non_negative_int,
        default=0,
        help="write a checkpoint every N iterations",
    )
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("summarize", help="summary CSV + rasters from an archive")
    p.add_argument("--archive", required=True)
    add_common(p, config=False)
    p.set_defaults(fn=cmd_summarize)

    p = sub.add_parser("score", help="score an archive against held-out counts")
    p.add_argument("--archive", required=True)
    p.add_argument("--counts", required=True, help="held-out counts file")
    p.add_argument("--min-trees", type=non_negative_int, default=50)
    p.add_argument("--seed", type=non_negative_int, default=0)
    add_common(p, config=False)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("holdout", help="run the paired CAR/SPDE hold-out experiment")
    add_common(p)
    p.set_defaults(fn=cmd_holdout)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GridCompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a failed checkpoint or archive write: disk full, permissions
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
