"""End-to-end and per-layer benchmark of `gridcomp fit`.

One run generates a workload's inputs from --seed, runs one discarded
warm-up fit, then runs fits for --seconds (at least MIN_FITS), one child
process at a time, and checks every fit's output. The last line of
stdout is a JSON object with the end-to-end metrics (--trace 0) or, after
one extra traced fit, the per-layer metrics (--trace 1).

    python3 perfbench/run.py --workload car-dense --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every metric of every workload

Run it from the root of a source checkout; the program is imported from
src/ of that checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(BENCH))
from generate import generate  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_FITS = 4  # even, so that every CPU of a 2-CPU host runs as many fits
DEADLINE_S = 170.0  # the whole run, including generation and the traced fit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = 1  # one chain is single-threaded; never above nproc

END_TO_END_UNITS = {"fit_s": "s", "iters_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Fit:
    wall_s: float
    rss_mb: float
    returncode: int
    errors: list = field(default_factory=list)
    loop_s: float | None = None
    sha256: str | None = None
    diag: dict | None = None
    read_ms: float | None = None
    rmse: float | None = None
    archive_bytes: int = 0
    checkpoint_bytes: int = 0


def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return res.stdout.strip() or "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(min(PINNED_THREADS, os.cpu_count() or 1))
    return env


def write_config(wl: Workload, seed: int, files: dict, path: Path) -> None:
    lines = [
        f"nx = {wl.nx}",
        f"ny = {wl.ny}",
        f"buffer = {wl.buffer}",
        f"model = {wl.model}",
        f"seed = {seed}",
        f"n_iter = {wl.n_iter}",
        f"burn_in = {wl.burn_in}",
        f"n_retained = {wl.n_retained}",
        f"t_mc = {wl.t_mc}",
    ]
    lines += [f"{key} = {p.name}" for key, p in files.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def spawn(cmd, env, log_path: Path, deadline: float):
    """Run one child to completion; returns (wall seconds, exit code, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def check_fit(fit: Fit, wl: Workload, out: Path, truth, log_path: Path) -> None:
    """Correctness checks on one fit's outputs; failures go to fit.errors."""
    # imported here: main puts src/ on sys.path only after checking it exists
    from gridcomp import io_formats as iof
    from gridcomp.errors import GridCompError

    if fit.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-400:]
        fit.errors.append(f"exit code {fit.returncode}: {tail.strip()}")
        return
    archive_path = out / "samples.gcsa"
    try:
        t0 = time.perf_counter()
        archive = iof.read_samples(archive_path)  # verifies the trailing checksum
        fit.read_ms = 1000.0 * (time.perf_counter() - t0)
        fit.diag = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    except (GridCompError, OSError, ValueError) as exc:
        fit.errors.append(f"unreadable output: {exc}")
        return
    fit.loop_s = float(fit.diag["elapsed_s"])
    data = archive_path.read_bytes()
    fit.sha256 = hashlib.sha256(data).hexdigest()
    fit.archive_bytes = len(data)
    checkpoint = out / "checkpoint.npz"
    fit.checkpoint_bytes = checkpoint.stat().st_size if checkpoint.exists() else 0
    theta = archive.theta
    expected = (wl.n_retained, wl.nx * wl.ny, wl.n_taxa)
    if theta.shape != expected:
        fit.errors.append(f"theta shape {theta.shape}, expected {expected}")
        return
    if not np.allclose(theta.sum(axis=2), 1.0, rtol=0.0, atol=1e-9):
        fit.errors.append("theta rows do not sum to 1")
    fit.rmse = float(np.sqrt(np.mean((theta.mean(axis=0) - truth) ** 2)))
    if not fit.rmse < wl.rmse_tol:
        fit.errors.append(f"posterior-mean RMSE {fit.rmse:.4f} >= tolerance {wl.rmse_tol}")


def fit_cmd(cfg: Path, out: Path, wl: Workload, spans: Path | None = None):
    if spans is None:
        head = [sys.executable, "-m", "gridcomp.cli"]
    else:
        head = [sys.executable, str(BENCH / "trace_fit.py"), str(spans)]
    cmd = head + ["fit", "--config", str(cfg), "--out", str(out)]
    if wl.checkpoint_every:
        cmd += ["--checkpoint-every", str(wl.checkpoint_every)]
    return cmd


def run_one(wl, cfg, run_dir, truth, env, deadline, cpu, spans=None) -> Fit:
    out = run_dir / "fit"
    shutil.rmtree(out, ignore_errors=True)
    log_path = run_dir / "child.log"
    os.sched_setaffinity(0, {cpu})  # the child inherits it
    wall, rc, rss = spawn(fit_cmd(cfg, out, wl, spans), env, log_path, deadline)
    fit = Fit(wall_s=wall, rss_mb=rss, returncode=rc)
    check_fit(fit, wl, out, truth, log_path)
    return fit


# ---------------------------------------------------------------------------
# Per-layer metrics from the span file
# ---------------------------------------------------------------------------


def layer_metrics(wl: Workload, doc: dict, traced: Fit, untraced_wall: float) -> tuple:
    """Per-layer metrics and a self-time table from one traced fit.

    The loop window runs from the end of the chain's initial sufficient
    statistics to the first post-run ESS call; spans in it are the loop's.
    """
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]
    errors = []
    chains = [i for i, s in enumerate(spans) if s[0] == "cli.run_chain"]
    if len(chains) != 1:
        return {}, [], [f"expected one run_chain span, found {len(chains)}"]
    chain = chains[0]
    init_stats = next(
        i for i, s in enumerate(spans) if s[0] == "sampler.compute_sufficient_stats"
    )
    ess = [s for s in spans if s[0] == "estimator.effective_sample_size"]
    lo = spans[init_stats][2]
    hi = ess[0][1] if ess else spans[chain][2]
    in_loop = [i for i, s in enumerate(spans) if i != chain and s[1] >= lo and s[2] <= hi]
    loop_s = traced.loop_s
    n = wl.n_iter

    def loop_self(name):
        return sum(self_s[i] for i in in_loop if spans[i][0] == name)

    def loop_calls(name):
        return sum(1 for i in in_loop if spans[i][0] == name)

    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    covered = sum(self_s[i] for i in in_loop)
    other = loop_s - covered
    if other < -1e-3 or abs((hi - lo) - loop_s) > max(0.05, 0.02 * loop_s):
        errors.append(
            f"span window {hi - lo:.3f}s does not match the loop time {loop_s:.3f}s "
            f"(uncovered {other:.3f}s)"
        )
    acceptance = traced.diag["acceptance"]
    n_fact = loop_calls("precision.factorize_prepermuted")
    n_ckpt = calls("sampler.save_checkpoint")
    metrics = {
        "sampler.loop.ms_per_iter": (1000 * loop_s / n, "ms/iter"),
        "sampler.update_W.ms_per_iter": (1000 * loop_self("sampler.update_W") / n, "ms/iter"),
        "sampler.update_memberships.ms_per_iter": (
            1000 * loop_self("sampler.update_memberships") / n,
            "ms/iter",
        ),
        "sampler.sufficient_stats.ms_per_iter": (
            1000 * loop_self("sampler.compute_sufficient_stats") / n,
            "ms/iter",
        ),
        "sampler.save_checkpoint.ms_per_call": (
            1000 * total("sampler.save_checkpoint") / max(n_ckpt, 1),
            "ms/call",
        ),
        "sampler.checkpoint.bytes": (traced.checkpoint_bytes, "bytes"),
        "sampler.loop_other.ms_per_iter": (1000 * other / n, "ms/iter"),
    }
    for block in ("sigma", "mu", "sigma_rho"):
        rates = acceptance.get(block, [])
        metrics[f"sampler.accept_ratio.{block}"] = (
            sum(rates) / len(rates) if rates else 0.0,
            "ratio",
        )
    metrics.update(
        {
            "precision.factorize.calls_per_iter": (n_fact / n, "calls/iter"),
            "precision.factorize.ms_per_call": (
                1000 * loop_self("precision.factorize_prepermuted") / max(n_fact, 1),
                "ms/call",
            ),
            "precision.factorize.ms_per_iter": (
                1000 * loop_self("precision.factorize_prepermuted") / n,
                "ms/iter",
            ),
            "precision.factor.nnz_L": (doc["nnz_L"] or 0, "count"),
            "precision.solve.calls_per_iter": (loop_calls("precision.solve") / n, "calls/iter"),
            "precision.solve.ms_per_iter": (1000 * loop_self("precision.solve") / n, "ms/iter"),
            "precision.sample_gaussian.ms_per_iter": (
                1000 * loop_self("precision.sample_gaussian") / n,
                "ms/iter",
            ),
            "precision.ordering.ms": (1000 * total("precision.fill_reducing_permutation"), "ms"),
            "estimator.estimate_theta.ms_per_call": (
                1000 * total("estimator.estimate_theta") / max(calls("estimator.estimate_theta"), 1),
                "ms/call",
            ),
            "estimator.estimate_theta.normals_per_call": (
                wl.nx * wl.ny * wl.t_mc * wl.n_taxa,
                "count",
            ),
            "estimator.effective_sample_size.ms_total": (
                1000 * total("estimator.effective_sample_size"),
                "ms",
            ),
            "io_formats.load_dataset.ms": (1000 * total("io_formats.load_dataset"), "ms"),
            "io_formats.write_samples.ms": (1000 * total("io_formats.write_samples"), "ms"),
            "io_formats.read_samples.ms": (traced.read_ms, "ms"),
            "io_formats.archive.bytes": (traced.archive_bytes, "bytes"),
            "trace.overhead_s": (traced.wall_s - untraced_wall, "s"),
        }
    )
    # self-time table of the loop, largest first
    table = {}
    for i in in_loop:
        calls_, secs = table.get(spans[i][0], (0, 0.0))
        table[spans[i][0]] = (calls_ + 1, secs + self_s[i])
    table["(loop other)"] = (0, other)
    rows = sorted(table.items(), key=lambda kv: -kv[1][1])
    return metrics, rows, errors


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def measure(wl: Workload, seed: int, seconds: float, trace: bool, start: float) -> dict:
    run_dir = WORK / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cpus = os.sched_getaffinity(0)
    try:
        return _measure(wl, seed, seconds, trace, start + DEADLINE_S, run_dir, sorted(cpus))
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(wl, seed, seconds, trace, deadline, run_dir, cpus) -> dict:
    inputs = run_dir / "inputs"
    gen = generate(wl, seed, inputs)
    cfg = inputs / "fit.cfg"
    write_config(wl, seed, gen["files"], cfg)
    truth = gen["truth"]
    env = child_env()
    digest = source_digest()
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "git_commit": git_commit(),
        "source_sha256": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "child_processes_at_once": 1,
        "fit_cpus": cpus,
        "schedule": {"n_iter": wl.n_iter, "burn_in": wl.burn_in,
                     "n_retained": wl.n_retained, "t_mc": wl.t_mc},
    }
    print("env " + json.dumps(record), flush=True)

    warm = run_one(wl, cfg, run_dir, truth, env, deadline, cpus[0])
    print(f"warm-up fit (discarded) {warm.wall_s:.3f}s errors={warm.errors}", flush=True)
    fits = []
    t_measure = time.monotonic()
    while len(fits) < MIN_FITS or (
        time.monotonic() - t_measure + statistics.median(f.wall_s for f in fits) <= seconds
        and time.monotonic() + 3 * max(f.wall_s for f in fits) < deadline
    ):
        # the CPUs of this host run at different speeds for tens of seconds
        # at a time; alternating them keeps one slow CPU from setting a median
        fits.append(run_one(wl, cfg, run_dir, truth, env, deadline, cpus[len(fits) % len(cpus)]))
        f = fits[-1]
        print(f"fit {len(fits)} wall={f.wall_s:.3f}s loop={f.loop_s}s "
              f"rss={f.rss_mb:.1f}MB rmse={f.rmse} errors={f.errors}", flush=True)
    checked = [warm] + fits
    spans_path = run_dir / "spans.json"
    if trace:
        traced = run_one(wl, cfg, run_dir, truth, env, deadline, cpus[0], spans=spans_path)
        checked.append(traced)
        print(f"traced fit {traced.wall_s:.3f}s errors={traced.errors}", flush=True)

    run_errors = []
    shas = {f.sha256 for f in checked if f.sha256}
    # bitwise determinism: every fit of this source at this seed, in any run
    registry = WORK / "archive_sha256" / f"{digest[:16]}-{wl.name}-{seed}"
    if registry.exists():
        shas.add(registry.read_text(encoding="utf-8").strip())
    if len(shas) > 1:
        run_errors.append(f"archive SHA-256 differs between fits at one seed: {sorted(shas)}")
    elif shas:
        registry.parent.mkdir(parents=True, exist_ok=True)
        registry.write_text(shas.pop() + "\n", encoding="utf-8")

    good = [f for f in fits if not f.errors]
    if not good:
        raise RuntimeError(f"no measured fit passed its checks: {fits[0].errors}")
    walls = [f.wall_s for f in good]
    e2e = {
        "fit_s": statistics.median(walls),
        "iters_per_s": statistics.median(wl.n_iter / f.loop_s for f in good),
        "setup_s": statistics.median(f.wall_s - f.loop_s for f in good),
        "peak_rss_mb": statistics.median(f.rss_mb for f in good),
    }
    layers = None
    if trace and not traced.errors:
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        layers, rows, errs = layer_metrics(wl, doc, traced, statistics.median(walls))
        run_errors += errs
        loop = traced.loop_s
        print(f"traced loop {loop:.3f}s over {wl.n_iter} iterations; self time by layer:")
        for name, (n_calls, secs) in rows:
            print(f"  {name:40s} {n_calls:6d} calls {1000 * secs:10.1f} ms {100 * secs / loop:6.1f}%")
    elif trace:
        run_errors.append("traced fit failed its checks")
    failed = sum(1 for f in checked if f.errors)
    if run_errors:
        print("run errors: " + "; ".join(run_errors), flush=True)
    return {
        "correct": failed == 0 and not run_errors,
        "attempted": len(checked),
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of `gridcomp fit`.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    if not (SRC / "gridcomp" / "cli.py").is_file():
        print(f"error: no gridcomp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        for name, wl in WORKLOADS.items():
            res = measure(wl, args.seed, args.seconds, True, time.monotonic())
            print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for key, value in res["e2e"].items():
                print(f"  {key:45s} {value:14.4f} {END_TO_END_UNITS[key]}")
            for key, (value, unit) in (res["layers"] or {}).items():
                print(f"  {key:45s} {value:14.4f} {unit}")
        return 0

    res = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), start)
    if args.trace:
        if res["layers"] is None:
            print("error: the traced fit produced no per-layer metrics", file=sys.stderr)
            return 1
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in res["e2e"].items()}
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
