"""Child entry point of the traced run.

Wraps the public function of each gridcomp layer at the module attribute
its caller looks up, runs `gridcomp.cli.main` with the remaining
arguments, and writes the spans to SPANS (JSON) at exit. A span is
[name, start, end, parent index]; times come from time.perf_counter.
The wrappers draw no random numbers, so the archive is byte-identical to
an untraced run.

    python3 perfbench/trace_fit.py SPANS fit --config run.cfg --out DIR
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACED = {
    "gridcomp.sampler": (
        "update_W",
        "update_memberships",
        "compute_sufficient_stats",
        "save_checkpoint",
    ),
    # cli binds run_chain by name at import, so it is wrapped there
    "gridcomp.cli": ("run_chain",),
    "gridcomp.precision": (
        "factorize_prepermuted",
        "solve",
        "sample_gaussian",
        "fill_reducing_permutation",
    ),
    "gridcomp.estimator": ("estimate_theta", "effective_sample_size"),
    "gridcomp.io_formats": ("load_dataset", "write_samples"),
}


class Tracer:
    """In-memory span recorder; spans nest through a call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.first_factor = None

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            for name in names:
                label = f"{module_name.split('.')[-1]}.{name}"
                setattr(module, name, self.wrap(label, getattr(module, name)))
        # keep the first factor so nnz(L) is read after the run, off the clock
        precision = sys.modules["gridcomp.precision"]
        traced_factorize = precision.factorize_prepermuted

        @functools.wraps(traced_factorize)
        def keep_first(*args, **kwargs):
            factor = traced_factorize(*args, **kwargs)
            if self.first_factor is None:
                self.first_factor = factor
            return factor

        precision.factorize_prepermuted = keep_first

    def dump(self, path):
        nnz_l = None if self.first_factor is None else int(self.first_factor.lu.L.nnz)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "nnz_L": nnz_l}, fh)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from gridcomp import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
