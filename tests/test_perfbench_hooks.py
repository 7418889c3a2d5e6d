"""The benchmark's tracer wraps gridcomp functions by module attribute;
a rename or a move in the package must fail here, not in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from gridcomp import sampler
from gridcomp.domain_grid import build_grid
from gridcomp.precision import SpatialPrior, build_spde_structure, q_scale
from gridcomp.model_core import TaxonRegistry
from gridcomp.simulate import simulate_dataset

TRACE_FIT = Path(__file__).resolve().parents[1] / "perfbench" / "trace_fit.py"


def load_trace_fit():
    spec = importlib.util.spec_from_file_location("trace_fit", TRACE_FIT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_module_attribute():
    traced = load_trace_fit().TRACED
    assert traced
    for module_name, names in traced.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def township_dataset():
    grid = build_grid(4, 4, 0)
    ds, _, _ = simulate_dataset(grid, TaxonRegistry(names=("a", "b")), "car",
                                np.random.default_rng(0), trees_per_cell=3, township_block=2)
    return ds


def count_calls(monkeypatch):
    """Count the calls of the traced sampler layers made through the module."""
    calls = {}
    for name in ("update_W", "update_memberships", "compute_sufficient_stats"):
        def counted(*args, _name=name, _fn=getattr(sampler, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(sampler, name, counted)
    return calls


def test_sweep_calls_the_traced_sampler_layers_through_the_module(monkeypatch):
    # a sweep that bound one of these by name would run untraced, and the
    # benchmark would report that layer as 0 ms per iteration
    chain = sampler._Chain(township_dataset(), sampler.SamplerConfig(n_iter=10, burn_in=5,
                                                                      n_retained=5))
    calls = count_calls(monkeypatch)
    chain.sweep()
    assert calls == {"update_W": 1, "update_memberships": 1, "compute_sufficient_stats": 1}


def test_chain_computes_initial_statistics_once_through_the_module(monkeypatch):
    # the benchmark's loop window opens at the end of the first
    # compute_sufficient_stats span, so the chain's set-up must call it
    # through the module, once, after its other set-up work
    calls = count_calls(monkeypatch)
    sampler._Chain(township_dataset(), sampler.SamplerConfig(n_iter=10, burn_in=5, n_retained=5))
    assert calls == {"compute_sufficient_stats": 1}


def test_factor_answers_the_tracers_nnz_l():
    # trace_fit.py reads nnz(L) of the first factor as factor.lu.L.nnz
    grid = build_grid(5, 4, 1)
    prior = SpatialPrior.from_grid("spde", grid)
    a_diag = np.linspace(0.0, 3.0, grid.n_cells)
    q = build_spde_structure(grid, 2.0).toarray()
    dense = (q * q_scale("spde", 0.7, 2.0) + np.diag(a_diag))[prior.perm][:, prior.perm]
    lower = prior.conditional_factor(0.7, a_diag, 2.0).lu.L
    assert np.allclose((lower @ lower.T).toarray(), dense, rtol=0, atol=1e-12)
    assert lower.nnz == np.count_nonzero(np.tril(lower.toarray()))
