"""The benchmark's tracer wraps library functions by name; keep those names.

`perfbench/tracing.py` resolves every (module, attribute) of its tables with
`getattr` and replaces it for the duration of a traced run, so a refactor
that drops or renames one breaks the benchmark. These checks load the
tracer by path, unchanged, and fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from slrma.datasets import synth_mesh_seq

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    resolved = tracing.snapshot(tracing.LAYERS)
    assert len(resolved) == len({(m, a) for m, a, _, _ in tracing.LAYERS})
    assert all(callable(fn) for fn in resolved.values())


def test_traced_sweep_records_a_decompress():
    # imported here, not at collection: a benchmark run earlier in the same
    # process may have re-imported slrma, and the tracer patches the new one
    sweep = importlib.import_module("slrma.sweep")
    tracing = load_tracing()
    seq = synth_mesh_seq(16, 8, seed=1)
    grid = sweep.SweepGrid(ks=(2,), pb_targets=(0.5,), steps=((0.004, 1.0),),
                           solver={"alpha": 1.02})
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.ENTRY):
        rows, _ = sweep.rd_sweep(seq, grid)
    assert not rows[0].error
    assert any(span.name == "codec.decompress" for span in tracer.spans)


def test_traced_solve_records_every_solver_step():
    # a traced name that the loop no longer calls would read 0 in its
    # per-layer metric; one small solve must record a span of each step
    solver = importlib.import_module("slrma.solver")
    tracing = load_tracing()
    z = np.random.default_rng(0).normal(size=(12, 6))
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.LAYERS):
        solver.slrma_solve(z, solver.SolverConfig(gamma=0.5, k=2))
    recorded = {span.name for span in tracer.spans}
    steps = {"solver.update_b", "solver.update_p", "solver.update_q",
             "solver.objective", "solver.multipliers"}
    assert steps <= recorded
