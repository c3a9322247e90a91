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


def test_traced_image_round_trip_records_basis_sizes():
    # `transforms.matrix_mb` reads `.matrix.nbytes` of what `dct2d`/`dwt2d`
    # return, and the traced run wraps every layer: a 2D image transform must
    # keep a `.matrix` and round-trip under the whole table
    codec = importlib.import_module("slrma.codec")
    datasets = importlib.import_module("slrma.datasets")
    tracing = load_tracing()
    data = datasets.synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)
    for transform in ("dct", "dwt"):
        params = codec.CodecParams(k=2, step_b=0.004, step_c=1.0, transform=transform,
                                   levels=2, target_pb=0.5)
        tracer = tracing.Tracer()
        with tracing.installed(tracer, tracing.LAYERS):
            x_hat, _, _ = codec.decompress_image_set(
                codec.compress_image_set(data.x, data.w, data.h, params))
        assert x_hat.shape == data.x.shape
        builds = [span for span in tracer.spans if span.name == "transforms.build"]
        assert builds and all(span.error is None for span in builds)
        assert all(span.info["nbytes"] > 0 for span in builds)


def test_traced_mesh_compress_gives_the_stability_probe_its_solve():
    # the tracer keeps the (Z, config) of a compress's one sparsity search,
    # and the benchmark's stability probe re-solves it through
    # `slrma.solver.slrma_solve` and reads the outcome's types
    codec = importlib.import_module("slrma.codec")
    solver = importlib.import_module("slrma.solver")
    tracing = load_tracing()
    seq = synth_mesh_seq(16, 8, seed=1)
    params = codec.CodecParams(k=2, step_b=0.004, step_c=1.0, target_pb=0.5,
                               solver={"alpha": 1.02})
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.LAYERS):
        codec.compress_mesh_seq(seq.xx, seq.xy, seq.xz, seq.faces, params)
    assert [span.name for span in tracer.spans].count("solver.search") == 1
    assert tracer.first_solve is not None
    fact = solver.slrma_solve(*tracer.first_solve)
    assert type(fact.p_b_achieved) is float
    assert type(fact.iterations) is int
    assert type(fact.converged) is bool
