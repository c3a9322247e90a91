"""The benchmark's workloads: their corpora, one operation each, and its checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns. Operation `i` of a run with seed `s` gets its
own input: the workload's fixed corpus (the ROADMAP's synthetic corpora, at
fixed dimensions) with every sample scaled by `1 + PERTURB_REL * N(0, 1)`
drawn from `(s, i)`. The bytes differ per operation, so nothing can be
memoized on data content, while per-shape state (a transform basis, a graph)
is the same for every operation, as it would be for a real user.

Library modules are looked up when an operation runs (`lib("codec")`), so the
benchmark's set-up can re-import the package and the tracer can replace
functions under the names their callers use.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

PERTURB_REL = 1e-6

# Fixed gammas, set in advance and not tuned on per-seed outcomes: 30 lies in
# the band (20-70) that converges on the seed-2 64x64x64 corpus; 10 is one of
# the values {1, 10, 100, 1000} that all fail on the 1600-vertex corpus.
# Neither workload is driven (see README.md): at gamma 30 about one
# image-large op in a hundred does not converge, and every mesh-large op fails.
IMAGE_LARGE_GAMMA = 30.0
MESH_LARGE_GAMMA = 10.0


def lib(name):
    return importlib.import_module(f"slrma.{name}")


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, besides the spans the tracer recorded."""

    rate: float = None          # bpp (images) or bpfv (meshes)
    distortion: float = None    # RMSE (images) or KG error % (meshes)
    checksums: tuple = ()       # SHA-256 of sweep CSVs (containers come from spans)
    failures: tuple = ()        # failure classes, see `failure_class`


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: Callable[[], object]        # builds the fixed corpus
    op: Callable[[object], Outcome]     # one closed-loop operation
    decoded_shape: Callable[[object], list]
    samples: Callable[[object], int]    # pixels or vertex coordinates per op
    ceiling: float                      # largest acceptable distortion


def failure_class(exc):
    """`not_converged:<type>`, `typed:<type>` (a SlrmaError) or `untyped:<type>`."""
    errors = lib("errors")
    kind = type(exc).__name__
    if isinstance(exc, errors.NotConvergedError):
        return f"not_converged:{kind}"
    if isinstance(exc, errors.SlrmaError):
        return f"typed:{kind}"
    return f"untyped:{kind}"


def op_input(corpus, seed, index):
    """The corpus with a relative perturbation drawn from (seed, index)."""
    rng = np.random.default_rng([seed, index])
    fields = ("x",) if hasattr(corpus, "x") else ("xx", "xy", "xz")
    return dataclasses.replace(corpus, **{
        f: getattr(corpus, f) * (1.0 + PERTURB_REL * rng.standard_normal(getattr(corpus, f).shape))
        for f in fields})


def _image_op(params):
    def op(ds):
        codec, metrics = lib("codec"), lib("metrics")
        blob = codec.compress_image_set(ds.x, ds.w, ds.h, params)
        x_hat, _, _ = codec.decompress_image_set(blob)
        return Outcome(rate=metrics.bits_per_pixel(len(blob), ds.w, ds.h, ds.n),
                       distortion=metrics.rmse(ds.x, x_hat))
    return op


def _mesh_op(params):
    def op(ds):
        codec, metrics = lib("codec"), lib("metrics")
        blob = codec.compress_mesh_seq(ds.xx, ds.xy, ds.xz, ds.faces, params)
        hx, hy, hz = codec.decompress_mesh_seq(blob, ds.faces)
        return Outcome(rate=metrics.bits_per_frame_vertex(len(blob), ds.m, ds.n),
                       distortion=metrics.kg_error(ds.xx, ds.xy, ds.xz, hx, hy, hz))
    return op


def _row_failure(row):
    if row.error:
        kind = row.error.split(":", 1)[0]
        return f"not_converged:{kind}" if kind == "NotConvergedError" else f"typed:{kind}"
    if row.converged is False:
        return "not_converged:result"
    return None


def _sweep_op(grid):
    def op(ds):
        sweep = lib("sweep")
        rows, _ = sweep.rd_sweep(ds, grid)
        csv_text = sweep.rows_to_csv(rows)
        failures = tuple(f for f in map(_row_failure, rows) if f)
        ok = [r for r in rows if _row_failure(r) is None]
        return Outcome(
            rate=float(np.mean([r.rate for r in ok])) if ok else None,
            distortion=float(np.mean([r.kg_error for r in ok])) if ok else None,
            checksums=(hashlib.sha256(csv_text.encode()).hexdigest(),),
            failures=failures,
        )
    return op


def _image_corpus(w, h, n, seed):
    return lambda: lib("datasets").synth_image_set(w, h, n, rank=4, noise_sigma=2.0, seed=seed)


def _mesh_corpus(m, n, seed):
    return lambda: lib("datasets").synth_mesh_seq(m, n, seed=seed)


def _image_shape(ds):
    return [(ds.w * ds.h, ds.n)]


def _mesh_shape(ds):
    return [(ds.m, ds.n)] * 3


def _image_samples(ds):
    return ds.w * ds.h * ds.n


def _mesh_samples(ds):
    return 3 * ds.m * ds.n


def make_workloads(tiny=False):
    """The four named workloads; `tiny` shrinks every size for the self-test."""
    codec, sweep = lib("codec"), lib("sweep")
    image = lambda **kw: codec.CodecParams(step_b=0.004, step_c=1.0, transform="dct", **kw)
    mesh_steps = ((0.016, 4.0), (0.008, 2.0), (0.004, 1.0))
    if tiny:  # small enough for the self-test; the faster mesh schedule is for speed only
        search_corpus, large_corpus = _image_corpus(8, 8, 12, 2), _image_corpus(8, 8, 16, 2)
        sweep_corpus, mesh_corpus = _mesh_corpus(16, 8, 1), _mesh_corpus(16, 8, 1)
        k_img, k_mesh, sweep_pb, sweep_solver, mesh_ceiling = 2, 2, 0.5, {"alpha": 1.02}, 100.0
    else:
        search_corpus, large_corpus = _image_corpus(16, 16, 32, 2), _image_corpus(64, 64, 64, 2)
        sweep_corpus, mesh_corpus = _mesh_corpus(64, 32, 1), _mesh_corpus(1600, 64, 1)
        k_img, k_mesh, sweep_pb, sweep_solver, mesh_ceiling = 8, 6, 0.8, {}, 15.0
    workloads = [
        Workload(
            "image-search",
            "gamma bisection (~22 full solves per op) dominates; solver and search changes show, entropy and transforms do not",
            search_corpus, _image_op(image(k=k_img, target_pb=0.6)),
            _image_shape, _image_samples, ceiling=4.0),
        # Run by hand only: ~1% of its ops do not converge (ROADMAP item 4),
        # at random per seed, so two sets of runs cannot agree on `failed`.
        Workload(
            "image-large",
            "one tall fixed-gamma solve plus the dense 4096^2 DCT and ~33k-cell entropy coding; decompress is entropy and transforms",
            large_corpus, _image_op(image(k=k_img, gamma=IMAGE_LARGE_GAMMA)),
            _image_shape, _image_samples, ceiling=5.0),
        Workload(
            "mesh-sweep",
            "only workload running rd_sweep and the small mesh path; one factorization feeds three encodes",
            sweep_corpus,
            _sweep_op(sweep.SweepGrid(ks=(k_mesh,), pb_targets=(sweep_pb,), steps=mesh_steps,
                                      solver=sweep_solver)),
            _mesh_shape, _mesh_samples, ceiling=mesh_ceiling),
        # Run by hand only: every op fails today (see README.md), so it
        # cannot give the end-to-end figures the driven workloads report.
        Workload(
            "mesh-large",
            "default mesh preset on the 1600-vertex corpus: the m=1600 graph transform and the rho0 < sigma1^2 defect",
            mesh_corpus, _mesh_op(codec.CodecParams(k=k_mesh, step_b=0.004, step_c=1.0,
                                                   gamma=MESH_LARGE_GAMMA)),
            _mesh_shape, _mesh_samples, ceiling=mesh_ceiling),
    ]
    return {w.name: w for w in workloads}
