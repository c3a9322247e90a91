"""In-memory span tracing of slrma's layers, installed from outside the library.

`installed(tracer, table)` replaces each listed function under the name its
caller module imports it by, records one span per call (name, start, end,
parent) and restores every original attribute on exit. Nothing under `src/`
changes, so with no table installed the library runs exactly as shipped.

Two tables exist. `ENTRY` wraps only the codec entry points that the sweep
and the benchmark call; it costs two spans per compress/decompress and is
what the end-to-end run uses to time codec calls made inside `rd_sweep`.
`LAYERS` adds every layer below it for the traced run.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "error", "brackets")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None
        self.error = None
        self.brackets = ()  # results of Tracer.bracket just before and after

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; `parent` is the index of the enclosing span or -1.

    `bracket`, when given, is called right before and right after every
    wrapped call, outside the span's own time; the benchmark passes its
    speed-calibration kernel so that short calls can be rescaled by the
    machine speed at the moment they ran.
    """

    def __init__(self, bracket=None):
        self.spans = []
        self._stack = []
        self.bracket = bracket
        self.first_solve = None  # (z, SolverConfig) of the first top-level solve

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            before = self.bracket() if self.bracket else None
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__  # not exc: its traceback pins big locals
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if self.bracket:
                    span.brackets = (before, self.bracket())
            if info is not None:
                span.info = info(self, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# --- per-span info extractors: cheap facts read from arguments and results --

def _sha(blob):
    return hashlib.sha256(blob).hexdigest()


def _compress_info(tracer, span, args, blob):
    return {"bytes": len(blob), "sha256": _sha(blob)}


def _decoded(arrays):
    return {"shapes": [a.shape for a in arrays],
            "finite": all(bool(np.isfinite(a).all()) for a in arrays)}


def _image_decoded_info(tracer, span, args, result):
    return _decoded(result[:1])  # (X_hat, w, h)


def _mesh_decoded_info(tracer, span, args, result):
    return _decoded(result)


def _solve_info(tracer, span, args, fact):
    in_search = span.parent >= 0 and tracer.spans[span.parent].name == "solver.search"
    if tracer.first_solve is None and not in_search:
        tracer.first_solve = (args[0], args[1])
    return {"iters": fact.iterations, "converged": fact.converged}


def _search_info(tracer, span, args, result):
    if tracer.first_solve is None:
        tracer.first_solve = (args[0], replace(args[1], gamma=result[0]))
    return None


def _build_info(tracer, span, args, phi):
    return {"nbytes": phi.matrix.nbytes}


def _quantize_info(tracer, span, args, q):
    return {"cells": q.rows * q.cols, "nnz": int(q.levels.size)}


def _encode_info(tracer, span, args, payload):
    q = args[0]
    return {"cells": q.rows * q.cols, "nnz": int(q.levels.size),
            "bytes": len(payload)}


def _decode_info(tracer, span, args, q):
    return {"cells": q.rows * q.cols}


def _pack_info(tracer, span, args, blob):
    return {"bytes": len(blob)}


def _sweep_info(tracer, span, args, result):
    rows = result[0]
    return {"rows": len(rows), "failed_rows": sum(1 for r in rows if r.error)}


# (module, attribute, span name, info extractor). Functions are wrapped under
# the name their caller imports, because `from x import f` binds f there.
ENTRY = [
    ("slrma.codec", "compress_image_set", "codec.compress", _compress_info),
    ("slrma.codec", "compress_mesh_seq", "codec.compress", _compress_info),
    ("slrma.codec", "decompress_image_set", "codec.decompress", _image_decoded_info),
    ("slrma.codec", "decompress_mesh_seq", "codec.decompress", _mesh_decoded_info),
    ("slrma.sweep", "compress_image_set", "codec.compress", _compress_info),
    ("slrma.sweep", "compress_mesh_seq", "codec.compress", _compress_info),
    ("slrma.sweep", "decompress_image_set", "codec.decompress", _image_decoded_info),
    ("slrma.sweep", "decompress_mesh_seq", "codec.decompress", _mesh_decoded_info),
]

LAYERS = ENTRY + [
    ("slrma.sweep", "rd_sweep", "sweep.rd_sweep", _sweep_info),
    ("slrma.codec", "gamma_for_sparsity", "solver.search", _search_info),
    ("slrma.sweep", "gamma_for_sparsity", "solver.search", _search_info),
    ("slrma.codec", "slrma_solve", "solver.solve", _solve_info),
    ("slrma.solver", "slrma_solve", "solver.solve", _solve_info),
    ("slrma.solver", "update_b", "solver.update_b", None),
    ("slrma.solver", "update_p", "solver.update_p", None),
    ("slrma.solver", "update_q", "solver.update_q", None),
    ("slrma.solver", "objective", "solver.objective", None),
    ("slrma.solver", "update_multipliers", "solver.multipliers", None),
    ("slrma.solver", "thin_svd", "numerics.thin_svd", None),
    ("slrma.solver", "sym_eig", "numerics.sym_eig", None),
    ("slrma.codec", "dct2d", "transforms.build", _build_info),
    ("slrma.codec", "dwt2d", "transforms.build", _build_info),
    ("slrma.codec", "dct1d", "transforms.build", _build_info),
    ("slrma.codec", "graph_transform", "transforms.build", _build_info),
    ("slrma.sweep", "dct2d", "transforms.build", _build_info),
    ("slrma.sweep", "dwt2d", "transforms.build", _build_info),
    ("slrma.sweep", "graph_transform", "transforms.build", _build_info),
    ("slrma.codec", "mesh_adjacency", "transforms.adjacency", None),
    ("slrma.sweep", "mesh_adjacency", "transforms.adjacency", None),
    ("slrma.transforms", "OrthogonalTransform.forward", "transforms.apply", None),
    ("slrma.transforms", "OrthogonalTransform.inverse", "transforms.apply", None),
    ("slrma.codec", "quantize", "quant.quantize", _quantize_info),
    ("slrma.codec", "dequantize", "quant.dequantize", None),
    ("slrma.codec", "entropy_encode", "entropy.encode", _encode_info),
    ("slrma.codec", "entropy_decode", "entropy.decode", _decode_info),
    ("slrma.codec", "pack_container", "container.pack", _pack_info),
    ("slrma.codec", "unpack_container", "container.unpack", None),
    ("slrma.metrics", "rmse", "metrics", None),
    ("slrma.metrics", "kg_error", "metrics", None),
    ("slrma.metrics", "bits_per_pixel", "metrics", None),
    ("slrma.metrics", "bits_per_frame_vertex", "metrics", None),
    ("slrma.sweep", "rmse", "metrics", None),
    ("slrma.sweep", "psnr", "metrics", None),
    ("slrma.sweep", "kg_error", "metrics", None),
    ("slrma.sweep", "bits_per_pixel", "metrics", None),
    ("slrma.sweep", "bits_per_frame_vertex", "metrics", None),
]


def _owner(module, attr):
    """The object holding `attr` ("Class.method" names a class attribute)."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def snapshot(table):
    """Current value of every attribute a table would replace."""
    return {(module, attr): getattr(*_owner(module, attr))
            for module, attr, _, _ in table}


@contextmanager
def installed(tracer, table):
    """Wrap every entry of `table` for the duration of the block."""
    # Resolve (and so import) every owner before wrapping anything: a module
    # imported mid-way would bind an already wrapped function by `from` import.
    targets = [(*_owner(module, attr), name, info) for module, attr, name, info in table]
    originals = []
    try:
        for owner, leaf, name, info in targets:
            original = getattr(owner, leaf)
            originals.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(name, original, info))
        yield tracer
    finally:
        for owner, leaf, original in reversed(originals):
            setattr(owner, leaf, original)


# --- aggregation --------------------------------------------------------------

class SpanIndex:
    """Totals, counts and self times over one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                self.child_time[span.parent] += span.duration

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name):
        """Wall time under `name`, not counting a span nested in its own kind."""
        return sum(s.duration for s in self.named(name)
                   if s.parent < 0 or self.spans[s.parent].name != name)

    def self_time(self, name):
        return sum(s.duration - self.child_time[i]
                   for i, s in enumerate(self.spans) if s.name == name)

    def count(self, name):
        return len(self.named(name))

    def info_sum(self, name, key):
        return sum(s.info[key] for s in self.named(name) if s.info)

    def under(self, name, ancestor):
        """Spans called `name` whose direct parent is called `ancestor`."""
        return [s for s in self.named(name)
                if s.parent >= 0 and self.spans[s.parent].name == ancestor]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, ops):
    """Per-layer figures for `ops` traced operations (times are s per op)."""
    ix = SpanIndex(spans)
    per_op = lambda value: value / ops
    solves = ix.named("solver.solve")
    iters = sum(s.info["iters"] for s in solves if s.info)
    searches = ix.count("solver.search")
    enc_cells = ix.info_sum("entropy.encode", "cells")
    dec_cells = ix.info_sum("entropy.decode", "cells")
    packs = ix.count("container.pack")
    builds = ix.named("transforms.build")
    return {
        "solver.search_s": per_op(ix.total("solver.search")),
        "solver.probes_per_search": _ratio(len(ix.under("solver.solve", "solver.search")), searches),
        "solver.solves": per_op(len(solves)),
        "solver.iterations": per_op(iters),
        "solver.us_per_iter": 1e6 * _ratio(ix.total("solver.solve"), iters),
        "solver.self_s": per_op(ix.self_time("solver.solve")),
        "solver.update_b_s": per_op(ix.total("solver.update_b")),
        "solver.update_p_s": per_op(ix.total("solver.update_p")),
        "solver.update_q_s": per_op(ix.total("solver.update_q")),
        "solver.objective_s": per_op(ix.total("solver.objective")),
        "solver.multipliers_s": per_op(ix.total("solver.multipliers")),
        "solver.converged_ratio": _ratio(sum(1 for s in solves if s.info and s.info["converged"]), len(solves)),
        "numerics.thin_svd_calls": per_op(ix.count("numerics.thin_svd")),
        "numerics.thin_svd_s": per_op(ix.total("numerics.thin_svd")),
        "numerics.sym_eig_calls": per_op(ix.count("numerics.sym_eig")),
        "numerics.sym_eig_s": per_op(ix.total("numerics.sym_eig")),
        "transforms.build_s": per_op(ix.total("transforms.build")),
        "transforms.build_calls": per_op(len(builds)),
        "transforms.apply_s": per_op(ix.total("transforms.apply")),
        "transforms.matrix_mb": max((s.info["nbytes"] for s in builds if s.info), default=0) / 1e6,
        "transforms.adjacency_s": per_op(ix.total("transforms.adjacency")),
        "entropy.encode_s": per_op(ix.total("entropy.encode")),
        "entropy.decode_s": per_op(ix.total("entropy.decode")),
        "entropy.encode_cells_per_s": _ratio(enc_cells, ix.total("entropy.encode")),
        "entropy.decode_cells_per_s": _ratio(dec_cells, ix.total("entropy.decode")),
        "entropy.bytes_per_nonzero": _ratio(ix.info_sum("entropy.encode", "bytes"),
                                            ix.info_sum("entropy.encode", "nnz")),
        "quant.quantize_s": per_op(ix.total("quant.quantize")),
        "quant.dequantize_s": per_op(ix.total("quant.dequantize")),
        "quant.nonzero_ratio": _ratio(ix.info_sum("quant.quantize", "nnz"),
                                      ix.info_sum("quant.quantize", "cells")),
        "container.pack_s": per_op(ix.total("container.pack")),
        "container.unpack_s": per_op(ix.total("container.unpack")),
        "container.bytes": _ratio(ix.info_sum("container.pack", "bytes"), packs),
        "codec.compress_self_s": per_op(ix.self_time("codec.compress")),
        "codec.decompress_self_s": per_op(ix.self_time("codec.decompress")),
        "sweep.self_s": per_op(ix.self_time("sweep.rd_sweep")),
        "sweep.searches": per_op(len(ix.under("solver.search", "sweep.rd_sweep"))),
        "sweep.compress_calls": per_op(len(ix.under("codec.compress", "sweep.rd_sweep"))),
        "sweep.rows": per_op(ix.info_sum("sweep.rd_sweep", "rows")),
        "sweep.failed_rows": per_op(ix.info_sum("sweep.rd_sweep", "failed_rows")),
        "metrics.s": per_op(ix.total("metrics")),
    }

