"""Exhaustive rate-distortion sweeps over (k, p_B target, quantizer step).

The codec's factor stage runs once per (k, p_B target), through the
sparsity search; its factorization is then encoded with every step pair,
decompressed, and measured. Rows are emitted in deterministic grid order
with full provenance; per-point failures are tagged and the sweep
continues.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    CodecParams,
    build_transforms,
    check_converged,
    decompress_image_set,
    decompress_mesh_seq,
    encode,
    factor,
    image_transforms,
)
from .datasets import ImageSet
from .errors import InfinitePsnrError, SlrmaError
from .metrics import bits_per_frame_vertex, bits_per_pixel, kg_error, psnr, rmse
from .transforms import KIND_GRAPH

# Not called here: perfbench/tracing.py resolves these names in this module.
from .codec import compress_image_set, compress_mesh_seq  # noqa: F401
from .solver import gamma_for_sparsity  # noqa: F401
from .transforms import dct2d, dwt2d, graph_transform, mesh_adjacency  # noqa: F401

CSV_COLUMNS = [
    "k", "p_B_target", "p_B_achieved", "gamma", "step_b", "step_c",
    "transform", "bits", "rate", "rmse", "psnr", "kg_error", "iters",
    "converged", "error",
]


@dataclass
class SweepGrid:
    ks: tuple
    pb_targets: tuple
    steps: tuple                      # (step_b, step_c) pairs
    transform: str = "dct"
    levels: int = 3
    pb_tol: float = 0.05
    solver: dict = field(default_factory=dict)


@dataclass
class SweepRow:
    k: int
    p_b_target: float
    step_b: float
    step_c: float
    transform: str
    p_b_achieved: float = None
    gamma: float = None
    bits: int = None
    rate: float = None
    rmse: float = None
    psnr: float = None
    kg_error: float = None
    iters: int = None
    converged: bool = None
    error: str = ""

    @property
    def distortion(self):
        return self.kg_error if self.kg_error is not None else self.rmse

    def as_csv_dict(self):
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, bool):
                return str(v).lower()
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return {
            "k": self.k,
            "p_B_target": fmt(self.p_b_target),
            "p_B_achieved": fmt(self.p_b_achieved),
            "gamma": fmt(self.gamma),
            "step_b": fmt(self.step_b),
            "step_c": fmt(self.step_c),
            "transform": self.transform,
            "bits": fmt(self.bits),
            "rate": fmt(self.rate),
            "rmse": fmt(self.rmse),
            "psnr": fmt(self.psnr),
            "kg_error": fmt(self.kg_error),
            "iters": fmt(self.iters),
            "converged": fmt(self.converged),
            "error": self.error,
        }


def pareto_front(points):
    """Non-dominated (rate, distortion) pairs, sorted by ascending rate."""
    front = []
    for cand in sorted(points, key=lambda p: (p[0], p[1])):
        if any(o[0] <= cand[0] and o[1] <= cand[1] and o != cand for o in points):
            continue
        if front and front[-1][0] == cand[0]:
            continue
        front.append(cand)
    return front


def _error_text(exc):
    return f"{type(exc).__name__}: {exc}"


def _measure(row, dataset, blob):
    """Fill a row's rate and distortion from one container and its decode."""
    row.bits = 8 * len(blob)
    if isinstance(dataset, ImageSet):
        x_hat, _, _ = decompress_image_set(blob)
        row.rate = bits_per_pixel(len(blob), dataset.w, dataset.h, dataset.n)
        row.rmse = rmse(dataset.x, x_hat)
        try:
            row.psnr = psnr(dataset.x, x_hat)
        except InfinitePsnrError:
            row.psnr = float("inf")
    else:
        hx, hy, hz = decompress_mesh_seq(blob, dataset.faces)
        row.rate = bits_per_frame_vertex(len(blob), dataset.m, dataset.n)
        row.kg_error = kg_error(dataset.xx, dataset.xy, dataset.xz, hx, hy, hz)
        row.rmse = rmse(dataset.stacked(), np.vstack([hx, hy, hz]))


def rd_sweep(dataset, grid: SweepGrid):
    """Evaluate the full grid; returns (rows, pareto front rows)."""
    if isinstance(dataset, ImageSet):
        transforms = image_transforms(grid.transform, grid.levels,
                                      dataset.w, dataset.h)
        data = [dataset.x]
    else:
        transforms = build_transforms(KIND_GRAPH, (dataset.m,),
                                      faces=dataset.faces, n=dataset.n)
        data = [dataset.xx, dataset.xy, dataset.xz]
    rows = []
    for k in grid.ks:
        for pb in grid.pb_targets:
            params = CodecParams(k=k, step_b=1.0, step_c=1.0,
                                 transform=grid.transform, levels=grid.levels,
                                 target_pb=pb, pb_tol=grid.pb_tol,
                                 solver=dict(grid.solver))
            point = dict(k=k, p_b_target=pb, transform=grid.transform)
            try:
                streams = factor(transforms, data, params)
            except SlrmaError as exc:
                rows.extend(SweepRow(**point, step_b=step_b, step_c=step_c,
                                     error=_error_text(exc))
                            for step_b, step_c in grid.steps)
                continue
            facts = [fact for _, fact in streams]
            nnz = sum(np.count_nonzero(f.basis) for f in facts)
            total = sum(f.basis.size for f in facts)
            point.update(
                gamma=streams[0][0],
                p_b_achieved=1.0 - nnz / total,
                iters=max(f.iterations for f in facts),
                converged=all(f.converged for f in facts),
            )
            for step_b, step_c in grid.steps:
                row = SweepRow(**point, step_b=step_b, step_c=step_c)
                try:
                    check_converged(streams)
                    _measure(row, dataset, encode(transforms, streams,
                                                  step_b, step_c))
                except SlrmaError as exc:
                    row.error = _error_text(exc)
                rows.append(row)
    scored = [r for r in rows if not r.error and r.rate is not None]
    front_pts = pareto_front([(r.rate, r.distortion) for r in scored])
    front_set = set(front_pts)
    front_rows = sorted(
        (r for r in scored if (r.rate, r.distortion) in front_set),
        key=lambda r: r.rate,
    )
    seen = set()
    unique_front = []
    for r in front_rows:
        if r.rate not in seen:
            seen.add(r.rate)
            unique_front.append(r)
    return rows, unique_front


def rows_to_csv(rows):
    """Serialize rows with the frozen column schema, UTF-8, LF endings."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_csv_dict())
    return buf.getvalue()
