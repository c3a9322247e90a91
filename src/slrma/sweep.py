"""Exhaustive rate-distortion sweeps over (k, p_B target, quantizer step).

The codec's factor stage runs once per (k, p_B target), at that
sparsity; its factorization is then encoded with every step pair,
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
    check_converged,
    decompress_image_set,
    decompress_mesh_seq,
    encode,
    factor,
    image_input,
    mesh_input,
)
from .datasets import ImageSet
from .errors import SlrmaError
from .metrics import bits_per_frame_vertex, bits_per_pixel, kg_error, psnr, rmse
from .quant import check_steps
from .solver import SolverConfig, check_rank

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
    solver: dict = field(default_factory=dict)


@dataclass
class SweepRow:
    k: int
    p_b_target: float
    step_b: float
    step_c: float
    transform: str
    p_b_achieved: float = None
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
            if isinstance(v, float):  # np.float64 too, printed as a plain number
                return repr(float(v))
            return str(v)

        # each column holds the field of its lowercased name; no field holds
        # gamma, as a target row is re-run from p_B_target, not from a gamma
        return {col: fmt(getattr(self, col.lower(), None)) for col in CSV_COLUMNS}


def pareto_front(points):
    """Non-dominated (rate, distortion) pairs, sorted by ascending rate."""
    front = []
    for cand in sorted(points, key=lambda p: (p[0], p[1])):
        # front[-1] has the least distortion of all pairs before cand
        if not front or cand[1] < front[-1][1]:
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
        row.psnr = psnr(dataset.x, x_hat)
    else:
        hx, hy, hz = decompress_mesh_seq(blob, dataset.faces)
        row.rate = bits_per_frame_vertex(len(blob), dataset.m, dataset.n)
        row.kg_error = kg_error(dataset.xx, dataset.xy, dataset.xz, hx, hy, hz)
        row.rmse = rmse(dataset.stacked(), np.vstack([hx, hy, hz]))


def rd_sweep(dataset, grid: SweepGrid):
    """Evaluate the full grid; returns (rows, pareto front rows).

    Before the first solve, one SolverConfig per (k, target) point is built,
    which checks each target, k and `grid.solver` entry, and `check_rank`
    checks each point against the data's shape; every step pair is checked
    too, all by ValueError, and the data by the codec's own input checks.
    """
    configs = [SolverConfig(gamma=0.0, k=k, target_pb=pb, **grid.solver)
               for k in grid.ks for pb in grid.pb_targets]
    for pair in grid.steps:
        if len(pair) != 2:
            raise ValueError(f"steps {grid.steps} must be (step_b, step_c) pairs")
        check_steps(*pair)
    if isinstance(dataset, ImageSet):
        transform = grid.transform
        transforms, data = image_input(dataset.x, dataset.w, dataset.h,
                                       transform, grid.levels)
    else:
        # meshes always use the graph transform, whatever the grid names
        transform = "gt"
        transforms, data = mesh_input(dataset.xx, dataset.xy, dataset.xz, dataset.faces)
    m, n = data[0].shape  # every stream's Z has the shape of its data
    for cfg in configs:
        check_rank(m, n, cfg.k, cfg.target_pb)
    rows = []
    for cfg in configs:
        point = dict(k=cfg.k, p_b_target=cfg.target_pb, transform=transform)
        try:
            fact = factor(transforms, data, cfg)
        except SlrmaError as exc:
            rows.extend(SweepRow(**point, step_b=step_b, step_c=step_c,
                                 error=_error_text(exc))
                        for step_b, step_c in grid.steps)
            continue
        point.update(p_b_achieved=fact.p_b_achieved, iters=fact.iterations,
                     converged=fact.converged)
        for step_b, step_c in grid.steps:
            row = SweepRow(**point, step_b=step_b, step_c=step_c)
            try:
                check_converged(fact)
                _measure(row, dataset, encode(transforms, fact, step_b, step_c))
            except SlrmaError as exc:
                row.error = _error_text(exc)
            rows.append(row)
    # the first row at each (rate, distortion) point stands for it on the front
    first = {}
    for r in rows:
        if not r.error:
            first.setdefault((r.rate, r.distortion), r)
    return rows, [first[pt] for pt in pareto_front(list(first))]


def rows_to_csv(rows):
    """Serialize rows with the frozen column schema, UTF-8, LF endings."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_csv_dict())
    return buf.getvalue()
