"""Uniform scalar quantization to a significance map plus nonzero levels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix


@dataclass
class QuantizedSparseMatrix:
    rows: int
    cols: int
    step: float
    significance: np.ndarray  # bool, rows x cols
    levels: np.ndarray        # int64, one entry per set bit, row-major order

    def __post_init__(self):
        if self.levels.size != int(self.significance.sum()):
            raise ValueError("level count does not match the significance map")
        if self.levels.size and not np.all(self.levels != 0):
            raise ValueError("stored levels must be nonzero")


def quantize(values, step):
    """Round half away from zero at the given step size."""
    values = as_matrix(values, "values")
    if not 0.0 < step < np.inf:
        raise ValueError("step must be positive and finite")
    levels = np.sign(values) * np.floor(np.abs(values) / step + 0.5)
    levels = levels.astype(np.int64)
    significance = levels != 0
    return QuantizedSparseMatrix(
        rows=values.shape[0],
        cols=values.shape[1],
        step=float(step),
        significance=significance,
        levels=levels[significance],  # row-major boolean indexing order
    )


def dequantize(q: QuantizedSparseMatrix):
    out = np.zeros((q.rows, q.cols))
    out[q.significance] = q.levels * q.step
    return out
