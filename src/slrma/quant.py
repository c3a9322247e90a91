"""Uniform scalar quantization to a significance map plus nonzero levels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeOverflowError
from .numerics import as_matrix


@dataclass
class QuantizedSparseMatrix:
    step: float
    significance: np.ndarray  # bool, rows x cols
    levels: np.ndarray        # int64, one entry per set bit, row-major order

    @property
    def rows(self):
        return self.significance.shape[0]

    @property
    def cols(self):
        return self.significance.shape[1]

    def __post_init__(self):
        if self.levels.size != np.count_nonzero(self.significance):
            raise ValueError("level count does not match the significance map")
        if self.levels.size and not np.all(self.levels != 0):
            raise ValueError("stored levels must be nonzero")


def quantize(values, step):
    """Round half away from zero at the given step size. A level past int64
    raises SizeOverflowError before any level is cast."""
    values = as_matrix(values, "values")
    if not 0.0 < step < np.inf:
        raise ValueError("step must be positive and finite")
    with np.errstate(over="ignore"):  # an infinite |value| / step is refused below
        mags = np.floor(np.abs(values) / step + 0.5)
    if mags.max() >= 2.0**63:
        raise SizeOverflowError(f"a level at step {step:g} does not fit in int64")
    levels = (np.sign(values) * mags).astype(np.int64)
    significance = levels != 0
    return QuantizedSparseMatrix(
        step=float(step),
        significance=significance,
        levels=levels[significance],  # row-major boolean indexing order
    )


def dequantize(q: QuantizedSparseMatrix):
    out = np.zeros((q.rows, q.cols))
    out[q.significance] = q.levels * q.step
    return out
