"""Distortion and rate metrics for the two pipelines."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSequenceError, ShapeMismatchError
from .numerics import as_matrix


def rmse(x, x_hat):
    """Root mean square error over all entries."""
    x = as_matrix(x, "X")
    x_hat = as_matrix(x_hat, "Xhat")
    if x.shape != x_hat.shape:
        raise ShapeMismatchError(f"shapes {x.shape} and {x_hat.shape} differ")
    return float(np.sqrt(np.sum((x - x_hat) ** 2) / x.size))


def psnr(x, x_hat, peak=255.0):
    """20*log10(peak / rmse); inf when the reconstruction is exact."""
    err = rmse(x, x_hat)
    return float("inf") if err == 0.0 else float(20.0 * np.log10(peak / err))


def frame_mean_matrix(coords):
    """Per-frame per-axis vertex means, replicated over vertices."""
    out = []
    for block in coords:
        block = as_matrix(block, "coords")
        out.append(np.tile(block.mean(axis=0, keepdims=True), (block.shape[0], 1)))
    return np.vstack(out)


def kg_error(xx, xy, xz, hx, hy, hz):
    """100 * ||X - X^||_F / ||X - E(X)||_F on the stacked 3m x n matrices."""
    x = np.vstack([as_matrix(xx, "Xx"), as_matrix(xy, "Xy"), as_matrix(xz, "Xz")])
    x_hat = np.vstack([as_matrix(hx, "Hx"), as_matrix(hy, "Hy"), as_matrix(hz, "Hz")])
    if x.shape != x_hat.shape:
        raise ShapeMismatchError(f"shapes {x.shape} and {x_hat.shape} differ")
    mean = frame_mean_matrix([xx, xy, xz])
    denom = float(np.linalg.norm(x - mean))
    if denom == 0.0:
        raise DegenerateSequenceError("every frame equals its centroid")
    return float(100.0 * np.linalg.norm(x - x_hat) / denom)


def bits_per_pixel(byte_count, w, h, n):
    return 8.0 * byte_count / (w * h * n)


def bits_per_frame_vertex(byte_count, m, n):
    return 8.0 * byte_count / (m * n)
