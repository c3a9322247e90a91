"""Dense linear-algebra primitives used by the transforms and the solver.

Everything works on plain float64 ndarrays. Decompositions pin a sign
convention (first non-negligible entry of each vector positive) so repeated
runs of the same build give bit-identical results.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NoConvergenceError, NonSymmetricError, SizeOverflowError

# Elements allowed in a Kronecker product result (2**26 doubles = 512 MiB).
KRON_ELEMENT_BUDGET = 1 << 26


def as_matrix(a, name="matrix"):
    """Validate and convert to a nonempty, finite, 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


class SymEig(NamedTuple):
    values: np.ndarray   # eigenvalues, descending
    vectors: np.ndarray  # orthonormal columns paired with `values`


class ThinSvd(NamedTuple):
    u: np.ndarray        # m x r, column-orthonormal
    sigma: np.ndarray    # r nonnegative values, descending
    v: np.ndarray        # n x r, column-orthonormal


def _column_sign_flips(vectors, rel_tol=1e-12):
    """Signs that make the first non-negligible entry of each column positive."""
    mags = np.abs(vectors)
    tops = mags.max(axis=0)
    lead = np.argmax(mags > rel_tol * tops, axis=0)
    lead_values = vectors[lead, np.arange(vectors.shape[1])]
    # `tops != 0` rather than `> 0` so a NaN column is treated like any other
    return np.where((tops != 0.0) & (lead_values < 0.0), -1.0, 1.0)


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Raises NonSymmetricError when the input fails the symmetry check and
    NoConvergenceError if the underlying QR iteration gives up.
    """
    a = as_matrix(a, "A")
    m, n = a.shape
    if m != n:
        raise NonSymmetricError(f"expected a square matrix, got {m}x{n}")
    scale = np.abs(a).max()
    if scale > 0.0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise NonSymmetricError("matrix is not symmetric within 1e-10 relative")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(-values, kind="stable")  # ties keep eigh's order
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors * _column_sign_flips(vectors)
    return SymEig(values, vectors)


def thin_svd(a):
    """Thin SVD with r = min(m, n) and the shared sign convention on U."""
    a = as_matrix(a, "A")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    signs = _column_sign_flips(u)
    return ThinSvd(u * signs, sigma, vt.T * signs)


def kronecker(a, b, max_elements=KRON_ELEMENT_BUDGET):
    """Kronecker product A (x) B with an output-size budget."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    out_elems = a.size * b.size
    if out_elems > max_elements:
        raise SizeOverflowError(
            f"kronecker result would hold {out_elems} elements "
            f"(budget {max_elements})"
        )
    return np.kron(a, b)

