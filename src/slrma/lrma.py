"""Classic low-rank approximation and the transform-then-threshold baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, thin_svd
from .solver import check_rank
from .transforms import OrthogonalTransform


@dataclass(frozen=True)
class LrmaResult:
    """Best rank-k factorization X ~ B @ C with column-orthonormal B."""

    basis: np.ndarray             # m x k
    coeffs: np.ndarray            # k x n
    discarded_energy: float       # sum of squared singular values beyond k


@dataclass(frozen=True)
class StepwiseResult:
    """Rank-k basis sparsified after the fact in a fixed transform domain."""

    basis: np.ndarray             # m x k, synthesis of the thresholded coeffs
    coeffs: np.ndarray            # k x n, unchanged from the dense solution
    sparse_basis: np.ndarray      # m x k transform-domain factor with zeros
    rmse: float                   # reconstruction error of basis @ coeffs


def lrma(x, k):
    """Rank-k approximation via the top singular vectors of X; a k outside
    [1, min(m, n)] raises ValueError (`check_rank`)."""
    x = as_matrix(x, "X")
    check_rank(*x.shape, k)
    svd = thin_svd(x)
    basis = np.ascontiguousarray(svd.u[:, :k])
    coeffs = basis.T @ x
    discarded = float(np.sum(svd.sigma[k:] ** 2))
    return LrmaResult(basis, coeffs, discarded)


def threshold_smallest(values, zero_count):
    """Zero the `zero_count` smallest-magnitude entries of a matrix.

    The ranking is global across all entries. Magnitude ties at the cut
    are broken by column-major position, keeping earlier entries.
    """
    values = as_matrix(values, "values")
    flat = values.flatten(order="F")
    if zero_count <= 0:
        return values.copy()
    if zero_count >= flat.size:
        return np.zeros_like(values)
    # Sort by (magnitude asc, position desc): later ties are zeroed first.
    order = np.lexsort((-np.arange(flat.size), np.abs(flat)))
    flat[order[:zero_count]] = 0.0
    return flat.reshape(values.shape, order="F")


def stepwise_baseline(x, phi: OrthogonalTransform, k, p_b):
    """LRMA followed by global hard thresholding of the transformed basis.

    The dense rank-k basis is transformed by ``phi``, the fraction ``p_b``
    of its smallest-magnitude coefficients (over all k columns at once) is
    zeroed, and the result is transformed back. Coefficients keep their
    dense-solution values.
    """
    x = as_matrix(x, "X")
    if not 0.0 <= p_b <= 1.0:
        raise ValueError("p_b must lie in [0, 1]")
    if phi.size != x.shape[0]:
        raise ValueError("transform size does not match row count of X")
    dense = lrma(x, k)
    transformed = phi.forward(dense.basis)
    zero_count = int(np.floor(p_b * transformed.size))
    sparse = threshold_smallest(transformed, zero_count)
    basis = phi.inverse(sparse)
    resid = x - basis @ dense.coeffs
    rmse = float(np.sqrt(np.sum(resid**2) / x.size))
    return StepwiseResult(basis, dense.coeffs, sparse, rmse)
