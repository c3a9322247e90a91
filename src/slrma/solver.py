"""Sparse low-rank factorization via an inexact augmented Lagrangian loop.

Minimizes -||Z^T B||_F^2 + gamma*||B||_0 subject to B^T B = I_k by
alternating closed-form updates of B (shifted linear solve), P (hard
threshold), Q (nearest orthonormal matrix) and the two multipliers, with
the penalty rho growing geometrically each sweep. The schedule is derived
from Z: rho starts at ANCHOR_RHO0 sigma_1^2, above every squared singular
value, and grows by `alpha` up to ANCHOR_RHO_MAX sigma_1^2. A solve for a
sparsity target instead constrains ||B||_0 to a fixed count: its P step
projects onto that l0 ball. The output basis is Q orthonormalized on P's
support; a solve whose basis is not orthonormal to rounding is not
converged. The iterate (B, P, Q, the multipliers, rho) lives in the
loop's locals, and each step takes and returns plain arrays.

A sweep computes only what decides the solve. The residual of the B
system, (2 rho I - 2 Z Z^T) B = rhs, changes no iterate, so the loop does
not form it: the tests' reference solve, whose iterates they tie bit for
bit to this loop, checks it on every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import (
    as_matrix,
    sym_eig,  # noqa: F401 -- no longer called here; perfbench traces it by this name
    thin_svd,
)
from .transforms import OrthogonalTransform

# The penalty schedule runs from ANCHOR_RHO0 to ANCHOR_RHO_MAX times
# sigma_1(Z)^2 (times 1.0 for an all-zero Z, which has no scale).
ANCHOR_RHO0 = 1.05
ANCHOR_RHO_MAX = 1e6

# The stopping rule: both split residuals below TOL in the max norm and the
# objective flat to TOL (relative) over the last OBJECTIVE_WINDOW sweeps,
# within MAX_ITERS sweeps.
TOL = 1e-6
MAX_ITERS = 1000
OBJECTIVE_WINDOW = 10


@dataclass(frozen=True)
class SolverConfig:
    """One solve's settings; the stopping rule is fixed (`TOL`, `MAX_ITERS`).

    `alpha` is the growth factor of the penalty schedule, which starts and
    ends at multiples of sigma_1^2 of the Z being solved (`ANCHOR_RHO0`,
    `ANCHOR_RHO_MAX`). With `target_pb` set, the P step keeps
    `kept_entries` entries of B (at most that many nonzero) and `gamma`
    only weighs the reported objective.
    """

    gamma: float
    k: int
    alpha: float = 1.05
    target_pb: float = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.gamma >= 0.0:
            raise ValueError("gamma must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be positive")
        if not self.alpha > 1.0:
            raise ValueError("alpha must exceed 1")
        if self.target_pb is not None and not 0.0 <= self.target_pb < 1.0:
            raise ValueError("target_pb must lie in [0, 1)")


@dataclass(frozen=True)
class Factorization:
    basis: np.ndarray            # m x k, sparse, column-orthonormal
    coeffs: np.ndarray           # k x n
    p_b_achieved: float          # exact-zero fraction of basis
    iterations: int
    converged: bool
    objective_trace: tuple = ()


def objective(ztb, b, gamma):
    """-||Z^T B||_F^2 + gamma * (number of nonzero entries of B), given the
    product Z^T B. Nothing is validated: the solve checks its inputs once."""
    return float(-np.sum(ztb**2) + gamma * np.count_nonzero(b))


def kept_entries(target_pb, m, k):
    """Nonzero entries of an m x k basis at zero fraction `target_pb`, rounded."""
    return int(round((1.0 - target_pb) * m * k))


def check_rank(m, n, k, target_pb=None):
    """Raise ValueError unless a rank-k solve of an m x n Z can start: k in
    [1, min(m, n)], and a `target_pb` that leaves every column of B an entry.
    `slrma_solve` checks this before its SVD, and `rd_sweep` for every grid
    point before its first solve."""
    if not 1 <= k <= min(m, n):
        raise ValueError(f"k={k} outside [1, {min(m, n)}]")
    if target_pb is not None:
        keep = kept_entries(target_pb, m, k)
        if keep < k:  # some column of B would have no entry
            raise ValueError(f"p_B {target_pb} leaves {keep} entries for k={k}")


def update_b(u, coeff, rho, rhs):
    """Solve (2 rho I - 2 Z Z^T) B = rhs, rhs = rho (P + Q) - Y_P - Y_Q.

    With Z = U diag(s) V^T (any thin SVD, so Z may be tall, square or wide)
    B = rhs/(2 rho) + U [diag(1/(2 rho - 2 s_i^2)) - I/(2 rho)] U^T rhs, in
    O(mnk) instead of O(m^3) and without forming the m x m system. `u` is U
    and `coeff` the diagonal of the bracket as an r x 1 column. Nothing is
    validated.
    """
    return rhs / (2.0 * rho) + u @ (coeff * (u.T @ rhs))


def update_p(b, y_p, rho, cfg: SolverConfig):
    """P step on A = B + Y_P/rho.

    By default the hard threshold at tau = sqrt(2 gamma / rho). With
    `cfg.target_pb` set, the projection onto the l0 ball instead: keep the
    `kept_entries` largest |A|, ties going to the earlier row-major position,
    and zero the rest. The cut is the keep-th largest |A|, found by a
    partition in O(mk). A kept entry may be zero, so P has at most
    `kept_entries` nonzero entries, and exactly that many when A has.
    """
    shifted = b + y_p / rho
    if cfg.target_pb is None:
        tau = np.sqrt(2.0 * cfg.gamma / rho)
        return np.where(np.abs(shifted) > tau, shifted, 0.0)
    keep = kept_entries(cfg.target_pb, *shifted.shape)
    mags = np.abs(shifted).ravel()
    cut = np.partition(mags, mags.size - keep)[mags.size - keep]  # keep-th largest
    kept = mags >= cut
    if np.count_nonzero(kept) > keep:  # ties at the cut: keep the earliest
        kept = mags > cut
        ties = np.flatnonzero(mags == cut)
        kept[ties[: keep - np.count_nonzero(kept)]] = True
    return np.where(kept.reshape(shifted.shape), shifted, 0.0)


def update_q(b, y_q, rho):
    """Nearest column-orthonormal matrix to A = B + Y_Q/rho: A's polar factor.

    With A^T A = V D V^T well conditioned this is the closed form
    A V D^(-1/2) V^T; once A has lost column rank (smallest eigenvalue at
    most 1e-12 of the largest) it is U V^T from A's thin SVD, which is
    defined for any input. Raises FloatingPointError when A^T A overflows
    and LinAlgError when `eigh` or the SVD fails.

    The Gram matrix is symmetric by construction, so `eigh` runs on it
    directly, without `sym_eig`'s symmetry check and sign convention: the
    product V D^(-1/2) V^T is bit-identical under any column signs of V, as
    is U V^T under `thin_svd`'s signs. The descending reorder stays a
    fancy-index copy, because the order of V's columns sets the summation
    order of that product.
    """
    shifted = b + y_q / rho
    gram = shifted.T @ shifted
    if not np.isfinite(gram).all():
        raise FloatingPointError("orthogonality projection input overflowed")
    values, vectors = np.linalg.eigh(gram)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    if values[-1] > 1e-12 * max(values[0], 1e-300):
        inv_sqrt = vectors * (values**-0.5)
        return shifted @ (inv_sqrt @ vectors.T)
    u, _, vt = np.linalg.svd(shifted, full_matrices=False)
    return u @ vt


def update_multipliers(y_p, y_q, rho, b_minus_p, b_minus_q):
    """(Y_P + rho (B - P), Y_Q + rho (B - Q)), as new arrays.

    `b_minus_p` and `b_minus_q` are B - P and B - Q, which the solver loop
    has already formed for its residuals.
    """
    return y_p + rho * b_minus_p, y_q + rho * b_minus_q


def _extract(p, q, z, cfg: SolverConfig, iterations, converged, objectives):
    """Assemble the output factor: Q orthonormalized on P's support.

    Column j is Q's column j on the rows where P's column j is nonzero, less
    its least-squares projection onto the earlier output columns on those
    rows: zero elsewhere, it is orthogonal to each of them. Taken twice, the
    projection holds to rounding ("twice is enough"); a column with nothing
    left stays zero. A basis over 1e-10 from orthonormal is not converged.
    """
    support = p != 0.0
    basis = np.zeros_like(q)
    for j in range(cfg.k):
        rows = support[:, j]
        earlier = basis[rows, :j]
        v = q[rows, j]
        for _ in range(2):
            v = v - earlier @ np.linalg.lstsq(earlier, v)[0]
        norm = np.linalg.norm(v)
        if norm > 0.0:
            basis[rows, j] = v / norm
    if np.abs(basis.T @ basis - np.eye(cfg.k)).max() > 1e-10:
        converged = False
    coeffs = basis.T @ z
    p_b = 1.0 - np.count_nonzero(basis) / basis.size
    return Factorization(
        basis=basis,
        coeffs=coeffs,
        p_b_achieved=float(p_b),
        iterations=iterations,
        converged=converged,
        objective_trace=tuple(objectives),
    )


def slrma_solve(z, cfg: SolverConfig):
    """Run the alternating loop on transform-domain data Z.

    Stops once the split residuals ||B-P|| and ||B-Q|| are below TOL in the
    max norm and the objective has been flat over the trailing window. Runs
    that exhaust MAX_ITERS, whose iterate overflows, or whose Q step LAPACK
    fails to decompose, return converged=False with diagnostics intact.

    Every solve starts from the top-k left singular vectors of Z, on the
    penalty schedule anchored at sigma_1^2 of Z. That schedule keeps rho
    above sigma_1^2, where the B system is positive definite, on every sweep
    that reaches the stop test, so the test need not check it: for an
    all-zero Z or a normal sigma_1^2, rho starts above sigma_1^2 and never
    falls; for a subnormal or infinite sigma_1^2 the top shift coefficient
    is not finite, so the first sweep's B is not finite and the solve stops
    there as a blow-up.
    """
    z = as_matrix(z, "Z")
    check_rank(*z.shape, cfg.k, cfg.target_pb)
    svd = thin_svd(z)
    # A blow-up is caught by the finiteness checks on B, the Gram matrix and
    # the objective, so numpy's warnings on the way there say nothing new:
    # overflow (sigma^2 of data near the top of the float range, or rho),
    # invalid values (inf - inf) and division by a zero gap between 2 rho
    # and 2 sigma_1^2 (a subnormal sigma_1^2 that 1.05 does not move).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        two_sig2 = 2.0 * (svd.sigma**2)[:, None]
        top_sq = float(svd.sigma[0] ** 2)
        anchor = top_sq if top_sq > 0.0 else 1.0  # an all-zero Z has no scale
        ceiling = ANCHOR_RHO_MAX * anchor
        rho = ANCHOR_RHO0 * anchor
        # no step writes into its inputs, so the iterate shares its arrays
        p = q = svd.u[:, :cfg.k]
        y_p = y_q = np.zeros(p.shape)
        objectives = []  # one per completed sweep
        converged = False
        try:
            while len(objectives) < MAX_ITERS:
                coeff = 1.0 / (2.0 * rho - two_sig2) - 1.0 / (2.0 * rho)
                b = update_b(svd.u, coeff, rho, rho * (p + q) - y_p - y_q)
                if not np.isfinite(b).all():
                    raise FloatingPointError("B overflowed")
                new_p = update_p(b, y_p, rho, cfg)
                new_q = update_q(b, y_q, rho)
                value = objective(z.T @ b, b, cfg.gamma)
                if not np.isfinite(value):
                    raise FloatingPointError("objective overflowed")
                p, q = new_p, new_q
                objectives.append(value)
                b_minus_p = b - p
                b_minus_q = b - q
                y_p, y_q = update_multipliers(y_p, y_q, rho, b_minus_p, b_minus_q)
                rho = min(rho * cfg.alpha, ceiling)
                if np.abs(b_minus_p).max() < TOL and np.abs(b_minus_q).max() < TOL:
                    if len(objectives) >= OBJECTIVE_WINDOW:
                        tail = objectives[-OBJECTIVE_WINDOW:]
                        if max(tail) - min(tail) < TOL * (1.0 + abs(objectives[-1])):
                            converged = True
                            break
        except (FloatingPointError, np.linalg.LinAlgError):
            # A blow-up (data whose scale puts sigma_1^2 or rho out of
            # floating-point range) or a LAPACK failure in the Q step: the
            # solve reports the last sane iterate, not converged.
            pass
    return _extract(p, q, z, cfg, len(objectives), converged, objectives)


def gamma_for_sparsity(z, cfg: SolverConfig, target_pb):
    """Solve Z for a basis with at most `kept_entries` nonzero entries.

    One `slrma_solve` of `cfg` with its P step projecting onto the l0 ball
    of that count, with no search over gamma. The basis has exactly that
    many nonzero entries when B + Y_P/rho has, so the zero fraction is then
    `target_pb` up to the rounding of the count; on data with fewer nonzero
    entries (an all-zero Z, say) it is higher. Returns (cfg.gamma,
    factorization): the projection uses no gamma of its own. A target outside [0, 1), or one
    that would leave a column of B empty, raises ValueError before Z is
    factored.
    """
    return cfg.gamma, slrma_solve(z, replace(cfg, target_pb=target_pb))


def reconstruct(phi: OrthogonalTransform, factorization: Factorization):
    """Map a transform-domain factorization back to the signal domain."""
    product = factorization.basis @ factorization.coeffs
    if phi.size != product.shape[0]:
        raise ValueError("transform size does not match the factorization")
    return phi.inverse(product)
