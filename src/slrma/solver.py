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
converged.

A sweep computes only what decides the solve. The residual of the B
system, (2 rho I - 2 Z Z^T) B = rhs, changes no iterate, so the loop does
not form it: the tests' reference solve, whose iterates they tie bit for
bit to this loop, checks it on every sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoConvergenceError
from .numerics import (
    as_matrix,
    shifted_gram_apply,
    sym_eig,  # noqa: F401 -- no longer called here; perfbench traces it by this name
    thin_svd,
)
from .transforms import OrthogonalTransform

# The penalty schedule runs from ANCHOR_RHO0 to ANCHOR_RHO_MAX times
# sigma_1(Z)^2 (times 1.0 for an all-zero Z, which has no scale).
ANCHOR_RHO0 = 1.05
ANCHOR_RHO_MAX = 1e6

# Sweeps over which the objective must be flat before a solve may stop.
OBJECTIVE_WINDOW = 10


@dataclass(frozen=True)
class SolverConfig:
    """One solve's settings.

    `alpha` is the growth factor of the penalty schedule, which starts and
    ends at multiples of sigma_1^2 of the Z being solved (`ANCHOR_RHO0`,
    `ANCHOR_RHO_MAX`). With `target_pb` set, the P step keeps
    `kept_entries` entries of B (at most that many nonzero) and `gamma`
    only weighs the reported objective.
    """

    gamma: float
    k: int
    alpha: float = 1.05
    tol: float = 1e-6
    max_iters: int = 1000
    target_pb: float = None

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if self.target_pb is not None and not 0.0 <= self.target_pb < 1.0:
            raise ValueError("target_pb must lie in [0, 1)")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


@dataclass
class SolverState:
    b: np.ndarray
    p: np.ndarray
    q: np.ndarray
    y_p: np.ndarray
    y_q: np.ndarray
    rho: float
    iter: int = 0
    objective_trace: list = field(default_factory=list)


@dataclass(frozen=True)
class Factorization:
    basis: np.ndarray            # m x k, sparse, column-orthonormal
    coeffs: np.ndarray           # k x n
    p_b_achieved: float          # exact-zero fraction of basis
    iterations: int
    converged: bool
    final_objective: float
    objective_trace: tuple = ()


def objective(ztb, b, gamma):
    """-||Z^T B||_F^2 + gamma * (number of nonzero entries of B), given the
    product Z^T B. Nothing is validated: the solve checks its inputs once."""
    return float(-np.sum(ztb**2) + gamma * np.count_nonzero(b))


def init_state(start, rho):
    """B = P = Q = the m x k `start`, zero multipliers, penalty `rho`."""
    zeros = np.zeros(start.shape)
    return SolverState(b=start.copy(), p=start.copy(), q=start.copy(),
                       y_p=zeros, y_q=zeros.copy(), rho=rho)


def kept_entries(target_pb, m, k):
    """Nonzero entries of an m x k basis at zero fraction `target_pb`, rounded."""
    return int(round((1.0 - target_pb) * m * k))


def update_b(state: SolverState, u, rhs, coeff):
    """Solve (2 rho I - 2 Z Z^T) B = rhs, rhs = rho (P + Q) - Y_P - Y_Q.

    `u` is U of the thin SVD of Z and `coeff` the sweep's r x 1 shift
    coefficients 1/(2 rho - 2 s_i^2) - 1/(2 rho); nothing is validated.
    """
    return shifted_gram_apply(u, state.rho, coeff, rhs)


def update_p(state: SolverState, cfg: SolverConfig):
    """P step on A = B + Y_P/rho.

    By default the hard threshold at tau = sqrt(2 gamma / rho). With
    `cfg.target_pb` set, the projection onto the l0 ball instead: keep the
    `kept_entries` largest |A|, ties going to the earlier row-major position,
    and zero the rest. The cut is the keep-th largest |A|, found by a
    partition in O(mk). A kept entry may be zero, so P has at most
    `kept_entries` nonzero entries, and exactly that many when A has.
    """
    shifted = state.b + state.y_p / state.rho
    if cfg.target_pb is None:
        tau = np.sqrt(2.0 * cfg.gamma / state.rho)
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


def update_q(state: SolverState):
    """Nearest column-orthonormal matrix to A = B + Y_Q/rho: A's polar factor.

    With A^T A = V D V^T well conditioned this is the closed form
    A V D^(-1/2) V^T; once A has lost column rank (smallest eigenvalue at
    most 1e-12 of the largest) it is U V^T from A's thin SVD, which is
    defined for any input. Raises FloatingPointError when A^T A overflows
    and NoConvergenceError when `eigh` or the SVD fails.

    The Gram matrix is symmetric by construction, so `eigh` runs on it
    directly, without `sym_eig`'s symmetry check and sign convention: the
    product V D^(-1/2) V^T is bit-identical under any column signs of V, as
    is U V^T under `thin_svd`'s signs. The descending reorder stays a
    fancy-index copy, because the order of V's columns sets the summation
    order of that product.
    """
    shifted = state.b + state.y_q / state.rho
    gram = shifted.T @ shifted
    if not np.isfinite(gram).all():
        raise FloatingPointError("orthogonality projection input overflowed")
    try:
        values, vectors = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    if values[-1] > 1e-12 * max(values[0], 1e-300):
        inv_sqrt = vectors * (values**-0.5)
        return shifted @ (inv_sqrt @ vectors.T)
    try:
        u, _, vt = np.linalg.svd(shifted, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return u @ vt


def update_multipliers(state: SolverState, b_minus_p, b_minus_q, alpha, ceiling):
    """Y_P += rho (B - P); Y_Q += rho (B - Q); rho <- min(rho*alpha, ceiling).

    `b_minus_p` and `b_minus_q` are B - P and B - Q, which the solver loop
    has already formed for its residuals. Returns a new state and leaves the
    input untouched; the new state shares the input's B, P, Q and objective
    trace.
    """
    return SolverState(
        b=state.b,
        p=state.p,
        q=state.q,
        y_p=state.y_p + state.rho * b_minus_p,
        y_q=state.y_q + state.rho * b_minus_q,
        rho=min(state.rho * alpha, ceiling),
        iter=state.iter + 1,
        objective_trace=state.objective_trace,
    )


def _extract(state: SolverState, z, cfg: SolverConfig, converged):
    """Assemble the output factor: Q orthonormalized on P's support.

    Column j is Q's column j on the rows where P's column j is nonzero, less
    its least-squares projection onto the earlier output columns on those
    rows: zero elsewhere, it is orthogonal to each of them. Taken twice, the
    projection holds to rounding ("twice is enough"); a column with nothing
    left stays zero. A basis over 1e-10 from orthonormal is not converged.
    """
    support = state.p != 0.0
    basis = np.zeros_like(state.q)
    for j in range(cfg.k):
        rows = support[:, j]
        earlier = basis[rows, :j]
        v = state.q[rows, j]
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
        iterations=state.iter,
        converged=converged,
        final_objective=objective(z.T @ basis, basis, cfg.gamma),
        objective_trace=tuple(state.objective_trace),
    )


def slrma_solve(z, cfg: SolverConfig):
    """Run the alternating loop on transform-domain data Z.

    Stops once the split residuals ||B-P|| and ||B-Q|| are below tol in the
    max norm and the objective has been flat over the trailing window. Runs
    that exhaust max_iters, or whose iterate overflows, return
    converged=False with diagnostics intact.

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
    m, n = z.shape
    if not 1 <= cfg.k <= min(m, n):
        raise ValueError(f"k={cfg.k} outside [1, {min(m, n)}]")
    if cfg.target_pb is not None:
        keep = kept_entries(cfg.target_pb, m, cfg.k)
        if keep < cfg.k:  # some column of B would have no entry
            raise ValueError(f"p_B {cfg.target_pb} leaves {keep} entries for k={cfg.k}")
    svd = thin_svd(z)
    converged = False
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
        state = init_state(svd.u[:, :cfg.k], ANCHOR_RHO0 * anchor)
        try:
            while state.iter < cfg.max_iters:
                prev_p, prev_q = state.p, state.q
                rho = state.rho
                coeff = 1.0 / (2.0 * rho - two_sig2) - 1.0 / (2.0 * rho)
                rhs = rho * (state.p + state.q) - state.y_p - state.y_q
                state.b = update_b(state, svd.u, rhs, coeff)
                if not np.isfinite(state.b).all():
                    raise FloatingPointError("B overflowed")
                state.p = update_p(state, cfg)
                state.q = update_q(state)
                value = objective(z.T @ state.b, state.b, cfg.gamma)
                if not np.isfinite(value):
                    raise FloatingPointError("objective overflowed")
                state.objective_trace.append(value)
                b_minus_p = state.b - state.p
                b_minus_q = state.b - state.q
                state = update_multipliers(state, b_minus_p, b_minus_q, cfg.alpha, ceiling)
                if np.abs(b_minus_p).max() < cfg.tol and np.abs(b_minus_q).max() < cfg.tol:
                    trace = state.objective_trace
                    if len(trace) >= OBJECTIVE_WINDOW:
                        tail = trace[-OBJECTIVE_WINDOW:]
                        flat = (max(tail) - min(tail)) < cfg.tol * (1.0 + abs(trace[-1]))
                        if flat:
                            converged = True
                            break
        except FloatingPointError:
            # Numerical blow-up (data whose scale puts sigma_1^2 or rho out
            # of floating-point range); report the last sane iterate.
            state.p, state.q = prev_p, prev_q
            return _extract(state, z, cfg, False)
    return _extract(state, z, cfg, converged)


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
