"""Sparse low-rank factorization via an inexact augmented Lagrangian loop.

Minimizes -||Z^T B||_F^2 + gamma*||B||_0 subject to B^T B = I_k by
alternating closed-form updates of B (shifted linear solve), P (hard
threshold), Q (nearest orthonormal matrix) and the two multipliers, with
the penalty rho growing geometrically each sweep. A solve for a sparsity
target instead constrains ||B||_0 to a fixed count: its P step projects
onto that l0 ball. The output basis is Q orthonormalized on P's support;
a solve whose basis is not orthonormal to rounding is not converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoConvergenceError
from .numerics import (
    as_matrix,
    shifted_gram_apply,
    shifted_gram_coeff,
    solve_shifted_gram,
    sym_eig,  # noqa: F401 -- no longer called here; perfbench traces it by this name
    thin_svd,
)
from .transforms import OrthogonalTransform

# Penalty-schedule presets for the two data families.
IMAGE_DEFAULTS = dict(rho0=1e-4, alpha=1.05, rho_max=1e10)
MESH_DEFAULTS = dict(rho0=1e7, alpha=1.003, rho_max=1e12)

# A rho0 or rho_max left unset is this multiple of sigma_1(Z)^2.
ANCHOR_RHO0 = 1.05
ANCHOR_RHO_MAX = 1e6

# Sweeps over which the objective must be flat before a solve may stop.
OBJECTIVE_WINDOW = 10


@dataclass(frozen=True)
class SolverConfig:
    """One solve's settings.

    `rho0` and `rho_max` left as None are anchored at sigma_1^2 of the Z
    being solved (`ANCHOR_RHO0`, `ANCHOR_RHO_MAX`). With `target_pb` set,
    the P step keeps `kept_entries` entries of B (at most that many nonzero)
    and `gamma` only weighs the reported objective.
    """

    gamma: float
    k: int
    rho0: float = None
    alpha: float = 1.05
    rho_max: float = None
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
        if any(r is not None and not r > 0.0 for r in (self.rho0, self.rho_max)):
            raise ValueError("rho0 and rho_max must be positive")
        if None not in (self.rho0, self.rho_max) and self.rho0 > self.rho_max:
            raise ValueError("need rho0 <= rho_max")
        if self.target_pb is not None and not 0.0 <= self.target_pb < 1.0:
            raise ValueError("target_pb must lie in [0, 1)")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")

    @classmethod
    def for_images(cls, gamma, k, **overrides):
        return cls(gamma=gamma, k=k, **{**IMAGE_DEFAULTS, **overrides})

    @classmethod
    def for_meshes(cls, gamma, k, **overrides):
        return cls(gamma=gamma, k=k, **{**MESH_DEFAULTS, **overrides})


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
    max_b_residual: float = 0.0  # worst relative residual of the B solves


def objective(z, b, gamma, ztb=None):
    """-||Z^T B||_F^2 + gamma * (number of nonzero entries of B).

    The solver loop passes the product Z^T B it has already formed as
    ``ztb``; its inputs are checked once per solve, so nothing is validated
    here in that case.
    """
    if ztb is None:
        z = as_matrix(z, "Z")
        b = as_matrix(b, "B")
        if b.shape[0] != z.shape[0]:
            raise ValueError("Z and B row counts differ")
        ztb = z.T @ b
    return float(-np.sum(ztb**2) + gamma * np.count_nonzero(b))


def init_state(m, k, cfg: SolverConfig, start=None):
    """B = P = Q = `start` (default: the leftmost k identity columns), zero multipliers."""
    if start is None:
        start = np.eye(m)[:, :k]
    zeros = np.zeros((m, k))
    return SolverState(b=start.copy(), p=start.copy(), q=start.copy(),
                       y_p=zeros, y_q=zeros.copy(), rho=cfg.rho0)


def kept_entries(target_pb, m, k):
    """Nonzero entries of an m x k basis at zero fraction `target_pb`, rounded."""
    return int(round((1.0 - target_pb) * m * k))


def update_b(state: SolverState, z, svd=None, rhs=None, coeff=None):
    """Solve (2 rho I - 2 Z Z^T) B = rho (P + Q) - Y_P - Y_Q.

    The solver loop passes the right-hand side it has already built, the
    thin SVD of Z and the rho schedule's shift coefficients (an r x 1
    column); the solve then skips validation. Without them Z and the
    system are checked as in `solve_shifted_gram`.
    """
    if rhs is None:
        rhs = state.rho * (state.p + state.q) - state.y_p - state.y_q
    if coeff is None:
        return solve_shifted_gram(z, state.rho, rhs, svd=svd)
    return shifted_gram_apply(svd.u, state.rho, coeff, rhs)


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


def update_multipliers(state: SolverState, cfg: SolverConfig, b_minus_p=None,
                       b_minus_q=None):
    """Y_P += rho (B - P); Y_Q += rho (B - Q); rho <- min(rho*alpha, rho_max).

    The solver loop passes the differences B - P and B - Q it has already
    formed for its residuals. Returns a new state and leaves the input
    untouched; the new state shares the input's B, P, Q and objective trace.
    """
    if b_minus_p is None:
        b_minus_p = state.b - state.p
    if b_minus_q is None:
        b_minus_q = state.b - state.q
    return SolverState(
        b=state.b,
        p=state.p,
        q=state.q,
        y_p=state.y_p + state.rho * b_minus_p,
        y_q=state.y_q + state.rho * b_minus_q,
        rho=min(state.rho * cfg.alpha, cfg.rho_max),
        iter=state.iter + 1,
        objective_trace=state.objective_trace,
    )


def _extract(state: SolverState, z, cfg: SolverConfig, converged, max_resid):
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
        final_objective=objective(z, basis, cfg.gamma),
        objective_trace=tuple(state.objective_trace),
        max_b_residual=max_resid,
    )


def _shift(rho, sig2, rho_max):
    """Sweep penalty `rho` moved clear of every squared singular value, with
    its r x 1 shift coefficients for `shifted_gram_apply`.

    At a crossing the shifted system is singular, and even near-misses
    amplify one mode of B by 1/gap, which the multipliers then take many
    sweeps to drain. A 2% exclusion zone caps the amplification at ~50x and
    keeps the B solve comfortably within its residual tolerance. Raises
    SingularShiftError when rho_max leaves rho numerically on a squared
    singular value.
    """
    for _ in range(64):
        gaps = np.abs(rho - sig2)
        scales = np.maximum(rho, sig2)
        if (gaps >= 0.01 * scales).all() or rho >= rho_max:
            break
        rho = min(rho * 1.02, rho_max)
    return rho, shifted_gram_coeff(sig2, rho)[:, None]


def slrma_solve(z, cfg: SolverConfig):
    """Run the alternating loop on transform-domain data Z.

    Stops once the split residuals ||B-P|| and ||B-Q|| are below tol in the
    max norm, the objective has been flat over the trailing window, and rho
    has passed the top squared singular value (before that point the B
    system is indefinite and the iterate is not trustworthy). Runs that
    exhaust max_iters, or whose iterate overflows, return converged=False
    with diagnostics intact.

    A gamma solve starts from the identity columns; a `target_pb` solve
    starts from the top-k left singular vectors of Z. A rho0 or rho_max
    left unset is anchored at sigma_1^2 of Z.
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
    sig2 = svd.sigma**2
    top_sq = float(svd.sigma[0] ** 2)
    anchor = top_sq if top_sq > 0.0 else 1.0  # an all-zero Z has no scale
    cfg = replace(cfg,
                  rho0=ANCHOR_RHO0 * anchor if cfg.rho0 is None else cfg.rho0,
                  rho_max=ANCHOR_RHO_MAX * anchor if cfg.rho_max is None else cfg.rho_max)
    start = None if cfg.target_pb is None else svd.u[:, :cfg.k]
    state = init_state(m, cfg.k, cfg, start)
    max_resid = 0.0
    converged = False
    # A blow-up is caught by the finiteness checks on B, the Gram matrix and
    # the objective, so numpy's overflow and invalid-value warnings on the
    # way there say nothing new.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while state.iter < cfg.max_iters:
                prev_p, prev_q = state.p, state.q
                rho_now, coeff = _shift(state.rho, sig2, cfg.rho_max)
                state.rho = rho_now
                rhs = rho_now * (state.p + state.q) - state.y_p - state.y_q
                state.b = update_b(state, z, svd, rhs=rhs, coeff=coeff)
                if not np.isfinite(state.b).all():
                    raise FloatingPointError("B overflowed")
                # Residual of the defining system, computed from Z itself so the
                # check stays independent of the SVD shortcut used in the solve.
                ztb = z.T @ state.b
                applied = 2.0 * rho_now * state.b - 2.0 * (z @ ztb)
                rel = np.abs(applied - rhs).max() / max(np.abs(rhs).max(), 1e-300)
                max_resid = max(max_resid, float(rel))
                state.p = update_p(state, cfg)
                state.q = update_q(state)
                value = objective(z, state.b, cfg.gamma, ztb)
                if not np.isfinite(value):
                    raise FloatingPointError("objective overflowed")
                state.objective_trace.append(value)
                b_minus_p = state.b - state.p
                b_minus_q = state.b - state.q
                r_p = np.abs(b_minus_p).max()
                r_q = np.abs(b_minus_q).max()
                state = update_multipliers(state, cfg, b_minus_p, b_minus_q)
                if r_p < cfg.tol and r_q < cfg.tol and rho_now > top_sq:
                    trace = state.objective_trace
                    if len(trace) >= OBJECTIVE_WINDOW:
                        tail = trace[-OBJECTIVE_WINDOW:]
                        flat = (max(tail) - min(tail)) < cfg.tol * (1.0 + abs(trace[-1]))
                        if flat:
                            converged = True
                            break
        except FloatingPointError:
            # Numerical blow-up (possible when the penalty schedule dwells near
            # or below a data singular value); report the last sane iterate.
            state.p, state.q = prev_p, prev_q
            return _extract(state, z, cfg, False, max_resid)
    return _extract(state, z, cfg, converged, max_resid)


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
