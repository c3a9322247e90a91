"""Sparse low-rank factorization via an inexact augmented Lagrangian loop.

Minimizes -||Z^T B||_F^2 + gamma*||B||_0 subject to B^T B = I_k by
alternating closed-form updates of B (shifted linear solve), P (hard
threshold), Q (nearest orthonormal matrix) and the two multipliers, with
the penalty rho growing geometrically each sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoConvergenceError, RankDeficientError, TargetUnreachableError
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


@dataclass(frozen=True)
class SolverConfig:
    gamma: float
    k: int
    rho0: float = 1e-4
    alpha: float = 1.05
    rho_max: float = 1e10
    tol: float = 1e-6
    max_iters: int = 1000
    objective_window: int = 10

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if not 0.0 < self.rho0 <= self.rho_max:
            raise ValueError("need 0 < rho0 <= rho_max")
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


def init_state(m, k, cfg: SolverConfig):
    """Leftmost k columns of the identity for P and Q, zero multipliers."""
    eye_k = np.eye(m)[:, :k].copy()
    zeros = np.zeros((m, k))
    return SolverState(b=eye_k.copy(), p=eye_k, q=eye_k.copy(),
                       y_p=zeros, y_q=zeros.copy(), rho=cfg.rho0)


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
    """Hard threshold of B + Y_P/rho at tau = sqrt(2 gamma / rho)."""
    tau = np.sqrt(2.0 * cfg.gamma / state.rho)
    shifted = state.b + state.y_p / state.rho
    return np.where(np.abs(shifted) > tau, shifted, 0.0)


def update_q(state: SolverState):
    """Nearest column-orthonormal matrix to B + Y_Q/rho.

    Uses the closed form A V D^(-1/2) V^T with A^T A = V D V^T; raises
    RankDeficientError when A loses column rank and FloatingPointError when
    A^T A overflows.

    The Gram matrix is symmetric by construction, so `eigh` runs on it
    directly, without `sym_eig`'s symmetry check and sign convention: the
    product V D^(-1/2) V^T is bit-identical under any column signs of V.
    The descending reorder stays a fancy-index copy, because the order of
    V's columns sets the summation order of that product.
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
    if values[-1] <= 1e-12 * max(values[0], 1e-300):
        raise RankDeficientError("orthogonality projection input lost rank")
    inv_sqrt = vectors * (values**-0.5)
    return shifted @ (inv_sqrt @ vectors.T)


def _polar_orthonormal(shifted):
    """Polar factor via SVD: defined for any input, exactly orthonormal."""
    svd = thin_svd(shifted)
    return svd.u @ svd.v.T


def update_multipliers(state: SolverState, cfg: SolverConfig):
    """Y_P += rho (B - P); Y_Q += rho (B - Q); rho <- min(rho*alpha, rho_max).

    Returns a new state and leaves the input untouched; the new state shares
    the input's B, P, Q and objective trace.
    """
    return SolverState(
        b=state.b,
        p=state.p,
        q=state.q,
        y_p=state.y_p + state.rho * (state.b - state.p),
        y_q=state.y_q + state.rho * (state.b - state.q),
        rho=min(state.rho * cfg.alpha, cfg.rho_max),
        iter=state.iter + 1,
        objective_trace=state.objective_trace,
    )


def _masked_gram_schmidt(basis, support, passes=6, target=1e-10):
    """Re-orthonormalize columns without leaving their zero patterns."""
    q = basis * support
    k = q.shape[1]
    for _ in range(passes):
        for j in range(k):
            v = q[:, j].copy()
            for i in range(j):
                v -= (q[:, i] @ v) * q[:, i]
            v *= support[:, j]
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                return q, False
            q[:, j] = v / norm
        if np.abs(q.T @ q - np.eye(k)).max() < target:
            break
    return q, True


def _extract(state: SolverState, z, cfg: SolverConfig, converged, max_resid):
    """Assemble the output factor: orthonormal Q masked by P's zero pattern."""
    support = state.p != 0.0
    basis = np.where(support, state.q, 0.0)
    k = cfg.k
    ortho_dev = np.abs(basis.T @ basis - np.eye(k)).max()
    if ortho_dev > 1e-8:
        basis, ok = _masked_gram_schmidt(basis, support.astype(np.float64))
        if ok:
            ortho_dev = np.abs(basis.T @ basis - np.eye(k)).max()
        if not ok or ortho_dev > 1e-6:
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


class _ZContext:
    """Everything a solve on Z needs that gamma does not change.

    Z is validated once and its thin SVD taken once. The penalty rho of
    every sweep, with its shifted-solve coefficients, depends on Z and on
    (rho0, alpha, rho_max) only, so every probe of a gamma search walks the
    same schedule: a sweep's entry is built by the first solve that reaches
    it and read back by the others.
    """

    def __init__(self, z, cfg: SolverConfig):
        self.z = as_matrix(z, "Z")
        self.svd = thin_svd(self.z)
        self.sig2 = self.svd.sigma**2
        self.top_sq = float(self.svd.sigma[0] ** 2)
        self.alpha = cfg.alpha
        self.rho_max = cfg.rho_max
        self.rhos = []
        self.coeffs = []  # r x 1 columns for `shifted_gram_apply`
        self.next_rho = cfg.rho0

    def sweep(self, i):
        """(rho, shift coefficients) of sweep `i`, counted from 0.

        Raises SingularShiftError, in every solve that reaches sweep `i`,
        when its rho is numerically on a squared singular value.
        """
        while len(self.rhos) <= i:
            rho = self.next_rho
            # Keep rho a small relative distance away from every squared
            # singular value: at a crossing the shifted system is singular,
            # and even near-misses amplify one mode of B by 1/gap, which the
            # multipliers then take many sweeps to drain. A 2% exclusion
            # zone caps the amplification at ~50x and keeps the B solve
            # comfortably within its residual tolerance.
            for _ in range(64):
                gaps = np.abs(rho - self.sig2)
                scales = np.maximum(rho, self.sig2)
                if (gaps >= 0.01 * scales).all() or rho >= self.rho_max:
                    break
                rho = min(rho * 1.02, self.rho_max)
            coeff = shifted_gram_coeff(self.sig2, rho)
            self.rhos.append(rho)
            self.coeffs.append(coeff[:, None])
            self.next_rho = min(rho * self.alpha, self.rho_max)
        return self.rhos[i], self.coeffs[i]


def slrma_solve(z, cfg: SolverConfig):
    """Run the alternating loop on transform-domain data Z.

    Stops once the split residuals ||B-P|| and ||B-Q|| are below tol in the
    max norm, the objective has been flat over the trailing window, and rho
    has passed the top squared singular value (before that point the B
    system is indefinite and the iterate is not trustworthy). Runs that
    exhaust max_iters, or whose iterate overflows, return converged=False
    with diagnostics intact.

    `gamma_for_sparsity` passes its per-Z context in place of Z, so that
    every probe shares one validation, one SVD and one rho schedule; its
    probes differ from each other in gamma only.
    """
    ctx = z if isinstance(z, _ZContext) else _ZContext(z, cfg)
    z, svd = ctx.z, ctx.svd
    m, n = z.shape
    if not 1 <= cfg.k <= min(m, n):
        raise ValueError(f"k={cfg.k} outside [1, {min(m, n)}]")
    state = init_state(m, cfg.k, cfg)
    window = max(2, cfg.objective_window)
    max_resid = 0.0
    converged = False
    jitter_used = False
    # A blow-up is caught by the finiteness checks on B, the Gram matrix and
    # the objective, so numpy's overflow and invalid-value warnings on the
    # way there say nothing new.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while state.iter < cfg.max_iters:
                prev_p, prev_q = state.p, state.q
                rho_now, coeff = ctx.sweep(state.iter)
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
                try:
                    state.q = update_q(state)
                except RankDeficientError:
                    q = None
                    # Only a jittered B can pass a retry: update_q is
                    # deterministic, so an unchanged input fails again.
                    if not jitter_used:
                        jitter_used = True
                        jitter = np.random.default_rng(0).standard_normal(state.b.shape)
                        state.b = state.b + 1e-10 * max(1.0, np.abs(state.b).max()) * jitter
                        ztb = z.T @ state.b
                        try:
                            q = update_q(state)
                        except RankDeficientError:
                            pass
                    if q is None:
                        # The closed form needs full rank; the SVD polar factor is
                        # the same projection computed stably and is always defined.
                        q = _polar_orthonormal(state.b + state.y_q / state.rho)
                    state.q = q
                value = objective(z, state.b, cfg.gamma, ztb)
                if not np.isfinite(value):
                    raise FloatingPointError("objective overflowed")
                state.objective_trace.append(value)
                r_p = np.abs(state.b - state.p).max()
                r_q = np.abs(state.b - state.q).max()
                state = update_multipliers(state, cfg)
                if r_p < cfg.tol and r_q < cfg.tol and rho_now > ctx.top_sq:
                    trace = state.objective_trace
                    if len(trace) >= window:
                        tail = trace[-window:]
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


def gamma_for_sparsity(z, cfg: SolverConfig, target_pb, tol_pb,
                       probe_log=None, max_bisect=30):
    """Find gamma whose solve lands near the requested zero fraction.

    Brackets by doubling from gamma0 = 1e-8 * lambda_1(Z Z^T) / m, then
    bisects on log gamma. Every probe is a full solve; the best probe (by
    distance to the target) is returned as (gamma, factorization).
    """
    ctx = _ZContext(z, cfg)
    if not 0.0 <= target_pb < 1.0:
        raise ValueError("target_pb must lie in [0, 1)")
    gamma0 = 1e-8 * ctx.top_sq / ctx.z.shape[0]
    probes = []

    def probe(gamma):
        result = slrma_solve(ctx, replace(cfg, gamma=gamma))
        probes.append((gamma, result))
        if probe_log is not None:
            probe_log.append((gamma, result.p_b_achieved))
        return result

    def best():
        # prefer converged probes; among those, closest achieved fraction
        gamma, result = min(
            probes,
            key=lambda p: (not p[1].converged, abs(p[1].p_b_achieved - target_pb)),
        )
        return gamma, result

    result = probe(gamma0)
    if result.converged and abs(result.p_b_achieved - target_pb) <= tol_pb:
        return best()
    if result.p_b_achieved > target_pb:
        raise TargetUnreachableError(
            f"p_B at the bracket minimum is already {result.p_b_achieved:.3f}, "
            f"above target {target_pb:.3f}"
        )
    lo = hi = gamma0
    bracketed = False
    for _ in range(80):
        hi *= 2.0
        result = probe(hi)
        if result.converged and abs(result.p_b_achieved - target_pb) <= tol_pb:
            return best()
        if result.p_b_achieved >= target_pb:
            bracketed = True
            break
        lo = hi
    if not bracketed:
        raise TargetUnreachableError(
            f"could not reach p_B {target_pb:.3f} by doubling gamma "
            f"up to {hi:.3e}"
        )
    for _ in range(max_bisect):
        mid = float(np.sqrt(lo * hi))
        result = probe(mid)
        if result.converged and abs(result.p_b_achieved - target_pb) <= tol_pb:
            return best()
        if result.p_b_achieved < target_pb:
            lo = mid
        else:
            hi = mid
    return best()


def reconstruct(phi: OrthogonalTransform, factorization: Factorization):
    """Map a transform-domain factorization back to the signal domain."""
    product = factorization.basis @ factorization.coeffs
    if phi.size != product.shape[0]:
        raise ValueError("transform size does not match the factorization")
    return phi.inverse(product)
