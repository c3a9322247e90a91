"""Sparse low-rank factorization via an inexact augmented Lagrangian loop.

Minimizes -||Z^T B||_F^2 + gamma*||B||_0 subject to B^T B = I_k by
alternating closed-form updates of B (shifted linear solve), P (hard
threshold), Q (nearest orthonormal matrix) and the two multipliers, with
the penalty rho growing geometrically each sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoConvergenceError, TargetUnreachableError
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

# Bisection steps of the gamma search after the bracket is found.
MAX_BISECT = 30


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

    Gamma enters a sweep only through the P step's threshold
    tau = sqrt(2 gamma / rho), so until P first has a nonzero entry every
    probe computes the same iterates. That all-zero-P stretch, the trunk, is
    run once per search. For each trunk sweep the context keeps what a probe
    needs to skip it: max|B + Y_P/rho|, -||Z^T B||^2, nnz(B) and the largest
    B residual so far. It also keeps the start-of-sweep state (B, Q, Y_P,
    Y_Q) at the two deepest sweeps where a probe left the trunk, as
    references, not copies, because the loop never writes an array in
    place. A probe resumes from the deepest kept state its gamma is valid
    for (`resume`); a probe that reaches the trunk's end with P still zero
    extends it. The context serves solves whose config equals its own apart
    from gamma.
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
        self.trunk = []        # per sweep: max|B + Y_P/rho|, -||Z^T B||^2, nnz(B), max resid
        self.checkpoints = []  # (sweep, its start (B, Q, Y_P, Y_Q)), ascending, at most two

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

    def resume(self, cfg: SolverConfig):
        """Start state and max B residual for a solve at `cfg.gamma`.

        The solve may skip trunk sweep i exactly when max|B + Y_P/rho| there
        is at most its own threshold, the comparison `update_p` makes, so P
        is all-zero at i for this gamma too. It starts at the deepest kept
        state within the sweeps it may skip, with the objective trace of the
        sweeps before it rebuilt by `objective`'s arithmetic.
        """
        trace = []
        for i, (s_max, neg_sq, nnz, _) in enumerate(self.trunk[: cfg.max_iters]):
            if not s_max <= np.sqrt(2.0 * cfg.gamma / self.rhos[i]):
                break
            value = float(neg_sq + cfg.gamma * nnz)
            if not np.isfinite(value):
                break  # the solve raises on this sweep's objective
            trace.append(value)
        start = [c for c in self.checkpoints if c[0] <= len(trace)]
        if not start:
            return init_state(self.z.shape[0], cfg.k, cfg), 0.0
        i, (b, q, y_p, y_q) = start[-1]
        state = SolverState(b=b, p=np.zeros_like(b), q=q, y_p=y_p, y_q=y_q,
                            rho=self.rhos[i], iter=i, objective_trace=trace[:i])
        return state, self.trunk[i - 1][3]

    def extend(self, state: SolverState, ztb, max_resid):
        """Append the sweep `state` just ran from the trunk's end with P zero."""
        s_max = np.abs(state.b + state.y_p / state.rho).max()
        self.trunk.append((s_max, -np.sum(ztb**2), np.count_nonzero(state.b), max_resid))

    def leave(self, i, start):
        """Keep `start`, the state at sweep i where a solve left the trunk."""
        if i > 0 and all(c[0] != i for c in self.checkpoints):
            self.checkpoints = sorted([*self.checkpoints, (i, start)],
                                      key=lambda c: c[0])[-2:]


def slrma_solve(z, cfg: SolverConfig):
    """Run the alternating loop on transform-domain data Z.

    Stops once the split residuals ||B-P|| and ||B-Q|| are below tol in the
    max norm, the objective has been flat over the trailing window, and rho
    has passed the top squared singular value (before that point the B
    system is indefinite and the iterate is not trustworthy). Runs that
    exhaust max_iters, or whose iterate overflows, return converged=False
    with diagnostics intact.

    `gamma_for_sparsity` passes its per-Z context in place of Z, so that
    every probe shares one validation, one SVD, one rho schedule and the
    sweeps run before P first has a nonzero entry; its probes differ from
    each other in gamma only.
    """
    ctx = z if isinstance(z, _ZContext) else _ZContext(z, cfg)
    z, svd = ctx.z, ctx.svd
    m, n = z.shape
    if not 1 <= cfg.k <= min(m, n):
        raise ValueError(f"k={cfg.k} outside [1, {min(m, n)}]")
    state, max_resid = ctx.resume(cfg)
    on_trunk = True  # every sweep so far had P all-zero
    window = max(2, cfg.objective_window)
    converged = False
    # A blow-up is caught by the finiteness checks on B, the Gram matrix and
    # the objective, so numpy's overflow and invalid-value warnings on the
    # way there say nothing new.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while state.iter < cfg.max_iters:
                prev_p, prev_q = state.p, state.q
                start = (state.b, state.q, state.y_p, state.y_q)
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
                state.q = update_q(state)
                value = objective(z, state.b, cfg.gamma, ztb)
                if not np.isfinite(value):
                    raise FloatingPointError("objective overflowed")
                state.objective_trace.append(value)
                b_minus_p = state.b - state.p
                b_minus_q = state.b - state.q
                r_p = np.abs(b_minus_p).max()
                r_q = np.abs(b_minus_q).max()
                may_stop = r_p < cfg.tol and r_q < cfg.tol and rho_now > ctx.top_sq
                if on_trunk:
                    if state.p.any():
                        ctx.leave(state.iter, start)
                        on_trunk = False
                    elif may_stop:
                        on_trunk = False  # whether it stops depends on gamma
                    elif state.iter == len(ctx.trunk):
                        ctx.extend(state, ztb, max_resid)
                state = update_multipliers(state, cfg, b_minus_p, b_minus_q)
                if may_stop:
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


def gamma_for_sparsity(z, cfg: SolverConfig, target_pb, tol_pb, probe_log=None):
    """Find gamma whose solve lands near the requested zero fraction.

    Brackets by doubling from gamma0 = 1e-8 * lambda_1(Z Z^T) / m, then
    bisects on log gamma. Every probe is a full solve; the best probe (by
    distance to the target) is returned as (gamma, factorization).
    """
    if not 0.0 <= target_pb < 1.0:
        raise ValueError("target_pb must lie in [0, 1)")
    ctx = _ZContext(z, cfg)
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
    for _ in range(MAX_BISECT):
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
