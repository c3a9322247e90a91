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

The loop solves an s x m x n stack of same-shape Z as one s x m x k
iterate, each slice on its own penalty schedule; every step acts slice by
slice. A lone m x n Z runs as a stack of one and returns a 2-D result. A
slice leaves the stack at the sweep where its own solve converges or runs
out of sweeps, with that solve's outcome. A sweep that fails on some slice
(a blow-up or a LAPACK failure) while two or more are active ends the
stacked loop, and every slice is solved again as a stack of one. So each
slice gets bit for bit what solving it alone gives, which three roundings
would break:
- sigma_1^2 is each slice's numpy-scalar power `float(sigma[0] ** 2)`: an
  array square `sigma**2` differs from it in the last bit for a few values.
- `update_q` raises the Gram eigenvalues to -1/2 as a contiguous array:
  numpy's power rounds a reversed view differently from a contiguous copy,
  while a contiguous stack rounds each row as the row alone.
- `update_q` keeps the closed-form polar factor only for slices that have
  kept their column rank, and forms it under `np.errstate` when a slice
  has not, so a rank-lost slice raises no warning.

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
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if self.k < 1:
            raise ValueError("k must be positive")
        if not self.alpha > 1.0:
            raise ValueError("alpha must exceed 1")
        if self.target_pb is not None and not 0.0 <= self.target_pb < 1.0:
            raise ValueError("target_pb must lie in [0, 1)")


@dataclass(frozen=True)
class Factorization:
    """One solve's result; a stack's arrays carry its leading slice axis.

    A stack's `p_b_achieved` is taken over every entry, `iterations` is the
    most any slice ran, `converged` holds when every slice converged, and
    `objective_trace` holds one trace per slice.
    """

    basis: np.ndarray            # m x k (s x m x k), sparse, column-orthonormal
    coeffs: np.ndarray           # k x n (s x k x n)
    iterations: int
    converged: bool
    objective_trace: tuple = ()

    @property
    def p_b_achieved(self):
        """The exact-zero fraction of the basis."""
        return float(1.0 - np.count_nonzero(self.basis) / self.basis.size)


def objective(ztb, b, gamma):
    """-||Z^T B||_F^2 + gamma * (number of nonzero entries of B), given the
    product Z^T B; one value per slice of a stack. Nothing is validated: the
    solve checks its inputs once."""
    return (-np.add.reduce(ztb**2, axis=(-2, -1))
            + gamma * np.add.reduce(b != 0.0, axis=(-2, -1)))


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
    return rhs / (2.0 * rho) + u @ (coeff * (u.swapaxes(-1, -2) @ rhs))


def update_p(b, y_p, rho, cfg: SolverConfig):
    """P step on A = B + Y_P/rho, slice by slice.

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
    keep = kept_entries(cfg.target_pb, *shifted.shape[-2:])
    mags = np.abs(shifted).reshape(shifted.shape[:-2] + (-1,))
    part = mags.copy()
    part.partition(-keep)  # along each slice
    cut = part[..., -keep, None]  # the keep-th largest |A| of each slice
    kept = mags >= cut  # `keep` entries of each slice, more where |A| ties at the cut
    if np.count_nonzero(kept) > keep * (kept.size // mags.shape[-1]):
        above = mags > cut  # then the earliest ties fill each slice up to `keep`
        ties = kept & ~above
        room = keep - np.count_nonzero(above, axis=-1, keepdims=True)
        kept = above | (ties & (np.cumsum(ties, axis=-1) <= room))
    return np.where(kept.reshape(shifted.shape), shifted, 0.0)


def update_q(b, y_q, rho):
    """Nearest column-orthonormal matrix to A = B + Y_Q/rho: A's polar
    factor, slice by slice.

    With A^T A = V D V^T well conditioned this is the closed form
    A V D^(-1/2) V^T; once A has lost column rank (smallest eigenvalue at
    most 1e-12 of the largest) it is U V^T from A's thin SVD, which is
    defined for any input. Raises FloatingPointError when A^T A is not
    finite and LinAlgError when `eigh` or the SVD fails. On a stack either
    names no slice, so the solver then solves each slice alone.

    The Gram matrix is symmetric by construction, so `eigh` runs on it
    directly, without `sym_eig`'s symmetry check and sign convention: the
    product V D^(-1/2) V^T is bit-identical under any column signs of V, as
    is U V^T under `thin_svd`'s signs. The order of V's columns sets the
    summation order of that product, so the descending reorder is `eigh`'s
    ascending order reversed into contiguous copies, and a stable sort of
    the values only where two of them are exactly tied.
    """
    shifted = b + y_q / rho
    gram = shifted.swapaxes(-1, -2) @ shifted
    if not np.isfinite(gram).all():
        raise FloatingPointError("orthogonality projection input overflowed")
    values, vectors = np.linalg.eigh(gram)
    if np.count_nonzero(values[..., 1:] == values[..., :-1]):  # ties keep eigh's order
        order = np.argsort(-values, axis=-1, kind="stable")
        values = np.take_along_axis(values, order, axis=-1)
        vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    else:
        values = values[..., ::-1].copy()
        vectors = vectors[..., ::-1].copy()
    rank_lost = values[..., -1] <= 1e-12 * np.maximum(values[..., 0], 1e-300)
    if not np.count_nonzero(rank_lost):
        return _closed_polar(shifted, values, vectors)
    u, _, vt = np.linalg.svd(shifted, full_matrices=False)
    # a rank-lost slice's D^(-1/2) divides by zero; its closed form is dropped
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        closed = _closed_polar(shifted, values, vectors)
    return np.where(rank_lost[..., None, None], u @ vt, closed)


def _closed_polar(shifted, values, vectors):
    """A V D^(-1/2) V^T, given D's diagonal `values` as a contiguous array."""
    inv_sqrt = vectors * (values**-0.5)[..., None, :]
    return shifted @ (inv_sqrt @ vectors.swapaxes(-1, -2))


def update_multipliers(y_p, y_q, rho, b_minus_p, b_minus_q):
    """(Y_P + rho (B - P), Y_Q + rho (B - Q)), as new arrays.

    `b_minus_p` and `b_minus_q` are B - P and B - Q, which the solver loop
    has already formed for its residuals.
    """
    return y_p + rho * b_minus_p, y_q + rho * b_minus_q


def _extract(p, q, z, cfg: SolverConfig, iterations, converged, objectives):
    """Assemble one slice's output factor: Q orthonormalized on P's support.

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
    return Factorization(
        basis=basis,
        coeffs=basis.T @ z,
        iterations=iterations,
        converged=converged,
        objective_trace=tuple(objectives),
    )


def slrma_solve(z, cfg: SolverConfig):
    """Run the alternating loop on transform-domain data Z, m x n, or on an
    s x m x n stack of them.

    Stops once the split residuals ||B-P|| and ||B-Q|| are below TOL in the
    max norm and the objective has been flat over the trailing window. Runs
    that exhaust MAX_ITERS, whose iterate overflows, or whose Q step LAPACK
    fails to decompose, return converged=False with diagnostics intact. A
    stack's slices each stop by this rule; a stack one of whose slices fails
    is solved again slice by slice, so that each slice still gets its lone
    solve's outcome. A stack returns one Factorization (see there).

    Every solve starts from the top-k left singular vectors of Z, on the
    penalty schedule anchored at sigma_1^2 of Z. That schedule keeps rho
    above sigma_1^2, where the B system is positive definite, on every sweep
    that reaches the stop test, so the test need not check it: for an
    all-zero Z or a normal sigma_1^2, rho starts above sigma_1^2 and never
    falls; for a subnormal or infinite sigma_1^2 the top shift coefficient
    is not finite, so the first sweep's B is not finite and the solve stops
    there as a blow-up.
    """
    z = np.asarray(z, dtype=np.float64)
    zs = [as_matrix(a, "Z") for a in z] if z.ndim == 3 else [as_matrix(z, "Z")]
    if not zs:
        raise ValueError("Z is an empty stack")
    check_rank(*zs[0].shape, cfg.k, cfg.target_pb)
    svds = [thin_svd(a) for a in zs]
    # A blow-up is caught by the finiteness checks on the objective and on
    # the Q step's Gram matrix, which a non-finite B makes non-finite, so
    # numpy's warnings on the way say nothing new: overflow (sigma^2 of data
    # near the top of the float range, or rho), invalid values (inf - inf)
    # and division by a zero gap between 2 rho and 2 sigma_1^2 (a subnormal
    # sigma_1^2 that 1.05 does not move).
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        outcomes = _sweeps(zs, svds, cfg)
        if outcomes is None:  # some slice failed: solve each slice alone
            outcomes = [out for a, svd in zip(zs, svds) for out in _sweeps([a], [svd], cfg)]
    facts = [_extract(p, q, a, cfg, *stop) for a, (p, q, *stop) in zip(zs, outcomes)]
    if z.ndim == 2:
        return facts[0]
    return Factorization(
        basis=np.stack([f.basis for f in facts]),
        coeffs=np.stack([f.coeffs for f in facts]),
        iterations=max(f.iterations for f in facts),
        converged=all(f.converged for f in facts),
        objective_trace=tuple(f.objective_trace for f in facts),
    )


def _sweeps(zs, svds, cfg: SolverConfig):
    """The loop over the slices `zs`, given their thin SVDs: one (P, Q,
    iterations, converged, objectives) per slice, as that slice stops, or
    None once a sweep fails while two or more slices are active.

    The iterate always has a leading slice axis, one slice for a lone Z,
    and is indexed only when a slice stops. A lone slice that fails stops
    with its last sane iterate, not converged.
    """
    # the numpy-scalar power, as a lone solve of each slice takes it
    top_sq = np.array([float(svd.sigma[0] ** 2) for svd in svds])
    # an all-zero Z has no scale
    anchor = np.where(top_sq > 0.0, top_sq, 1.0)[:, None, None]
    z = np.stack(zs)
    u = np.stack([svd.u for svd in svds])
    two_sig2 = 2.0 * (np.stack([svd.sigma for svd in svds]) ** 2)[..., None]
    # rho_t = min(rho_(t-1) alpha, cap): min(ANCHOR_RHO0 anchor alpha^t, cap)
    # with the products taken in sequence
    rho = ANCHOR_RHO0 * anchor
    cap = ANCHOR_RHO_MAX * anchor
    # no step writes into its inputs, so the iterate shares its arrays
    p = q = u[..., :cfg.k]
    y_p = y_q = np.zeros(p.shape)
    objectives = np.empty((len(zs), MAX_ITERS))  # one per completed sweep
    active = np.arange(len(zs))  # slice numbers
    outcomes = [None] * len(zs)
    sweeps = 0
    while sweeps < MAX_ITERS:
        coeff = 1.0 / (2.0 * rho - two_sig2) - 1.0 / (2.0 * rho)
        b = update_b(u, coeff, rho, rho * (p + q) - y_p - y_q)
        new_p = update_p(b, y_p, rho, cfg)
        try:
            new_q = update_q(b, y_q, rho)
        except (FloatingPointError, np.linalg.LinAlgError):
            new_q = None
        value = objective(z.swapaxes(-1, -2) @ b, b, cfg.gamma)
        if new_q is None or np.count_nonzero(value - value):  # 0 where finite
            # A blow-up (data whose scale puts sigma_1^2 or rho out of
            # floating-point range) or a LAPACK failure in the Q step. A
            # stack hands back, to be solved slice by slice; a lone slice
            # reports its last sane iterate, not converged.
            if len(active) > 1:
                return None
            break
        p, q = new_p, new_q
        objectives[:, sweeps] = value
        sweeps += 1
        b_minus_p = b - p
        b_minus_q = b - q
        y_p, y_q = update_multipliers(y_p, y_q, rho, b_minus_p, b_minus_q)
        done = np.abs(b_minus_p).max(axis=(-2, -1)) < TOL
        if np.count_nonzero(done) and sweeps >= OBJECTIVE_WINDOW:
            done &= np.abs(b_minus_q).max(axis=(-2, -1)) < TOL
            tail = objectives[:, sweeps - OBJECTIVE_WINDOW:sweeps]
            done &= tail.max(axis=-1) - tail.min(axis=-1) < TOL * (1.0 + np.abs(value))
            if np.count_nonzero(done):
                _record(outcomes, done, active, p, q, objectives, sweeps, True)
                if done.all():
                    return outcomes
                (z, u, two_sig2, rho, cap, p, q, y_p, y_q, objectives, active) = [
                    a[~done] for a in (z, u, two_sig2, rho, cap, p, q, y_p, y_q,
                                       objectives, active)]
        rho = np.minimum(rho * cfg.alpha, cap)
    _record(outcomes, np.ones(len(active), bool), active, p, q, objectives, sweeps, False)
    return outcomes


def _record(outcomes, mask, active, p, q, objectives, sweeps, converged):
    """Store the outcome of every active slice that `mask` marks."""
    for at in np.flatnonzero(mask):
        outcomes[active[at]] = (p[at], q[at], sweeps, converged,
                                objectives[at, :sweeps].tolist())


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
    """Map a transform-domain factorization back to the signal domain; a
    stacked one slice by slice."""
    product = factorization.basis @ factorization.coeffs
    if phi.size != product.shape[-2]:
        raise ValueError("transform size does not match the factorization")
    if product.ndim == 3:
        return np.stack([phi.inverse(a) for a in product])
    return phi.inverse(product)
