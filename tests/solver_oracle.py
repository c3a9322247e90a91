"""The solver as first written, kept as the oracle for `slrma.solver`.

The reference loop validates every step, checks each sweep's shift for a
singular gap, takes update_q through `sym_eig` (symmetry check, sign
convention) with the `thin_svd` polar factor on rank loss, and stops only
once rho has passed sigma_1^2. The production
loop must give the same floating-point iterates, not merely close ones, so
the residual of the B system that the reference measures on every sweep is
the production loop's residual too.
"""

import numpy as np

import slrma.solver as solver_module
from slrma.errors import SlrmaError
from slrma.numerics import as_matrix, sym_eig, thin_svd
from slrma.solver import update_b, update_multipliers, update_p
from slrma.transforms import KIND_IDENTITY, OrthogonalTransform


class SingularShiftError(SlrmaError):
    """2*rho coincides with a squared singular value."""


def identity(m):
    """The m x m identity transform: the transform domain is the signal's."""
    return OrthogonalTransform(np.eye(m), KIND_IDENTITY, (m,))


def shifted_gram_coeff(sig2, rho):
    """Per-singular-value coefficients 1/(2 rho - 2 s_i^2) - 1/(2 rho).

    Raises SingularShiftError when 2*rho is within a 1e-10 relative gap of
    some 2*s_i^2, where the shifted system is numerically singular.
    """
    denom = 2.0 * rho - 2.0 * sig2
    gap_floor = 1e-10 * max(2.0 * rho, 2.0 * float(sig2[0]))
    if np.abs(denom).min() < gap_floor:
        raise SingularShiftError(
            "2*rho is within the relative gap of a squared singular value"
        )
    return 1.0 / denom - 1.0 / (2.0 * rho)


def solve_shifted_gram(z, rho, m_rhs, svd=None):
    """Solve (2*rho*I - 2*Z*Z^T) W = M with Z and the system checked.

    Pass a precomputed ``svd`` of Z to reuse it across solves with one Z.
    """
    z = as_matrix(z, "Z")
    m_rhs = as_matrix(m_rhs, "M")
    if m_rhs.shape[0] != z.shape[0]:
        raise ValueError(f"M has {m_rhs.shape[0]} rows, expected {z.shape[0]}")
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    if svd is None:
        svd = thin_svd(z)
    coeff = shifted_gram_coeff(svd.sigma**2, rho)
    return update_b(svd.u, coeff[:, None], rho, m_rhs)


def reference_objective(z, b, gamma):
    """-||Z^T B||_F^2 + gamma * nnz(B), with Z and B checked."""
    z = as_matrix(z, "Z")
    b = as_matrix(b, "B")
    if b.shape[0] != z.shape[0]:
        raise ValueError("Z and B row counts differ")
    return float(-np.sum((z.T @ b) ** 2) + gamma * np.count_nonzero(b))


def reference_update_q(b, y_q, rho, rank_losses=None):
    """The Q step through `sym_eig`; appends rho to `rank_losses` when it
    takes the SVD branch."""
    shifted = b + y_q / rho
    gram = sym_eig(shifted.T @ shifted)
    if gram.values[-1] <= 1e-12 * max(gram.values[0], 1e-300):
        if rank_losses is not None:
            rank_losses.append(rho)
        polar = thin_svd(shifted)
        return polar.u @ polar.v.T
    inv_sqrt = gram.vectors * (gram.values**-0.5)
    return shifted @ (inv_sqrt @ gram.vectors.T)


def b_residual(z, b, rho, rhs):
    """Max-norm residual of (2 rho I - 2 Z Z^T) B = rhs relative to rhs,
    formed from Z itself so it is independent of the SVD form of the solve."""
    applied = 2.0 * rho * b - 2.0 * (z @ (z.T @ b))
    return float(np.abs(applied - rhs).max() / max(np.abs(rhs).max(), 1e-300))


def reference_solve(z, cfg):
    """(factorization, B residual of every sweep) of the reference loop,
    on the penalty schedule `slrma_solve` anchors at sigma_1^2."""
    svd = thin_svd(z)
    top_sq = float(svd.sigma[0] ** 2)
    anchor = top_sq if top_sq > 0.0 else 1.0
    ceiling = solver_module.ANCHOR_RHO_MAX * anchor
    rho = solver_module.ANCHOR_RHO0 * anchor
    p = q = svd.u[:, :cfg.k]
    y_p = y_q = np.zeros(p.shape)
    objectives = []
    residuals = []
    converged = False
    while len(objectives) < solver_module.MAX_ITERS:
        rhs = rho * (p + q) - y_p - y_q
        b = solve_shifted_gram(z, rho, rhs, svd=svd)
        if not np.isfinite(b).all():
            break
        residuals.append(b_residual(z, b, rho, rhs))
        p = update_p(b, y_p, rho, cfg)
        q = reference_update_q(b, y_q, rho)
        objectives.append(reference_objective(z, b, cfg.gamma))
        b_minus_p = b - p
        b_minus_q = b - q
        y_p, y_q = update_multipliers(y_p, y_q, rho, b_minus_p, b_minus_q)
        rho_now, rho = rho, min(rho * cfg.alpha, ceiling)
        if (np.abs(b_minus_p).max() < solver_module.TOL
                and np.abs(b_minus_q).max() < solver_module.TOL
                and rho_now > top_sq):
            if len(objectives) >= solver_module.OBJECTIVE_WINDOW:
                tail = objectives[-solver_module.OBJECTIVE_WINDOW:]
                if max(tail) - min(tail) < solver_module.TOL * (1.0 + abs(objectives[-1])):
                    converged = True
                    break
    fact = solver_module._extract(p, q, z, cfg, len(objectives), converged, objectives)
    return fact, residuals


def assert_same_factorization(got, want):
    assert np.array_equal(got.basis, want.basis)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert got.p_b_achieved == want.p_b_achieved
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.objective_trace == want.objective_trace


def checked_solve(z, cfg):
    """`slrma_solve(z, cfg)` tied bit for bit to the reference loop, with the
    worst B residual over every sweep of that loop.

    The residual list has one entry per sweep, so a solve of n sweeps cannot
    report a residual it never measured.
    """
    got = solver_module.slrma_solve(z, cfg)
    want, residuals = reference_solve(z, cfg)
    assert_same_factorization(got, want)
    assert len(residuals) == got.iterations > 0
    return got, max(residuals)


def checked_stack_solve(z, cfg, oracle=True):
    """`slrma_solve` of an s x m x n stack `z`, each slice tied bit for bit to
    the 2-D solve of that slice: basis, coeffs, p_B, iterations, converged
    flag and objective trace, as `_extract` builds them inside the stacked
    solve. With `oracle`, each 2-D solve is tied to the reference loop too.

    Returns (the stacked factorization, the 2-D factorizations).
    """
    built = []
    extract = solver_module._extract

    def spy(*args):
        built.append(extract(*args))
        return built[-1]

    solver_module._extract = spy
    try:
        got = solver_module.slrma_solve(z, cfg)
    finally:
        solver_module._extract = extract
    alone = [solver_module.slrma_solve(a, cfg) for a in z]
    assert len(built) == len(alone)
    for fact, want in zip(built, alone):
        assert_same_factorization(fact, want)
    if oracle:
        with np.errstate(all="ignore"):  # the reference meets blow-ups unguarded
            for a, want in zip(z, alone):
                assert_same_factorization(want, reference_solve(a, cfg)[0])
    assert np.array_equal(got.basis, np.stack([f.basis for f in alone]))
    assert np.array_equal(got.coeffs, np.stack([f.coeffs for f in alone]))
    nnz = sum(np.count_nonzero(f.basis) for f in alone)
    assert got.p_b_achieved == 1.0 - nnz / got.basis.size
    assert got.iterations == max(f.iterations for f in alone)
    assert got.converged == all(f.converged for f in alone)
    assert got.objective_trace == tuple(f.objective_trace for f in alone)
    return got, alone
