"""The solver as first written, kept as the oracle for `slrma.solver`.

The reference loop validates every step, checks each sweep's shift for a
singular gap, takes update_q through `sym_eig` (symmetry check, sign
convention) with the `thin_svd` polar factor on rank loss, stops only once
rho has passed sigma_1^2, and rebuilds its state each sweep. The production
loop must give the same floating-point iterates, not merely close ones, so
the residual of the B system that the reference measures on every sweep is
the production loop's residual too.
"""

import numpy as np

import slrma.solver as solver_module
from slrma.errors import SlrmaError
from slrma.numerics import as_matrix, shifted_gram_apply, sym_eig, thin_svd
from slrma.solver import init_state, update_multipliers, update_p
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
    return shifted_gram_apply(svd.u, rho, coeff[:, None], m_rhs)


def reference_update_b(state, z, svd=None):
    """Solve (2 rho I - 2 Z Z^T) B = rho (P + Q) - Y_P - Y_Q, all checked."""
    rhs = state.rho * (state.p + state.q) - state.y_p - state.y_q
    return solve_shifted_gram(z, state.rho, rhs, svd=svd)


def reference_objective(z, b, gamma):
    """-||Z^T B||_F^2 + gamma * nnz(B), with Z and B checked."""
    z = as_matrix(z, "Z")
    b = as_matrix(b, "B")
    if b.shape[0] != z.shape[0]:
        raise ValueError("Z and B row counts differ")
    return float(-np.sum((z.T @ b) ** 2) + gamma * np.count_nonzero(b))


def reference_update_q(state, rank_losses=None):
    shifted = state.b + state.y_q / state.rho
    gram = sym_eig(shifted.T @ shifted)
    if gram.values[-1] <= 1e-12 * max(gram.values[0], 1e-300):
        if rank_losses is not None:
            rank_losses.append(state.iter)
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
    state = init_state(svd.u[:, :cfg.k], solver_module.ANCHOR_RHO0 * anchor)
    residuals = []
    converged = False
    while state.iter < cfg.max_iters:
        rho_now = state.rho
        prev_p, prev_q = state.p, state.q
        state.b = reference_update_b(state, z, svd=svd)
        if not np.isfinite(state.b).all():
            state.p, state.q = prev_p, prev_q
            return solver_module._extract(state, z, cfg, False), residuals
        rhs = rho_now * (state.p + state.q) - state.y_p - state.y_q
        residuals.append(b_residual(z, state.b, rho_now, rhs))
        state.p = update_p(state, cfg)
        state.q = reference_update_q(state)
        state.objective_trace.append(reference_objective(z, state.b, cfg.gamma))
        b_minus_p = state.b - state.p
        b_minus_q = state.b - state.q
        state = update_multipliers(state, b_minus_p, b_minus_q, cfg.alpha, ceiling)
        if (np.abs(b_minus_p).max() < cfg.tol and np.abs(b_minus_q).max() < cfg.tol
                and rho_now > top_sq):
            trace = state.objective_trace
            if len(trace) >= solver_module.OBJECTIVE_WINDOW:
                tail = trace[-solver_module.OBJECTIVE_WINDOW:]
                if (max(tail) - min(tail)) < cfg.tol * (1.0 + abs(trace[-1])):
                    converged = True
                    break
    return solver_module._extract(state, z, cfg, converged), residuals


def assert_same_factorization(got, want):
    assert np.array_equal(got.basis, want.basis)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert got.p_b_achieved == want.p_b_achieved
    assert got.final_objective == want.final_objective
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
