"""The solver as first written, kept as the oracle for `slrma.solver`.

The reference loop validates every step, takes update_q through `sym_eig`
(symmetry check, sign convention) with the `thin_svd` polar factor on rank
loss, moves rho by the 64-step gap loop on every sweep, and rebuilds its
state each sweep. The production loop must give the same floating-point
iterates, not merely close ones, so the residual of the B system that the
reference measures on every sweep is the production loop's residual too.
"""

from dataclasses import replace

import numpy as np

import slrma.solver as solver_module
from slrma.numerics import (
    as_matrix,
    shifted_gram_apply,
    shifted_gram_coeff,
    sym_eig,
    thin_svd,
)
from slrma.solver import init_state, update_multipliers, update_p


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


def reference_shift(rho, sig2, rho_max):
    """The sweep penalty and r x 1 shift coefficients by the 64-step loop."""
    for _ in range(64):
        gaps = np.abs(rho - sig2)
        scales = np.maximum(rho, sig2)
        if (gaps >= 0.01 * scales).all() or rho >= rho_max:
            break
        rho = min(rho * 1.02, rho_max)
    return rho, shifted_gram_coeff(sig2, rho)[:, None]


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


def reference_solve(z, cfg, rank_losses=None):
    """(factorization, B residual of every sweep) of the reference loop.

    rho0 and rho_max left unset are anchored at sigma_1^2 as `slrma_solve`
    anchors them. Sweeps whose indices land in `rank_losses` took the SVD
    polar branch of the Q step.
    """
    svd = thin_svd(z)
    top_sq = float(svd.sigma[0] ** 2)
    anchor = top_sq if top_sq > 0.0 else 1.0
    cfg = replace(
        cfg,
        rho0=solver_module.ANCHOR_RHO0 * anchor if cfg.rho0 is None else cfg.rho0,
        rho_max=solver_module.ANCHOR_RHO_MAX * anchor if cfg.rho_max is None else cfg.rho_max)
    state = init_state(svd.u[:, :cfg.k], cfg)
    sig2 = svd.sigma**2
    residuals = []
    converged = False
    while state.iter < cfg.max_iters:
        state.rho, _ = reference_shift(state.rho, sig2, cfg.rho_max)
        rho_now = state.rho
        prev_p, prev_q = state.p, state.q
        state.b = reference_update_b(state, z, svd=svd)
        if not np.isfinite(state.b).all():
            state.p, state.q = prev_p, prev_q
            return solver_module._extract(state, z, cfg, False), residuals
        rhs = rho_now * (state.p + state.q) - state.y_p - state.y_q
        residuals.append(b_residual(z, state.b, rho_now, rhs))
        state.p = update_p(state, cfg)
        state.q = reference_update_q(state, rank_losses)
        state.objective_trace.append(reference_objective(z, state.b, cfg.gamma))
        r_p = np.abs(state.b - state.p).max()
        r_q = np.abs(state.b - state.q).max()
        state = update_multipliers(state, cfg)
        if r_p < cfg.tol and r_q < cfg.tol and rho_now > top_sq:
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
