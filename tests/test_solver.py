from dataclasses import replace

import numpy as np
import pytest

import slrma.solver as solver_module
from slrma.codec import CodecParams, compress_mesh_seq
from slrma.datasets import synth_image_set, synth_mesh_seq
from slrma.errors import NotConvergedError, RankDeficientError, TargetUnreachableError
from slrma.numerics import sym_eig, thin_svd
from slrma.solver import (
    SolverConfig,
    SolverState,
    gamma_for_sparsity,
    init_state,
    objective,
    reconstruct,
    slrma_solve,
    update_b,
    update_multipliers,
    update_p,
    update_q,
)
from slrma.transforms import dct1d, dct2d, identity


def random_state(rng, m, k, rho, scale=1.0):
    return SolverState(
        b=rng.normal(size=(m, k)) * scale,
        p=rng.normal(size=(m, k)) * scale,
        q=rng.normal(size=(m, k)) * scale,
        y_p=rng.normal(size=(m, k)) * scale,
        y_q=rng.normal(size=(m, k)) * scale,
        rho=rho,
    )


def planted_problem(m=64, n=32, k=4, scale=4.0):
    """Data whose left singular basis is exactly the first k axes."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    coeffs = np.diag([10.0, 7.0, 5.0, 3.5][:k]) @ q.T * scale
    return np.eye(m)[:, :k] @ coeffs


# ---------------------------------------------------------------------------
# hard-threshold step

def test_update_p_hand_values():
    state = SolverState(
        b=np.array([[1.5, 0.9], [-1.2, 0.3]]),
        p=np.zeros((2, 2)), q=np.zeros((2, 2)),
        y_p=np.zeros((2, 2)), y_q=np.zeros((2, 2)),
        rho=2.0,
    )
    cfg = SolverConfig(gamma=1.0, k=2, rho0=1.0)  # tau = sqrt(2*1/2) = 1
    out = update_p(state, cfg)
    assert np.array_equal(out, [[1.5, 0.0], [-1.2, 0.0]])


def test_update_p_zero_gamma_passthrough():
    rng = np.random.default_rng(0)
    state = random_state(rng, 5, 3, rho=2.0)
    cfg = SolverConfig(gamma=0.0, k=3)
    shifted = state.b + state.y_p / state.rho
    assert np.array_equal(update_p(state, cfg), shifted)


def brute_force_scalar_prox(value, gamma, rho):
    candidates = np.concatenate([np.linspace(-2 * abs(value) - 1, 2 * abs(value) + 1, 401),
                                 [0.0, value]])
    costs = gamma * (candidates != 0) + 0.5 * rho * (candidates - value) ** 2
    return candidates[np.argmin(costs)], costs.min()


def test_update_p_scalar_brute_force_oracle():
    rng = np.random.default_rng(1)
    cfg = SolverConfig(gamma=0.7, k=4, rho0=1.0)
    state = random_state(rng, 10, 4, rho=3.0)
    out = update_p(state, cfg)
    shifted = state.b + state.y_p / state.rho
    for i in range(10):
        for j in range(4):
            _, best_cost = brute_force_scalar_prox(shifted[i, j], cfg.gamma, state.rho)
            chosen = out[i, j]
            cost = cfg.gamma * (chosen != 0) + 0.5 * state.rho * (chosen - shifted[i, j]) ** 2
            assert cost <= best_cost + 1e-12


# ---------------------------------------------------------------------------
# orthogonality projection step

def test_update_q_fixed_point():
    rng = np.random.default_rng(2)
    w, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    state = SolverState(b=w, p=w, q=w,
                        y_p=np.zeros((6, 3)), y_q=np.zeros((6, 3)), rho=1.0)
    assert np.abs(update_q(state) - w).max() < 1e-12


def test_update_q_removes_scaling():
    rng = np.random.default_rng(3)
    w, _ = np.linalg.qr(rng.normal(size=(7, 2)))
    state = SolverState(b=3.0 * w, p=w, q=w,
                        y_p=np.zeros((7, 2)), y_q=np.zeros((7, 2)), rho=1.0)
    assert np.abs(update_q(state) - w).max() < 1e-10


def test_update_q_polar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        state = random_state(rng, 8, 3, rho=1.0)
        got = update_q(state)
        shifted = state.b + state.y_q / state.rho
        svd = thin_svd(shifted)
        polar = svd.u @ svd.v.T
        assert np.abs(got - polar).max() < 1e-8
        assert np.abs(got.T @ got - np.eye(3)).max() < 1e-10


# ---------------------------------------------------------------------------
# linear step and multipliers

def test_update_b_shift_only():
    rng = np.random.default_rng(5)
    m, k = 6, 2
    p = rng.normal(size=(m, k))
    q = rng.normal(size=(m, k))
    state = SolverState(b=np.zeros((m, k)), p=p, q=q,
                        y_p=np.zeros((m, k)), y_q=np.zeros((m, k)), rho=1.0)
    out = update_b(state, np.zeros((m, 3)))
    assert np.abs(out - (p + q) / 2.0).max() < 1e-12


def test_update_b_zero_rhs():
    m, k = 5, 2
    z = np.random.default_rng(6).normal(size=(m, 3))
    state = SolverState(b=np.ones((m, k)), p=np.zeros((m, k)), q=np.zeros((m, k)),
                        y_p=np.zeros((m, k)), y_q=np.zeros((m, k)),
                        rho=float(np.linalg.norm(z, 2) ** 2 + 5.0))
    assert np.abs(update_b(state, z)).max() < 1e-12


def test_update_b_dense_solve_oracle():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(12, 3))
    rho = float(np.linalg.norm(z, 2) ** 2 + 2.0)
    state = random_state(rng, 12, 3, rho=rho)
    out = update_b(state, z)
    rhs = rho * (state.p + state.q) - state.y_p - state.y_q
    system = 2 * rho * np.eye(12) - 2 * z @ z.T
    assert np.abs(system @ out - rhs).max() < 1e-8 * np.abs(rhs).max()


def test_update_multipliers_formulas():
    rng = np.random.default_rng(8)
    cfg = SolverConfig(gamma=0.1, k=3, rho0=1.0, alpha=1.5, rho_max=2.5)
    state = random_state(rng, 6, 3, rho=2.0)
    new = update_multipliers(state, cfg)
    assert np.array_equal(new.y_p, state.y_p + state.rho * (state.b - state.p))
    assert np.array_equal(new.y_q, state.y_q + state.rho * (state.b - state.q))
    assert new.rho == 2.5  # capped at rho_max


def test_update_multipliers_no_residual():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(4, 2))
    state = SolverState(b=b, p=b.copy(), q=b.copy(),
                        y_p=np.ones((4, 2)), y_q=np.ones((4, 2)), rho=1.0)
    cfg = SolverConfig(gamma=0.0, k=2, rho0=1.0, alpha=1.1, rho_max=10.0)
    new = update_multipliers(state, cfg)
    assert np.array_equal(new.y_p, state.y_p)
    assert np.array_equal(new.y_q, state.y_q)
    assert new.rho == pytest.approx(1.1)


# ---------------------------------------------------------------------------
# objective

def test_objective_zero_basis():
    assert objective(np.eye(3), np.zeros((3, 2)), 5.0) == 0.0


def test_objective_hand_count():
    z = np.eye(3)
    b = np.zeros((3, 1))
    b[0, 0] = 1.0
    assert objective(z, b, 2.0) == pytest.approx(1.0)  # -1 + 2*1


def test_objective_rayleigh_maximum():
    rng = np.random.default_rng(10)
    z = rng.normal(size=(6, 4))
    from slrma.numerics import sym_eig

    eig = sym_eig(z @ z.T)
    top = eig.vectors[:, :1]
    assert objective(z, top, 0.0) == pytest.approx(-eig.values[0], rel=1e-10)


# ---------------------------------------------------------------------------
# full solves

def test_solve_gamma_zero_recovers_lrma_error():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(64, 4)) @ rng.normal(size=(4, 16)) * 3.0
    z += rng.normal(size=(64, 16)) * 0.1
    fact = slrma_solve(z, SolverConfig.for_images(0.0, 4))
    sigma = np.linalg.svd(z, compute_uv=False)
    optimal = np.sqrt(np.sum(sigma[4:] ** 2))
    achieved = np.linalg.norm(z - fact.basis @ fact.coeffs)
    assert fact.converged
    assert achieved <= optimal * 1.01


def test_solve_planted_sparse_basis():
    z = planted_problem()
    m, k = 64, 4
    # a penalty schedule that starts above the data spectrum keeps the
    # axis-aligned solution exact
    cfg = SolverConfig(gamma=2.0, k=k, rho0=1e7, alpha=1.003, rho_max=1e12)
    fact = slrma_solve(z, cfg)
    assert fact.converged
    assert fact.p_b_achieved >= (m - 1) * k / (m * k)
    err = np.linalg.norm(z - fact.basis @ fact.coeffs)
    assert err < 1e-6 * np.linalg.norm(z)


def test_solve_full_rank_lossless():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(8, 8))
    fact = slrma_solve(z, SolverConfig.for_images(0.0, 8))
    # with k = m any orthogonal factor reconstructs exactly; the rotation
    # itself is objective-neutral, so convergence flags are not asserted
    assert np.linalg.norm(z - fact.basis @ fact.coeffs) < 1e-6 * np.linalg.norm(z)


def test_solve_output_invariants():
    z = planted_problem()
    fact = slrma_solve(z, SolverConfig(gamma=2.0, k=4, rho0=1e7, alpha=1.003,
                                       rho_max=1e12))
    assert np.abs(fact.basis.T @ fact.basis - np.eye(4)).max() < 1e-6
    nnz = np.count_nonzero(fact.basis)
    assert fact.p_b_achieved == pytest.approx(1.0 - nnz / fact.basis.size)
    assert fact.max_b_residual <= 1e-8


def test_solve_rejects_bad_rank():
    with pytest.raises(ValueError):
        slrma_solve(np.eye(4), SolverConfig(gamma=0.0, k=5))


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_zero_basis():
    z = np.eye(4)
    fact = slrma_solve(z, SolverConfig(gamma=0.0, k=2, rho0=1e4))
    zeroed = fact.__class__(basis=np.zeros_like(fact.basis),
                            coeffs=fact.coeffs,
                            p_b_achieved=1.0, iterations=0, converged=True,
                            final_objective=0.0)
    assert np.abs(reconstruct(identity(4), zeroed)).max() == 0.0


def test_reconstruct_isometry_oracle():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(16, 8)) * 2.0
    phi = dct1d(16)
    z = phi.forward(x)
    fact = slrma_solve(z, SolverConfig(gamma=0.0, k=3, rho0=1e4))
    x_hat = reconstruct(phi, fact)
    err_signal = np.linalg.norm(x - x_hat)
    err_transform = np.linalg.norm(z - fact.basis @ fact.coeffs)
    assert abs(err_signal - err_transform) < 1e-10 * max(err_signal, 1.0)


# ---------------------------------------------------------------------------
# sparsity search

def test_gamma_search_target_zero():
    rng = np.random.default_rng(14)
    z = rng.normal(size=(20, 8))
    cfg = SolverConfig(gamma=0.0, k=3, rho0=1e3, alpha=1.05, rho_max=1e10)
    gamma, fact = gamma_for_sparsity(z, cfg, 0.0, 0.05)
    assert fact.p_b_achieved <= 0.05
    assert gamma <= 1e-4


def test_gamma_search_unreachable_below_bracket():
    # planted data sits at ~94% zeros for any gamma; a low target cannot
    # be bracketed from above
    z = planted_problem()
    cfg = SolverConfig(gamma=0.0, k=4, rho0=1e7, alpha=1.003, rho_max=1e12)
    with pytest.raises(TargetUnreachableError):
        gamma_for_sparsity(z, cfg, 0.3, 0.02)


def test_gamma_search_planted_high_target():
    z = planted_problem()
    cfg = SolverConfig(gamma=0.0, k=4, rho0=1e7, alpha=1.003, rho_max=1e12)
    log = []
    gamma, fact = gamma_for_sparsity(z, cfg, 0.9, 0.1, probe_log=log)
    assert fact.converged
    assert abs(fact.p_b_achieved - 0.9) <= 0.1
    assert all(p == fact.p_b_achieved or g != gamma for g, p in log)


def test_state_initialization():
    cfg = SolverConfig(gamma=0.0, k=3)
    state = init_state(6, 3, cfg)
    assert np.array_equal(state.p, np.eye(6)[:, :3])
    assert np.array_equal(state.q, np.eye(6)[:, :3])
    assert np.abs(state.y_p).max() == 0.0
    assert state.rho == cfg.rho0


def test_gamma_ladder_probe_log_audit():
    # achieved sparsity should grow with gamma; one inversion is tolerated
    from slrma.datasets import synth_image_set
    from slrma.transforms import dct2d

    data = synth_image_set(16, 16, 32, rank=4, noise_sigma=2.0, seed=2)
    z = dct2d(16, 16).forward(data.x)
    ladder = np.geomspace(0.5, 2e4, 9)
    achieved = [slrma_solve(z, SolverConfig.for_images(float(g), 8)).p_b_achieved
                for g in ladder]
    inversions = sum(1 for a, b in zip(achieved, achieved[1:]) if b < a - 1e-12)
    assert inversions <= 1


# ---------------------------------------------------------------------------
# blow-up handling

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_iterate_returns_not_converged():
    # sigma_1^2 ~ 4.5e7 sits above the mesh preset's rho0 = 1e7: the B
    # system stays indefinite long enough for the iterate to overflow
    z = np.random.default_rng(0).normal(size=(24, 6)) * 1e3
    fact = slrma_solve(z, SolverConfig.for_meshes(10.0, 2))
    assert not fact.converged
    assert fact.iterations < 1000
    assert np.isfinite(fact.basis).all() and np.isfinite(fact.coeffs).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_mesh_compress_is_not_converged_error():
    data = synth_mesh_seq(16, 8, seed=1)
    params = CodecParams(k=2, step_b=0.01, step_c=1.0, gamma=10.0)
    with pytest.raises(NotConvergedError):
        compress_mesh_seq(data.xx * 10.0, data.xy * 10.0, data.xz * 10.0,
                          data.faces, params)


# ---------------------------------------------------------------------------
# bit-identity of the lean loop against the reference loop
#
# The references below are the solver as first written: update_q through
# sym_eig (symmetry check, sign convention), and a solve that takes its own
# SVD, validates every step and rebuilds its state each sweep. The lean loop
# must give the same floating-point results, not merely close ones.

def reference_update_q(state):
    shifted = state.b + state.y_q / state.rho
    gram = sym_eig(shifted.T @ shifted)
    if gram.values[-1] <= 1e-12 * max(gram.values[0], 1e-300):
        raise RankDeficientError("orthogonality projection input lost rank")
    inv_sqrt = gram.vectors * (gram.values**-0.5)
    return shifted @ (inv_sqrt @ gram.vectors.T)


def reference_solve(z, cfg):
    m, n = z.shape
    svd = thin_svd(z)
    top_sq = float(svd.sigma[0] ** 2)
    state = init_state(m, cfg.k, cfg)
    window = max(2, cfg.objective_window)
    sig2 = svd.sigma**2
    max_resid = 0.0
    converged = False
    jitter_used = False
    while state.iter < cfg.max_iters:
        for _ in range(64):
            gaps = np.abs(state.rho - sig2)
            scales = np.maximum(state.rho, sig2)
            if (gaps >= 0.01 * scales).all() or state.rho >= cfg.rho_max:
                break
            state.rho = min(state.rho * 1.02, cfg.rho_max)
        rho_now = state.rho
        prev_p, prev_q = state.p, state.q
        state.b = update_b(state, z, svd=svd)
        if not np.isfinite(state.b).all():
            state.p, state.q = prev_p, prev_q
            return solver_module._extract(state, z, cfg, False, max_resid)
        rhs = rho_now * (state.p + state.q) - state.y_p - state.y_q
        applied = 2.0 * rho_now * state.b - 2.0 * (z @ (z.T @ state.b))
        rel = np.abs(applied - rhs).max() / max(np.abs(rhs).max(), 1e-300)
        max_resid = max(max_resid, float(rel))
        state.p = update_p(state, cfg)
        try:
            state.q = reference_update_q(state)
        except RankDeficientError:
            if not jitter_used:
                jitter_used = True
                jitter = np.random.default_rng(0).standard_normal(state.b.shape)
                state.b = state.b + 1e-10 * max(1.0, np.abs(state.b).max()) * jitter
            try:
                state.q = reference_update_q(state)
            except RankDeficientError:
                polar = thin_svd(state.b + state.y_q / state.rho)
                state.q = polar.u @ polar.v.T
        state.objective_trace.append(objective(z, state.b, cfg.gamma))
        r_p = np.abs(state.b - state.p).max()
        r_q = np.abs(state.b - state.q).max()
        state = update_multipliers(state, cfg)
        if r_p < cfg.tol and r_q < cfg.tol and rho_now > top_sq:
            trace = state.objective_trace
            if len(trace) >= window:
                tail = trace[-window:]
                if (max(tail) - min(tail)) < cfg.tol * (1.0 + abs(trace[-1])):
                    converged = True
                    break
    return solver_module._extract(state, z, cfg, converged, max_resid)


def assert_same_factorization(got, want):
    assert np.array_equal(got.basis, want.basis)
    assert np.array_equal(got.coeffs, want.coeffs)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.objective_trace == want.objective_trace
    assert got.max_b_residual == want.max_b_residual


def test_update_q_matches_reference():
    rng = np.random.default_rng(20)
    for _ in range(200):
        m = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(m, 8) + 1))
        scale = 10.0 ** rng.uniform(-3, 3)
        state = random_state(rng, m, k, rho=10.0 ** rng.uniform(-4, 4), scale=scale)
        assert np.array_equal(update_q(state), reference_update_q(state))


def test_update_q_rank_loss_matches_reference():
    b = np.zeros((5, 2))
    b[0, 0] = 1.0
    state = SolverState(b=b, p=b, q=b, y_p=np.zeros((5, 2)), y_q=np.zeros((5, 2)),
                        rho=1.0)
    for step in (update_q, reference_update_q):
        with pytest.raises(RankDeficientError):
            step(state)


def search_case():
    data = synth_image_set(8, 8, 16, rank=4, noise_sigma=2.0, seed=2)
    return dct2d(8, 8).forward(data.x), SolverConfig.for_images(0.0, 3)


@pytest.mark.parametrize("gamma", [0.0, 2.0, 40.0])
def test_solve_matches_reference(gamma):
    z, cfg = search_case()
    cfg = replace(cfg, gamma=gamma)
    assert_same_factorization(slrma_solve(z, cfg), reference_solve(z, cfg))


def test_search_probes_match_independent_reference(monkeypatch):
    z, cfg = search_case()
    probes = []

    def recording_solve(data, probe_cfg):
        result = slrma_solve(data, probe_cfg)
        probes.append((probe_cfg, result))
        return result

    monkeypatch.setattr(solver_module, "slrma_solve", recording_solve)
    gamma, fact = gamma_for_sparsity(z, cfg, 0.6, 0.05)
    monkeypatch.undo()
    assert len(probes) > 5
    for probe_cfg, result in probes:
        assert_same_factorization(result, reference_solve(z, probe_cfg))
    chosen = [result for probe_cfg, result in probes if probe_cfg.gamma == gamma]
    assert fact is chosen[0]
