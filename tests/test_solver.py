from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slrma.solver as solver_module
from slrma.codec import CodecParams, compress_image_set, compress_mesh_seq, decompress_mesh_seq
from slrma.datasets import synth_image_set, synth_mesh_seq
from slrma.errors import NotConvergedError
from slrma.metrics import rmse
from slrma.numerics import sym_eig, thin_svd
from slrma.solver import (
    SolverConfig,
    SolverState,
    gamma_for_sparsity,
    init_state,
    kept_entries,
    objective,
    reconstruct,
    slrma_solve,
    update_b,
    update_multipliers,
    update_p,
    update_q,
)
from slrma.transforms import dct1d, dct2d, graph_transform, mesh_adjacency
from solver_oracle import (
    assert_same_factorization,
    checked_solve,
    identity,
    reference_objective,
    reference_solve,
    reference_update_q,
    shifted_gram_coeff,
)


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
    cfg = SolverConfig(gamma=1.0, k=2)  # tau = sqrt(2*1/2) = 1
    out = update_p(state, cfg)
    assert np.array_equal(out, [[1.5, 0.0], [-1.2, 0.0]])


def test_update_p_zero_gamma_passthrough():
    rng = np.random.default_rng(0)
    state = random_state(rng, 5, 3, rho=2.0)
    cfg = SolverConfig(gamma=0.0, k=3)
    shifted = state.b + state.y_p / state.rho
    assert np.array_equal(update_p(state, cfg), shifted)


def test_update_p_l0_ball_keeps_largest_ties_in_row_major_order():
    b = np.array([[3.0, -1.0], [1.0, 0.5], [-2.0, 1.0]])
    state = SolverState(b=b, p=np.zeros((3, 2)), q=np.zeros((3, 2)),
                        y_p=np.zeros((3, 2)), y_q=np.zeros((3, 2)), rho=2.0)
    cfg = SolverConfig(gamma=0.0, k=2, target_pb=0.5)  # keeps 3 of 6
    # |A| = 3, 2, then three tied 1s: the first of them, at (0, 1), is kept
    assert np.array_equal(update_p(state, cfg), [[3.0, -1.0], [0.0, 0.0], [-2.0, 0.0]])
    # random inputs with ties, zeros and -0.0, every count from k to m*k:
    # bit for bit the stable-argsort selection. Both branches of update_p
    # run: ties at the cut decide only when more entries than it keeps lie
    # at or above the cut.
    rng = np.random.default_rng(11)
    m, k = 9, 3
    tied_cuts = set()
    for _ in range(20):
        ties = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0], size=(m, k))
        b = np.where(rng.random((m, k)) < 0.3, rng.normal(size=(m, k)), ties)
        y_p = rng.choice([0.0, -0.0, 1.0], size=(m, k))
        state = SolverState(b=b, p=b, q=b, y_p=y_p, y_q=y_p, rho=2.0)
        mags = np.sort(np.abs(b + y_p / 2.0), axis=None)
        for keep in range(k, m * k + 1):
            cfg = SolverConfig(gamma=0.0, k=k, target_pb=1.0 - keep / (m * k))
            assert kept_entries(cfg.target_pb, m, k) == keep
            tied_cuts.add(np.count_nonzero(mags >= mags[-keep]) > keep)
            assert update_p(state, cfg).tobytes() == argsort_l0_projection(state, keep).tobytes()
    assert tied_cuts == {False, True}


def argsort_l0_projection(state, keep):
    """The l0-ball P step as a stable sort: the reference for `update_p`."""
    shifted = state.b + state.y_p / state.rho
    largest = np.argsort(-np.abs(shifted), axis=None, kind="stable")[:keep]
    p = np.zeros_like(shifted)
    p.flat[largest] = shifted.flat[largest]
    return p


def brute_force_scalar_prox(value, gamma, rho):
    candidates = np.concatenate([np.linspace(-2 * abs(value) - 1, 2 * abs(value) + 1, 401),
                                 [0.0, value]])
    costs = gamma * (candidates != 0) + 0.5 * rho * (candidates - value) ** 2
    return candidates[np.argmin(costs)], costs.min()


def test_update_p_scalar_brute_force_oracle():
    rng = np.random.default_rng(1)
    cfg = SolverConfig(gamma=0.7, k=4)
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

def b_step(state, z):
    """`update_b` as the solve calls it, at an unmoved rho."""
    svd = thin_svd(z)
    rhs = state.rho * (state.p + state.q) - state.y_p - state.y_q
    return update_b(state, svd.u, rhs, shifted_gram_coeff(svd.sigma**2, state.rho)[:, None])


def test_update_b_shift_only():
    rng = np.random.default_rng(5)
    m, k = 6, 2
    p = rng.normal(size=(m, k))
    q = rng.normal(size=(m, k))
    state = SolverState(b=np.zeros((m, k)), p=p, q=q,
                        y_p=np.zeros((m, k)), y_q=np.zeros((m, k)), rho=1.0)
    out = b_step(state, np.zeros((m, 3)))
    assert np.abs(out - (p + q) / 2.0).max() < 1e-12


def test_update_b_zero_rhs():
    m, k = 5, 2
    z = np.random.default_rng(6).normal(size=(m, 3))
    state = SolverState(b=np.ones((m, k)), p=np.zeros((m, k)), q=np.zeros((m, k)),
                        y_p=np.zeros((m, k)), y_q=np.zeros((m, k)),
                        rho=float(np.linalg.norm(z, 2) ** 2 + 5.0))
    assert np.abs(b_step(state, z)).max() < 1e-12


def test_update_b_dense_solve_oracle():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(12, 3))
    rho = float(np.linalg.norm(z, 2) ** 2 + 2.0)
    state = random_state(rng, 12, 3, rho=rho)
    out = b_step(state, z)
    rhs = rho * (state.p + state.q) - state.y_p - state.y_q
    system = 2 * rho * np.eye(12) - 2 * z @ z.T
    assert np.abs(system @ out - rhs).max() < 1e-8 * np.abs(rhs).max()


def test_update_multipliers_formulas():
    rng = np.random.default_rng(8)
    state = random_state(rng, 6, 3, rho=2.0)
    new = update_multipliers(state, state.b - state.p, state.b - state.q, 1.5, 2.5)
    assert np.array_equal(new.y_p, state.y_p + state.rho * (state.b - state.p))
    assert np.array_equal(new.y_q, state.y_q + state.rho * (state.b - state.q))
    assert new.rho == 2.5  # capped at the ceiling


def test_update_multipliers_no_residual():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(4, 2))
    state = SolverState(b=b, p=b.copy(), q=b.copy(),
                        y_p=np.ones((4, 2)), y_q=np.ones((4, 2)), rho=1.0)
    new = update_multipliers(state, state.b - state.p, state.b - state.q, 1.1, 10.0)
    assert np.array_equal(new.y_p, state.y_p)
    assert np.array_equal(new.y_q, state.y_q)
    assert new.rho == pytest.approx(1.1)


# ---------------------------------------------------------------------------
# objective

def test_objective_zero_basis():
    b = np.zeros((3, 2))
    assert objective(np.eye(3).T @ b, b, 5.0) == 0.0


def test_objective_hand_count():
    z = np.eye(3)
    b = np.zeros((3, 1))
    b[0, 0] = 1.0
    assert objective(z.T @ b, b, 2.0) == pytest.approx(1.0)  # -1 + 2*1


def test_objective_rayleigh_maximum():
    rng = np.random.default_rng(10)
    z = rng.normal(size=(6, 4))
    eig = sym_eig(z @ z.T)
    top = eig.vectors[:, :1]
    assert objective(z.T @ top, top, 0.0) == pytest.approx(-eig.values[0], rel=1e-10)
    assert objective(z.T @ top, top, 0.0) == reference_objective(z, top, 0.0)


# ---------------------------------------------------------------------------
# full solves

def test_solve_gamma_zero_recovers_lrma_error():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(64, 4)) @ rng.normal(size=(4, 16)) * 3.0
    z += rng.normal(size=(64, 16)) * 0.1
    fact = slrma_solve(z, SolverConfig(gamma=0.0, k=4))
    sigma = np.linalg.svd(z, compute_uv=False)
    optimal = np.sqrt(np.sum(sigma[4:] ** 2))
    achieved = np.linalg.norm(z - fact.basis @ fact.coeffs)
    assert fact.converged
    assert achieved <= optimal * 1.01


def test_solve_planted_sparse_basis():
    z = planted_problem()
    m, k = 64, 4
    # the schedule starts above the data spectrum, which keeps the
    # axis-aligned solution exact
    fact = slrma_solve(z, SolverConfig(gamma=2.0, k=k))
    assert fact.converged
    assert fact.p_b_achieved >= (m - 1) * k / (m * k)
    err = np.linalg.norm(z - fact.basis @ fact.coeffs)
    assert err < 1e-6 * np.linalg.norm(z)


def test_solve_full_rank_lossless():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(8, 8))
    fact = slrma_solve(z, SolverConfig(gamma=0.0, k=8))
    # with k = m any orthogonal factor reconstructs exactly; the rotation
    # itself is objective-neutral, so convergence flags are not asserted
    assert np.linalg.norm(z - fact.basis @ fact.coeffs) < 1e-6 * np.linalg.norm(z)


def test_solve_output_invariants():
    z = planted_problem()
    # the B residual of every sweep, read from the reference loop that this
    # solve matches bit for bit
    fact, worst_b = checked_solve(z, SolverConfig(gamma=2.0, k=4))
    assert np.abs(fact.basis.T @ fact.basis - np.eye(4)).max() < 1e-6
    nnz = np.count_nonzero(fact.basis)
    assert fact.p_b_achieved == pytest.approx(1.0 - nnz / fact.basis.size)
    assert worst_b <= 1e-8


def test_solve_rejects_bad_rank():
    with pytest.raises(ValueError):
        slrma_solve(np.eye(4), SolverConfig(gamma=0.0, k=5))


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_zero_basis():
    z = np.eye(4)
    fact = slrma_solve(z, SolverConfig(gamma=0.0, k=2))
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
    fact = slrma_solve(z, SolverConfig(gamma=0.0, k=3))
    x_hat = reconstruct(phi, fact)
    err_signal = np.linalg.norm(x - x_hat)
    err_transform = np.linalg.norm(z - fact.basis @ fact.coeffs)
    assert abs(err_signal - err_transform) < 1e-10 * max(err_signal, 1.0)


# ---------------------------------------------------------------------------
# sparsity search

def test_gamma_search_target_zero():
    rng = np.random.default_rng(14)
    z = rng.normal(size=(20, 8))
    cfg = SolverConfig(gamma=0.0, k=3)
    gamma, fact = gamma_for_sparsity(z, cfg, 0.0)
    assert fact.p_b_achieved <= 0.05
    assert gamma <= 1e-4


def test_gamma_search_planted_high_target():
    z = planted_problem()
    gamma, fact = gamma_for_sparsity(z, SolverConfig(gamma=0.0, k=4), 0.9)
    assert fact.converged
    assert abs(fact.p_b_achieved - 0.9) <= 0.1


def test_target_count_bounds_the_nonzeros_from_above():
    # round(0.5 * 16 * 2) = 16 entries are kept, but on an all-zero Z only 2
    # of them are nonzero: the basis comes out sparser than asked
    _, fact = gamma_for_sparsity(np.zeros((16, 8)), SolverConfig(gamma=0.0, k=2), 0.5)
    assert fact.converged
    assert fact.p_b_achieved == 0.9375


# 0.9 keeps round(0.1 * 4 * 2) = 1 entry, too few for k=2 columns
@pytest.mark.parametrize("target", [-0.1, 1.0, float("nan"), 0.9])
def test_gamma_search_rejects_target_before_factoring(monkeypatch, target):
    def no_svd(*args):
        raise AssertionError("factored Z for a target it then rejected")

    monkeypatch.setattr(solver_module, "thin_svd", no_svd)
    with pytest.raises(ValueError):
        gamma_for_sparsity(np.eye(4), SolverConfig(gamma=0.0, k=2), target)


def image_z():
    data = synth_image_set(16, 16, 32, rank=4, noise_sigma=2.0, seed=2)
    return dct2d(16, 16).forward(data.x)


def mesh_x_z():
    mesh = synth_mesh_seq(64, 32, seed=1)
    return graph_transform(mesh_adjacency(mesh.faces, mesh.m)).forward(mesh.xx)


@pytest.mark.parametrize("case, k, target, gamma",
                         [(image_z, 8, 0.6, 0.0), (mesh_x_z, 6, 0.8, 0.0),
                          (image_z, 8, None, 55.5), (mesh_x_z, 6, None, 10.0)],
                         ids=["image", "mesh-x", "image-gamma-55.5", "mesh-x-gamma-10"])
def test_target_solve_ignores_last_bit_rounding(case, k, target, gamma):
    z = case()
    copy = z * (1.0 + 1e-15 * np.random.default_rng(30).standard_normal(z.shape))
    assert not np.array_equal(copy, z)
    cfg = SolverConfig(gamma=gamma, k=k, target_pb=target)
    fact = slrma_solve(z, cfg)
    twin = slrma_solve(copy, cfg)
    assert fact.converged and twin.converged
    assert fact.iterations == twin.iterations
    assert np.array_equal(fact.basis != 0.0, twin.basis != 0.0)
    if target is not None:
        assert np.count_nonzero(fact.basis) == round((1.0 - target) * z.shape[0] * k)


@pytest.mark.parametrize("case, k, target",
                         [(image_z, 12, 0.8), (mesh_x_z, 8, 0.8), (mesh_x_z, 12, 0.6)],
                         ids=["image-k12-0.8", "mesh-x-k8-0.8", "mesh-x-k12-0.6"])
def test_target_basis_is_orthonormal_on_the_support_of_p(monkeypatch, case, k, target):
    supports = []
    extract = solver_module._extract

    def spy(state, *args):
        supports.append(state.p != 0.0)
        return extract(state, *args)

    monkeypatch.setattr(solver_module, "_extract", spy)
    z = case()
    _, fact = gamma_for_sparsity(z, SolverConfig(gamma=0.0, k=k), target)
    assert fact.converged
    assert np.abs(fact.basis.T @ fact.basis - np.eye(k)).max() <= 1e-12
    assert not fact.basis[~supports[0]].any()
    assert np.count_nonzero(fact.basis) == kept_entries(target, z.shape[0], k)


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6),
       st.just(1.0) | st.floats(0.0, 1.0), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_extract_keeps_the_support_and_is_orthonormal_or_unconverged(
        seed, m, k, density, near_orthonormal, nearly_dependent, empty_column):
    rng = np.random.default_rng(seed)
    k = min(k, m)
    q = rng.normal(size=(m, k))
    if near_orthonormal:
        q = np.linalg.qr(q)[0] + 1e-6 * rng.normal(size=(m, k))
    if nearly_dependent:  # one projection leaves this column ~1e-9 off orthogonal
        q[:, -1] = q[:, 0] + 1e-6 * rng.normal(size=m)
    support = rng.random((m, k)) < density
    if empty_column:
        support[:, rng.integers(k)] = False
    zeros = np.zeros((m, k))
    state = SolverState(b=q, p=np.where(support, q, 0.0), q=q, y_p=zeros,
                        y_q=zeros, rho=1.0)
    z = rng.normal(size=(m, 3))
    fact = solver_module._extract(state, z, SolverConfig(gamma=0.0, k=k), True)
    assert np.isfinite(fact.basis).all() and np.isfinite(fact.coeffs).all()
    assert not fact.basis[~support].any()
    dev = np.abs(fact.basis.T @ fact.basis - np.eye(k)).max()
    assert dev <= 1e-12 or not fact.converged
    if empty_column:
        assert not fact.converged
    elif all(np.count_nonzero(support[:, j]) > j for j in range(k)):
        # column j is free in more rows than the j columns before it span
        assert fact.converged


def test_state_initialization():
    start = np.linalg.qr(np.random.default_rng(31).normal(size=(6, 3)))[0]
    state = init_state(start, 2.0)
    for split in (state.b, state.p, state.q):
        assert np.array_equal(split, start)
        assert not np.shares_memory(split, start)
    assert not state.y_p.any() and not state.y_q.any()
    assert state.rho == 2.0


@pytest.mark.parametrize("target", [None, 0.6], ids=["gamma", "target"])
def test_every_solve_starts_from_the_top_singular_vectors(monkeypatch, target):
    starts = []
    schedules = set()

    def spy_init(start, rho):
        starts.append((start.copy(), rho))
        return init_state(start, rho)

    def spy_multipliers(state, b_minus_p, b_minus_q, alpha, ceiling):
        schedules.add((alpha, ceiling))
        return update_multipliers(state, b_minus_p, b_minus_q, alpha, ceiling)

    monkeypatch.setattr(solver_module, "init_state", spy_init)
    monkeypatch.setattr(solver_module, "update_multipliers", spy_multipliers)
    z = image_z()
    slrma_solve(z, SolverConfig(gamma=55.5, k=8, target_pb=target))
    svd = thin_svd(z)
    top_sq = svd.sigma[0] ** 2
    [(start, rho0)] = starts
    assert np.array_equal(start, svd.u[:, :8])
    assert rho0 == solver_module.ANCHOR_RHO0 * top_sq
    assert schedules == {(1.05, solver_module.ANCHOR_RHO_MAX * top_sq)}


def test_gamma_ladder_sparsity_grows_with_gamma():
    # every solve converges, and the achieved sparsity never falls as gamma grows
    z = image_z()
    facts = [slrma_solve(z, SolverConfig(gamma=float(g), k=8))
             for g in np.geomspace(0.5, 2e4, 10)]
    assert all(fact.converged for fact in facts)
    achieved = [fact.p_b_achieved for fact in facts]
    assert achieved == sorted(achieved)


# ---------------------------------------------------------------------------
# blow-up handling

def scaled_images(scale):
    images = synth_image_set(8, 8, 12, rank=4, noise_sigma=2.0, seed=2)
    return images.x * scale, images.w, images.h


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_iterate_returns_not_converged():
    # ||Z||_F^2 ~ 1e306: the first sweep's objective overflows
    x, w, h = scaled_images(1e150)
    z = dct2d(w, h).forward(x)
    fact = slrma_solve(z, SolverConfig(gamma=10.0, k=2))
    assert not fact.converged
    assert fact.iterations == 0
    assert np.isfinite(fact.basis).all() and np.isfinite(fact.coeffs).all()


def scaled_mesh(scale=10.0):
    data = synth_mesh_seq(16, 8, seed=1)
    return (data.xx * scale, data.xy * scale, data.xz * scale), data.faces


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_mesh_compress_is_not_converged_error():
    axes, faces = scaled_mesh(1e150)
    params = CodecParams(k=2, step_b=0.01, step_c=1.0, gamma=10.0)
    with pytest.raises(NotConvergedError):
        compress_mesh_seq(*axes, faces, params)


# sigma_1 ~ 1e155: sigma_1^2 itself overflows, before the first sweep
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["image", "mesh"])
@pytest.mark.parametrize("mode", [dict(gamma=10.0), dict(target_pb=0.5)],
                         ids=["gamma", "target"])
def test_squared_singular_value_overflow_is_not_converged_error(kind, mode):
    params = CodecParams(k=2, step_b=0.01, step_c=1.0, **mode)
    with pytest.raises(NotConvergedError):
        if kind == "image":
            compress_image_set(*scaled_images(1e153), params)
        else:
            axes, faces = scaled_mesh(1e153)
            compress_mesh_seq(*axes, faces, params)


# sigma_1^2 at 1e-308 (normal), 1e-315 (subnormal) and 5e-324 (the least
# subnormal, where 1.05 sigma_1^2 rounds back to sigma_1^2): the top shift
# coefficient is not finite, so the first sweep blows up before any stop test
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("top_sq", [1e-308, 1e-315, 5e-324])
@pytest.mark.parametrize("target", [None, 0.5], ids=["gamma", "target"])
def test_tiny_scale_blows_up_in_the_first_sweep(top_sq, target):
    z = np.zeros((12, 6))
    z[0, 0] = np.sqrt(top_sq)
    z[1, 1] = np.sqrt(top_sq) / 2.0
    assert thin_svd(z).sigma[0] ** 2 == top_sq
    fact = slrma_solve(z, SolverConfig(gamma=0.0, k=2, target_pb=target))
    assert not fact.converged
    assert fact.iterations == 0
    assert np.isfinite(fact.basis).all() and np.isfinite(fact.coeffs).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scaled_mesh_compresses_on_the_anchored_schedule():
    axes, faces = scaled_mesh()
    params = CodecParams(k=2, step_b=0.01, step_c=1.0, gamma=10.0)
    decoded = decompress_mesh_seq(compress_mesh_seq(*axes, faces, params), faces)
    assert [x.shape for x in decoded] == [x.shape for x in axes]
    # within 5% of the error of the best rank-2 approximation of each axis
    best = np.sqrt(np.mean([np.sum(np.linalg.svd(x, compute_uv=False)[2:] ** 2)
                            for x in axes]) / axes[0].size)
    assert rmse(np.vstack(axes), np.vstack(decoded)) < 1.05 * best


# ---------------------------------------------------------------------------
# bit-identity of the lean loop against the reference loop (solver_oracle)

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
    states = [SolverState(b=b, p=b, q=b, y_p=np.zeros((5, 2)),
                          y_q=np.zeros((5, 2)), rho=1.0)]
    rng = np.random.default_rng(21)
    for _ in range(50):
        # a repeated column, up to scale: A^T A is singular to rounding
        m = int(rng.integers(3, 40))
        k = int(rng.integers(2, min(m, 8) + 1))
        state = random_state(rng, m, k, rho=10.0 ** rng.uniform(-4, 4))
        state.b[:, -1] = state.b[:, 0] * 10.0 ** rng.uniform(-3, 3)
        state.y_q = np.zeros((m, k))
        states.append(state)
    for state in states:
        rank_losses = []
        want = reference_update_q(state, rank_losses)
        got = update_q(state)
        assert rank_losses == [state.iter]
        assert np.array_equal(got, want)
        k = got.shape[1]
        assert np.abs(got.T @ got - np.eye(k)).max() < 1e-12


def search_case():
    data = synth_image_set(8, 8, 16, rank=4, noise_sigma=2.0, seed=2)
    z = dct2d(8, 8).forward(data.x)
    return z, SolverConfig(gamma=0.0, k=3)


def mesh_case():
    return mesh_x_z(), SolverConfig(gamma=1.0, k=6)


def zero_case():
    # no scale to anchor at: the schedule starts at rho = 1.05
    return np.zeros((16, 8)), SolverConfig(gamma=0.0, k=3)


@pytest.mark.parametrize(
    "case, gamma",
    [(search_case, 0.0), (search_case, 2.0), (search_case, 40.0),
     (mesh_case, 1.0), (zero_case, 0.0)],
    ids=["0.0", "2.0", "40.0", "mesh-x", "zero"],
)
def test_solve_matches_reference(case, gamma):
    z, cfg = case()
    cfg = replace(cfg, gamma=gamma)
    want, _ = reference_solve(z, cfg)
    assert want.converged
    assert_same_factorization(slrma_solve(z, cfg), want)
