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
    gamma_for_sparsity,
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
    checked_stack_solve,
    identity,
    reference_objective,
    reference_solve,
    reference_update_q,
    shifted_gram_coeff,
)


def random_iterate(rng, m, k, scale=1.0):
    """(B, P, Q, Y_P, Y_Q), each m x k standard normal times `scale`."""
    return tuple(rng.normal(size=(m, k)) * scale for _ in range(5))


def planted_problem(m=64, n=32, k=4, scale=4.0):
    """Data whose left singular basis is exactly the first k axes."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    coeffs = np.diag([10.0, 7.0, 5.0, 3.5][:k]) @ q.T * scale
    return np.eye(m)[:, :k] @ coeffs


# ---------------------------------------------------------------------------
# hard-threshold step

def test_update_p_hand_values():
    b = np.array([[1.5, 0.9], [-1.2, 0.3]])
    cfg = SolverConfig(gamma=1.0, k=2)  # tau = sqrt(2*1/2) = 1
    out = update_p(b, np.zeros((2, 2)), 2.0, cfg)
    assert np.array_equal(out, [[1.5, 0.0], [-1.2, 0.0]])


def test_update_p_zero_gamma_passthrough():
    rng = np.random.default_rng(0)
    b, _, _, y_p, _ = random_iterate(rng, 5, 3)
    cfg = SolverConfig(gamma=0.0, k=3)
    assert np.array_equal(update_p(b, y_p, 2.0, cfg), b + y_p / 2.0)


def test_update_p_l0_ball_keeps_largest_ties_in_row_major_order():
    b = np.array([[3.0, -1.0], [1.0, 0.5], [-2.0, 1.0]])
    cfg = SolverConfig(gamma=0.0, k=2, target_pb=0.5)  # keeps 3 of 6
    # |A| = 3, 2, then three tied 1s: the first of them, at (0, 1), is kept
    assert np.array_equal(update_p(b, np.zeros((3, 2)), 2.0, cfg),
                          [[3.0, -1.0], [0.0, 0.0], [-2.0, 0.0]])
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
        mags = np.sort(np.abs(b + y_p / 2.0), axis=None)
        for keep in range(k, m * k + 1):
            cfg = SolverConfig(gamma=0.0, k=k, target_pb=1.0 - keep / (m * k))
            assert kept_entries(cfg.target_pb, m, k) == keep
            tied_cuts.add(np.count_nonzero(mags >= mags[-keep]) > keep)
            assert (update_p(b, y_p, 2.0, cfg).tobytes()
                    == argsort_l0_projection(b + y_p / 2.0, keep).tobytes())
    assert tied_cuts == {False, True}


def argsort_l0_projection(shifted, keep):
    """The l0-ball P step on A = `shifted` as a stable sort: the reference
    for `update_p`."""
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
    rho = 3.0
    b, _, _, y_p, _ = random_iterate(rng, 10, 4)
    out = update_p(b, y_p, rho, cfg)
    shifted = b + y_p / rho
    for i in range(10):
        for j in range(4):
            _, best_cost = brute_force_scalar_prox(shifted[i, j], cfg.gamma, rho)
            chosen = out[i, j]
            cost = cfg.gamma * (chosen != 0) + 0.5 * rho * (chosen - shifted[i, j]) ** 2
            assert cost <= best_cost + 1e-12


# ---------------------------------------------------------------------------
# orthogonality projection step

def test_update_q_fixed_point():
    rng = np.random.default_rng(2)
    w, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    assert np.abs(update_q(w, np.zeros((6, 3)), 1.0) - w).max() < 1e-12


def test_update_q_removes_scaling():
    rng = np.random.default_rng(3)
    w, _ = np.linalg.qr(rng.normal(size=(7, 2)))
    assert np.abs(update_q(3.0 * w, np.zeros((7, 2)), 1.0) - w).max() < 1e-10


def test_update_q_polar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        b, _, _, _, y_q = random_iterate(rng, 8, 3)
        got = update_q(b, y_q, 1.0)
        svd = thin_svd(b + y_q)
        polar = svd.u @ svd.v.T
        assert np.abs(got - polar).max() < 1e-8
        assert np.abs(got.T @ got - np.eye(3)).max() < 1e-10


# ---------------------------------------------------------------------------
# linear step and multipliers

def b_step(z, rho, p, q, y_p, y_q):
    """`update_b` as the solve calls it."""
    svd = thin_svd(z)
    rhs = rho * (p + q) - y_p - y_q
    return update_b(svd.u, shifted_gram_coeff(svd.sigma**2, rho)[:, None], rho, rhs)


def test_update_b_shift_only():
    rng = np.random.default_rng(5)
    m, k = 6, 2
    p = rng.normal(size=(m, k))
    q = rng.normal(size=(m, k))
    zeros = np.zeros((m, k))
    out = b_step(np.zeros((m, 3)), 1.0, p, q, zeros, zeros)
    assert np.abs(out - (p + q) / 2.0).max() < 1e-12


def test_update_b_zero_rhs():
    m, k = 5, 2
    z = np.random.default_rng(6).normal(size=(m, 3))
    rho = float(np.linalg.norm(z, 2) ** 2 + 5.0)
    zeros = np.zeros((m, k))
    assert np.abs(b_step(z, rho, zeros, zeros, zeros, zeros)).max() < 1e-12


def test_update_b_dense_solve_oracle():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(12, 3))
    rho = float(np.linalg.norm(z, 2) ** 2 + 2.0)
    _, p, q, y_p, y_q = random_iterate(rng, 12, 3)
    out = b_step(z, rho, p, q, y_p, y_q)
    rhs = rho * (p + q) - y_p - y_q
    system = 2 * rho * np.eye(12) - 2 * z @ z.T
    assert np.abs(system @ out - rhs).max() < 1e-8 * np.abs(rhs).max()


def test_update_multipliers_formulas():
    rng = np.random.default_rng(8)
    b, p, q, y_p, y_q = random_iterate(rng, 6, 3)
    new_y_p, new_y_q = update_multipliers(y_p, y_q, 2.0, b - p, b - q)
    assert np.array_equal(new_y_p, y_p + 2.0 * (b - p))
    assert np.array_equal(new_y_q, y_q + 2.0 * (b - q))


def test_update_multipliers_no_residual():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(4, 2))
    ones = np.ones((4, 2))
    new_y_p, new_y_q = update_multipliers(ones, ones, 1.0, b - b, b - b)
    assert np.array_equal(new_y_p, ones)
    assert np.array_equal(new_y_q, ones)


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
                            coeffs=fact.coeffs, iterations=0, converged=True)
    assert np.abs(reconstruct(identity(4), zeroed)).max() == 0.0


def test_p_b_achieved_is_read_from_the_basis():
    fact = slrma_solve(np.eye(4), SolverConfig(gamma=0.0, k=2))
    assert type(fact.p_b_achieved) is float
    assert replace(fact, basis=np.zeros_like(fact.basis)).p_b_achieved == 1.0
    with pytest.raises(TypeError):
        replace(fact, p_b_achieved=0.5)


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


def test_reconstruct_maps_a_stack_slice_by_slice():
    rng = np.random.default_rng(15)
    phi = dct2d(4, 4)
    x = rng.normal(size=(2, 16, 8))
    fact = slrma_solve(np.stack([phi.forward(a) for a in x]), SolverConfig(gamma=0.0, k=3))
    x_hat = reconstruct(phi, fact)
    assert x_hat.shape == x.shape
    for i in range(2):
        alone = slrma_solve(phi.forward(x[i]), SolverConfig(gamma=0.0, k=3))
        assert np.array_equal(x_hat[i], reconstruct(phi, alone))
    with pytest.raises(ValueError):
        reconstruct(dct1d(8), fact)


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

    def spy(p, *args):
        supports.append(p != 0.0)
        return extract(p, *args)

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
    z = rng.normal(size=(m, 3))
    fact = solver_module._extract(np.where(support, q, 0.0), q, z,
                                  SolverConfig(gamma=0.0, k=k), 0, True, [])
    assert np.isfinite(fact.basis).all() and np.isfinite(fact.coeffs).all()
    assert not fact.basis[~support].any()
    dev = np.abs(fact.basis.T @ fact.basis - np.eye(k)).max()
    assert dev <= 1e-12 or not fact.converged
    if empty_column:
        assert not fact.converged
    elif all(np.count_nonzero(support[:, j]) > j for j in range(k)):
        # column j is free in more rows than the j columns before it span
        assert fact.converged


@pytest.mark.parametrize("fields", [
    dict(gamma=-0.5), dict(gamma=float("nan")), dict(gamma=float("inf")), dict(k=0),
    dict(alpha=1.0), dict(alpha=float("nan")), dict(target_pb=1.0),
    dict(target_pb=float("nan")),
], ids=["gamma-negative", "gamma-nan", "gamma-inf", "k-zero", "alpha-one", "alpha-nan",
        "target-one", "target-nan"])
def test_solver_config_rejects_bad_values(fields):
    with pytest.raises(ValueError):
        SolverConfig(**{"gamma": 1.0, "k": 2, **fields})


@pytest.mark.parametrize("name", ["tol", "max_iters", "rho0"])
def test_solver_dict_names_only_alpha(name):
    # the stopping rule and the penalty schedule are fixed: no setting names them
    params = CodecParams(k=2, step_b=0.01, step_c=1.0, gamma=1.0, solver={name: 5})
    with pytest.raises(TypeError, match=name):
        params.solver_config()


@pytest.mark.parametrize("target, alpha", [(None, 1.05), (0.6, 1.05), (None, 2.0)],
                         ids=["gamma", "target", "gamma-alpha-2"])
def test_every_solve_starts_from_the_top_singular_vectors(monkeypatch, target, alpha):
    # B = P = Q = the top-k left singular vectors and zero multipliers: the
    # first right-hand side rho (P + Q) - Y_P - Y_Q is rho0 (start + start)
    # bit for bit; rho then grows by alpha up to its ceiling
    calls = []

    def spy(u, coeff, rho, rhs):
        calls.append((rho, rhs.copy()))
        return update_b(u, coeff, rho, rhs)

    monkeypatch.setattr(solver_module, "update_b", spy)
    z = image_z()
    fact = slrma_solve(z, SolverConfig(gamma=55.5, k=8, alpha=alpha, target_pb=target))
    svd = thin_svd(z)
    top_sq = svd.sigma[0] ** 2
    start = svd.u[:, :8]
    rho0, rhs0 = calls[0]
    assert rho0 == solver_module.ANCHOR_RHO0 * top_sq
    assert rhs0.tobytes() == (rho0 * (start + start)).tobytes()
    assert len(calls) == fact.iterations
    ceiling = solver_module.ANCHOR_RHO_MAX * top_sq
    rhos = [rho for rho, _ in calls]
    assert rhos[1:] == [min(prev * alpha, ceiling) for prev in rhos[:-1]]
    # 1.05 * 2^20 > 1e6: at alpha 2 rho reaches the ceiling within the solve
    assert (rhos[-1] == ceiling) == (alpha == 2.0)


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


def eigh_failing_after(calls, eigh=np.linalg.eigh):
    """`np.linalg.eigh` that raises LinAlgError once it has run `calls` times."""
    count = []

    def patched(a):
        count.append(a)
        if len(count) > calls:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    return patched


def test_lapack_failure_returns_the_last_sane_iterate(monkeypatch):
    # eigh fails in the Q step of the third sweep: the solve reports the
    # iterate of the second, as one cut after two sweeps does
    z = image_z()
    cfg = SolverConfig(gamma=55.5, k=8)
    eigh = np.linalg.eigh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", eigh_failing_after(2))
        fact = slrma_solve(z, cfg)
    assert np.linalg.eigh is eigh
    assert not fact.converged
    assert fact.iterations == 2
    assert np.isfinite(fact.basis).all() and np.isfinite(fact.coeffs).all()
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "MAX_ITERS", 2)
        assert_same_factorization(fact, slrma_solve(z, cfg))


# ---------------------------------------------------------------------------
# bit-identity of the lean loop against the reference loop (solver_oracle)

def test_update_q_matches_reference():
    rng = np.random.default_rng(20)
    for _ in range(200):
        m = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(m, 8) + 1))
        scale = 10.0 ** rng.uniform(-3, 3)
        rho = 10.0 ** rng.uniform(-4, 4)
        b, _, _, _, y_q = random_iterate(rng, m, k, scale=scale)
        assert np.array_equal(update_q(b, y_q, rho), reference_update_q(b, y_q, rho))


def test_update_q_rank_loss_matches_reference():
    b = np.zeros((5, 2))
    b[0, 0] = 1.0
    cases = [(b, 1.0)]
    rng = np.random.default_rng(21)
    for _ in range(50):
        # a repeated column, up to scale: A^T A is singular to rounding
        m = int(rng.integers(3, 40))
        k = int(rng.integers(2, min(m, 8) + 1))
        rho = 10.0 ** rng.uniform(-4, 4)
        b = random_iterate(rng, m, k)[0]
        b[:, -1] = b[:, 0] * 10.0 ** rng.uniform(-3, 3)
        cases.append((b, rho))
    for b, rho in cases:
        rank_losses = []
        zeros = np.zeros(b.shape)
        want = reference_update_q(b, zeros, rho, rank_losses)
        got = update_q(b, zeros, rho)
        assert rank_losses == [rho]
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


# ---------------------------------------------------------------------------
# stacked solves: every slice bit for bit its lone solve (solver_oracle)

def mesh_axes_z():
    """The x, y and z axis Z of the seed-1 64-vertex mesh: a 3 x 64 x 32 stack."""
    mesh = synth_mesh_seq(64, 32, seed=1)
    phi = graph_transform(mesh_adjacency(mesh.faces, mesh.m))
    return np.stack([phi.forward(a) for a in (mesh.xx, mesh.xy, mesh.xz)])


def with_y_axis(slice_):
    """The mesh stack with its y axis replaced by `slice_`."""
    z = mesh_axes_z()
    z[1] = slice_
    return z


@pytest.fixture
def stacked_ties(monkeypatch):
    """(kind, slice) of every tie a stacked step meets: "cut" when more
    entries than the l0 ball keeps lie at or above its cut, "eig" when two
    Gram eigenvalues of the Q step are exactly equal."""
    ties = set()
    update_p_, update_q_, eigh = solver_module.update_p, solver_module.update_q, np.linalg.eigh

    def p_spy(b, y_p, rho, cfg):
        if len(b) > 1 and cfg.target_pb is not None:
            keep = kept_entries(cfg.target_pb, *b.shape[-2:])
            for i, mags in enumerate(np.abs(b + y_p / rho).reshape(len(b), -1)):
                if np.count_nonzero(mags >= np.sort(mags)[-keep]) > keep:
                    ties.add(("cut", i))
        return update_p_(b, y_p, rho, cfg)

    def q_spy(b, y_q, rho):
        if len(b) > 1:
            a = b + y_q / rho
            for i, values in enumerate(eigh(a.swapaxes(-1, -2) @ a)[0]):
                if np.count_nonzero(values[1:] == values[:-1]):
                    ties.add(("eig", i))
        return update_q_(b, y_q, rho)

    monkeypatch.setattr(solver_module, "update_p", p_spy)
    monkeypatch.setattr(solver_module, "update_q", q_spy)
    return ties


@pytest.mark.parametrize("z, cfg, iterations, converged, ties", [
    (mesh_axes_z, dict(k=6, target_pb=0.8), [110, 125, 89], [True] * 3, set()),
    # every slice runs out of sweeps (k above the axes' rank 8)
    (mesh_axes_z, dict(k=12, target_pb=0.8), [1000] * 3, [False] * 3, set()),
    (mesh_axes_z, dict(gamma=30.0, k=6), [92, 91, 89], [True] * 3, set()),
    (lambda: with_y_axis(np.zeros((64, 32))), dict(k=6, target_pb=0.8),
     [110, 10, 89], [True] * 3, {("cut", 1), ("eig", 1)}),
    (lambda: with_y_axis(planted_problem()), dict(k=4, target_pb=0.8),
     [136, 91, 108], [True] * 3, {("cut", 1)}),
    (lambda: with_y_axis(5.0 * np.eye(64, 32)), dict(gamma=30.0, k=4),
     [92, 97, 89], [True] * 3, {("eig", 1)}),
    # a stack of one: its slice is bit for bit the 2-D solve of its Z
    (lambda: image_z()[None], dict(k=8, target_pb=0.6), [101], [True], set()),
    (lambda: image_z()[None], dict(gamma=55.5, k=8), [92], [True], set()),
], ids=["mesh-k6", "mesh-k12", "mesh-gamma-30", "zero-slice", "tie-at-a-cut",
        "tied-eigenvalues", "one-image-target", "one-image-gamma"])
def test_stack_solves_each_slice_as_alone(stacked_ties, z, cfg, iterations, converged, ties):
    z = z()
    got, alone = checked_stack_solve(z, SolverConfig(**{"gamma": 0.0, **cfg}))
    assert [f.iterations for f in alone] == iterations
    assert [f.converged for f in alone] == converged
    s, m, n = z.shape
    assert got.basis.shape == (s, m, cfg["k"]) and got.coeffs.shape == (s, cfg["k"], n)
    assert stacked_ties == ties


# sigma_1^2 overflows (x 1e153) or is subnormal (x 1e-160): that slice blows
# up in its first sweep while the others converge
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e153, 1e-160])
def test_stack_blow_up_leaves_the_other_slices_to_converge(scale):
    z = mesh_axes_z()
    z[1] *= scale
    # the reference loop's checked B step refuses the blown-up slice's rhs
    got, alone = checked_stack_solve(z, SolverConfig(gamma=0.0, k=6, target_pb=0.8),
                                     oracle=False)
    assert [f.iterations for f in alone] == [110, 0, 89]
    assert [f.converged for f in alone] == [True, False, True]
    assert not got.converged and got.iterations == 110


# a slice that blows up, next to slices that do not, sends the stack back to
# be solved slice by slice: each slice still gets its lone solve
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(2, 8), st.booleans(),
       st.lists(st.sampled_from(["huge", "tiny", "zero", "as-is"]), min_size=2, max_size=3))
@settings(max_examples=15, deadline=None)
def test_stack_with_failing_slices_solves_each_slice_as_alone(seed, m, n, target, kinds):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, min(m, n) + 1))
    z = rng.normal(size=(len(kinds), m, n))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            z[i] = 0.0
        elif kind != "as-is":
            z[i] *= 10.0 ** ((1 if kind == "huge" else -1) * rng.uniform(153, 200))
    if target:
        cfg = SolverConfig(gamma=0.0, k=k, target_pb=rng.uniform(0.0, 0.6))
    else:
        cfg = SolverConfig(gamma=10.0 ** rng.uniform(-2, 2), k=k)
    checked_stack_solve(z, cfg, oracle=False)


def test_stack_with_a_rank_lost_q_step_in_one_slice(monkeypatch):
    # the seed-55 slice's Q step takes the SVD branch on one sweep
    losses = set()
    update_q_, eigh = solver_module.update_q, np.linalg.eigh

    def spy(b, y_q, rho):
        if len(b) > 1:
            a = b + y_q / rho
            values = eigh(a.swapaxes(-1, -2) @ a)[0]
            losses.update(np.flatnonzero(values[:, 0] <= 1e-12 * values[:, -1]).tolist())
        return update_q_(b, y_q, rho)

    monkeypatch.setattr(solver_module, "update_q", spy)
    z = np.stack([np.random.default_rng(seed).normal(size=(5, 2)) for seed in (0, 55, 1)])
    got, alone = checked_stack_solve(z, SolverConfig(gamma=0.0, k=2, target_pb=0.5))
    assert losses == {1}
    assert got.converged and alone[1].iterations == 248


def test_stack_with_eigh_failing_on_one_slice_only(monkeypatch):
    # eigh fails on the y axis's Gram matrix of its 41st sweep, and a stacked
    # eigh then fails as a whole: the y axis alone stops after 40 sweeps
    z = mesh_axes_z()
    cfg = SolverConfig(gamma=0.0, k=6, target_pb=0.8)
    eigh = np.linalg.eigh
    grams = []

    def record(a):
        grams.append(a.copy())
        return eigh(a)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", record)
        slrma_solve(z[1], cfg)
    bad = grams[40]

    def failing(a):
        if any(np.array_equal(g, bad) for g in a.reshape(-1, *bad.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    got, alone = checked_stack_solve(z, cfg, oracle=False)
    assert [f.iterations for f in alone] == [110, 40, 89]
    assert [f.converged for f in alone] == [True, False, True]


def test_stack_anchors_each_slice_at_its_scalar_sigma_1_squared(monkeypatch):
    # a lone solve anchors at the numpy-scalar power float(sigma[0] ** 2),
    # which for these sigma_1 differs in the last bit from the array square
    sigmas = np.random.default_rng(0).uniform(1.0, 100.0, 20000)
    trapped = [s for s in sigmas if float(s**2) != (np.array([s]) ** 2)[0]]
    z = np.zeros((3, 12, 6))
    for i, s in enumerate(trapped[:3]):
        z[i, range(6), range(6)] = s * np.linspace(1.0, 0.5, 6)
    rhos = []

    def spy(u, coeff, rho, rhs):
        rhos.append(rho)
        return update_b(u, coeff, rho, rhs)

    monkeypatch.setattr(solver_module, "update_b", spy)
    checked_stack_solve(z, SolverConfig(gamma=0.0, k=2, target_pb=0.5))
    sigma = np.stack([thin_svd(a).sigma for a in z])
    tops = [float(top**2) for top in sigma[:, 0]]
    assert rhos[0].ravel().tolist() == [solver_module.ANCHOR_RHO0 * t for t in tops]
    assert tops != (sigma[:, 0] ** 2).tolist()


def test_update_q_stack_matches_each_slice_and_the_reference():
    # numpy's power rounds a reversed 1-D view of the eigenvalues
    # differently from a contiguous copy on some of these rows, and a
    # contiguous stack rounds each row as the row alone
    rng = np.random.default_rng(22)
    reversed_views_differ = 0
    for _ in range(60):
        m = int(rng.integers(2, 40))
        k = int(rng.integers(1, min(m, 8) + 1))
        b = rng.normal(size=(3, m, k)) * 10.0 ** rng.uniform(-3, 3)
        y_q = rng.normal(size=(3, m, k))
        rho = 10.0 ** rng.uniform(-4, 4, size=(3, 1, 1))
        got = update_q(b, y_q, rho)
        for i in range(3):
            want = reference_update_q(b[i], y_q[i], rho[i, 0, 0])
            assert np.array_equal(got[i], want)
            assert np.array_equal(update_q(b[i], y_q[i], rho[i, 0, 0]), want)
            a = b[i] + y_q[i] / rho[i, 0, 0]
            ascending = np.linalg.eigh(a.T @ a)[0]
            reversed_views_differ += not np.array_equal(
                ascending[::-1] ** -0.5, ascending[::-1].copy() ** -0.5)
    assert reversed_views_differ > 0


def test_update_q_stack_keeps_eigh_order_at_tied_eigenvalues():
    # A^T A = 3 J + 2 I (J all ones) has a fourfold eigenvalue whose
    # eigenvectors are not axes: their order sets the rounding of
    # V D^(-1/2) V^T, and reversing eigh's order reorders them
    gram = 3.0 * np.ones((5, 5)) + 2.0 * np.eye(5)
    rng = np.random.default_rng(24)
    order_matters = 0
    for scale in np.linspace(0.5, 2.0, 16):
        tied = np.vstack([np.linalg.cholesky(gram).T, np.zeros((4, 5))]) * scale
        b = np.stack([rng.normal(size=(9, 5)), tied, rng.normal(size=(9, 5))])
        zeros = np.zeros(b.shape)
        got = update_q(b, zeros, np.ones((3, 1, 1)))
        for i in range(3):
            assert np.array_equal(got[i], reference_update_q(b[i], zeros[i], 1.0))
        values, vectors = np.linalg.eigh(tied.T @ tied)
        if np.count_nonzero(values[1:] == values[:-1]):
            flipped = vectors[:, ::-1] * values[::-1] ** -0.5 @ vectors[:, ::-1].T
            order_matters += not np.array_equal(tied @ flipped, got[1])
    assert order_matters > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_update_q_stack_with_rank_lost_slices_raises_no_warning():
    rng = np.random.default_rng(23)
    b = rng.normal(size=(3, 8, 3))
    b[1, :, -1] = 0.0  # a zero column: the closed form would divide by zero
    zeros = np.zeros(b.shape)
    rho = np.array([1.0, 2.0, 3.0])[:, None, None]
    for stack, lost in ((b, [False, True, False]), (np.stack([b[1]] * 3), [True] * 3)):
        got = update_q(stack, zeros, rho)
        for i in range(3):
            rank_losses = []
            want = reference_update_q(stack[i], zeros[i], rho[i, 0, 0], rank_losses)
            assert np.array_equal(got[i], want)
            assert bool(rank_losses) == lost[i]


@pytest.mark.parametrize("z", [np.zeros((0, 4, 4)), np.zeros((2, 2, 4, 4)),
                               np.full((2, 4, 4), np.nan)], ids=["empty", "4-D", "nan"])
def test_solve_rejects_a_bad_stack(z):
    with pytest.raises(ValueError):
        slrma_solve(z, SolverConfig(gamma=0.0, k=2))
