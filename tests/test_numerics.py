import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slrma.errors import NonSymmetricError
from slrma.numerics import (
    _column_sign_flips,
    sym_eig,
    thin_svd,
)
from solver_oracle import SingularShiftError, solve_shifted_gram

RT2 = np.sqrt(2.0)


def test_sym_eig_identity():
    eig = sym_eig(np.eye(3))
    assert np.allclose(eig.values, [1.0, 1.0, 1.0])
    assert np.allclose(eig.vectors, np.eye(3))


def test_sym_eig_hand_2x2():
    # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0
    eig = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(eig.values, [3.0, 1.0])
    assert np.allclose(eig.vectors[:, 0], [1 / RT2, 1 / RT2])
    assert np.allclose(eig.vectors[:, 1], [1 / RT2, -1 / RT2])


def test_sym_eig_reconstruction_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    eig = sym_eig(a)
    recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
    assert np.abs(recon - a).max() < 1e-8 * np.abs(a).max()
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(6)).max() < 1e-10


def test_sym_eig_eigenpair_residuals():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(9, 9))
    a = a + a.T
    eig = sym_eig(a)
    for i in range(9):
        resid = a @ eig.vectors[:, i] - eig.values[i] * eig.vectors[:, i]
        assert np.abs(resid).max() < 1e-8 * np.abs(a).max()


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NonSymmetricError):
        sym_eig(np.ones((2, 3)))


def test_sym_eig_deterministic():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5))
    a = a + a.T
    one = sym_eig(a)
    two = sym_eig(a.copy())
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.vectors, two.vectors)


def reference_column_sign_flips(vectors, rel_tol=1e-12):
    """The per-column loop the vectorized sign convention must reproduce."""
    mags = np.abs(vectors)
    tops = mags.max(axis=0)
    signs = np.ones(vectors.shape[1])
    for j, top in enumerate(tops):
        if top == 0.0:
            continue
        lead = int(np.argmax(mags[:, j] > rel_tol * top))
        if vectors[lead, j] < 0.0:
            signs[j] = -1.0
    return signs


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-13, -1e-13]),
            st.floats(-1e6, 1e6),
        ),
    ),
    st.lists(st.integers(0, 7), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_column_sign_flips_match_loop(vectors, zero_columns):
    for j in zero_columns:
        if j < vectors.shape[1]:
            vectors[:, j] = 0.0
    got = _column_sign_flips(vectors)
    assert np.array_equal(got, reference_column_sign_flips(vectors))


def test_thin_svd_identity():
    svd = thin_svd(np.eye(2))
    assert np.allclose(svd.sigma, [1.0, 1.0])


def test_thin_svd_rank_one_scaling():
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 3.0])
    svd = thin_svd(np.outer(u, v))
    assert np.allclose(svd.sigma, [6.0, 0.0], atol=1e-12)


def test_thin_svd_gram_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 5))
    svd = thin_svd(a)
    gram_eigs = sym_eig(a.T @ a).values
    assert np.allclose(svd.sigma**2, gram_eigs, rtol=1e-8, atol=1e-10)
    recon = svd.u @ np.diag(svd.sigma) @ svd.v.T
    assert np.abs(recon - a).max() < 1e-8 * np.abs(a).max()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_svd_eig_agree_on_singular_values(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(7, 4))
    sigma = thin_svd(a).sigma
    lam = np.clip(sym_eig(a.T @ a).values, 0.0, None)
    assert np.allclose(sigma, np.sqrt(lam), rtol=1e-8, atol=1e-8)


def test_solve_shifted_gram_zero_data():
    m_rhs = np.arange(12.0).reshape(4, 3) + 1.0
    w = solve_shifted_gram(np.zeros((4, 2)), 2.0, m_rhs)
    assert np.allclose(w, m_rhs / 4.0)


def test_solve_shifted_gram_orthogonal_unit_singulars():
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    m_rhs = rng.normal(size=(5, 2))
    w = solve_shifted_gram(q, 1.5, m_rhs)
    # 2*1.5 - 2*1 = 1, so the solution is M itself
    assert np.abs(w - m_rhs).max() < 1e-10


def check_dense_oracle(seed, m, n):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(m, n))
    rho = 10.0 + float(np.linalg.norm(z, 2) ** 2)
    m_rhs = rng.normal(size=(m, 3))
    w = solve_shifted_gram(z, rho, m_rhs)
    system = 2.0 * rho * np.eye(m) - 2.0 * z @ z.T
    expected = np.linalg.solve(system, m_rhs)
    assert np.abs(w - expected).max() < 1e-8 * np.abs(expected).max()
    resid = system @ w - m_rhs
    assert np.abs(resid).max() < 1e-8 * np.abs(m_rhs).max()


def test_solve_shifted_gram_dense_oracle():
    check_dense_oracle(7, 10, 4)


def test_solve_shifted_gram_dense_oracle_wide():
    # the SVD form holds for any thin SVD, so wide Z (n > m) is solved too
    check_dense_oracle(8, 5, 9)


@given(st.integers(0, 2**32 - 1), st.integers(2, 50), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_solve_shifted_gram_brute_force_equivalence(seed, m, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, m + 1))
    z = rng.normal(size=(m, n))
    sig2 = np.linalg.svd(z, compute_uv=False) ** 2
    rho = float(sig2[0] + rng.uniform(0.5, 3.0))
    m_rhs = rng.normal(size=(m, k))
    w = solve_shifted_gram(z, rho, m_rhs)
    dense = np.linalg.solve(2 * rho * np.eye(m) - 2 * z @ z.T, m_rhs)
    assert np.abs(w - dense).max() < 1e-8 * max(np.abs(dense).max(), 1.0)


def test_solve_shifted_gram_singular_shift():
    z = np.eye(3)  # singular values all 1
    with pytest.raises(SingularShiftError):
        solve_shifted_gram(z, 1.0, np.ones((3, 2)))  # 2*rho == 2*sigma^2
