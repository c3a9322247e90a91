import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrma.lrma import lrma, stepwise_baseline, threshold_smallest
from slrma.transforms import dct1d
from solver_oracle import identity


def test_rank_one_exact_recovery():
    u = np.array([1.0, 2.0, -1.0, 0.5])
    v = np.array([3.0, -1.0, 2.0])
    x = np.outer(u, v)
    res = lrma(x, 1)
    assert np.linalg.norm(x - res.basis @ res.coeffs) < 1e-10


def test_identity_full_rank():
    res = lrma(np.eye(4), 4)
    assert np.linalg.norm(np.eye(4) - res.basis @ res.coeffs) < 1e-12
    assert res.discarded_energy < 1e-20


def test_eckart_young_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 12))
    sigma = np.linalg.svd(x, compute_uv=False)
    for k in (1, 5, 12):
        res = lrma(x, k)
        achieved = np.sum((x - res.basis @ res.coeffs) ** 2)
        optimal = np.sum(sigma[k:] ** 2)
        assert achieved <= optimal * (1 + 1e-8) + 1e-12
        assert abs(res.discarded_energy - optimal) < 1e-8 * max(optimal, 1.0)


def test_basis_orthonormal():
    rng = np.random.default_rng(1)
    res = lrma(rng.normal(size=(15, 9)), 4)
    assert np.abs(res.basis.T @ res.basis - np.eye(4)).max() < 1e-8


def test_error_nonincreasing_in_k():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(12, 8))
    errs = [np.linalg.norm(x - (r := lrma(x, k)).basis @ r.coeffs)
            for k in range(1, 9)]
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))


def test_rank_bounds():
    # the rank rule is solver.check_rank's, so it raises its ValueError
    with pytest.raises(ValueError, match=r"k=5 outside \[1, 4\]"):
        lrma(np.eye(4), 5)
    with pytest.raises(ValueError, match=r"k=0 outside"):
        lrma(np.eye(4), 0)


def test_threshold_smallest_tie_break():
    # equal magnitudes: later column-major positions are zeroed first
    values = np.ones((2, 2))
    out = threshold_smallest(values, 2)
    assert np.array_equal(out.flatten(order="F"), [1.0, 1.0, 0.0, 0.0])


def test_stepwise_p_zero_matches_lrma():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(16, 6))
    res = stepwise_baseline(x, dct1d(16), 3, 0.0)
    dense = lrma(x, 3)
    assert np.abs(res.basis - dense.basis).max() < 1e-10
    assert np.abs(res.coeffs - dense.coeffs).max() < 1e-10


def test_stepwise_p_one_zeroes_everything():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 5))
    res = stepwise_baseline(x, dct1d(8), 2, 1.0)
    assert np.count_nonzero(res.basis) == 0
    assert abs(res.rmse - np.sqrt(np.sum(x**2) / x.size)) < 1e-12


def test_stepwise_identity_transform_mask_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(32, 8))
    k, p_b = 3, 0.5
    res = stepwise_baseline(x, identity(32), k, p_b)
    dense = lrma(x, k)
    flat = np.abs(dense.basis).flatten(order="F")
    order = np.lexsort((-np.arange(flat.size), flat))
    mask = np.ones(flat.size)
    mask[order[: int(np.floor(p_b * flat.size))]] = 0.0
    expected = dense.basis * mask.reshape(dense.basis.shape, order="F")
    assert np.abs(res.basis - expected).max() < 1e-12
    manual_rmse = np.sqrt(np.sum((x - expected @ dense.coeffs) ** 2) / x.size)
    assert abs(res.rmse - manual_rmse) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_stepwise_error_nondecreasing_in_pb(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(16, 6))
    phi = dct1d(16)
    errs = [stepwise_baseline(x, phi, 3, pb).rmse
            for pb in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(b >= a - 1e-9 for a, b in zip(errs, errs[1:]))


def test_stepwise_exposes_sparse_factor():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(16, 5))
    res = stepwise_baseline(x, dct1d(16), 2, 0.5)
    assert np.count_nonzero(res.sparse_basis) == res.sparse_basis.size - 16
