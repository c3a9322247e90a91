import numpy as np
import pytest

from slrma.errors import DegenerateSequenceError, ShapeMismatchError
from slrma.metrics import (
    bits_per_frame_vertex,
    bits_per_pixel,
    frame_mean_matrix,
    kg_error,
    psnr,
    rmse,
)


def test_rmse_identical():
    x = np.arange(6.0).reshape(2, 3)
    assert rmse(x, x.copy()) == 0.0


def test_rmse_hand_case():
    assert rmse(np.zeros((2, 2)), np.ones((2, 2))) == 1.0


def test_rmse_direct_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 5))
    y = rng.normal(size=(7, 5))
    manual = np.sqrt(sum((x[i, j] - y[i, j]) ** 2 for i in range(7)
                         for j in range(5)) / 35.0)
    assert abs(rmse(x, y) - manual) < 1e-12


def test_rmse_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        rmse(np.zeros((2, 2)), np.zeros((3, 2)))


def test_psnr_zero_db():
    x = np.zeros((2, 2))
    y = np.full((2, 2), 255.0)
    assert psnr(x, y) == pytest.approx(0.0, abs=1e-12)


def test_psnr_decade_step():
    x = np.zeros((4, 4))
    y = np.full((4, 4), 25.5)
    assert psnr(x, y) == pytest.approx(20.0, abs=1e-12)


def test_psnr_compositional_oracle():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 255, size=(6, 4))
    y = rng.uniform(0, 255, size=(6, 4))
    assert psnr(x, y) == pytest.approx(20 * np.log10(255.0 / rmse(x, y)), rel=1e-12)


def test_psnr_infinite_flagged():
    x = np.ones((2, 2))
    assert psnr(x, x.copy()) == float("inf")


def mesh_pair(seed=2, m=6, n=4):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(size=(m, n)) * 10 for _ in range(3)]
    hats = [p + rng.normal(size=(m, n)) for p in parts]
    return parts, hats


def test_kg_error_identical_is_zero():
    (xx, xy, xz), _ = mesh_pair()
    assert kg_error(xx, xy, xz, xx, xy, xz) == 0.0


def test_kg_error_centroid_is_hundred_exactly():
    (xx, xy, xz), _ = mesh_pair()
    mean = frame_mean_matrix([xx, xy, xz])
    m = xx.shape[0]
    assert kg_error(xx, xy, xz, mean[:m], mean[m:2 * m], mean[2 * m:]) == 100.0


def test_kg_error_direct_oracle():
    (xx, xy, xz), (hx, hy, hz) = mesh_pair()
    x = np.vstack([xx, xy, xz])
    x_hat = np.vstack([hx, hy, hz])
    mean = np.vstack([
        np.tile(block.mean(axis=0), (block.shape[0], 1))
        for block in (xx, xy, xz)
    ])
    manual = 100.0 * np.linalg.norm(x - x_hat) / np.linalg.norm(x - mean)
    assert abs(kg_error(xx, xy, xz, hx, hy, hz) - manual) < 1e-10


def test_kg_error_degenerate():
    xx = np.tile([[1.0, 2.0]], (4, 1))  # every frame equals its centroid
    with pytest.raises(DegenerateSequenceError):
        kg_error(xx, xx, xx, xx, xx, xx)


def test_rate_units():
    assert bits_per_pixel(100, 10, 10, 2) == 800 / 200
    assert bits_per_frame_vertex(100, 25, 4) == 800 / 100
