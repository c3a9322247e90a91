"""Acceptance suite: one test per criterion, shared fixtures for the heavy
solves, one PASS line printed per criterion."""

import numpy as np
import pytest

from slrma.codec import CodecParams, compress_image_set, decompress_image_set
from slrma.datasets import synth_image_set, synth_mesh_seq
from slrma.entropy import entropy_decode, entropy_encode
from slrma.errors import BadMagicError, CorruptStreamError
from slrma.lrma import lrma, stepwise_baseline
from slrma.metrics import frame_mean_matrix, kg_error, psnr, rmse
from slrma.numerics import thin_svd
from slrma.quant import quantize
from slrma.solver import (
    SolverConfig,
    gamma_for_sparsity,
    reconstruct,
    update_p,
    update_q,
)
from slrma.sweep import SweepGrid, rd_sweep
from slrma.transforms import (
    dct1d,
    dct2d,
    graph_spec,
    graph_transform,
    haar1d,
    laplacian,
    mesh_adjacency,
)
from solver_oracle import assert_same_factorization, checked_solve
from test_container_codec import factor_quantization_bound

IMAGE_SEED = 2
MESH_SEED = 1


def report(num, slug, detail):
    print(f"[acceptance] criterion {num} ({slug}): PASS - {detail}")


# ---------------------------------------------------------------------------
# shared heavy fixtures

@pytest.fixture(scope="module")
def image_case():
    data = synth_image_set(16, 16, 32, rank=4, noise_sigma=2.0, seed=IMAGE_SEED)
    phi = dct2d(16, 16)
    z = phi.forward(data.x)
    sigma = np.linalg.svd(z, compute_uv=False)
    lrma_rmse = float(np.sqrt(np.sum(sigma[8:] ** 2) / z.size))
    return dict(data=data, phi=phi, z=z, lrma_rmse=lrma_rmse)


@pytest.fixture(scope="module")
def image_fact_60(image_case):
    cfg = SolverConfig(gamma=0.0, k=8)
    gamma, fact = gamma_for_sparsity(image_case["z"], cfg, 0.6)
    return gamma, fact


@pytest.fixture(scope="module")
def image_fact_20(image_case):
    cfg = SolverConfig(gamma=0.0, k=8)
    gamma, fact = gamma_for_sparsity(image_case["z"], cfg, 0.2)
    return gamma, fact


@pytest.fixture(scope="module")
def mesh_case():
    seq = synth_mesh_seq(64, 32, seed=MESH_SEED)
    u_gt = graph_transform(mesh_adjacency(seq.faces, seq.m))
    zs = [u_gt.forward(a) for a in (seq.xx, seq.xy, seq.xz)]
    lrma_err2 = sum(float(np.sum(np.linalg.svd(z, compute_uv=False)[6:] ** 2))
                    for z in zs)
    lrma_rmse = float(np.sqrt(lrma_err2 / (3 * seq.m * seq.n)))
    return dict(seq=seq, u_gt=u_gt, zs=zs, lrma_rmse=lrma_rmse)


@pytest.fixture(scope="module")
def mesh_facts(mesh_case):
    cfg = SolverConfig(gamma=0.0, k=6)
    return [gamma_for_sparsity(z, cfg, 0.8) for z in mesh_case["zs"]]


# ---------------------------------------------------------------------------

def test_criterion_1_eckart_young_oracle():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=(20, 12))
        sigma = np.linalg.svd(x, compute_uv=False)
        for k in range(1, 13):
            res = lrma(x, k)
            achieved = float(np.sum((x - res.basis @ res.coeffs) ** 2))
            optimal = float(np.sum(sigma[k:] ** 2))
            gap = abs(achieved - optimal) / max(optimal, 1e-30)
            if optimal > 1e-20:
                worst = max(worst, gap)
                assert gap <= 1e-8
            else:
                assert achieved <= 1e-18
    report(1, "eckart-young", f"50 matrices x 12 ranks, worst rel gap {worst:.2e}")


def test_criterion_2_subproblem_oracles(mesh_case, mesh_facts):
    rng = np.random.default_rng(101)
    # P step against scalar brute force
    worst_gap = 0.0
    for _ in range(100):
        m, k = 8, 3
        b = rng.normal(size=(m, k))
        y_p = rng.normal(size=(m, k))
        rho = float(rng.uniform(0.5, 5.0))
        cfg = SolverConfig(gamma=float(rng.uniform(0.05, 2.0)), k=k)
        out = update_p(b, y_p, rho, cfg)
        shifted = b + y_p / rho
        grid = np.linspace(-3.0, 3.0, 601)
        for idx in np.ndindex(m, k):
            v = shifted[idx]
            cands = np.concatenate([grid * max(abs(v), 1.0), [0.0, v]])
            costs = cfg.gamma * (cands != 0) + 0.5 * rho * (cands - v) ** 2
            chosen = out[idx]
            cost = cfg.gamma * (chosen != 0) + 0.5 * rho * (chosen - v) ** 2
            worst_gap = max(worst_gap, cost - costs.min())
            assert cost <= costs.min() + 1e-12
    # Q step against the SVD polar factor
    worst_q = 0.0
    for _ in range(100):
        b = rng.normal(size=(8, 3))
        y_q = rng.normal(size=(8, 3))
        got = update_q(b, y_q, 1.0)
        svd = thin_svd(b + y_q)
        worst_q = max(worst_q, float(np.abs(got - svd.u @ svd.v.T).max()))
        assert worst_q <= 1e-8
    # B-step residual over every iteration of dedicated conditioned solves,
    # measured by the reference loop on iterates equal to the production ones
    worst_b = 0.0
    for z, (_, fact) in zip(mesh_case["zs"], mesh_facts):
        checked, resid = checked_solve(z, SolverConfig(gamma=0.0, k=6, target_pb=0.8))
        assert_same_factorization(checked, fact)
        worst_b = max(worst_b, resid)
    q_basis, _ = np.linalg.qr(rng.normal(size=(32, 4)))
    planted = np.eye(48)[:, :4] @ (np.diag([10.0, 7, 5, 3.5]) @ q_basis.T * 4)
    _, resid = checked_solve(planted, SolverConfig(gamma=2.0, k=4))
    worst_b = max(worst_b, resid)
    assert worst_b <= 1e-8
    report(2, "subproblem-oracles",
           f"P gap {worst_gap:.1e}, Q dev {worst_q:.1e}, B resid {worst_b:.1e}")


def test_criterion_3_convergence_and_stability(image_fact_60):
    gamma, fact = image_fact_60
    assert fact.converged
    assert fact.iterations <= 1000
    trace = fact.objective_trace
    window = trace[-10:]
    wiggle = (max(window) - min(window)) / (1.0 + abs(trace[-1]))
    assert wiggle < 1e-6
    report(3, "convergence",
           f"converged in {fact.iterations} iters, window stability {wiggle:.2e}")


def test_criterion_4_lrma_comparable_error(image_case, image_fact_20,
                                            mesh_case, mesh_facts):
    _, fact = image_fact_20
    assert fact.converged
    assert fact.p_b_achieved <= 0.6
    slrma_rmse = rmse(image_case["data"].x,
                      reconstruct(image_case["phi"], fact))
    ratio_img = slrma_rmse / image_case["lrma_rmse"]
    assert ratio_img <= 1.10
    seq = mesh_case["seq"]
    err2 = 0.0
    for z, (_, mfact) in zip(mesh_case["zs"], mesh_facts):
        assert mfact.converged
        assert mfact.p_b_achieved <= 0.85
        err2 += float(np.sum((z - mfact.basis @ mfact.coeffs) ** 2))
    mesh_rmse = float(np.sqrt(err2 / (3 * seq.m * seq.n)))
    ratio_mesh = mesh_rmse / mesh_case["lrma_rmse"]
    assert ratio_mesh <= 1.15
    report(4, "lrma-comparable",
           f"image ratio {ratio_img:.3f} at p_B "
           f"{fact.p_b_achieved:.2f}, mesh ratio {ratio_mesh:.3f}")


def test_criterion_5_beats_stepwise(image_case, image_fact_60):
    _, fact = image_fact_60
    slrma_rmse = rmse(image_case["data"].x,
                      reconstruct(image_case["phi"], fact))
    baseline = stepwise_baseline(image_case["data"].x, image_case["phi"],
                                 8, 0.6)
    assert slrma_rmse < baseline.rmse
    report(5, "beats-stepwise",
           f"slrma {slrma_rmse:.3f} < stepwise {baseline.rmse:.3f} "
           f"at k=8, p_B=0.6")


def test_criterion_6_orthogonality_and_sparsity(image_fact_60, mesh_facts):
    _, fact = image_fact_60
    dev = np.abs(fact.basis.T @ fact.basis - np.eye(8)).max()
    assert dev <= 1e-12
    assert abs(fact.p_b_achieved - 0.6) <= 0.05
    devs = [dev]
    for _, mfact in mesh_facts:
        d = np.abs(mfact.basis.T @ mfact.basis - np.eye(6)).max()
        devs.append(d)
        assert d <= 1e-12
        assert abs(mfact.p_b_achieved - 0.8) <= 0.05
    report(6, "orthogonality-sparsity",
           f"worst ||B'B - I|| {max(devs):.2e}, all targets within 0.05")


def test_criterion_7_transform_correctness(mesh_case):
    candidates = {
        "dct1d(16)": dct1d(16),
        "dct2d(16,16)": dct2d(16, 16),
        "haar(16,1)": haar1d(16, 1),
        "haar(16,3)": haar1d(16, 3),
        "haar(16,4)": haar1d(16, 4),
        "gt(path6)": graph_transform(
            graph_spec(6, [(i, i + 1) for i in range(5)])),
        "gt(cycle4)": graph_transform(
            graph_spec(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
        "gt(mesh)": mesh_case["u_gt"],
    }
    worst = 0.0
    for name, phi in candidates.items():
        eye = np.eye(phi.size)
        dev = max(np.abs(phi.matrix.T @ phi.matrix - eye).max(),
                  np.abs(phi.matrix @ phi.matrix.T - eye).max())
        worst = max(worst, dev)
        assert dev < 1e-10, name
    rt2 = np.sqrt(2.0)
    two_path = graph_transform(graph_spec(2, [(0, 1)]))
    assert np.allclose(two_path.matrix[:, 0], [1 / rt2, 1 / rt2], atol=1e-12)
    assert np.allclose(np.abs(two_path.matrix[:, 1]), [1 / rt2, 1 / rt2],
                       atol=1e-12)
    mesh_graph = mesh_adjacency(mesh_case["seq"].faces, mesh_case["seq"].m)
    for g in (graph_spec(6, [(i, i + 1) for i in range(5)]), mesh_graph):
        assert np.abs(laplacian(g) @ np.ones(g.vertex_count)).max() < 1e-12
    report(7, "transforms", f"worst orthonormality deviation {worst:.2e}")


def test_criterion_8_codec_losslessness_and_bounds(image_case, image_fact_60):
    rng = np.random.default_rng(103)
    for case in range(200):
        rows = int(rng.integers(1, 22))
        cols = int(rng.integers(1, 22))
        density = rng.uniform(0.01, 0.9)
        values = rng.normal(size=(rows, cols)) * 50
        values[rng.random(size=(rows, cols)) > density] = 0.0
        q = quantize(values, 0.05)
        back = entropy_decode(entropy_encode(q), rows, cols, 0.05)
        assert np.array_equal(q.significance, back.significance)
        assert np.array_equal(q.levels, back.levels)
    data = image_case["data"]
    # the codec's target_pb=0.6 solve is the one image_fact_60 holds
    _, fact = image_fact_60
    params = CodecParams(k=8, step_b=0.004, step_c=1.0, transform="dct",
                         target_pb=0.6)
    blob = compress_image_set(data.x, data.w, data.h, params)
    assert blob == compress_image_set(data.x, data.w, data.h, params)
    x_hat, _, _ = decompress_image_set(blob)
    x_hat2, _, _ = decompress_image_set(blob)
    assert np.array_equal(x_hat, x_hat2)
    phi = image_case["phi"]
    bound = factor_quantization_bound(fact.basis, fact.coeffs, 0.004, 1.0)
    lossless = rmse(data.x, reconstruct(phi, fact))
    end_to_end = rmse(data.x, x_hat)
    assert end_to_end <= lossless + bound / np.sqrt(data.x.size) + 1e-12
    errs = []
    for step_b, step_c in ((0.016, 4.0), (0.008, 2.0), (0.004, 1.0)):
        p = CodecParams(k=8, step_b=step_b, step_c=step_c, transform="dct",
                        target_pb=0.6)
        xh, _, _ = decompress_image_set(
            compress_image_set(data.x, data.w, data.h, p))
        errs.append(rmse(data.x, xh))
    assert errs[0] >= errs[1] >= errs[2]
    tampered = bytearray(blob)
    tampered[:4] = b"XXXX"
    with pytest.raises(BadMagicError):
        decompress_image_set(bytes(tampered))
    with pytest.raises(CorruptStreamError):
        decompress_image_set(blob[:-5])
    report(8, "codec-lossless-bounds",
           f"200 roundtrips exact, e2e rmse {end_to_end:.3f} <= "
           f"{lossless:.3f}+{bound / np.sqrt(data.x.size):.3f}, ladder {np.round(errs, 3)}")


def test_criterion_9_rd_behavior(image_case, mesh_case):
    grid_img = SweepGrid(ks=(4, 8, 12), pb_targets=(0.4, 0.6, 0.8),
                         steps=((0.016, 4.0), (0.008, 2.0), (0.004, 1.0)),
                         transform="dct")
    data = image_case["data"]
    rows_img, front_img = rd_sweep(data, grid_img)
    assert len(rows_img) == 27
    ok_img = [r for r in rows_img if not r.error]
    assert len(ok_img) == 27
    assert front_img, "image front is empty"
    dists = [r.distortion for r in front_img]
    rates = [r.rate for r in front_img]
    assert rates == sorted(rates)
    assert all(b < a for a, b in zip(dists, dists[1:]))
    for r in ok_img:
        assert r.bits % 8 == 0
        assert r.rate == r.bits / (data.w * data.h * data.n)
    grid_mesh = SweepGrid(ks=(4, 8, 12), pb_targets=(0.4, 0.6, 0.8),
                          steps=((0.016, 4.0), (0.008, 2.0), (0.004, 1.0)),
                          transform="gt")
    seq = mesh_case["seq"]
    rows_mesh, front_mesh = rd_sweep(seq, grid_mesh)
    assert len(rows_mesh) == 27
    ok_mesh = [r for r in rows_mesh if not r.error]
    assert len(ok_mesh) >= 24
    assert front_mesh, "mesh front is empty"
    dists = [r.distortion for r in front_mesh]
    rates = [r.rate for r in front_mesh]
    assert rates == sorted(rates)
    assert all(b < a for a, b in zip(dists, dists[1:]))
    for r in ok_mesh:
        assert r.rate == r.bits / (seq.m * seq.n)
    report(9, "rd-sweep",
           f"image {len(ok_img)}/27 points, front {len(front_img)}; "
           f"mesh {len(ok_mesh)}/27 points, front {len(front_mesh)}")


def test_criterion_10_metric_definitions(mesh_case):
    seq = mesh_case["seq"]
    mean = frame_mean_matrix([seq.xx, seq.xy, seq.xz])
    m = seq.m
    assert kg_error(seq.xx, seq.xy, seq.xz,
                    mean[:m], mean[m:2 * m], mean[2 * m:]) == 100.0
    rng = np.random.default_rng(104)
    x = rng.uniform(0, 255, size=(9, 7))
    y = rng.uniform(0, 255, size=(9, 7))
    manual_rmse = float(np.sqrt(np.mean((x - y) ** 2)))
    assert abs(rmse(x, y) - manual_rmse) < 1e-10
    assert abs(psnr(x, y) - 20 * np.log10(255 / manual_rmse)) < 1e-10
    stacked = np.vstack([seq.xx, seq.xy, seq.xz])
    noisy = stacked + rng.normal(size=stacked.shape)
    manual = float(np.sqrt(np.sum((stacked - noisy) ** 2) / (3 * seq.m * seq.n)))
    assert abs(rmse(stacked, noisy) - manual) < 1e-10
    report(10, "metric-definitions",
           "kg(E(X)) = 100 exactly, rmse/psnr match recomputation, "
           "stacked 3m x n convention verified")
