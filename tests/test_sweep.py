import csv
import io

import pytest

from slrma import codec, solver, sweep
from slrma.codec import (
    CodecParams,
    compress_image_set,
    compress_mesh_seq,
    decompress_image_set,
    decompress_mesh_seq,
)
from slrma.datasets import ImageSet, synth_image_set, synth_mesh_seq
from slrma.errors import NotConvergedError, SizeOverflowError
from slrma.metrics import kg_error, rmse
from slrma.sweep import CSV_COLUMNS, SweepGrid, pareto_front, rd_sweep, rows_to_csv


def test_pareto_front_hand_case():
    points = [(1.0, 5.0), (2.0, 3.0), (2.0, 4.0), (3.0, 1.0)]
    assert pareto_front(points) == [(1.0, 5.0), (2.0, 3.0), (3.0, 1.0)]


def test_pareto_front_dominated_tail():
    points = [(1.0, 1.0), (2.0, 2.0), (3.0, 0.5)]
    assert pareto_front(points) == [(1.0, 1.0), (3.0, 0.5)]


def small_grid():
    return SweepGrid(ks=(2, 4), pb_targets=(0.3,), steps=((0.008, 2.0), (0.004, 1.0)),
                     transform="dct")


def test_rd_sweep_rows_and_front():
    data = synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)
    rows, front = rd_sweep(data, small_grid())
    assert len(rows) == 4
    assert all(not r.error for r in rows)
    rates = [r.rate for r in front]
    dists = [r.distortion for r in front]
    assert rates == sorted(rates)
    assert all(b < a for a, b in zip(dists, dists[1:]))


def one_shot_compress(data, params):
    if isinstance(data, ImageSet):
        return compress_image_set(data.x, data.w, data.h, params)
    return compress_mesh_seq(data.xx, data.xy, data.xz, data.faces, params)


def test_rd_sweep_single_point_matches_standalone(monkeypatch):
    # The sweep encodes its one factorization per target at every step pair;
    # a one-shot compress with the row's target must give the same container
    # size and distortion, or the same error.
    images = synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)
    mesh = synth_mesh_seq(16, 8, seed=1)
    two_steps = ((0.008, 2.0), (0.004, 1.0))
    cases = [
        (images, SweepGrid(ks=(3,), pb_targets=(0.3,), steps=two_steps),
         solver.MAX_ITERS),
        (mesh, SweepGrid(ks=(2,), pb_targets=(0.5,), steps=two_steps,
                         solver={"alpha": 1.02}), solver.MAX_ITERS),
        # the solve stops after 5 sweeps: a NotConvergedError row
        (mesh, SweepGrid(ks=(2,), pb_targets=(0.5,), steps=((0.004, 1.0),),
                         solver={"alpha": 1.02}), 5),
    ]
    errors = 0
    for data, grid, max_iters in cases:
        with monkeypatch.context() as patch:
            patch.setattr(solver, "MAX_ITERS", max_iters)
            rows, _ = rd_sweep(data, grid)
            for row in rows:
                params = CodecParams(k=row.k, step_b=row.step_b, step_c=row.step_c,
                                     transform=grid.transform, levels=grid.levels,
                                     target_pb=row.p_b_target, solver=dict(grid.solver))
                if row.error:
                    errors += 1
                    with pytest.raises(NotConvergedError) as info:
                        one_shot_compress(data, params)
                    assert row.error == f"NotConvergedError: {info.value}"
                    continue
                blob = one_shot_compress(data, params)
                assert row.bits == 8 * len(blob)
                if isinstance(data, ImageSet):
                    x_hat, _, _ = decompress_image_set(blob)
                    assert row.rmse == rmse(data.x, x_hat)
                else:
                    hx, hy, hz = decompress_mesh_seq(blob, data.faces)
                    assert row.kg_error == kg_error(data.xx, data.xy, data.xz,
                                                    hx, hy, hz)
    assert errors == 1


@pytest.mark.parametrize("transform", ["gt", "dtc"])
def test_rd_sweep_rejects_unsupported_transform_before_any_solve(
        monkeypatch, transform):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting the transform")

    for module in (codec, sweep):
        monkeypatch.setattr(module, "gamma_for_sparsity", no_solve)
    monkeypatch.setattr(codec, "slrma_solve", no_solve)
    data = synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)
    grid = SweepGrid(ks=(2,), pb_targets=(0.3,), steps=((0.004, 1.0),),
                     transform=transform)
    with pytest.raises(ValueError, match="unsupported image transform"):
        rd_sweep(data, grid)


def test_rd_sweep_refuses_too_many_frames_before_any_solve(monkeypatch):
    # the frame bound the mesh codec keeps, at 32 frames: 32^2 cells > 1023
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a mesh its decoder would refuse")

    def no_dct1d(n):
        raise AssertionError(f"built a {n}-point frame DCT")

    for module in (codec, sweep):
        monkeypatch.setattr(module, "gamma_for_sparsity", no_solve)
    monkeypatch.setattr(codec, "slrma_solve", no_solve)
    monkeypatch.setattr(codec, "dct1d", no_dct1d)
    monkeypatch.setattr(codec, "MAX_CELLS", 1023)
    grid = SweepGrid(ks=(2,), pb_targets=(0.5,), steps=((0.004, 1.0),))
    with pytest.raises(SizeOverflowError, match="32 frames"):
        rd_sweep(synth_mesh_seq(16, 32, seed=1), grid)


def test_csv_schema_and_determinism():
    data = synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)
    rows1, front1 = rd_sweep(data, small_grid())
    rows2, _ = rd_sweep(data, small_grid())
    csv1 = rows_to_csv(rows1)
    csv2 = rows_to_csv(rows2)
    assert csv1 == csv2
    header = csv1.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert header.startswith(
        "k,p_B_target,p_B_achieved,gamma,step_b,step_c,transform,bits,rate,"
        "rmse,psnr,kg_error,iters,converged")
    assert "\r" not in csv1
    # every row carries the full parameter set needed to re-run it
    line = csv1.splitlines()[1].split(",")
    assert line[0] and line[1] and line[4] and line[5] and line[6]


FLOAT_COLUMNS = ("p_B_target", "p_B_achieved", "gamma", "step_b", "step_c",
                 "rate", "rmse", "psnr", "kg_error")


def test_csv_floats_parse_and_mesh_rows_name_gt():
    images = synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)
    mesh = synth_mesh_seq(16, 8, seed=1)
    # the grid's default transform is "dct"; a mesh sweep still uses gt
    mesh_grid = SweepGrid(ks=(2,), pb_targets=(0.5,), steps=((0.004, 1.0),),
                          solver={"alpha": 1.02})
    image_rows, _ = rd_sweep(images, small_grid())
    mesh_rows, _ = rd_sweep(mesh, mesh_grid)
    assert mesh_grid.transform == "dct"
    assert mesh_rows and all(r.transform == "gt" for r in mesh_rows)
    for rows in (image_rows, mesh_rows):
        records = list(csv.DictReader(io.StringIO(rows_to_csv(rows))))
        assert len(records) == len(rows)
        assert all(not r["error"] for r in records)
        assert records[0]["p_B_achieved"]
        for record in records:
            for column in FLOAT_COLUMNS:
                if record[column]:
                    float(record[column])
