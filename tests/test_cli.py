import dataclasses

import numpy as np
import pytest

from slrma import codec, solver, sweep
from slrma.cli import cli_main
from slrma.container import pack_container, unpack_container
from slrma.datasets import (
    load_image_set,
    save_mesh_sequence,
    synth_image_set,
    synth_mesh_seq,
)
from slrma.metrics import psnr, rmse
from slrma.solver import slrma_solve


def run(argv):
    return cli_main(argv)


def test_unknown_flag_is_usage_error(capsys):
    assert run(["synth", "--kind", "images", "--out", "x", "--bogus"]) == 1
    assert "usage error" in capsys.readouterr().err
    # the penalty schedule and the stopping rule are fixed: no flag sets them
    for command in (["compress-images", "x.pgm", "--out", "x", "--k", "2", "--gamma", "1"],
                    ["compress-mesh", "x.off", "--out", "x", "--k", "2", "--gamma", "1"],
                    ["rd-sweep", "--kind", "images", "--csv", "x.csv"]):
        for flag, value in (("--rho0", "1"), ("--rho-max", "1"), ("--tol", "1e-6"),
                            ("--max-iters", "5")):
            assert run(command + [flag, value]) == 1
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert run([]) == 1


def test_nan_flag_values_are_usage_errors(tmp_path, capsys):
    src = tmp_path / "in"
    assert run(["synth", "--kind", "images", "--out", str(src),
                "--w", "8", "--h", "8", "--n", "6", "--rank", "2"]) == 0
    compress = ["compress-images", str(src), "--out", str(tmp_path / "c.slrm"), "--k", "2"]
    for flags in (["--gamma", "nan"], ["--gamma", "inf"], ["--gamma", "1", "--alpha", "nan"]):
        assert run(compress + flags) == 1
        assert "usage error" in capsys.readouterr().err


def test_gamma_and_target_pb_are_one_required_choice(capsys):
    # the sparsity rule is one flag: neither and both are usage errors
    for command in (["compress-images", "x.pgm", "--out", "x", "--k", "2"],
                    ["compress-mesh", "x.off", "--out", "x", "--k", "2"]):
        for flags in ([], ["--gamma", "1", "--target-pb", "0.5"]):
            assert run(command + flags) == 1
            err = capsys.readouterr().err
            assert "usage error" in err and "--target-pb" in err and "--gamma" in err


def test_synth_mesh_too_few_vertices_is_usage_error(tmp_path, capsys):
    for m in ("2", "3"):
        assert run(["synth", "--kind", "mesh", "--out", str(tmp_path / m), "--m", m]) == 1
        assert "need at least 4 vertices" in capsys.readouterr().err


def test_solver_blow_up_is_not_converged_exit_code(tmp_path, capsys):
    # sigma_1 ~ 1e155: sigma_1^2 overflows, so the solve stops before its first sweep
    seq = synth_mesh_seq(16, 8, seed=1)
    scaled = dataclasses.replace(seq, xx=seq.xx * 1e153, xy=seq.xy * 1e153,
                                 xz=seq.xz * 1e153)
    save_mesh_sequence(scaled, tmp_path / "seq")
    assert run(["compress-mesh", str(tmp_path / "seq"), "--out", str(tmp_path / "c.slrm"),
                "--k", "2", "--target-pb", "0.5"]) == 3
    assert capsys.readouterr().err == (
        "not converged: solver did not converge within 0 iterations\n")


def test_lapack_failure_in_a_solve_is_not_converged_exit_code(tmp_path, capsys,
                                                              monkeypatch):
    src = tmp_path / "in"
    assert run(["synth", "--kind", "images", "--out", str(src),
                "--w", "8", "--h", "8", "--n", "12", "--rank", "2", "--seed", "3"]) == 0
    eigh = np.linalg.eigh

    def no_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", no_eigh)
        assert run(["compress-images", str(src), "--out", str(tmp_path / "c.slrm"),
                    "--k", "4", "--gamma", "50"]) == 3
    assert np.linalg.eigh is eigh
    assert capsys.readouterr().err == (
        "not converged: solver did not converge within 0 iterations\n")
    assert not (tmp_path / "c.slrm").exists()


def test_lapack_failure_in_the_first_svd_is_not_converged_exit_code(tmp_path, capsys,
                                                                    monkeypatch):
    # the SVD every solve starts from fails like a Q step does: exit 3, not 2
    src = tmp_path / "in"
    assert run(["synth", "--kind", "images", "--out", str(src),
                "--w", "8", "--h", "8", "--n", "12", "--rank", "2", "--seed", "3"]) == 0

    def no_svd(a, full_matrices=True):
        raise np.linalg.LinAlgError("SVD did not converge")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", no_svd)
        assert run(["compress-images", str(src), "--out", str(tmp_path / "c.slrm"),
                    "--k", "4", "--gamma", "50"]) == 3
    assert capsys.readouterr().err == "not converged: SVD did not converge\n"
    assert not (tmp_path / "c.slrm").exists()


def counted_solves(monkeypatch):
    """A list that gains an entry per slrma_solve call from now on."""
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return slrma_solve(*args, **kwargs)

    for module in (codec, solver):
        monkeypatch.setattr(module, "slrma_solve", counted)
    return solves


@pytest.mark.parametrize("command, flag, value", [
    ("compress-images", "--step-b", "0"), ("compress-mesh", "--step-c", "nan")])
def test_a_bad_step_is_usage_error_before_any_solve(tmp_path, capsys, monkeypatch,
                                                    command, flag, value):
    # every bad value is refused alike: see test_codec_params_refuse_a_bad_step_*
    kind = "images" if command == "compress-images" else "mesh"
    src = tmp_path / "in"
    assert run(["synth", "--kind", kind, "--out", str(src), "--n", "6", "--seed", "1"]) == 0
    solves = counted_solves(monkeypatch)
    out = tmp_path / "c.slrm"
    assert run([command, str(src), "--out", str(out), "--k", "2", "--gamma", "1",
                flag, value]) == 1
    assert "usage error: quantizer steps" in capsys.readouterr().err
    assert solves == []
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--pbs", "0.3,1.5"], ["--steps", "0.008:4,0:1"],
                                   ["--ks", "2,40"], ["--ks", "8", "--pbs", "0.999"],
                                   ["--alpha", "1.0"]],
                         ids=["target", "step", "k", "k-target", "alpha"])
def test_rd_sweep_checks_the_whole_grid_before_any_solve(tmp_path, capsys,
                                                         monkeypatch, flags):
    solves = counted_solves(monkeypatch)
    csv_path = tmp_path / "sweep.csv"
    assert run(["rd-sweep", "--kind", "images", "--ks", "2,4", "--pbs", "0.3",
                "--steps", "0.008:4", "--csv", str(csv_path)] + flags) == 1
    assert "usage error" in capsys.readouterr().err
    assert solves == []
    assert not csv_path.exists()


def test_synth_images_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["synth", "--kind", "images", "--out", str(out),
                    "--w", "8", "--h", "8", "--n", "4", "--rank", "2",
                    "--seed", "7"]) == 0
    files_a = sorted(a.glob("*.pgm"))
    assert len(files_a) == 4
    for fa, fb in zip(files_a, sorted(b.glob("*.pgm"))):
        assert fa.read_bytes() == fb.read_bytes()


def test_synth_mesh_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["synth", "--kind", "mesh", "--out", str(out),
                    "--m", "16", "--n", "4", "--seed", "7"]) == 0
    for fa, fb in zip(sorted(a.glob("*.off")), sorted(b.glob("*.off"))):
        assert fa.read_text() == fb.read_text()


def test_compress_requires_gamma_or_target(tmp_path):
    src = tmp_path / "in"
    assert run(["synth", "--kind", "images", "--out", str(src),
                "--w", "8", "--h", "8", "--n", "4", "--rank", "2"]) == 0
    code = run(["compress-images", str(src), "--out",
                str(tmp_path / "c.slrm"), "--k", "2"])
    assert code == 1


def test_image_cli_end_to_end(tmp_path, capsys):
    src = tmp_path / "in"
    recon = tmp_path / "out"
    container = tmp_path / "c.slrm"
    assert run(["synth", "--kind", "images", "--out", str(src),
                "--w", "8", "--h", "8", "--n", "12", "--rank", "2",
                "--noise", "1.0", "--seed", "3"]) == 0
    assert run(["compress-images", str(src), "--out", str(container),
                "--k", "4", "--gamma", "50", "--step-b", "0.002",
                "--step-c", "0.5"]) == 0
    assert run(["decompress-images", str(container), "--out", str(recon)]) == 0
    csv_path = tmp_path / "m.csv"
    assert run(["measure", "--orig", str(src), "--recon", str(recon),
                "--container", str(container), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "rmse=" in out and "psnr=" in out and "bpp=" in out
    # the reported numbers match an in-process recomputation on the files
    a = load_image_set(sorted(src.glob("*.pgm")))
    b = load_image_set(sorted(recon.glob("*.pgm")))
    reported = dict(line.split("=") for line in out.strip().splitlines()
                    if "=" in line and "wrote" not in line)
    assert float(reported["rmse"]) == rmse(a.x, b.x)
    assert float(reported["psnr"]) == psnr(a.x, b.x)
    header, values = csv_path.read_text().splitlines()
    assert header.split(",")[0] == "rmse"


def test_quantizer_overflow_is_data_error(tmp_path, capsys):
    # basis entries of about 0.1 at step 1e-300 are levels far past int64
    src = tmp_path / "in"
    assert run(["synth", "--kind", "images", "--out", str(src),
                "--w", "8", "--h", "8", "--n", "6", "--rank", "2"]) == 0
    assert run(["compress-images", str(src), "--out", str(tmp_path / "c.slrm"),
                "--k", "2", "--gamma", "50", "--step-b", "1e-300"]) == 2
    assert "error: SizeOverflowError" in capsys.readouterr().err


def test_transform_and_levels_flags(tmp_path, capsys):
    src = tmp_path / "in"
    container = tmp_path / "c.slrm"
    assert run(["synth", "--kind", "images", "--out", str(src),
                "--w", "8", "--h", "8", "--n", "6", "--rank", "2"]) == 0
    compress = ["compress-images", str(src), "--out", str(container),
                "--k", "2", "--target-pb", "0.5"]
    assert run(compress + ["--transform", "dwt", "--levels", "2"]) == 0
    header, _ = unpack_container(container.read_bytes())
    assert (header.transform_kind, header.transform_params) == ("dwt2d", (8, 8, 2))
    capsys.readouterr()
    for bad in (["--transform", "dwt:2"], ["--transform", "haar"], ["--levels", "two"],
                ["--levels", "0"], ["--levels", "-1"]):
        assert run(compress + bad) == 1
        assert "usage error" in capsys.readouterr().err
    # a level count below 1 is a bad flag on every command that takes one
    for levels in ("0", "-1"):
        assert run(["rd-sweep", "--kind", "images", "--csv", str(tmp_path / "s.csv"),
                    "--levels", levels]) == 1
        assert "--levels: must be at least 1" in capsys.readouterr().err
    # levels the 8x8 images cannot take are a data error
    assert run(compress + ["--transform", "dwt", "--levels", "4"]) == 2
    assert "BadLevelsError: m=8 not divisible by 2^4" in capsys.readouterr().err


def test_measure_identical_flags_infinite_psnr(tmp_path, capsys):
    src = tmp_path / "in"
    assert run(["synth", "--kind", "images", "--out", str(src),
                "--w", "8", "--h", "8", "--n", "3", "--rank", "2"]) == 0
    assert run(["measure", "--orig", str(src), "--recon", str(src)]) == 0
    out = capsys.readouterr().out
    assert "rmse=0.0" in out
    assert "psnr=inf" in out
    assert "psnr_infinite=true" in out


def test_mesh_cli_end_to_end(tmp_path, capsys):
    src = tmp_path / "mesh"
    recon = tmp_path / "mesh_out"
    container = tmp_path / "m.slrm"
    assert run(["synth", "--kind", "mesh", "--out", str(src),
                "--m", "64", "--n", "16", "--amplitude", "60",
                "--seed", "1"]) == 0
    assert run(["compress-mesh", str(src), "--out", str(container),
                "--k", "3", "--gamma", "20", "--step-b", "0.002",
                "--step-c", "0.5"]) == 0
    faces_file = sorted(src.glob("*.off"))[0]
    assert run(["decompress-mesh", str(container), "--faces",
                str(faces_file), "--out", str(recon)]) == 0
    assert run(["measure", "--orig", str(src), "--recon", str(recon),
                "--container", str(container)]) == 0
    out = capsys.readouterr().out
    assert "kg_error=" in out and "bpfv=" in out


def test_measure_mesh_frames_given_as_files(tmp_path, capsys):
    # the kind follows the files' suffix, as it follows a directory's contents
    src = tmp_path / "mesh"
    assert run(["synth", "--kind", "mesh", "--out", str(src), "--m", "16", "--n", "4"]) == 0
    frames = [str(path) for path in sorted(src.glob("*.off"))]
    assert run(["measure", "--orig", *frames, "--recon", *frames]) == 0
    assert "kg_error=" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["OFF\n0 0 0\n", "OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n"],
                         ids=["no-vertices", "negative-face-count"])
def test_off_with_no_vertices_or_a_negative_count_is_data_error(tmp_path, capsys, text):
    frame = tmp_path / "bad.off"
    frame.write_text(text)
    assert run(["compress-mesh", str(frame), "--out", str(tmp_path / "c.slrm"),
                "--k", "1", "--gamma", "1"]) == 2
    assert run(["measure", "--orig", str(frame), "--recon", str(frame)]) == 2
    assert capsys.readouterr().err.count("error: FormatError") == 2


def test_empty_pgm_is_data_error(tmp_path, capsys):
    image = tmp_path / "empty.pgm"
    image.write_bytes(b"P5\n0 0\n255\n")
    assert run(["compress-images", str(image), "--out", str(tmp_path / "c.slrm"),
                "--k", "1", "--gamma", "1"]) == 2
    assert run(["measure", "--orig", str(image), "--recon", str(image)]) == 2
    assert capsys.readouterr().err.count("error: FormatError") == 2


def test_decompress_bad_magic_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.slrm"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run(["decompress-images", str(bad), "--out",
                str(tmp_path / "o")]) == 2
    assert "BadMagic" in capsys.readouterr().err


def assert_old_version_is_data_error(version, tmp_path, capsys):
    data = synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)
    params = codec.CodecParams(k=4, step_b=0.002, step_c=0.5, gamma=50.0)
    blob = bytearray(codec.compress_image_set(data.x, data.w, data.h, params))
    blob[4] = version
    old = tmp_path / f"v{version}.slrm"
    old.write_bytes(bytes(blob))
    assert run(["decompress-images", str(old), "--out", str(tmp_path / "o")]) == 2
    assert "VersionUnsupported" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
def test_decompress_old_version_container_is_data_error(version, tmp_path, capsys):
    assert_old_version_is_data_error(version, tmp_path, capsys)


def test_decompress_crafted_header_is_data_error(tmp_path, capsys):
    data = synth_image_set(8, 8, 12, rank=2, noise_sigma=1.0, seed=3)
    params = codec.CodecParams(k=4, step_b=0.002, step_c=0.5, gamma=50.0)
    header, payloads = unpack_container(
        codec.compress_image_set(data.x, data.w, data.h, params))
    bad = tmp_path / "bad.slrm"
    # 4 x 8 images: 32 basis rows where the payload holds 64
    bad.write_bytes(pack_container(dataclasses.replace(header, transform_params=(4, 8)),
                                   payloads))
    assert run(["decompress-images", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "CorruptStream" in capsys.readouterr().err


def test_a_container_of_the_other_pipeline_is_data_error(tmp_path, capsys):
    images, mesh = tmp_path / "images", tmp_path / "mesh"
    image_blob, mesh_blob = tmp_path / "i.slrm", tmp_path / "m.slrm"
    assert run(["synth", "--kind", "images", "--out", str(images), "--w", "8",
                "--h", "8", "--n", "12", "--rank", "2", "--seed", "3"]) == 0
    assert run(["synth", "--kind", "mesh", "--out", str(mesh), "--m", "16",
                "--n", "4", "--seed", "1"]) == 0
    assert run(["compress-images", str(images), "--out", str(image_blob),
                "--k", "4", "--gamma", "50"]) == 0
    assert run(["compress-mesh", str(mesh), "--out", str(mesh_blob), "--k", "2",
                "--target-pb", "0.5", "--step-b", "0.01", "--step-c", "1.0"]) == 0
    # an image container whose header names the graph transform of its m
    header, payloads = unpack_container(image_blob.read_bytes())
    graph = dataclasses.replace(header, transform_kind="graph", transform_params=(64,),
                                digest=bytes(8))
    (tmp_path / "u.slrm").write_bytes(pack_container(graph, payloads))
    faces = str(sorted(mesh.glob("*.off"))[0])
    capsys.readouterr()
    for command in (["decompress-mesh", str(image_blob), "--faces", faces],
                    ["decompress-images", str(mesh_blob)],
                    ["decompress-images", str(tmp_path / "u.slrm")]):
        assert run(command + ["--out", str(tmp_path / "o")]) == 2
        assert "error: CorruptStreamError: not a" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_malformed_off_face_is_data_error(tmp_path, capsys):
    seq = synth_mesh_seq(16, 4, seed=1)
    container = tmp_path / "m.slrm"
    container.write_bytes(codec.compress_mesh_seq(
        seq.xx, seq.xy, seq.xz, seq.faces,
        codec.CodecParams(k=2, step_b=0.01, step_c=1.0, target_pb=0.5)))
    # a vertex index past the count, and a degenerate face
    for bad_face in ((0, 1, 16), (11, 15, 15)):
        src = tmp_path / "_".join(map(str, bad_face))
        faces = seq.faces[:-1] + (bad_face,)
        save_mesh_sequence(dataclasses.replace(seq, faces=faces), src)
        assert run(["compress-mesh", str(src), "--out", str(tmp_path / "c.slrm"),
                    "--k", "2", "--target-pb", "0.5", "--step-b", "0.01",
                    "--step-c", "1.0"]) == 2
        assert run(["decompress-mesh", str(container), "--faces",
                    str(sorted(src.glob("*.off"))[0]), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.count("error: FormatError") == 2


def test_non_utf8_off_is_data_error(tmp_path, capsys):
    seq = synth_mesh_seq(16, 4, seed=1)
    src = tmp_path / "seq"
    save_mesh_sequence(seq, src)
    frame = sorted(src.glob("*.off"))[1]
    frame.write_bytes(frame.read_bytes() + b"# \xff\n")
    assert run(["compress-mesh", str(src), "--out", str(tmp_path / "c.slrm"),
                "--k", "2", "--target-pb", "0.5", "--step-b", "0.01",
                "--step-c", "1.0"]) == 2
    assert run(["decompress-mesh", str(tmp_path / "none.slrm"), "--faces", str(frame),
                "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: FormatError") == 2 and "utf-8" in err
    assert "usage error" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e999"])
def test_non_finite_off_coordinate_is_data_error(tmp_path, capsys, value):
    seq = synth_mesh_seq(16, 4, seed=1)
    src = tmp_path / "seq"
    save_mesh_sequence(seq, src)
    frame = sorted(src.glob("*.off"))[1]
    lines = frame.read_text().splitlines()
    x, y, z = lines[5].split()
    lines[5] = f"{x} {value} {z}"
    frame.write_text("\n".join(lines) + "\n")
    assert run(["compress-mesh", str(src), "--out", str(tmp_path / "c.slrm"),
                "--k", "2", "--target-pb", "0.5", "--step-b", "0.01",
                "--step-c", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "error: FormatError" in err and "NaN or Inf" in err
    assert "usage error" not in err


def test_missing_file_is_data_error(tmp_path):
    assert run(["decompress-images", str(tmp_path / "nope.slrm"),
                "--out", str(tmp_path / "o")]) == 2


def test_rd_sweep_cli(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert run(["rd-sweep", "--kind", "images", "--seed", "3",
                "--ks", "2,4", "--pbs", "0.3",
                "--steps", "0.008:2,0.004:1", "--csv", str(csv_path)]) == 0
    text = csv_path.read_text()
    assert text.startswith("k,p_B_target,p_B_achieved,gamma")
    assert len(text.splitlines()) == 5  # header + 4 grid points
    front = csv_path.with_suffix(".front.csv")
    assert front.exists()
    # one printed line per Pareto point, in the front CSV's order
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("  ")]
    front_rows = front.read_text().splitlines()[1:]
    assert len(printed) == len(front_rows) >= 1
    for line, csv_row in zip(printed, front_rows):
        k, rate = csv_row.split(",")[0], float(csv_row.split(",")[8])
        assert line.startswith(f"  {rate:8.4f} bpp   rmse ")
        assert f"(k={k}, p_B " in line
    # reproducible bit for bit
    csv2 = tmp_path / "sweep2.csv"
    assert run(["rd-sweep", "--kind", "images", "--seed", "3",
                "--ks", "2,4", "--pbs", "0.3",
                "--steps", "0.008:2,0.004:1", "--csv", str(csv2)]) == 0
    assert csv2.read_text() == text


def test_rd_sweep_cli_rejects_unsupported_transform(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting the transform")

    for module in (codec, sweep):
        monkeypatch.setattr(module, "gamma_for_sparsity", no_solve)
    csv_path = tmp_path / "sweep.csv"
    assert run(["rd-sweep", "--kind", "images", "--transform", "gt",
                "--ks", "2", "--pbs", "0.3", "--steps", "0.004:1",
                "--csv", str(csv_path)]) == 1
    assert "argument --transform: invalid choice: 'gt'" in capsys.readouterr().err
    assert not csv_path.exists()


def test_mesh_rd_sweep_refuses_image_flags(tmp_path, capsys, monkeypatch):
    # a mesh sweep always uses the graph transform: an image transform flag
    # is a usage error before anything is solved, not a flag it ignores
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before refusing the flag")

    for module in (codec, sweep):
        monkeypatch.setattr(module, "gamma_for_sparsity", no_solve)
    csv_path = tmp_path / "sweep.csv"
    sweep_mesh = ["rd-sweep", "--kind", "mesh", "--ks", "2", "--pbs", "0.5",
                  "--steps", "0.004:1", "--csv", str(csv_path)]
    for flags in (["--transform", "dwt", "--levels", "9"], ["--transform", "dct"],
                  ["--levels", "3"]):
        assert run(sweep_mesh + flags) == 1
        assert "--transform and --levels apply to --kind images only" in capsys.readouterr().err
    assert not csv_path.exists()


def test_compress_mesh_takes_no_image_flags(tmp_path, capsys):
    src = tmp_path / "mesh"
    assert run(["synth", "--kind", "mesh", "--out", str(src), "--m", "16", "--n", "4"]) == 0
    compress = ["compress-mesh", str(src), "--out", str(tmp_path / "m.slrm"),
                "--k", "2", "--target-pb", "0.5"]
    for flag, value in (("--transform", "dct"), ("--transform", "gt"),
                        ("--levels", "2"), ("--levels", "0")):
        assert run(compress + [flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "m.slrm").exists()
    # and no command names the graph transform, which only meshes use
    for command in (["compress-images", "x.pgm", "--out", "x", "--k", "2", "--gamma", "1"],
                    ["rd-sweep", "--kind", "mesh", "--csv", "x.csv"]):
        assert run(command + ["--transform", "gt"]) == 1
        assert "argument --transform: invalid choice: 'gt'" in capsys.readouterr().err
