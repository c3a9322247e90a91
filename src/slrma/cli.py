"""Command-line interface: compression, measurement, sweeps, synthesis.

Exit codes: 0 success, 1 usage error, 2 data error (an input too large to
hold in memory too), 3 a solve or a LAPACK decomposition did not converge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import datasets
from .codec import (
    CodecParams,
    compress_image_set,
    compress_mesh_seq,
    decompress_image_set,
    decompress_mesh_seq,
)
from .errors import NotConvergedError, SlrmaError
from .metrics import bits_per_frame_vertex, bits_per_pixel, kg_error, psnr, rmse
from .solver import SolverConfig
from .sweep import SweepGrid, rd_sweep, rows_to_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _level_count(text):
    """An int of at least 1, the type of --levels."""
    levels = int(text)
    if levels < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {levels}")
    return levels


def _add_transform_args(sub, transform="dct", levels=3):
    # each command declares its own actions: a parent's are shared, defaults too
    sub.add_argument("--transform", choices=("dct", "dwt"), default=transform)
    sub.add_argument("--levels", type=_level_count, default=levels, help="dwt levels")


def _collect(paths, suffix):
    files = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.glob(f"*{suffix}")))
        else:
            files.append(p)
    if not files:
        raise UsageError(f"no {suffix} inputs found")
    return files


def _load(kind, paths):
    """The ImageSet or MeshSequence of the PGM or OFF files in `paths`."""
    if kind == "images":
        return datasets.load_image_set(_collect(paths, ".pgm"))
    return datasets.load_mesh_sequence(_collect(paths, ".off"))


def _build_parser():
    # the flags several commands share, each declared once as a parent parser
    solver = _Parser(add_help=False)
    solver.add_argument("--alpha", type=float, default=SolverConfig.alpha)
    codec = _Parser(add_help=False)
    codec.add_argument("inputs", nargs="+")
    codec.add_argument("--out", required=True)
    codec.add_argument("--k", type=int, required=True)
    sparsity = codec.add_mutually_exclusive_group(required=True)
    sparsity.add_argument("--target-pb", dest="target_pb", type=float)
    sparsity.add_argument("--gamma", type=float)
    codec.add_argument("--step-b", dest="step_b", type=float, default=0.004)
    codec.add_argument("--step-c", dest="step_c", type=float, default=2.0)

    parser = _Parser(prog="slrma",
                     description="sparse low-rank factorization codec")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compress-images", parents=[codec, solver])
    _add_transform_args(sub)

    sub = subs.add_parser("decompress-images")
    sub.add_argument("container")
    sub.add_argument("--out", required=True)

    subs.add_parser("compress-mesh", parents=[codec, solver])

    sub = subs.add_parser("decompress-mesh")
    sub.add_argument("container")
    sub.add_argument("--faces", required=True,
                     help="an OFF file supplying the connectivity")
    sub.add_argument("--out", required=True)

    sub = subs.add_parser("measure")
    sub.add_argument("--orig", nargs="+", required=True)
    sub.add_argument("--recon", nargs="+", required=True)
    sub.add_argument("--container", default=None,
                     help="include rate from this container's size")
    sub.add_argument("--csv", default=None)

    sub = subs.add_parser("rd-sweep", parents=[solver])
    sub.add_argument("--kind", choices=["images", "mesh"], required=True)
    sub.add_argument("--data", default=None,
                     help="directory of PGM/OFF frames; omit to synthesize")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--ks", default="4,8,12")
    sub.add_argument("--pbs", default="0.4,0.6,0.8")
    sub.add_argument("--steps", default="0.008:4,0.004:2,0.002:1",
                     help="comma list of step_b:step_c pairs")
    _add_transform_args(sub, transform=None, levels=None)  # images only
    sub.add_argument("--csv", required=True)

    sub = subs.add_parser("synth")
    sub.add_argument("--kind", choices=["images", "mesh"], required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--w", type=int, default=16)
    sub.add_argument("--h", type=int, default=16)
    sub.add_argument("--n", type=int, default=32)
    sub.add_argument("--rank", type=int, default=4)
    sub.add_argument("--noise", type=float, default=2.0)
    sub.add_argument("--m", type=int, default=64)
    sub.add_argument("--amplitude", type=float, default=100.0)
    return parser


def _codec_params(args, **transform):
    """CodecParams of the shared flags; images add `transform` and `levels`."""
    return CodecParams(
        k=args.k, step_b=args.step_b, step_c=args.step_c, gamma=args.gamma,
        target_pb=args.target_pb, solver=dict(alpha=args.alpha), **transform,
    )


def _cmd_compress_images(args):
    image_set = _load("images", args.inputs)
    params = _codec_params(args, transform=args.transform, levels=args.levels)
    blob = compress_image_set(image_set.x, image_set.w, image_set.h, params)
    Path(args.out).write_bytes(blob)
    bpp = bits_per_pixel(len(blob), image_set.w, image_set.h, image_set.n)
    print(f"wrote {args.out}: {len(blob)} bytes, {bpp:.4f} bpp")
    return 0


def _cmd_decompress_images(args):
    x_hat, w, h = decompress_image_set(Path(args.container).read_bytes())
    out = datasets.ImageSet(w=w, h=h, x=x_hat)
    paths = datasets.save_image_set(out, args.out)
    print(f"wrote {len(paths)} frames to {args.out}")
    return 0


def _cmd_compress_mesh(args):
    seq = _load("mesh", args.inputs)
    blob = compress_mesh_seq(seq.xx, seq.xy, seq.xz, seq.faces,
                             _codec_params(args))
    Path(args.out).write_bytes(blob)
    bpfv = bits_per_frame_vertex(len(blob), seq.m, seq.n)
    print(f"wrote {args.out}: {len(blob)} bytes, {bpfv:.4f} bpfv")
    return 0


def _cmd_decompress_mesh(args):
    _, faces = datasets.read_off(args.faces)
    hx, hy, hz = decompress_mesh_seq(Path(args.container).read_bytes(), faces)
    seq = datasets.MeshSequence(faces=faces, xx=hx, xy=hy, xz=hz)
    paths = datasets.save_mesh_sequence(seq, args.out)
    print(f"wrote {len(paths)} frames to {args.out}")
    return 0


def _cmd_measure(args):
    # images when the originals are .pgm files or directories holding some
    is_image = any(any(p.glob("*.pgm")) if p.is_dir() else p.suffix == ".pgm"
                   for p in map(Path, args.orig))
    kind = "images" if is_image else "mesh"
    a, b = _load(kind, args.orig), _load(kind, args.recon)
    if is_image:
        lines = [("rmse", repr(rmse(a.x, b.x)))]
        value = psnr(a.x, b.x)
        lines.append(("psnr", repr(value)))
        if value == float("inf"):
            lines.append(("psnr_infinite", "true"))
    else:
        lines = [("rmse", repr(rmse(a.stacked(), b.stacked()))),
                 ("kg_error", repr(kg_error(a.xx, a.xy, a.xz, b.xx, b.xy, b.xz)))]
    if args.container:
        size = Path(args.container).stat().st_size
        unit, rate = (("bpp", bits_per_pixel(size, a.w, a.h, a.n)) if is_image
                      else ("bpfv", bits_per_frame_vertex(size, a.m, a.n)))
        lines += [("bits", str(8 * size)), (unit, repr(rate))]
    for key, value in lines:
        print(f"{key}={value}")
    if args.csv:
        header = ",".join(k for k, _ in lines)
        values = ",".join(v for _, v in lines)
        Path(args.csv).write_text(f"{header}\n{values}\n", encoding="utf-8")
    return 0


def _cmd_rd_sweep(args):
    ks = tuple(int(t) for t in args.ks.split(","))
    pbs = tuple(float(t) for t in args.pbs.split(","))
    steps = tuple(tuple(float(x) for x in pair.split(":"))
                  for pair in args.steps.split(","))
    transform = {name: value for name, value in
                 (("transform", args.transform), ("levels", args.levels))
                 if value is not None}
    images = args.kind == "images"
    if transform and not images:  # a mesh always uses its graph transform
        raise UsageError("--transform and --levels apply to --kind images only")
    if args.data:
        data = _load(args.kind, [args.data])
    elif images:
        data = datasets.synth_image_set(16, 16, 32, rank=4, noise_sigma=2.0, seed=args.seed)
    else:
        data = datasets.synth_mesh_seq(64, 32, seed=args.seed)
    rows, front = rd_sweep(data, SweepGrid(ks=ks, pb_targets=pbs, steps=steps,
                                           solver=dict(alpha=args.alpha), **transform))
    Path(args.csv).write_text(rows_to_csv(rows), encoding="utf-8")
    front_path = Path(args.csv).with_suffix(".front.csv")
    front_path.write_text(rows_to_csv(front), encoding="utf-8")
    failures = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} rows to {args.csv} "
          f"({failures} failed), front of {len(front)} to {front_path}")
    for r in front:
        if images:
            point = f"{r.rate:8.4f} bpp   rmse {r.rmse:8.4f}   psnr {r.psnr:6.2f} dB"
        else:
            point = f"{r.rate:8.4f} bpfv   kg {r.kg_error:8.4f}%"
        print(f"  {point}   (k={r.k}, p_B {r.p_b_achieved:.2f}, "
              f"steps {r.step_b}/{r.step_c})")
    return 0


def _cmd_synth(args):
    out = Path(args.out)
    if args.kind == "images":
        data = datasets.synth_image_set(args.w, args.h, args.n,
                                        rank=args.rank,
                                        noise_sigma=args.noise,
                                        seed=args.seed)
        paths = datasets.save_image_set(data, out)
    else:
        data = datasets.synth_mesh_seq(args.m, args.n,
                                       amplitude=args.amplitude,
                                       seed=args.seed)
        paths = datasets.save_mesh_sequence(data, out)
    print(f"wrote {len(paths)} frames to {out}")
    return 0


_COMMANDS = {
    "compress-images": _cmd_compress_images,
    "decompress-images": _cmd_decompress_images,
    "compress-mesh": _cmd_compress_mesh,
    "decompress-mesh": _cmd_decompress_mesh,
    "measure": _cmd_measure,
    "rd-sweep": _cmd_rd_sweep,
    "synth": _cmd_synth,
}


def cli_main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NotConvergedError as exc:
        print(f"not converged: {exc}", file=sys.stderr)
        return 3
    except (SlrmaError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
