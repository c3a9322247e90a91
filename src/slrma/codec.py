"""End-to-end compression pipelines for image sets and mesh sequences.

Image sets: Z = Phi^T X is factored into a sparse orthonormal basis and
coefficients, both uniformly quantized and arithmetic-coded. Mesh
sequences run the same factorization per coordinate axis against the mesh
graph transform, with an extra 1D DCT applied along the coefficient rows
before quantization to squeeze temporal coherence.

Compression runs in two stages. `factor` solves every stream once;
`encode` quantizes, entropy-codes and packs a factorization at given
quantizer steps, so one factorization can serve many steps (the RD sweep
does this). `build_transforms` is the one place that builds bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import (
    PIPELINE_IMAGE,
    PIPELINE_MESH,
    ContainerHeader,
    connectivity_digest,
    pack_container,
    unpack_container,
)
from .entropy import entropy_decode, entropy_encode
from .errors import CorruptStreamError, DigestMismatchError, NotConvergedError
from .numerics import as_matrix
from .quant import dequantize, quantize
from .solver import (
    IMAGE_DEFAULTS,
    MESH_DEFAULTS,
    SolverConfig,
    gamma_for_sparsity,
    slrma_solve,
)
from .transforms import (
    KIND_DCT2D,
    KIND_DWT2D,
    KIND_GRAPH,
    OrthogonalTransform,
    dct1d,
    dct2d,
    dwt2d,
    graph_transform,
    mesh_adjacency,
)


@dataclass
class CodecParams:
    """Everything a compression run needs besides the data itself."""

    k: int
    step_b: float
    step_c: float
    transform: str = "dct"          # images: dct | dwt; meshes always gt
    levels: int = 3                 # dwt only
    gamma: object = None            # float, or per-axis triple for meshes
    target_pb: float = None
    pb_tol: float = 0.05
    solver: dict = field(default_factory=dict)  # rho0/alpha/rho_max/tol/...

    def solver_config(self, gamma, defaults):
        merged = {**defaults, **{k: v for k, v in self.solver.items() if v is not None}}
        return SolverConfig(gamma=gamma, k=self.k, **merged)


def factor_quantization_bound(basis, coeffs, step_b, step_c):
    """Frobenius bound on the product perturbation from quantizing factors.

    With |dB| <= step_b/2 and |dC| <= step_c/2 elementwise and orthonormal
    B: ||B^C^ - BC||_F <= ||dB||_F ||C||_2 + ||dC||_F + ||dB||_F ||dC||_F.
    """
    m, k = basis.shape
    n = coeffs.shape[1]
    db = np.sqrt(m * k) * step_b / 2.0
    dc = np.sqrt(k * n) * step_c / 2.0
    c_spec = np.linalg.norm(coeffs, 2)
    return db * c_spec + dc + db * dc


@dataclass(frozen=True)
class Transforms:
    """The bases one container names; `build_transforms` is their one source."""

    pipeline: int                       # PIPELINE_IMAGE or PIPELINE_MESH
    phi: OrthogonalTransform            # images: 2D DCT or Haar; meshes: graph basis
    frames: OrthogonalTransform = None  # meshes: 1D DCT along the frames
    digest: bytes = b""                 # meshes: connectivity hash for the header


def build_transforms(kind, params, faces=None, n=None, digest=None):
    """Build the bases for a container transform kind and its params.

    This is the codec's one transform dispatch: compress, decompress and the
    sweep all come through it. Image kinds take (w, h) for the 2D DCT and
    (w, h, levels) for the 2D Haar. The graph kind takes (m,), the faces and
    the frame count n; a container's `digest` is checked against the faces
    before the O(m^3) eigenbasis is built.
    """
    if kind == KIND_DCT2D:
        w, h = params
        return Transforms(PIPELINE_IMAGE, dct2d(w, h))
    if kind == KIND_DWT2D:
        w, h, levels = params
        return Transforms(PIPELINE_IMAGE, dwt2d(w, h, levels))
    if kind == KIND_GRAPH:
        (m,) = params
        graph = mesh_adjacency(faces, m)
        found = connectivity_digest(m, graph.edges)
        if digest is not None and digest != found:
            raise DigestMismatchError("connectivity does not match the container")
        return Transforms(PIPELINE_MESH, graph_transform(graph), dct1d(n), found)
    raise ValueError(f"unsupported transform kind {kind!r}")


def image_transforms(transform, levels, w, h):
    """Image bases for a CodecParams.transform name, "dct" or "dwt"."""
    if transform == "dct":
        return build_transforms(KIND_DCT2D, (w, h))
    if transform == "dwt":
        return build_transforms(KIND_DWT2D, (w, h, levels))
    raise ValueError(f"unsupported image transform {transform!r}")


def factor(transforms: Transforms, data, params: CodecParams):
    """Factor stage: solve Z = Phi^T X of every stream in `data`.

    Returns one (gamma, Factorization) per stream, in order. Gamma comes
    from `params.gamma` (for meshes a scalar or one value per axis) or, when
    that is unset, from the sparsity search for `params.target_pb`. A solve
    that does not converge is returned as it is; see `check_converged`.
    """
    defaults = IMAGE_DEFAULTS if transforms.pipeline == PIPELINE_IMAGE else MESH_DEFAULTS
    gammas = params.gamma
    if np.ndim(gammas) == 0:
        gammas = [gammas] * len(data)
    streams = []
    for x, gamma in zip(data, gammas, strict=True):
        z = transforms.phi.forward(x)
        if gamma is not None:
            cfg = params.solver_config(float(gamma), defaults)
            streams.append((float(gamma), slrma_solve(z, cfg)))
        elif params.target_pb is not None:
            cfg = params.solver_config(0.0, defaults)
            streams.append(gamma_for_sparsity(z, cfg, params.target_pb, params.pb_tol))
        else:
            raise ValueError("need either gamma or target_pb")
    return streams


def check_converged(streams):
    """Raise NotConvergedError for the first stream whose solve did not converge."""
    for _, fact in streams:
        if not fact.converged:
            raise NotConvergedError(
                f"solver did not converge within {fact.iterations} iterations"
            )


def encode(transforms: Transforms, streams, step_b, step_c):
    """Encode stage: quantize, entropy-code and pack factored streams.

    Meshes take a 1D DCT along the coefficient rows before quantization.
    """
    payloads = []
    for _, fact in streams:
        coeffs = fact.coeffs
        if transforms.pipeline == PIPELINE_MESH:
            coeffs = transforms.frames.forward(coeffs.T)  # n x k
        payloads.append(entropy_encode(quantize(fact.basis, step_b)))
        payloads.append(entropy_encode(quantize(coeffs, step_c)))
    m, k = streams[0][1].basis.shape
    header = ContainerHeader(
        pipeline=transforms.pipeline,
        transform_kind=transforms.phi.kind,
        transform_params=transforms.phi.params,
        m=m,
        n=streams[0][1].coeffs.shape[1],
        k=k,
        step_b=step_b,
        step_c=step_c,
        digest=transforms.digest,
    )
    return pack_container(header, payloads)


def _decode(transforms: Transforms, header, payloads):
    """Inverse of `encode` after unpacking: one reconstruction per stream."""
    out = []
    for payload_b, payload_c in zip(payloads[::2], payloads[1::2]):
        basis = dequantize(entropy_decode(payload_b, header.m, header.k, header.step_b))
        if transforms.pipeline == PIPELINE_IMAGE:
            coeffs = dequantize(entropy_decode(payload_c, header.k, header.n, header.step_c))
        else:
            coeff_dct = dequantize(entropy_decode(payload_c, header.n, header.k, header.step_c))
            coeffs = transforms.frames.inverse(coeff_dct).T  # k x n
        out.append(transforms.phi.inverse(basis @ coeffs))
    return out


def _compress(transforms, data, params: CodecParams):
    streams = factor(transforms, data, params)
    check_converged(streams)
    return encode(transforms, streams, params.step_b, params.step_c)


def compress_image_set(x, w, h, params: CodecParams):
    """Compress a wh x n stack of vectorized images to container bytes."""
    x = as_matrix(x, "X")
    if x.shape[0] != w * h:
        raise ValueError(f"X has {x.shape[0]} rows, expected w*h={w * h}")
    transforms = image_transforms(params.transform, params.levels, w, h)
    return _compress(transforms, [x], params)


def decompress_image_set(blob):
    """Inverse of compress_image_set; returns (X_hat, w, h)."""
    header, payloads = unpack_container(blob)
    if header.pipeline != PIPELINE_IMAGE:
        raise CorruptStreamError("not an image-set container")
    if header.transform_kind not in (KIND_DCT2D, KIND_DWT2D):
        raise CorruptStreamError(
            f"transform {header.transform_kind} invalid for the image pipeline"
        )
    transforms = build_transforms(header.transform_kind, header.transform_params)
    w, h = header.transform_params[:2]
    (x_hat,) = _decode(transforms, header, payloads)
    return x_hat, w, h


def compress_mesh_seq(xx, xy, xz, faces, params: CodecParams):
    """Compress three m x n coordinate matrices against the mesh graph."""
    xx, xy, xz = (as_matrix(a, name) for a, name in
                  ((xx, "Xx"), (xy, "Xy"), (xz, "Xz")))
    if not xx.shape == xy.shape == xz.shape:
        raise ValueError("coordinate matrices must share one shape")
    m, n = xx.shape
    transforms = build_transforms(KIND_GRAPH, (m,), faces=faces, n=n)
    return _compress(transforms, [xx, xy, xz], params)


def decompress_mesh_seq(blob, faces):
    """Inverse of compress_mesh_seq; connectivity arrives out of band."""
    header, payloads = unpack_container(blob)
    if header.pipeline != PIPELINE_MESH:
        raise CorruptStreamError("not a mesh-sequence container")
    transforms = build_transforms(KIND_GRAPH, (header.m,), faces=faces,
                                  n=header.n, digest=header.digest)
    return tuple(_decode(transforms, header, payloads))
