"""End-to-end compression pipelines for image sets and mesh sequences.

Image sets: Z = Phi^T X is factored into a sparse orthonormal basis and
coefficients, both uniformly quantized and Exp-Golomb or Rice coded. Mesh
sequences run the same factorization per coordinate axis against the mesh
graph transform, with an extra 1D DCT applied along the coefficient rows
before quantization to squeeze temporal coherence.

Compression runs in two stages. `factor` solves a call's streams once,
as one stack; `encode` quantizes, entropy-codes and packs the stacked
factorization at given quantizer steps, so one factorization can serve
many steps (the RD sweep does this). `image_input` and `mesh_input`
check the data of `compress_*` and `rd_sweep` alike. `image_transforms`
and `mesh_transforms` build every basis and are each pipeline's only size
gate. Only per-mesh state is cached: `_connectivity` keeps a mesh's graph
and digest and `graph_transform` its eigenbasis, both sized by the
caller's own faces. The image bases and the frame DCT are built on every
call, so nothing a header sizes outlives a refused decode. A header sizes
nothing before it is bounded by `MAX_CELLS` cells: an image's two 1D
factors (w^2 + h^2) and its decoded stack (w*h*n), a mesh's frame DCT
(n^2) and each payload. A mesh's vertex count is bounded by the vertices
its faces touch. The encoder, `rd_sweep` and the decoder refuse alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .container import (
    PIPELINE_IMAGE,
    PIPELINE_MESH,
    ContainerHeader,
    connectivity_digest,
    pack_container,
    unpack_container,
)
from .entropy import (
    MAX_CELLS,
    entropy_decode,  # noqa: F401 -- no longer called here; perfbench traces it by this name
    entropy_decode_all,
    entropy_encode,
)
from .errors import (
    BadLevelsError,
    CorruptStreamError,
    DigestMismatchError,
    NotConvergedError,
    SizeOverflowError,
)
from .numerics import as_matrix
from .quant import dequantize, quantize
from .solver import SolverConfig, gamma_for_sparsity, slrma_solve
from .transforms import (
    BASES_KEPT,
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
    transform: str = "dct"          # images: dct | dwt; meshes ignore it
    levels: int = 3                 # dwt only
    gamma: float = None
    target_pb: float = None
    solver: dict = field(default_factory=dict)  # alpha

    def solver_config(self, **fields):
        """A SolverConfig of `fields` and the set entries of `solver`."""
        overrides = {k: v for k, v in self.solver.items() if v is not None}
        return SolverConfig(k=self.k, **fields, **overrides)


@dataclass(frozen=True)
class Transforms:
    """The bases one container names; see `image_transforms`, `mesh_transforms`."""

    pipeline: int                       # PIPELINE_IMAGE or PIPELINE_MESH
    phi: OrthogonalTransform            # images: 2D DCT or Haar; meshes: graph basis
    frames: OrthogonalTransform = None  # meshes: 1D DCT along the frames
    digest: bytes = b""                 # meshes: connectivity hash for the header


def image_transforms(kind, params, n):
    """Image bases for a stack of n images, given a container transform kind
    and its params: (w, h) for the 2D DCT and (w, h, levels) for the 2D Haar.

    Before any basis is built, raises SizeOverflowError when the two 1D
    factors (w^2 + h^2 cells) or the stack (w*h*n) exceed `MAX_CELLS`.
    """
    w, h = params[:2]
    if w * w + h * h > MAX_CELLS:
        raise SizeOverflowError(f"a {w} x {h} image basis's factors exceed {MAX_CELLS} cells")
    if w * h * n > MAX_CELLS:
        raise SizeOverflowError(f"a stack of {n} {w} x {h} images exceeds {MAX_CELLS} cells")
    if kind == KIND_DCT2D:
        return Transforms(PIPELINE_IMAGE, dct2d(*params))
    if kind == KIND_DWT2D:
        return Transforms(PIPELINE_IMAGE, dwt2d(*params))
    raise ValueError(f"unsupported image transform kind {kind!r}")


def image_input(x, w, h, transform, levels):
    """(transforms, streams) of a wh x n stack X of vectorized images: the
    bases that a CodecParams.transform name, "dct" or "dwt", gives, and [X].
    Raises ValueError for another name or a row count other than w*h."""
    x = as_matrix(x, "X")
    if x.shape[0] != w * h:
        raise ValueError(f"X has {x.shape[0]} rows, expected w*h={w * h}")
    if transform == "dct":
        kind, params = KIND_DCT2D, (w, h)
    elif transform == "dwt":
        kind, params = KIND_DWT2D, (w, h, levels)
    else:
        raise ValueError(f"unsupported image transform {transform!r}")
    return image_transforms(kind, params, x.shape[1]), [x]


@lru_cache(maxsize=BASES_KEPT, typed=True)
def _connectivity(faces, m):
    """(graph, digest) of an m-vertex mesh whose faces are a tuple of tuples:
    per-mesh state, derived once while among the last `BASES_KEPT` face
    lists. A face list that raises is not cached."""
    graph = mesh_adjacency(faces, m)
    return graph, connectivity_digest(m, graph.edges)


def mesh_transforms(faces, m, n, digest=None):
    """Graph basis of an m-vertex mesh and the 1D DCT along its n frames.

    Before anything is built, raises SizeOverflowError when the n x n frame
    DCT exceeds `MAX_CELLS`. The faces may be tuples, lists or an int array;
    their graph and digest come from `_connectivity`, keyed by content. A
    container's `digest` is checked on every call, before the O(m^3)
    eigenbasis is built.
    """
    if n * n > MAX_CELLS:
        raise SizeOverflowError(f"{n} frames exceed the frame DCT's {MAX_CELLS} cells")
    if isinstance(faces, np.ndarray):  # python ints hash faster than numpy scalars
        faces = faces.tolist()
    graph, found = _connectivity(tuple(map(tuple, faces)), m)
    if digest is not None and digest != found:
        raise DigestMismatchError("connectivity does not match the container")
    return Transforms(PIPELINE_MESH, graph_transform(graph), dct1d(n), found)


def mesh_input(xx, xy, xz, faces):
    """(transforms, streams) of three m x n coordinate matrices: the mesh's
    bases and [Xx, Xy, Xz]. Raises ValueError unless they share one shape."""
    streams = [as_matrix(a, name) for a, name in ((xx, "Xx"), (xy, "Xy"), (xz, "Xz"))]
    if not streams[0].shape == streams[1].shape == streams[2].shape:
        raise ValueError("coordinate matrices must share one shape")
    return mesh_transforms(faces, *streams[0].shape), streams


def factor(transforms: Transforms, data, params: CodecParams):
    """Factor stage: solve Z = Phi^T X of every stream in `data` as one stack.

    Returns one Factorization of the s x m x n stack of Z, s the number of
    streams (an image set is a stack of one). With `params.gamma` set every
    stream is solved at that gamma, otherwise for `params.target_pb` zeros.
    Either solve runs on the penalty schedule anchored at each stream's
    sigma_1^2, growing by the `SolverConfig` default alpha unless
    `params.solver` overrides it. A solve that does not converge is
    returned as it is; see `check_converged`.
    """
    z = np.stack([transforms.phi.forward(x) for x in data])
    if params.gamma is not None:
        return slrma_solve(z, params.solver_config(gamma=float(params.gamma)))
    if params.target_pb is None:
        raise ValueError("need either gamma or target_pb")
    # the config names the target too, so (z, cfg) alone re-runs the solve
    cfg = params.solver_config(gamma=0.0, target_pb=params.target_pb)
    return gamma_for_sparsity(z, cfg, params.target_pb)[1]


def check_converged(fact):
    """Raise NotConvergedError unless every stream of the factorization converged."""
    if not fact.converged:
        raise NotConvergedError(
            f"solver did not converge within {fact.iterations} iterations"
        )


def encode(transforms: Transforms, fact, step_b, step_c):
    """Encode stage: quantize, entropy-code and pack a stacked factorization,
    one basis and one coefficient payload per stream.

    Meshes take a 1D DCT along the coefficient rows before quantization.
    """
    payloads = []
    for basis, coeffs in zip(fact.basis, fact.coeffs):
        if transforms.pipeline == PIPELINE_MESH:
            coeffs = transforms.frames.forward(coeffs.T)  # n x k
        payloads.append(entropy_encode(quantize(basis, step_b)))
        payloads.append(entropy_encode(quantize(coeffs, step_c)))
    _, m, k = fact.basis.shape
    header = ContainerHeader(
        pipeline=transforms.pipeline,
        transform_kind=transforms.phi.kind,
        transform_params=transforms.phi.params,
        m=m,
        n=fact.coeffs.shape[-1],
        k=k,
        step_b=step_b,
        step_c=step_c,
        digest=transforms.digest,
    )
    return pack_container(header, payloads)


def _decode(transforms: Transforms, header, payloads):
    """Inverse of `encode` after unpacking: one reconstruction per stream.

    The container's payloads, a basis and a coefficient payload per stream,
    are decoded together by one `entropy_decode_all` call before any stream
    is reconstructed. A reconstruction that is not finite (a crafted but
    finite step can overflow it) raises CorruptStreamError.
    """
    mesh = transforms.pipeline == PIPELINE_MESH
    shape_c = (header.n, header.k) if mesh else (header.k, header.n)
    shapes = [(header.m, header.k, header.step_b), (*shape_c, header.step_c)]
    quantized = entropy_decode_all([(payload, *shapes[i % 2])
                                    for i, payload in enumerate(payloads)])
    out = []
    # an overflow is caught by the finiteness check, so its warnings say nothing new
    with np.errstate(over="ignore", invalid="ignore"):
        for q_b, q_c in zip(quantized[::2], quantized[1::2]):
            coeffs = dequantize(q_c)
            if mesh:
                coeffs = transforms.frames.inverse(coeffs).T  # k x n
            x_hat = transforms.phi.inverse(dequantize(q_b) @ coeffs)
            if not np.isfinite(x_hat).all():
                raise CorruptStreamError("the steps overflow the reconstruction")
            out.append(x_hat)
    return out


def _compress(transforms, data, params: CodecParams):
    fact = factor(transforms, data, params)
    check_converged(fact)
    return encode(transforms, fact, params.step_b, params.step_c)


def compress_image_set(x, w, h, params: CodecParams):
    """Compress a wh x n stack of vectorized images to container bytes."""
    return _compress(*image_input(x, w, h, params.transform, params.levels), params)


def decompress_image_set(blob):
    """Inverse of compress_image_set; returns (X_hat, w, h)."""
    header, payloads = unpack_container(blob)
    if header.pipeline != PIPELINE_IMAGE:
        raise CorruptStreamError("not an image-set container")
    if header.transform_kind not in (KIND_DCT2D, KIND_DWT2D):
        raise CorruptStreamError(
            f"transform {header.transform_kind} invalid for the image pipeline"
        )
    params = header.transform_params
    if len(params) != (2 if header.transform_kind == KIND_DCT2D else 3):
        raise CorruptStreamError(f"{len(params)} parameters for {header.transform_kind}")
    w, h = params[:2]
    if header.m != w * h:
        raise CorruptStreamError(f"m={header.m} but the images hold w*h={w * h} pixels")
    try:
        transforms = image_transforms(header.transform_kind, params, header.n)
    except (BadLevelsError, SizeOverflowError) as exc:  # no encoder writes these
        raise CorruptStreamError(str(exc)) from exc
    (x_hat,) = _decode(transforms, header, payloads)
    return x_hat, w, h


def compress_mesh_seq(xx, xy, xz, faces, params: CodecParams):
    """Compress three m x n coordinate matrices against the mesh graph."""
    return _compress(*mesh_input(xx, xy, xz, faces), params)


def decompress_mesh_seq(blob, faces):
    """Inverse of compress_mesh_seq; connectivity arrives out of band."""
    header, payloads = unpack_container(blob)
    if header.pipeline != PIPELINE_MESH:
        raise CorruptStreamError("not a mesh-sequence container")
    transform = (header.transform_kind, header.transform_params)
    if transform != (KIND_GRAPH, (header.m,)):
        raise CorruptStreamError(f"transform {transform} invalid for an m={header.m} mesh")
    try:
        transforms = mesh_transforms(faces, header.m, header.n, header.digest)
    except SizeOverflowError as exc:  # no encoder writes these
        raise CorruptStreamError(str(exc)) from exc
    except IndexError as exc:  # a face names a vertex past the container's m
        raise DigestMismatchError("connectivity does not match the container") from exc
    return tuple(_decode(transforms, header, payloads))
