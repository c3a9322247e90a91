"""Bit-exact container framing for compressed factorizations.

Little-endian layout, field order frozen by golden tests:

    offset 0   magic       4s   "SLRM"
           4   version     u8   7
           5   kind        u8   transform kind code: 3 dct2d, 4 dwt2d, 5 graph
           6   params      u32 each, as many as the kind takes: w, h (dct2d);
                                w, h, levels (dwt2d); m (graph)
           ..  n, k        2 * u32
           ..  step_b      f64
           ..  step_c      f64
           ..  digest      8s   graph only (connectivity hash)
           ..  length      u64  basis payload byte count
           ..  payloads    the basis payload, then the coefficient payload,
                            which runs to the end of the container

The kind names the pipeline (graph for a mesh sequence, else an image set)
and the params name m: w*h pixels, or the graph's vertex count. The payloads
code the s bases B_d as one (s*m) x k matrix, then the coefficients: an
image set's k x n C (s = 1), or a mesh's n x k frame DCTs of C_d^T for
d = x, y, z (s = 3) as one (3*n) x k matrix.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from .errors import BadMagicError, CorruptStreamError, VersionUnsupportedError
from .transforms import KIND_DCT2D, KIND_DWT2D, KIND_GRAPH

MAGIC = b"SLRM"
VERSION = 7

# code and param count of each kind a pipeline writes; codes 0-2 named
# kinds no container holds
_KINDS = {KIND_DCT2D: (3, 2), KIND_DWT2D: (4, 3), KIND_GRAPH: (5, 1)}
_KIND_NAMES = {code: kind for kind, (code, _) in _KINDS.items()}


@dataclass
class ContainerHeader:
    transform_kind: str
    transform_params: tuple
    n: int
    k: int
    step_b: float
    step_c: float
    digest: bytes = b""

    @property
    def m(self):
        """Rows of each stream: w*h pixels, or the graph's vertex count."""
        return math.prod(self.transform_params[:2])


def _fields(kind):
    """The fields after a `kind` byte: params, n, k, steps, [digest], length."""
    digest = "8s" if kind == KIND_GRAPH else ""
    return struct.Struct(f"<{_KINDS[kind][1] + 2}I2d{digest}Q")


def connectivity_digest(vertex_count, edges):
    """8-byte hash of the canonical edge list."""
    blob = struct.pack("<I", vertex_count)
    blob += b"".join(struct.pack("<II", a, b) for a, b in sorted(edges))
    return hashlib.sha256(blob).digest()[:8]


def pack_container(header: ContainerHeader, payloads):
    basis, coeffs = payloads
    digest = ()
    if header.transform_kind == KIND_GRAPH:
        if len(header.digest) != 8:
            raise ValueError("mesh containers need an 8-byte digest")
        digest = (header.digest,)
    fields = _fields(header.transform_kind).pack(
        *header.transform_params, header.n, header.k, header.step_b,
        header.step_c, *digest, len(basis))
    code = _KINDS[header.transform_kind][0]
    return MAGIC + struct.pack("<BB", VERSION, code) + fields + basis + coeffs


def unpack_container(blob):
    """Parse header and slice payloads; raises on framing violations.

    Also rejects, as CorruptStreamError, step sizes that are not positive
    and finite and a rank k outside [1, min(m, n)]: no encoder writes them.
    """
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagicError("not a SLRM container")
    try:
        version, code = struct.unpack_from("<BB", blob, 4)
        if version != VERSION:
            raise VersionUnsupportedError(f"container version {version}")
        if code not in _KIND_NAMES:
            raise CorruptStreamError(f"unknown transform kind {code}")
        kind = _KIND_NAMES[code]
        fields = _fields(kind)
        values = list(fields.unpack_from(blob, 6))
    except struct.error as exc:
        raise CorruptStreamError(f"truncated header ({exc})") from exc
    length = values.pop()
    digest = values.pop() if kind == KIND_GRAPH else b""
    *params, n, k, step_b, step_c = values
    header = ContainerHeader(kind, tuple(params), n, k, step_b, step_c, digest)
    for name, step in (("step_b", step_b), ("step_c", step_c)):
        if not 0.0 < step < math.inf:
            raise CorruptStreamError(f"{name} {step!r} is not positive and finite")
    if not 1 <= k <= min(header.m, n):
        raise CorruptStreamError(f"k={k} outside [1, min(m, n)={min(header.m, n)}]")
    start = 6 + fields.size
    basis = blob[start : start + length]
    if len(basis) != length:
        raise CorruptStreamError("basis payload shorter than its declared length")
    return header, [basis, blob[start + length :]]
