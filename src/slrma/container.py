"""Bit-exact container framing for compressed factorizations.

Little-endian layout, field order frozen by golden tests:

    offset 0   magic       4s   "SLRM"
           4   version     u8   3
           5   pipeline    u8   0 = image set, 1 = mesh sequence
           6   kind        u8   transform kind code
           7   nparams     u8
           8   params      nparams * u32  transform construction parameters
           ..  m, n, k     3 * u32
           ..  step_b      f64
           ..  step_c      f64
           ..  digest      8s   mesh pipeline only (connectivity hash)
           ..  lengths     (2 or 6) * u64  payload byte counts
           ..  payloads    concatenated entropy-coded streams

Image streams are (B, C); mesh streams are (B_d, C_d) pairs for d = x, y, z.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from .errors import BadMagicError, CorruptStreamError, VersionUnsupportedError
from .transforms import (
    KIND_DCT1D,
    KIND_DCT2D,
    KIND_DWT1D,
    KIND_DWT2D,
    KIND_GRAPH,
    KIND_IDENTITY,
)

MAGIC = b"SLRM"
VERSION = 3
PIPELINE_IMAGE = 0
PIPELINE_MESH = 1

_KIND_CODES = {
    KIND_IDENTITY: 0,
    KIND_DCT1D: 1,
    KIND_DWT1D: 2,
    KIND_DCT2D: 3,
    KIND_DWT2D: 4,
    KIND_GRAPH: 5,
}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass
class ContainerHeader:
    pipeline: int
    transform_kind: str
    transform_params: tuple
    m: int
    n: int
    k: int
    step_b: float
    step_c: float
    digest: bytes = b""


def connectivity_digest(vertex_count, edges):
    """8-byte hash of the canonical edge list."""
    blob = struct.pack("<I", vertex_count)
    blob += b"".join(struct.pack("<II", a, b) for a, b in sorted(edges))
    return hashlib.sha256(blob).digest()[:8]


def pack_container(header: ContainerHeader, payloads):
    expected = 6 if header.pipeline == PIPELINE_MESH else 2
    if len(payloads) != expected:
        raise ValueError(f"pipeline {header.pipeline} needs {expected} streams")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<BB", VERSION, header.pipeline)
    params = tuple(int(p) for p in header.transform_params)
    out += struct.pack("<BB", _KIND_CODES[header.transform_kind], len(params))
    out += struct.pack(f"<{len(params)}I", *params) if params else b""
    out += struct.pack("<III", header.m, header.n, header.k)
    out += struct.pack("<dd", header.step_b, header.step_c)
    if header.pipeline == PIPELINE_MESH:
        if len(header.digest) != 8:
            raise ValueError("mesh containers need an 8-byte digest")
        out += header.digest
    out += struct.pack(f"<{len(payloads)}Q", *(len(p) for p in payloads))
    for payload in payloads:
        out += payload
    return bytes(out)


def unpack_container(blob):
    """Parse header and slice payloads; raises on framing violations.

    Also rejects, as CorruptStreamError, step sizes that are not positive
    and finite and a rank k outside [1, min(m, n)]: no encoder writes them.
    """
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagicError("not a SLRM container")
    try:
        version, pipeline = struct.unpack_from("<BB", blob, 4)
        if version != VERSION:
            raise VersionUnsupportedError(f"container version {version}")
        kind_code, nparams = struct.unpack_from("<BB", blob, 6)
        if kind_code not in _KIND_NAMES:
            raise CorruptStreamError(f"unknown transform kind {kind_code}")
        pos = 8
        params = struct.unpack_from(f"<{nparams}I", blob, pos) if nparams else ()
        pos += 4 * nparams
        m, n, k = struct.unpack_from("<III", blob, pos)
        pos += 12
        step_b, step_c = struct.unpack_from("<dd", blob, pos)
        pos += 16
        digest = b""
        if pipeline == PIPELINE_MESH:
            digest = blob[pos : pos + 8]
            if len(digest) != 8:
                raise CorruptStreamError("truncated digest")
            pos += 8
        count = 6 if pipeline == PIPELINE_MESH else 2
        lengths = struct.unpack_from(f"<{count}Q", blob, pos)
        pos += 8 * count
    except struct.error as exc:
        raise CorruptStreamError(f"truncated header ({exc})") from exc
    for name, step in (("step_b", step_b), ("step_c", step_c)):
        if not 0.0 < step < math.inf:
            raise CorruptStreamError(f"{name} {step!r} is not positive and finite")
    if not 1 <= k <= min(m, n):
        raise CorruptStreamError(f"k={k} outside [1, min(m, n)={min(m, n)}]")
    payloads = []
    for length in lengths:
        chunk = blob[pos : pos + length]
        if len(chunk) != length:
            raise CorruptStreamError("payload shorter than its declared length")
        payloads.append(chunk)
        pos += length
    if pos != len(blob):
        raise CorruptStreamError(f"{len(blob) - pos} trailing bytes")
    header = ContainerHeader(
        pipeline=pipeline,
        transform_kind=_KIND_NAMES[kind_code],
        transform_params=params,
        m=m,
        n=n,
        k=k,
        step_b=step_b,
        step_c=step_c,
        digest=digest,
    )
    return header, payloads
