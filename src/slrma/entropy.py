"""Adaptive binary arithmetic coding of quantized sparse matrices.

Carry-propagating range coder with 32-bit range registers, renormalizing
whenever the range drops below 2**24. Each bit is coded against an adaptive
two-count context (initialized uniform, halved at 2**16 total). A matrix is
coded cell by cell in row-major order: a significance bit per cell and, for
significant cells, a sign bit plus an order-0 Exp-Golomb binarization of
|level| - 1. Prefix and suffix bits carry their own contexts.

Each direction is one flat loop over local ints. The encoder first lists
the (context, bit) pairs of the whole matrix, then codes them. The decoder's
state is the context of the next bit, read in the order significance, sign,
Exp-Golomb prefix, Exp-Golomb suffix.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptStreamError
from .quant import QuantizedSparseMatrix

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_COUNT_CAP = 1 << 16

CTX_SIGNIFICANCE = 0
CTX_SIGN = 1
CTX_EG_PREFIX = 2
CTX_EG_SUFFIX = 3
_NUM_CONTEXTS = 4

# Largest matrix, in cells, either direction codes. The decoder sizes its
# significance map from header fields before it reads a bit, so this is the
# bound on what a crafted header can make it allocate. It equals the element
# budget of a dense transform basis (numerics.KRON_ELEMENT_BUDGET).
MAX_CELLS = 1 << 26

# Decoded levels are int64: magnitudes up to 2**63 - 1, or 2**63 if negative.
_INT64_SPAN = 1 << 63

# ASCII "0" and "1" to the bits 0 and 1
_ASCII_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _binarize(q: QuantizedSparseMatrix):
    """The (context, bit) pairs that code `q`, as two byte strings in coding order."""
    sig, sign = bytes([CTX_SIGNIFICANCE]), bytes([CTX_SIGN])
    prefix, suffix = bytes([CTX_EG_PREFIX]), bytes([CTX_EG_SUFFIX])
    ctxs, bits = bytearray(), bytearray()
    start = 0
    positions = np.flatnonzero(q.significance).tolist()
    for pos, level in zip(positions, q.levels.tolist()):
        plus = abs(level)  # Exp-Golomb codes |level| - 1 as plus = |level|
        z = plus.bit_length() - 1
        # the insignificant cells before this one, its significance bit and
        # its sign bit; then z zero bits and plus in binary, whose leading
        # one ends the prefix and whose z low bits are the suffix
        ctxs += sig * (pos - start + 1) + sign + prefix * (z + 1) + suffix * z
        bits += bytes(pos - start)
        bits += b"\x01\x01" if level < 0 else b"\x01\x00"
        bits += bytes(z)
        bits += format(plus, "b").encode().translate(_ASCII_BITS)
        start = pos + 1
    tail = q.rows * q.cols - start
    ctxs += sig * tail
    bits += bytes(tail)
    return ctxs, bits


def _shift_low(low, cache, cache_size, out):
    """Move the top byte of `low` out, through the one-byte carry cache."""
    if low < 0xFF000000 or low > _MASK32:
        carry = low >> 32
        out.append((cache + carry) & 0xFF)
        out += bytes([(0xFF + carry) & 0xFF]) * (cache_size - 1)
        return (low & 0x00FFFFFF) << 8, (low >> 24) & 0xFF, 1
    return (low & 0x00FFFFFF) << 8, cache, cache_size + 1


def entropy_encode(q: QuantizedSparseMatrix):
    """Losslessly code significance map and nonzero levels to bytes."""
    if q.rows * q.cols > MAX_CELLS:
        raise ValueError(f"{q.rows}x{q.cols} matrix exceeds {MAX_CELLS} cells")
    ctxs, bits = _binarize(q)
    zeros = [1] * _NUM_CONTEXTS
    ones = [1] * _NUM_CONTEXTS
    low, rng, cache, cache_size = 0, _MASK32, 0, 1
    out = bytearray()
    for ctx, bit in zip(ctxs, bits):
        c0 = zeros[ctx]
        c1 = ones[ctx]
        bound = rng * c0 // (c0 + c1)
        if bound < 1:
            bound = 1
        elif bound > rng - 1:
            bound = rng - 1
        if bit:
            low += bound
            rng -= bound
            c1 += 1
            ones[ctx] = c1
        else:
            rng = bound
            c0 += 1
            zeros[ctx] = c0
        if c0 + c1 >= _COUNT_CAP:
            zeros[ctx] = (c0 + 1) >> 1
            ones[ctx] = (c1 + 1) >> 1
        while rng < _TOP:
            rng = (rng << 8) & _MASK32
            low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    for _ in range(5):  # flush the four bytes of low and the cache
        low, cache, cache_size = _shift_low(low, cache, cache_size, out)
    return bytes(out)


def entropy_decode(data, rows, cols, step):
    """Inverse of entropy_encode for a rows x cols matrix at `step`."""
    cells = rows * cols
    if cells > MAX_CELLS:
        raise CorruptStreamError(f"{rows}x{cols} matrix exceeds {MAX_CELLS} cells")
    end = len(data)
    if end < 5:
        raise CorruptStreamError("payload ended mid-symbol")
    # byte 0 is the encoder's initial zero cache byte
    code = int.from_bytes(data[1:5], "big")
    pos = 5
    rng = _MASK32
    zeros = [1] * _NUM_CONTEXTS
    ones = [1] * _NUM_CONTEXTS
    sig = bytearray(cells)
    levels = []
    cell = 0
    ctx = CTX_SIGNIFICANCE
    negative = z = plus = 0
    while cell < cells:
        c0 = zeros[ctx]
        c1 = ones[ctx]
        bound = rng * c0 // (c0 + c1)
        if bound < 1:
            bound = 1
        elif bound > rng - 1:
            bound = rng - 1
        if code < bound:
            bit = 0
            rng = bound
            c0 += 1
            zeros[ctx] = c0
        else:
            bit = 1
            code -= bound
            rng -= bound
            c1 += 1
            ones[ctx] = c1
        if c0 + c1 >= _COUNT_CAP:
            zeros[ctx] = (c0 + 1) >> 1
            ones[ctx] = (c1 + 1) >> 1
        while rng < _TOP:
            if pos >= end:
                raise CorruptStreamError("payload ended mid-symbol")
            rng = (rng << 8) & _MASK32
            code = ((code << 8) | data[pos]) & _MASK32
            pos += 1
        if ctx == CTX_SIGNIFICANCE:
            if bit:
                sig[cell] = 1
                ctx = CTX_SIGN
            else:
                cell += 1
            continue
        if ctx == CTX_SIGN:
            negative = bit
            z = 0
            ctx = CTX_EG_PREFIX
            continue
        if ctx == CTX_EG_PREFIX:
            if not bit:
                z += 1
                if z > 64:
                    raise CorruptStreamError("runaway Exp-Golomb prefix")
                continue
            plus = 1
            ctx = CTX_EG_SUFFIX
        else:
            plus = (plus << 1) | bit
            z -= 1
        if not z:  # the level's last bit
            if plus >= _INT64_SPAN + negative:
                raise CorruptStreamError("level does not fit in int64")
            levels.append(-plus if negative else plus)
            cell += 1
            ctx = CTX_SIGNIFICANCE
    if pos != end:
        # the encoder's flush ends every payload exactly where its last
        # symbol is read; a wrong header shape usually stops elsewhere
        raise CorruptStreamError(f"payload holds {end} bytes, decoded {pos}")
    return QuantizedSparseMatrix(
        rows=rows,
        cols=cols,
        step=float(step),
        significance=np.frombuffer(sig, dtype=bool).reshape(rows, cols),
        levels=np.array(levels, dtype=np.int64),
    )
