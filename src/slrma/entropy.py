"""Binary arithmetic coding of quantized sparse matrices.

Carry-propagating range coder with 32-bit range registers, renormalizing
whenever the range drops below 2**24. A matrix is coded cell by cell in
row-major order: a significance bit per cell and, for significant cells, an
order-0 Exp-Golomb binarization of |level| - 1 (z prefix zeros, a one, z
suffix bits) and the level's sign. The significance and prefix bits are
coded against adaptive two-count contexts (initialized uniform, halved at
2**16 total). The sign and the z suffix bits are coded in bypass, as one
word of z + 1 equiprobable bits taken 16 at a time from the top: a chunk of
t bits splits the range into 2**t equal parts of rng >> t, so it costs one
shift and one multiply (or divide) where an adaptive bit costs a split, a
compare and a count update. Suffix and sign bits are near-uniform, so the
rate moves by a fraction of a percent either way.

Each direction is nested loops over the cells, and each of the two contexts
keeps its zero and one counts in two local ints. The encoder walks the
nonzero positions and codes the run of insignificant cells before each; the
decoder reads a cell's significance bit, then its Exp-Golomb prefix and its
bypass word, each inline.

Neither direction clamps a split of the range. Before every bin rng >= 2**24
(renormalization restores that after each bin). An adaptive split
`rng * c0 // (c0 + c1)` has c0, c1 >= 1 with c0 + c1 <= 2**16 - 1 (the counts
halve on reaching 2**16), so it lies in [256, rng - 256] and both sub-ranges
are nonempty; a bypass chunk has t <= 16, so each of its parts
rng >> t >= 2**8 is nonempty too.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptStreamError
from .quant import QuantizedSparseMatrix

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_COUNT_CAP = 1 << 16

# Largest matrix, in cells, either direction codes. The decoder sizes its
# significance map from header fields before it reads a bit, so this is the
# bound on what a crafted header can make it allocate. The codec bounds the
# other arrays a header sizes by it too: a mesh's frame DCT, an image's two
# 1D basis factors together and its decoded image stack.
MAX_CELLS = 1 << 26

# Decoded levels are int64: magnitudes up to 2**63 - 1, or 2**63 if negative.
_INT64_SPAN = 1 << 63


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
    cells = q.rows * q.cols
    if cells > MAX_CELLS:
        raise ValueError(f"{q.rows}x{q.cols} matrix exceeds {MAX_CELLS} cells")
    low, rng, cache, cache_size = 0, _MASK32, 0, 1
    out = bytearray()
    # zero and one counts of the significance and prefix contexts
    sig0 = sig1 = pre0 = pre1 = 1
    start = 0
    # a sentinel level 0 past the last cell codes the trailing insignificant run
    for pos, level in zip(np.flatnonzero(q.significance).tolist() + [cells],
                          q.levels.tolist() + [0]):
        for _ in range(pos - start):  # the insignificant cells before `pos`
            rng = rng * sig0 // (sig0 + sig1)
            sig0 += 1
            if sig0 + sig1 >= _COUNT_CAP:
                sig0, sig1 = (sig0 + 1) >> 1, (sig1 + 1) >> 1
            while rng < _TOP:
                rng <<= 8
                low, cache, cache_size = _shift_low(low, cache, cache_size, out)
        if not level:
            break
        # significance 1
        bound = rng * sig0 // (sig0 + sig1)
        low += bound
        rng -= bound
        sig1 += 1
        if sig0 + sig1 >= _COUNT_CAP:
            sig0, sig1 = (sig0 + 1) >> 1, (sig1 + 1) >> 1
        while rng < _TOP:
            rng <<= 8
            low, cache, cache_size = _shift_low(low, cache, cache_size, out)
        # Exp-Golomb codes |level| - 1 as plus = |level|: z zero bits and the
        # one that ends the prefix
        plus = abs(level)
        z = plus.bit_length() - 1
        for _ in range(z):
            rng = rng * pre0 // (pre0 + pre1)
            pre0 += 1
            if pre0 + pre1 >= _COUNT_CAP:
                pre0, pre1 = (pre0 + 1) >> 1, (pre1 + 1) >> 1
            while rng < _TOP:
                rng <<= 8
                low, cache, cache_size = _shift_low(low, cache, cache_size, out)
        bound = rng * pre0 // (pre0 + pre1)
        low += bound
        rng -= bound
        pre1 += 1
        if pre0 + pre1 >= _COUNT_CAP:
            pre0, pre1 = (pre0 + 1) >> 1, (pre1 + 1) >> 1
        while rng < _TOP:
            rng <<= 8
            low, cache, cache_size = _shift_low(low, cache, cache_size, out)
        # bypass word: plus with its leading one replaced by the sign (1 for
        # negative), so the sign and then the z low bits of plus
        word = plus if level < 0 else plus ^ (1 << z)
        n = z + 1
        while n:
            t = n if n <= 16 else 16
            n -= t
            rng >>= t
            low += ((word >> n) & ((1 << t) - 1)) * rng
            while rng < _TOP:
                rng <<= 8
                low, cache, cache_size = _shift_low(low, cache, cache_size, out)
        start = pos + 1
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
    # zero and one counts of the significance and prefix contexts
    sig0 = sig1 = pre0 = pre1 = 1
    sig = bytearray(cells)
    levels = []
    # code <= rng after every bin, for every input, corrupt ones included:
    # the start code is at most 2**32 - 1 = rng, and each bin leaves code at
    # most its new rng. Equality survives only from the start, through the
    # first cell's significance and prefix ones, none of which renormalizes,
    # into its bypass word, which refuses it (rng >= 2**t * (rng >> t)). So
    # code < rng < 2**24 whenever it shifts, and the shifted code stays below
    # 2**32 without a mask.
    #
    # The loop indexes only data[pos], at each renormalization, and sig[cell]
    # with cell < cells, so it raises IndexError exactly when pos reaches
    # len(data): the payload ended mid-symbol. One handler checks that end.
    try:
        for cell in range(cells):
            # significance
            bound = rng * sig0 // (sig0 + sig1)
            if code < bound:
                rng = bound
                sig0 += 1
                if sig0 + sig1 >= _COUNT_CAP:
                    sig0, sig1 = (sig0 + 1) >> 1, (sig1 + 1) >> 1
                while rng < _TOP:
                    rng <<= 8
                    code = (code << 8) | data[pos]
                    pos += 1
                continue
            code -= bound
            rng -= bound
            sig1 += 1
            if sig0 + sig1 >= _COUNT_CAP:
                sig0, sig1 = (sig0 + 1) >> 1, (sig1 + 1) >> 1
            while rng < _TOP:
                rng <<= 8
                code = (code << 8) | data[pos]
                pos += 1
            sig[cell] = 1
            # Exp-Golomb prefix: z zero bits, then a one
            z = 0
            while True:
                bound = rng * pre0 // (pre0 + pre1)
                one = code >= bound
                if one:
                    code -= bound
                    rng -= bound
                    pre1 += 1
                else:
                    rng = bound
                    pre0 += 1
                if pre0 + pre1 >= _COUNT_CAP:
                    pre0, pre1 = (pre0 + 1) >> 1, (pre1 + 1) >> 1
                while rng < _TOP:
                    rng <<= 8
                    code = (code << 8) | data[pos]
                    pos += 1
                if one:
                    break
                z += 1
                if z > 64:
                    raise CorruptStreamError("runaway Exp-Golomb prefix")
            # bypass word: the sign, then the z bits of plus = |level| below
            # its leading one
            word = 0
            n = z + 1
            while n:
                t = n if n <= 16 else 16
                n -= t
                rng >>= t
                bits = code // rng
                if bits >> t:
                    raise CorruptStreamError("bypass bits out of range")
                code -= bits * rng
                word = (word << t) | bits
                while rng < _TOP:
                    rng <<= 8
                    code = (code << 8) | data[pos]
                    pos += 1
            negative = word >> z
            plus = word | (1 << z)
            if plus >= _INT64_SPAN + negative:
                raise CorruptStreamError("level does not fit in int64")
            levels.append(-plus if negative else plus)
    except IndexError:
        raise CorruptStreamError("payload ended mid-symbol") from None
    if pos != end:
        # the encoder's flush ends every payload exactly where its last
        # symbol is read; a wrong header shape usually stops elsewhere
        raise CorruptStreamError(f"payload holds {end} bytes, decoded {pos}")
    return QuantizedSparseMatrix(
        step=float(step),
        significance=np.frombuffer(sig, dtype=bool).reshape(rows, cols),
        levels=np.array(levels, dtype=np.int64),
    )
