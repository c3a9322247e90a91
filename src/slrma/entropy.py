"""Binary arithmetic coding of quantized sparse matrices.

Carry-propagating range coder with 32-bit range registers, renormalizing
whenever the range drops below 2**24. A matrix is coded cell by cell in
row-major order: a significance bit per cell and, for significant cells, an
order-k Exp-Golomb binarization of |level| - 1 and the level's sign. With
w = |level| - 1 + 2**k, the prefix is z = bit_length(w) - 1 - k zero bits and
a one; the sign and the z + k bits of w below its leading one follow. Order 0
is the plain Exp-Golomb code of |level| - 1. The significance and prefix bits
are coded against adaptive two-count contexts (initialized uniform, halved at
2**16 total). The sign and the z + k suffix bits are coded in bypass, as one
word of z + k + 1 equiprobable bits taken 16 at a time from the top: a chunk
of t bits splits the range into 2**t equal parts of rng >> t, so it costs one
shift and one multiply (or divide) where an adaptive bit costs a split, a
compare and a count update. Suffix and sign bits are near-uniform, so the
rate moves by a fraction of a percent either way.

Each payload has its own order k in [0, 16], the one whose plain Exp-Golomb
code of its levels is shortest: the k that minimizes the sum over levels of
2z + k + 1, ties going to the smallest k (`_exp_golomb_order`). A higher
order moves the low bits of large levels from adaptive prefix bins to bypass
bits. The rule takes z from |level| as float64 with `frexp` and integer
counts, and no `log`, so every platform picks the same k. The float is exact
for every level `quantize` writes, each being a float64 value; past 2**53 a
hand-built level may round, which can move the choice, never the decoded
value.

The order is payload byte 0, which costs no byte: byte 0 is the encoder's
initial cache, and no carry reaches it, because every interval the coder
narrows to lies inside the first one, [0, 2**32 - 1) on bytes 1-4. So the
encoder starts with cache = k, and the decoder reads k from byte 0 and
refuses one above 16 before its first bin.

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
# the highest Exp-Golomb order, which payload byte 0 holds
MAX_ORDER = 16

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


def _exp_golomb_order(levels):
    """The order k in [0, MAX_ORDER] of the shortest Exp-Golomb code of `levels`.

    A level's code is 2z + k + 1 bits long. With |level| = m * 2**e (m in
    [0.5, 1)) and d the bit length of 2**e - |level|, its z at order k is
    max(e - 1 - k, 0), plus one when d <= k < e. So raising the order from
    j - 1 to j shortens by a bit the code of each level whose z drops and
    lengthens by a bit the code of the others: those with e <= j - 1, whose
    z is 0 already, and those with d = j. Counts of e and d give every
    order's length at once.
    """
    m, e = np.frexp(np.abs(levels.astype(np.float64)))
    d = e + np.frexp(1.0 - m)[1]  # 1 - m is exact
    # stay[j - 1]: the levels whose z does not drop from order j - 1 to j
    stay = np.bincount(e, minlength=MAX_ORDER)[:MAX_ORDER].cumsum()
    stay += np.bincount(d, minlength=MAX_ORDER + 1)[1:MAX_ORDER + 1]
    # the length at each order k less that at order 0
    excess = np.zeros(MAX_ORDER + 1, dtype=np.int64)
    np.cumsum(2 * stay - levels.size, out=excess[1:])
    return int(excess.argmin())  # the first of equal minima


def entropy_encode(q: QuantizedSparseMatrix):
    """Losslessly code significance map and nonzero levels to bytes."""
    cells = q.rows * q.cols
    if cells > MAX_CELLS:
        raise ValueError(f"{q.rows}x{q.cols} matrix exceeds {MAX_CELLS} cells")
    order = _exp_golomb_order(q.levels)
    bias = (1 << order) - 1
    # the initial cache becomes byte 0, and it holds the order
    low, rng, cache, cache_size = 0, _MASK32, order, 1
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
        # Exp-Golomb of order k codes w = |level| - 1 + 2**k: z zero bits and
        # the one that ends the prefix, where n = z + k bits of w follow its
        # leading one
        w = abs(level) + bias
        n = w.bit_length() - 1
        for _ in range(n - order):
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
        # bypass word: w with its leading one replaced by the sign (1 for
        # negative), so the sign and then the n low bits of w
        word = w if level < 0 else w ^ (1 << n)
        n += 1
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
    # byte 0 is the encoder's initial cache byte, the Exp-Golomb order
    order = data[0]
    if order > MAX_ORDER:
        raise CorruptStreamError(f"Exp-Golomb order {order} exceeds {MAX_ORDER}")
    bias = (1 << order) - 1
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
            # Exp-Golomb prefix: z zero bits, then a one; top counts z + k,
            # the bits of w = |level| - 1 + 2**k below its leading one
            top = order
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
                top += 1
                if top > 64:
                    raise CorruptStreamError("runaway Exp-Golomb prefix")
            # bypass word: the sign, then the low top bits of w
            word = 0
            n = top + 1
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
            negative = word >> top
            plus = (word | (1 << top)) - bias
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
