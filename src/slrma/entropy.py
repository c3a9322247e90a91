"""Binary arithmetic coding of quantized sparse matrices.

A payload has three parts:

    byte 0      the Exp-Golomb order k, in [0, 16]
    range part  the trailing run T, then the significance and prefix bins
                of cells [0, cells - T) in row-major order (4-byte flush)
    raw tail    per nonzero level in row-major order: its sign (1 for
                negative), then the z + k bits of w below its leading one,
                MSB first, zero-padded to a byte

A level is an order-k Exp-Golomb binarization of |level| - 1: with
w = |level| - 1 + 2**k, its prefix is z = bit_length(w) - 1 - k zero bins and
a one. Order 0 is the plain Exp-Golomb code of |level| - 1. Sign and suffix
bits are near-uniform, so they stay out of the range coder: the decoding loop
records each level's z + k, and one vectorized pass reads the tail after it.

The range coder propagates carries, has 32-bit registers and renormalizes
whenever the range drops below 2**24. Significance and prefix bins use
adaptive two-count contexts (initialized uniform, halved at 2**16 total). T
counts the insignificant cells after the last significant one (cells for an
all-zero matrix); those cells cost no bins. T is coded as the order-0 Exp-Golomb
code of T + 1 in half splits, bound = rng >> 1 with no counts. The decoder
refuses an insignificant last coded cell, so every matrix has exactly one
payload.

Each payload has its own order k, the one whose plain Exp-Golomb code of its
levels is shortest: the argmin of the sum over levels of 2z + k + 1, ties to
the smallest k (`_exp_golomb_order`). It reads z from |level| as float64 with
`frexp` and integer counts, and no `log`, so every platform picks the same k.
The float is exact for every level `quantize` writes; past 2**53 a hand-built
level may round, which can move the choice, never the decoded value.

The order costs no byte. The encoder appends bits 24-32 of `low` as a digit
at each renormalization and adds up digits and carries once, below byte 0 =
k. No carry reaches byte 0, because every interval the coder narrows to lies
inside the first one, [0, 2**32 - 1) on bytes 1-4. So no encoder writes the
start code 2**32 - 1, which equals the initial range: the decoder refuses it,
and an order above 16, before its first bin.

Neither direction clamps a split. Before every bin rng >= 2**24. An adaptive
split `rng * c0 // (c0 + c1)` has c0, c1 >= 1 and c0 + c1 <= 2**16 - 1, so
it lies in [256, rng - 256]. A half split leaves two halves of at least
2**23 that cover the whole range: unlike 2**t equal parts of rng >> t, it
leaves no sliver of code values that decode to no bit, so it needs no check.

The decoder also refuses z + k > 63 (every int64 level has z + k <= 63, and
a tail word of 1 + 63 bits fits uint64), a run prefix of over 26 zeros and
T > cells (T <= MAX_CELLS = 2**26), nonzero padding and a tail of the wrong
length.
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

# The most zeros a trailing run's prefix holds: T + 1 <= MAX_CELLS + 1
_MAX_RUN_ZEROS = MAX_CELLS.bit_length() - 1
# The most bits of w below its leading one: |level| <= 2**63 needs 63
_MAX_TOP = 63
# Decoded levels are int64: magnitudes up to 2**63 - 1, or 2**63 if negative.
_INT64_MAX = np.uint64((1 << 63) - 1)


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


def _tail_layout(tops):
    """Word widths, word starts and per-bit shifts of a raw tail.

    `tops` holds each level's z + k, a byte each. Tail bit i is bit shifts[i]
    of its word, counted from the word's LSB.
    """
    # a word is the sign and the z + k bits
    widths = np.frombuffer(tops, dtype=np.uint8).astype(np.int64) + 1
    ends = np.cumsum(widths)
    shifts = np.repeat(ends - 1, widths) - np.arange(widths.sum())
    return widths, ends - widths, shifts.astype(np.uint64)


def entropy_encode(q: QuantizedSparseMatrix):
    """Losslessly code significance map and nonzero levels to bytes."""
    cells = q.rows * q.cols
    if cells > MAX_CELLS:
        raise ValueError(f"{q.rows}x{q.cols} matrix exceeds {MAX_CELLS} cells")
    levels = q.levels.astype(np.int64, copy=False)
    order = _exp_golomb_order(levels)
    bias = (1 << order) - 1
    positions = np.flatnonzero(q.significance).tolist()
    # z + k of each level (at most 63): the bits of w = |level| - 1 + 2**k
    # below its leading one
    tops = bytes([(abs(level) + bias).bit_length() - 1 for level in levels.tolist()])
    low, rng = 0, _MASK32
    digits = []  # bits 24-32 of low at each renormalization
    # T + 1 in 2z + 1 bits is its Exp-Golomb code: z zeros, then its z + 1 bits
    run = cells - positions[-1] if positions else cells + 1
    for i in range(2 * run.bit_length() - 2, -1, -1):
        half = rng >> 1
        if run >> i & 1:
            low += half
            rng -= half
        else:
            rng = half
        while rng < _TOP:
            rng <<= 8
            digits.append(low >> 24)
            low = (low & 0x00FFFFFF) << 8
    # zero and one counts of the significance and prefix contexts
    sig0 = sig1 = pre0 = pre1 = 1
    start = 0
    for pos, top in zip(positions, tops):
        for _ in range(pos - start):  # the insignificant cells before `pos`
            rng = rng * sig0 // (sig0 + sig1)
            sig0 += 1
            if sig0 + sig1 >= _COUNT_CAP:
                sig0, sig1 = (sig0 + 1) >> 1, (sig1 + 1) >> 1
            while rng < _TOP:
                rng <<= 8
                digits.append(low >> 24)
                low = (low & 0x00FFFFFF) << 8
        # significance 1
        bound = rng * sig0 // (sig0 + sig1)
        low += bound
        rng -= bound
        sig1 += 1
        if sig0 + sig1 >= _COUNT_CAP:
            sig0, sig1 = (sig0 + 1) >> 1, (sig1 + 1) >> 1
        while rng < _TOP:
            rng <<= 8
            digits.append(low >> 24)
            low = (low & 0x00FFFFFF) << 8
        # Exp-Golomb prefix: z = top - k zero bins and the one that ends it
        for _ in range(top - order):
            rng = rng * pre0 // (pre0 + pre1)
            pre0 += 1
            if pre0 + pre1 >= _COUNT_CAP:
                pre0, pre1 = (pre0 + 1) >> 1, (pre1 + 1) >> 1
            while rng < _TOP:
                rng <<= 8
                digits.append(low >> 24)
                low = (low & 0x00FFFFFF) << 8
        bound = rng * pre0 // (pre0 + pre1)
        low += bound
        rng -= bound
        pre1 += 1
        if pre0 + pre1 >= _COUNT_CAP:
            pre0, pre1 = (pre0 + 1) >> 1, (pre1 + 1) >> 1
        while rng < _TOP:
            rng <<= 8
            digits.append(low >> 24)
            low = (low & 0x00FFFFFF) << 8
        start = pos + 1
    # byte 0, the digits' low bytes and the four bytes of low, plus each
    # digit's carry (its bit 8) one byte up
    digits = np.array(digits, dtype=np.uint16)
    head = int.from_bytes(bytes([order]) + digits.astype(np.uint8).tobytes(), "big")
    head += int.from_bytes((digits >> 8).astype(np.uint8).tobytes() + b"\0", "big")
    payload = ((head << 32) + low).to_bytes(digits.size + 5, "big")
    # raw tail: each word is w with its leading one replaced by the sign
    widths, _, shifts = _tail_layout(tops)
    w = np.abs(levels).view(np.uint64) + np.uint64(bias)  # |int64 min| wraps to 2**63
    words = w ^ ((levels > 0).astype(np.uint64) << (widths - 1).astype(np.uint64))
    bits = (np.repeat(words, widths) >> shifts) & np.uint64(1)
    return payload + np.packbits(bits.astype(np.uint8)).tobytes()


def entropy_decode(data, rows, cols, step):
    """Inverse of entropy_encode for a rows x cols matrix at `step`."""
    cells = rows * cols
    if cells > MAX_CELLS:
        raise CorruptStreamError(f"{rows}x{cols} matrix exceeds {MAX_CELLS} cells")
    end = len(data)
    if end < 5:
        raise CorruptStreamError("payload ended mid-symbol")
    order = data[0]
    if order > MAX_ORDER:
        raise CorruptStreamError(f"Exp-Golomb order {order} exceeds {MAX_ORDER}")
    bias = (1 << order) - 1
    code = int.from_bytes(data[1:5], "big")
    rng = _MASK32
    # code < rng from here on: each bin leaves code below its new rng. So
    # code < rng < 2**24 whenever it shifts, and the shifted code stays below
    # 2**32 without a mask.
    if code == rng:
        raise CorruptStreamError("start code equals the range")
    pos = 5
    # zero and one counts of the significance and prefix contexts
    sig0 = sig1 = pre0 = pre1 = 1
    sig = bytearray(cells)
    tops = bytearray()  # z + k of each level
    # The loops index only data[pos], at each renormalization, and sig[cell]
    # with cell < cells, so they raise IndexError exactly when pos reaches
    # len(data): the payload ended mid-symbol. One handler checks that end.
    try:
        # trailing run: z zeros, then the z + 1 bits of T + 1, in half splits
        zeros = run = 0  # run holds T + 1 from its leading one on
        left = 1  # bins left to read
        while left:
            half = rng >> 1
            one = code >= half
            if one:
                code -= half
                rng -= half
            else:
                rng = half
            while rng < _TOP:
                rng <<= 8
                code = (code << 8) | data[pos]
                pos += 1
            if run:
                run = run << 1 | one
                left -= 1
            elif one:
                run, left = 1, zeros
            else:
                zeros += 1
                if zeros > _MAX_RUN_ZEROS:
                    raise CorruptStreamError("runaway trailing-run prefix")
        run -= 1
        if run > cells:
            raise CorruptStreamError(f"trailing run {run} exceeds {cells} cells")
        coded = cells - run
        for cell in range(coded):
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
            # Exp-Golomb prefix: z zero bits, then a one; top counts z + k
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
                if top > _MAX_TOP:
                    raise CorruptStreamError("runaway Exp-Golomb prefix")
            tops.append(top)
    except IndexError:
        raise CorruptStreamError("payload ended mid-symbol") from None
    if coded and not sig[coded - 1]:
        raise CorruptStreamError("last coded cell is insignificant")
    # the range part ends at pos; the tail holds one word per level
    widths, starts, shifts = _tail_layout(tops)
    size = pos + (shifts.size + 7) // 8
    if end < size:
        raise CorruptStreamError("payload ended mid-symbol")
    if end > size:
        # a wrong header shape usually stops elsewhere
        raise CorruptStreamError(f"payload holds {end} bytes, decoded {size}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=pos))
    if bits[shifts.size:].any():
        raise CorruptStreamError("nonzero tail padding")
    words = np.add.reduceat(bits[:shifts.size].astype(np.uint64) << shifts, starts)
    tops = (widths - 1).astype(np.uint64)
    negative = words >> tops
    magnitude = (words | np.uint64(1) << tops) - np.uint64(bias)
    if (magnitude - negative > _INT64_MAX).any():
        raise CorruptStreamError("level does not fit in int64")
    value = magnitude.view(np.int64)  # 2**63 wraps to int64 min, its own negation
    return QuantizedSparseMatrix(
        step=float(step),
        significance=np.frombuffer(sig, dtype=bool).reshape(rows, cols),
        levels=np.where(negative == 1, -value, value),
    )
