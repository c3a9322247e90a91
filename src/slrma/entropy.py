"""Split-layout Exp-Golomb and Rice coding of quantized sparse matrices.

A payload codes a matrix's N nonzeros in row-major order, each as its gap
(the zero cells before it) and its level, and the run of T zero cells after
the last. It holds the gap and the level selector bytes, then bits, MSB
first: the order-0 Exp-Golomb codes of N + 1 and T + 1; N unary prefixes of
the gaps, then N of the values |level| - 1; the gap suffixes, then per level
a word of its sign (1 for negative) and suffix; zero padding to a byte.
Selector k names Exp-Golomb order k in [0, 16] and 128 + r Rice parameter
r, in [0, 26] for gaps and [0, 63] for levels. A value v is a prefix of z
zeros and a one, then a suffix:

    Exp-Golomb k  w = v + 2**k, z = bit_length(w) - 1 - k, suffix w's z + k low bits
    Rice r        z = v >> r, suffix the r low bits of v

So v = (f(z) << p) + suffix for parameter p, f(z) = 2**z - 1 (Exp-Golomb)
or z (Rice). Once the ones of the unary sections give every z, `cumsum`
places every suffix and one pass reads them all: the split layout of
vectorized integer codecs (Lemire and Boytsov, SPE 2015) with Golomb-Rice
codes (Rice 1979). No step loops over cells, and `entropy_decode_all` reads
a container's payloads together, each step one numpy call over all their
bits or sections: a decode costs one set of numpy calls per container (a
lone payload is a list of one), plus work in proportion to its bytes and
one zeroed significance map.

Each selector names the code that writes its section in the fewest bits
(sign bits aside), ties to Exp-Golomb and then to the smaller parameter.
The decoder refuses any other selector, so a matrix has one payload. It
refuses as well a count prefix of over 26 zeros, N + T above the cells, a
gap needing over 26 bits or a level value over 63 (z + k above the bound,
or z >= 2**(bound - r)), a level outside int64, nonzeros and a run that do
not end at the last cell, nonzero padding and a payload of other length.

The 6 x 2 basis [[5, 0], [0, 9], [0, 0], [-2, 0], [0, 0], [0, 0]] (gaps 0,
2, 2, values 4, 8, 1 and T = 5) is the payload 00 01 21 aa 9e 8b:

    00 01         gaps: Exp-Golomb 0, 7 bits (Rice 0 ties); levels:
                  Exp-Golomb 1, 12 bits (Rice 1 and 2 tie)
    00100 00110   N + 1 = 4, T + 1 = 6
    1 01 01       gap prefixes, z = 0, 1, 1
    01 001 1      level prefixes, z = 1, 2, 0
    1 1           gap suffixes: w = 1, 3, 3
    0 10 0 010 11 +5 (w = 6), +9 (w = 10), -2 (w = 3)
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import CorruptStreamError
from .quant import QuantizedSparseMatrix

MAX_ORDER = 16  # the highest Exp-Golomb order
_RICE = 128  # the selector byte of Rice parameter 0

# Largest matrix, in cells, either direction codes: the bound on the
# significance map a crafted header can make the decoder allocate. The codec
# bounds by it the other arrays a header sizes: a mesh's frame DCT, an
# image's two 1D basis factors together and its decoded image stack.
MAX_CELLS = 1 << 26
# The most bits a gap (below MAX_CELLS) and a level value (|level| - 1 <
# 2**63) need. A count prefix holds at most _GAP_BITS zeros: N, T <= MAX_CELLS.
_GAP_BITS = MAX_CELLS.bit_length() - 1
_LEVEL_BITS = 63
_HEAD = 14  # bytes that hold both count codes, 53 bits each
_INT64_MAX = np.uint64((1 << 63) - 1)  # a level's magnitude, or 2**63 if negative
_ONE = np.uint64(1)
_POW2 = np.left_shift(_ONE, np.arange(64, dtype=np.uint64))


def _bit_length(x):
    """bit_length of each element of uint64 `x`, exactly."""
    return _POW2.searchsorted(x, side="right")


def _candidates():
    """Weights W and selector bytes of the candidates: Exp-Golomb orders 0-16,
    then Rice parameters 0-63. A section of magnitudes m (gaps + 1 or |levels|)
    counts its bit lengths e of m (columns 0-64), the bit lengths d of
    2**e - m (65-129) and its values v = m - 1 with bit j set (130 + j); then
    counts @ W is each candidate's length (the e counts add up to N).
    Exp-Golomb k codes v in 2z + k + 1 bits, z = max(e - 1 - k, 0) + [d <= k < e]
    (w = v + 2**k reaches 2**e just when 2**e - m < 2**k), and as d <= e,
    [d <= k < e] = [d <= k] - [e <= k]. Rice r codes v in (v >> r) + 1 + r
    bits; the v >> r add up to the sum of counts[130 + j] * 2**(j - r), j >= r.
    """
    x = np.arange(65)[:, None]
    k = np.arange(MAX_ORDER + 1)
    j = np.arange(64)
    weights = np.zeros((194, k.size + j.size))
    weights[:65] = np.concatenate((k, j)) + 1
    weights[:65, :k.size] += 2 * (np.maximum(x - 1 - k, 0) - (x <= k))
    weights[65:130, :k.size] = 2 * (x <= k)
    weights[130:, k.size:] = np.tril(np.exp2(np.subtract.outer(j, j)))
    return weights, np.concatenate((k, _RICE + j))


_WEIGHTS, _SELECTOR_BYTES = _candidates()


def _selectors(magnitudes, sizes):
    """The selector bytes of sections of `sizes` values each, laid end to end
    in uint64 `magnitudes` (gaps + 1 or |levels|): per section the shortest
    code, the first of ties in candidate order. Lengths below 2**53 are exact
    in float64; a Rice length above it exceeds every Exp-Golomb length, so
    rounding moves no choice. A gap below 2**26 is shorter at Rice 26 than
    past it: no pick is one the decoder refuses.
    """
    e = _bit_length(magnitudes)
    half = _POW2[e - 1]
    d = _bit_length(half - (magnitudes - half))
    offsets = np.repeat(np.arange(0, 194 * len(sizes), 194), sizes)
    counts = np.bincount(np.concatenate((e + offsets, d + offsets + 65)),
                         minlength=194 * len(sizes)).reshape(len(sizes), 194)
    # the values' bit planes, one column each, in the fewest bytes that hold
    # them all; an empty section sums the zero value past the last
    size = 1 << ((int(e.max(initial=1)) + 7) // 8 - 1).bit_length()
    values = np.zeros(magnitudes.size + 1, dtype=f"<u{size}")
    values[:-1] = magnitudes - _ONE
    planes = np.unpackbits(values.view(np.uint8), bitorder="little").reshape(-1, 8 * size)
    bounds, stop = [], 0
    for count in sizes:
        bounds += (stop, stop + count) if count else (magnitudes.size, magnitudes.size)
        stop += count
    counts[:, 130:130 + 8 * size] = np.add.reduceat(planes, bounds, axis=0, dtype=np.int32)[::2]
    return bytes(_SELECTOR_BYTES[(counts @ _WEIGHTS).argmin(axis=1)].tolist())


def _shifts(widths, ends):
    """Per bit of fields of `widths` ending at `ends`, its place in its field."""
    shifts = np.repeat(ends - 1, widths)
    return (shifts - np.arange(shifts.size)).astype(np.uint64)


def _split(values, selector):
    """Prefix zeros, suffixes and suffix widths of uint64 `values`."""
    rice, param = divmod(selector, _RICE)
    if rice:
        zeros = (values >> np.uint64(param)).astype(np.int64)
        return zeros, values & (_POW2[param] - _ONE), np.full(values.size, param)
    w = values + _POW2[param]
    widths = _bit_length(w) - 1
    return widths - param, w - _POW2[widths], widths


def entropy_encode(q: QuantizedSparseMatrix):
    """Losslessly code significance map and nonzero levels to bytes."""
    cells = q.rows * q.cols
    if cells > MAX_CELLS:
        raise ValueError(f"{q.rows}x{q.cols} matrix exceeds {MAX_CELLS} cells")
    levels = q.levels.astype(np.int64, copy=False)
    n = levels.size
    positions = np.flatnonzero(q.significance)
    # gap + 1 and |level| of each nonzero; |int64 min| wraps to 2**63
    magnitudes = np.stack((np.diff(positions, prepend=-1), np.abs(levels))).view(np.uint64)
    selectors = _selectors(magnitudes.ravel(), (n, n))
    gap_zeros, gap_suffixes, gap_widths = _split(magnitudes[0] - _ONE, selectors[0])
    zeros, suffixes, widths = _split(magnitudes[1] - _ONE, selectors[1])
    signs = (levels < 0).astype(np.uint64) << widths.astype(np.uint64)
    words = np.concatenate((gap_suffixes, suffixes | signs))
    widths = np.concatenate((gap_widths, widths + 1))
    # the codes of N + 1 and T + 1 are 2z + 1 bits each; each prefix ends at a one
    run = cells - int(positions[-1]) if n else cells + 1  # T + 1
    head = 2 * (n + 1).bit_length() + 2 * run.bit_length() - 2
    code = (n + 1) << 2 * run.bit_length() - 1 | run
    ones = head - 1 + np.cumsum(np.concatenate((gap_zeros, zeros)) + 1)
    first = ones[-1] + 1 if n else head
    bits = np.zeros(first + int(widths.sum()), dtype=np.uint8)
    bits[:head] = np.unpackbits(np.frombuffer(code.to_bytes(_HEAD, "big"), np.uint8))[-head:]
    bits[ones] = 1
    bits[first:] = np.repeat(words, widths) >> _shifts(widths, widths.cumsum()) & _ONE
    return selectors + np.packbits(bits).tobytes()


def _code(selector, top):
    """(1 at Exp-Golomb or 0 at Rice, parameter, the most zeros a prefix may
    hold) of a selector byte whose values need at most `top` bits."""
    rice, param = divmod(selector, _RICE)
    if param > (top if rice else MAX_ORDER):
        name = "Rice parameter" if rice else "Exp-Golomb order"
        raise CorruptStreamError(f"{name} {param} exceeds {top if rice else MAX_ORDER}")
    return 1 - rice, param, (1 << (top - param)) - 1 if rice else top - param


def _count(data, start):
    """The order-0 Exp-Golomb code at bit `start` after a payload's selectors:
    its value less one, and its end. Both counts lie in the first _HEAD bytes."""
    rest = int.from_bytes(bytes(data[2:2 + _HEAD]).ljust(_HEAD, b"\0"), "big")
    rest &= (1 << (8 * _HEAD - start)) - 1
    z = 8 * _HEAD - start - rest.bit_length()
    available = 8 * (len(data) - 2)
    if z > _GAP_BITS and available - start > _GAP_BITS:
        raise CorruptStreamError("runaway count prefix")
    end = start + 2 * z + 1
    if end > available:
        raise CorruptStreamError("payload ended mid-symbol")
    return (rest >> (8 * _HEAD - end)) - 1, end


def entropy_decode(data, rows, cols, step):
    """Inverse of entropy_encode for a rows x cols matrix at `step`."""
    return entropy_decode_all([(data, rows, cols, step)])[0]


def entropy_decode_all(items):
    """Inverse of entropy_encode for each (payload, rows, cols, step) of a
    non-empty list, read in one pass over all their bits: one matrix per
    payload, or the first refusal any payload meets. Each check runs on every
    payload before the next, so a bad payload among good ones raises what it
    raises decoded alone."""
    heads, codes, sizes, starts, bases = [], [], [], [], [0]  # heads: (N, T, cells, bytes)
    for data, rows, cols, _ in items:
        cells = rows * cols
        if cells > MAX_CELLS:
            raise CorruptStreamError(f"{rows}x{cols} matrix exceeds {MAX_CELLS} cells")
        if len(data) < 2:
            raise CorruptStreamError("payload ended mid-symbol")
        codes += _code(data[0], _GAP_BITS) + (0,), _code(data[1], _LEVEL_BITS) + (1,)
        n, start = _count(data, 0)
        run, start = _count(data, start)
        if n + run > cells:
            raise CorruptStreamError(f"{n} nonzeros and a run of {run} exceed {cells} cells")
        heads.append((n, run, cells, len(data)))
        sizes += n, n
        # payload i's bits are bits[bases[i]:bases[i + 1]], its prefixes from starts[i]
        starts.append(bases[-1] + start)
        bases.append(bases[-1] + 8 * (len(data) - 2))
    offsets = [0, *accumulate(2 * n for n, *_ in heads)]  # each payload's first value
    corners = [0, *accumulate(cells for _, _, cells, _ in heads)]  # and first cell
    bits = np.unpackbits(np.frombuffer(b"".join(data[2:] for data, *_ in items), np.uint8))
    ones = bits.view(bool).nonzero()[0]  # bits are 0 or 1, and a bool scan is faster
    bounds = ones.searchsorted(starts + bases[1:])  # the two lists, joined
    firsts, limits = bounds.reshape(2, -1).tolist()  # a payload's ones after its counts
    if any(limit - first < 2 * n for (n, *_), first, limit in zip(heads, firsts, limits)):
        raise CorruptStreamError("payload ended mid-symbol")
    # The one before a payload's first prefix ends its counts. Moved to the
    # bit before that prefix, it makes each prefix's zeros the run since the
    # one before, and marks where a payload of no values has its suffixes.
    ones[[first - 1 for first in firsts]] = [start - 1 for start in starts]
    runs = ones[1:] - ones[:-1] - 1
    zeros = np.concatenate([runs[first - 1:first - 1 + 2 * n]
                            for (n, *_), first in zip(heads, firsts)])
    eg, param, most, sign = np.repeat(np.array(codes), sizes, axis=0).T
    if (zeros > most).any():
        raise CorruptStreamError("runaway prefix")
    # suffix widths: z + k at Exp-Golomb order k, r at Rice r; a level adds its sign
    ez = zeros * eg
    tops = param + ez
    widths = tops + sign
    ends = np.zeros(zeros.size + 1, dtype=np.int64)
    np.cumsum(widths, out=ends[1:])
    totals = ends[offsets].tolist()
    begins = (ones[[first + 2 * n - 1 for (n, *_), first in zip(heads, firsts)]] + 1).tolist()
    stops = [begin + b - a for begin, a, b in zip(begins, totals, totals[1:])]
    for (*_, length), base, stop in zip(heads, bases, stops):
        size = 2 + (stop - base + 7) // 8
        if length < size:
            raise CorruptStreamError("payload ended mid-symbol")
        if length > size:  # a wrong header shape usually stops elsewhere
            raise CorruptStreamError(f"payload holds {length} bytes, decoded {size}")
    if (ones.searchsorted(stops) < limits).any():
        raise CorruptStreamError("nonzero padding")
    # each word is the difference of two running sums; a zero-width word is 0
    suffixes = np.concatenate([bits[begin:stop] for begin, stop in zip(begins, stops)])
    sums = np.zeros(totals[-1] + 1, dtype=np.uint64)
    np.cumsum(suffixes.astype(np.uint64) << _shifts(widths, ends[1:]), out=sums[1:])
    sums = sums[ends]
    words = sums[1:] - sums[:-1]
    tops = tops.astype(np.uint64)
    negative = words >> tops  # 0 in a gap, whose word has no sign bit
    high = _POW2[ez] - _ONE + (zeros - ez).view(np.uint64)  # 2**z - 1, or z at Rice
    magnitudes = (high << param.astype(np.uint64)) + (words ^ negative << tops) + _ONE
    if (magnitudes - negative > _INT64_MAX).any():
        raise CorruptStreamError("level does not fit in int64")
    # a nonzero's cell is the running sum of gap + 1 from its payload's first, less 1
    places = np.zeros(zeros.size // 2 + 1, dtype=np.int64)
    np.cumsum(magnitudes[sign == 0].view(np.int64), out=places[1:])
    marks = places[[offset // 2 for offset in offsets]].tolist()
    for (_, run, cells, _), mark, next_mark in zip(heads, marks, marks[1:]):
        if next_mark - mark + run != cells:
            raise CorruptStreamError(f"nonzeros and a run of {run} do not end at cell {cells}")
    if _selectors(magnitudes, sizes) != b"".join(data[:2] for data, *_ in items):
        raise CorruptStreamError("a selector is not the shortest code of its section")
    value = magnitudes.view(np.int64)  # 2**63 wraps to int64 min, its own negation
    value = np.where(negative == 1, -value, value)
    # one map holds every payload's cells, each payload's after the one before
    significance = np.zeros(corners[-1], dtype=bool)
    shifts = [corner - mark - 1 for corner, mark in zip(corners[:-1], marks)]
    significance[places[1:] + np.repeat(shifts, sizes[::2])] = True
    return [QuantizedSparseMatrix(float(step), significance[a:b].reshape(rows, cols),
                                  value[first + n:last])
            for (_, rows, cols, step), (n, *_), a, b, first, last
            in zip(items, heads, corners, corners[1:], offsets, offsets[1:])]
