"""Adaptive binary arithmetic coding of quantized sparse matrices.

Carry-propagating range coder with 32-bit range registers, renormalizing
whenever the range drops below 2**24. Each bit is coded against an adaptive
two-count context (initialized uniform, halved at 2**16 total). A matrix is
coded cell by cell in row-major order: a significance bit per cell and, for
significant cells, a sign bit plus an order-0 Exp-Golomb binarization of
|level| - 1. Prefix and suffix bits carry their own contexts.
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


class _Contexts:
    def __init__(self):
        self.zeros = [1] * _NUM_CONTEXTS
        self.ones = [1] * _NUM_CONTEXTS

    def split(self, ctx, rng):
        c0 = self.zeros[ctx]
        total = c0 + self.ones[ctx]
        bound = rng * c0 // total
        return min(max(bound, 1), rng - 1)

    def update(self, ctx, bit):
        if bit:
            self.ones[ctx] += 1
        else:
            self.zeros[ctx] += 1
        if self.zeros[ctx] + self.ones[ctx] >= _COUNT_CAP:
            self.zeros[ctx] = (self.zeros[ctx] + 1) >> 1
            self.ones[ctx] = (self.ones[ctx] + 1) >> 1


class RangeEncoder:
    def __init__(self):
        self.low = 0
        self.range = _MASK32
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()
        self.ctx = _Contexts()

    def encode_bit(self, ctx, bit):
        bound = self.ctx.split(ctx, self.range)
        if bit:
            self.low += bound
            self.range -= bound
        else:
            self.range = bound
        self.ctx.update(ctx, bit)
        while self.range < _TOP:
            self.range = (self.range << 8) & _MASK32
            self._shift_low()

    def _shift_low(self):
        if self.low < 0xFF000000 or self.low > _MASK32:
            carry = self.low >> 32
            byte = self.cache
            while self.cache_size:
                self.out.append((byte + carry) & 0xFF)
                byte = 0xFF
                self.cache_size -= 1
            self.cache = (self.low >> 24) & 0xFF
        self.cache_size += 1
        self.low = (self.low & 0x00FFFFFF) << 8

    def finish(self):
        for _ in range(5):
            self._shift_low()
        return bytes(self.out)


class RangeDecoder:
    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.range = _MASK32
        self.code = 0
        self.ctx = _Contexts()
        self._next_byte()  # the encoder's initial zero cache byte
        for _ in range(4):
            self.code = (self.code << 8) | self._next_byte()

    def _next_byte(self):
        if self.pos >= len(self.data):
            raise CorruptStreamError("payload ended mid-symbol")
        byte = self.data[self.pos]
        self.pos += 1
        return byte

    def decode_bit(self, ctx):
        bound = self.ctx.split(ctx, self.range)
        if self.code < bound:
            bit = 0
            self.range = bound
        else:
            bit = 1
            self.code -= bound
            self.range -= bound
        self.ctx.update(ctx, bit)
        while self.range < _TOP:
            self.range = (self.range << 8) & _MASK32
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32
        return bit


def _encode_exp_golomb(enc, value):
    # order-0: z zero bits, a one bit, then the z low bits of value + 1
    plus = value + 1
    z = plus.bit_length() - 1
    for _ in range(z):
        enc.encode_bit(CTX_EG_PREFIX, 0)
    enc.encode_bit(CTX_EG_PREFIX, 1)
    for shift in range(z - 1, -1, -1):
        enc.encode_bit(CTX_EG_SUFFIX, (plus >> shift) & 1)


def _decode_exp_golomb(dec):
    z = 0
    while dec.decode_bit(CTX_EG_PREFIX) == 0:
        z += 1
        if z > 64:
            raise CorruptStreamError("runaway Exp-Golomb prefix")
    plus = 1
    for _ in range(z):
        plus = (plus << 1) | dec.decode_bit(CTX_EG_SUFFIX)
    return plus - 1


def entropy_encode(q: QuantizedSparseMatrix):
    """Losslessly code significance map and nonzero levels to bytes."""
    enc = RangeEncoder()
    sig = q.significance.reshape(-1)
    levels = q.levels
    idx = 0
    for bit in sig:
        if bit:
            enc.encode_bit(CTX_SIGNIFICANCE, 1)
            level = int(levels[idx])
            idx += 1
            enc.encode_bit(CTX_SIGN, 1 if level < 0 else 0)
            _encode_exp_golomb(enc, abs(level) - 1)
        else:
            enc.encode_bit(CTX_SIGNIFICANCE, 0)
    return enc.finish()


def entropy_decode(data, rows, cols, step):
    """Inverse of entropy_encode for a rows x cols matrix at `step`."""
    dec = RangeDecoder(data)
    sig = np.zeros(rows * cols, dtype=bool)
    levels = []
    for i in range(rows * cols):
        if dec.decode_bit(CTX_SIGNIFICANCE):
            sig[i] = True
            negative = dec.decode_bit(CTX_SIGN)
            magnitude = _decode_exp_golomb(dec) + 1
            levels.append(-magnitude if negative else magnitude)
    if dec.pos != len(data):
        # the encoder's flush ends every payload exactly where its last
        # symbol is read; a wrong header shape usually stops elsewhere
        raise CorruptStreamError(f"payload holds {len(data)} bytes, decoded {dec.pos}")
    return QuantizedSparseMatrix(
        rows=rows,
        cols=cols,
        step=float(step),
        significance=sig.reshape(rows, cols),
        levels=np.array(levels, dtype=np.int64),
    )
