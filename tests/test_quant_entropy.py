from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slrma import entropy
from slrma.codec import CodecParams, compress_image_set
from slrma.entropy import MAX_CELLS, entropy_decode, entropy_encode
from slrma.errors import CorruptStreamError, SizeOverflowError
from slrma.quant import QuantizedSparseMatrix, dequantize, quantize


def test_quantize_rounding_boundary():
    q = quantize(np.array([[0.49, 0.5], [-0.5, -0.49]]), 1.0)
    assert np.array_equal(q.significance, [[False, True], [True, False]])
    assert np.array_equal(q.levels, [1, -1])


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
def test_quantize_rejects_step_a_decoder_refuses(step):
    # the decoder rejects a container whose step is not positive and finite,
    # so the encoder must never write one
    with pytest.raises(ValueError):
        quantize(np.ones((2, 2)), step)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value, step", [(1e33, 8.7e-8), (-1e33, 8.7e-8), (1.0, 5e-324),
                                         (2.0**63, 1.0), (-(2.0**63), 1.0)])
def test_quantize_refuses_a_level_past_int64(value, step):
    # the cast would wrap to -2**63 with only a warning
    with pytest.raises(SizeOverflowError, match="int64"):
        quantize(np.array([[0.0, value]]), step)


def test_quantize_keeps_the_largest_level_int64_holds():
    top = 2.0**63 - 1024  # the largest double below 2**63
    q = quantize(np.array([[top, -top]]), 1.0)
    assert q.levels.tolist() == [2**63 - 1024, -(2**63 - 1024)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compress_refuses_levels_past_int64():
    # a 4 x 4 x 5 set at 1e33 and step_b 8.7e-8 once wrapped into a container
    # that decoded with relative error 1
    x = np.random.default_rng(0).uniform(1.0, 2.0, size=(16, 5)) * 1e33
    params = CodecParams(k=2, step_b=8.7e-8, step_c=1.0, target_pb=0.5)
    with pytest.raises(SizeOverflowError):
        compress_image_set(x, 4, 4, params)


def test_quantize_exact_multiples_roundtrip():
    # a binary-representable step makes the roundtrip bit-exact
    m = np.array([[0.25, -0.75], [0.0, 1.5]])
    assert np.array_equal(dequantize(quantize(m, 0.25)), m)


def test_quantize_error_bound():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(13, 7))
    q = quantize(m, 0.01)
    assert np.abs(dequantize(q) - m).max() <= 0.005 + 1e-15


def test_quantize_levels_row_major():
    m = np.array([[0.0, 2.0], [3.0, 0.0]])
    q = quantize(m, 1.0)
    assert np.array_equal(q.levels, [2, 3])


def test_quantized_matrix_validation():
    with pytest.raises(ValueError):
        QuantizedSparseMatrix(1.0, np.ones((2, 2), dtype=bool),
                              np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ValueError):
        QuantizedSparseMatrix(1.0, np.array([[True, False]]),
                              np.array([0], dtype=np.int64))


def test_quantized_matrix_takes_its_shape_from_the_significance_map():
    significance = np.eye(3, dtype=bool)
    levels = np.array([1, -2, 3], dtype=np.int64)
    q = QuantizedSparseMatrix(1.0, significance, levels)
    assert (q.rows, q.cols) == (3, 3)
    assert dequantize(q).shape == (3, 3)
    assert_same(q, roundtrip(q))
    with pytest.raises(TypeError):
        QuantizedSparseMatrix(2, 2, 1.0, significance, levels)


def roundtrip(q):
    return entropy_decode(entropy_encode(q), q.rows, q.cols, q.step)


def assert_same(a, b):
    assert a.rows == b.rows and a.cols == b.cols
    assert np.array_equal(a.significance, b.significance)
    assert np.array_equal(a.levels, b.levels)


def test_entropy_all_zero():
    q = quantize(np.zeros((5, 4)), 1.0)
    out = roundtrip(q)
    assert_same(q, out)
    assert out.levels.size == 0


def test_entropy_single_nonzero():
    m = np.zeros((3, 3))
    m[0, 0] = 7.0
    q = quantize(m, 1.0)
    out = roundtrip(q)
    assert_same(q, out)
    assert out.levels[0] == 7


def test_entropy_large_levels():
    m = np.array([[1e6, -99999.0], [0.0, 12345.0]])
    assert_same(quantize(m, 1.0), roundtrip(quantize(m, 1.0)))


def test_entropy_deterministic():
    rng = np.random.default_rng(1)
    q = quantize(rng.normal(size=(10, 10)) * 5, 0.5)
    assert entropy_encode(q) == entropy_encode(q)


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.9))
@settings(max_examples=40, deadline=None)
def test_entropy_roundtrip_fuzz(seed, density):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 25))
    cols = int(rng.integers(1, 25))
    values = rng.normal(size=(rows, cols)) * 40
    values[rng.random(size=(rows, cols)) > density] = 0.0
    q = quantize(values, 0.03)
    assert_same(q, roundtrip(q))


def test_entropy_truncation_detected():
    rng = np.random.default_rng(2)
    q = quantize(rng.normal(size=(16, 16)) * 10, 0.05)
    payload = entropy_encode(q)
    with pytest.raises(CorruptStreamError):
        entropy_decode(payload[: max(1, len(payload) // 3)], 16, 16, 0.05)


def test_entropy_every_proper_prefix_ends_mid_symbol():
    # the shapes and steps the codec writes for the benchmark's corpora (an
    # image basis and coefficients, a mesh axis's basis and frame-DCT
    # coefficients), a 1x1, and a 3x3 of long Exp-Golomb levels
    rng = np.random.default_rng(7)
    cases = [((256, 8), 0.06, 0.6, 0.004), ((8, 32), 200.0, 0.0, 1.0),
             ((64, 6), 0.12, 0.8, 0.004), ((32, 6), 100.0, 0.0, 1.0),
             ((1, 1), 5.0, 0.0, 1.0), ((3, 3), 1.0, 0.0, 1e-9)]
    for shape, scale, zeros, step in cases:
        values = rng.normal(size=shape) * scale
        values[rng.random(size=shape) < zeros] = 0.0
        q = quantize(values, step)
        assert q.levels.size
        payload = entropy_encode(q)
        for end in range(len(payload)):
            with pytest.raises(CorruptStreamError, match="payload ended mid-symbol"):
                entropy_decode(payload[:end], *shape, step)


def test_entropy_truncated_preamble_detected():
    with pytest.raises(CorruptStreamError):
        entropy_decode(b"\x00\x01\x02\x03", 1, 1, 1.0)


def test_entropy_decode_rejects_oversized_shape_before_allocating():
    # a header can name any u32 shape; the decoder refuses past MAX_CELLS
    # before it sizes a significance map
    with pytest.raises(CorruptStreamError):
        entropy_decode(b"\x00" * 5, 4, 2**32 - 1, 1.0)
    with pytest.raises(CorruptStreamError):
        entropy_decode(b"\x00" * 5, MAX_CELLS + 1, 1, 1.0)


def test_entropy_encode_rejects_what_the_decoder_refuses():
    shape = (1, MAX_CELLS + 1)
    q = QuantizedSparseMatrix(1.0, np.broadcast_to(False, shape),
                              np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        entropy_encode(q)


# ---------------------------------------------------------------------------
# Reference coder: the class-based range coder the flat loops replaced, kept
# as the oracle for their bytes and their errors. It gained the bypass bins of
# container version 2 and the per-payload Exp-Golomb order of version 3; for
# version 4 it traded its bypass bins for the trailing run and the raw tail,
# and nothing else.

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_COUNT_CAP = 1 << 16

CTX_SIGNIFICANCE = 0
CTX_EG_PREFIX = 1
_NUM_CONTEXTS = 2
_MAX_ORDER = 16


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
    def __init__(self, order=0):
        self.low = 0
        self.range = _MASK32
        self.cache = order  # the initial cache is byte 0, which no carry reaches
        self.cache_size = 1
        self.out = bytearray()
        self.ctx = _Contexts()

    def encode_bit(self, ctx, bit):
        bound = self.ctx.split(ctx, self.range)
        self._encode(bound, bit)
        self.ctx.update(ctx, bit)

    def encode_half(self, bit):
        self._encode(self.range >> 1, bit)

    def encode_run(self, run):
        # order-0 Exp-Golomb of run + 1: z zeros, then its z + 1 bits
        value = run + 1
        z = value.bit_length() - 1
        for _ in range(z):
            self.encode_half(0)
        for i in range(z, -1, -1):
            self.encode_half((value >> i) & 1)

    def _encode(self, bound, bit):
        if bit:
            self.low += bound
            self.range -= bound
        else:
            self.range = bound
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
        self.order = self._next_byte()  # the encoder's initial cache byte
        if self.order > _MAX_ORDER:
            raise CorruptStreamError(f"Exp-Golomb order {self.order} exceeds {_MAX_ORDER}")
        for _ in range(4):
            self.code = (self.code << 8) | self._next_byte()
        if self.code == self.range:
            raise CorruptStreamError("start code equals the range")

    def _next_byte(self):
        if self.pos >= len(self.data):
            raise CorruptStreamError("payload ended mid-symbol")
        byte = self.data[self.pos]
        self.pos += 1
        return byte

    def decode_bit(self, ctx):
        bit = self._decode(self.ctx.split(ctx, self.range))
        self.ctx.update(ctx, bit)
        return bit

    def decode_half(self):
        return self._decode(self.range >> 1)

    def decode_run(self):
        z = 0
        while not self.decode_half():
            z += 1
            if z > 26:
                raise CorruptStreamError("runaway trailing-run prefix")
        value = 1
        for _ in range(z):
            value = (value << 1) | self.decode_half()
        return value - 1

    def _decode(self, bound):
        if self.code < bound:
            bit = 0
            self.range = bound
        else:
            bit = 1
            self.code -= bound
            self.range -= bound
        while self.range < _TOP:
            self.range = (self.range << 8) & _MASK32
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32
        return bit


def _prefix_zeros(magnitude, order):
    return (magnitude - 1 + (1 << order)).bit_length() - 1 - order


def _encode_level(enc, tail, level, order):
    # order-k Exp-Golomb of w = |level| - 1 + 2**k: z zero bits and a one bit,
    # adaptive; then, in the raw tail, the sign (1 for negative) and the
    # z + k bits of w below its leading one, MSB first
    z = _prefix_zeros(abs(level), order)
    for _ in range(z):
        enc.encode_bit(CTX_EG_PREFIX, 0)
    enc.encode_bit(CTX_EG_PREFIX, 1)
    low = abs(level) - 1 + (1 << order) - (1 << (z + order))
    tail.append(1 if level < 0 else 0)
    tail.extend((low >> i) & 1 for i in range(z + order - 1, -1, -1))


def _decode_top(dec):
    z = 0
    while dec.decode_bit(CTX_EG_PREFIX) == 0:
        z += 1
        if z + dec.order > 63:
            raise CorruptStreamError("runaway Exp-Golomb prefix")
    return z + dec.order


def reference_order(levels):
    """The order k with the fewest bits in sum(2z + k + 1), the first of ties.

    z is taken from each |level| as float64, which is exact below 2**53.
    """
    magnitudes = [int(abs(float(level))) for level in levels]
    lengths = [sum(2 * _prefix_zeros(m, k) + k + 1 for m in magnitudes)
               for k in range(_MAX_ORDER + 1)]
    return lengths.index(min(lengths))


def reference_payload(significance, levels, order, run=None):
    """Code a flat significance map and its levels (Python ints of any size).

    `run` overrides the trailing run the encoder codes: it then codes the
    significance bins of the first len(significance) - run cells as given.
    """
    if run is None:
        significant = np.flatnonzero(significance)
        run = len(significance) - 1 - significant[-1] if significant.size else len(significance)
    enc = RangeEncoder(order)
    enc.encode_run(int(run))
    tail = []
    levels = iter(levels)
    for bit in significance[: len(significance) - run]:
        enc.encode_bit(CTX_SIGNIFICANCE, int(bit))
        if bit:
            _encode_level(enc, tail, next(levels), order)
    tail += [0] * (-len(tail) % 8)
    return enc.finish() + bytes(sum(bit << (7 - i) for i, bit in enumerate(tail[j:j + 8]))
                                for j in range(0, len(tail), 8))


def reference_encode(q: QuantizedSparseMatrix, order=None):
    levels = q.levels.tolist()
    if order is None:
        order = reference_order(levels)
    return reference_payload(q.significance.reshape(-1), levels, order)


def reference_decode(data, rows, cols, step):
    dec = RangeDecoder(data)
    cells = rows * cols
    run = dec.decode_run()
    if run > cells:
        raise CorruptStreamError(f"trailing run {run} exceeds {cells} cells")
    sig = np.zeros(cells, dtype=bool)
    tops = []
    for i in range(cells - run):
        if dec.decode_bit(CTX_SIGNIFICANCE):
            sig[i] = True
            tops.append(_decode_top(dec))
    if run < cells and not sig[cells - run - 1]:
        raise CorruptStreamError("last coded cell is insignificant")
    tail = [(byte >> (7 - i)) & 1 for byte in data[dec.pos:] for i in range(8)]
    size = dec.pos + (sum(top + 1 for top in tops) + 7) // 8
    if len(data) < size:
        raise CorruptStreamError("payload ended mid-symbol")
    if len(data) > size:
        raise CorruptStreamError(f"payload holds {len(data)} bytes, decoded {size}")
    bits = iter(tail)
    levels = []
    for top in tops:
        negative = next(bits)
        low = 0
        for _ in range(top):
            low = (low << 1) | next(bits)
        magnitude = (1 << top) + low + 1 - (1 << dec.order)
        levels.append(-magnitude if negative else magnitude)
    if any(bits):
        raise CorruptStreamError("nonzero tail padding")
    return QuantizedSparseMatrix(
        step=float(step),
        significance=sig.reshape(rows, cols),
        levels=np.array(levels, dtype=np.int64),
    )


def decode_outcome(decode, data, rows, cols, corrupt=CorruptStreamError):
    """What a decoder makes of `data`: its matrix, or the corrupt-stream error."""
    try:
        q = decode(data, rows, cols, 1.0)
    except corrupt:
        return "corrupt"
    return q.significance.tobytes(), q.levels.tobytes()


def sparse_levels(seed, density, rows, cols):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, cols)) * 40
    values[rng.random(size=(rows, cols)) > density] = 0.0
    return quantize(values, 0.03)


def coder_cases(test):
    """Run `test(seed, density, rows, cols, damage)` on the coder corpus.

    Besides the drawn cases it always runs the benchmark's payload shapes:
    the 64x6 mesh basis, its 32x6 frame-DCT coefficients and 8x32 image
    coefficients.
    """
    for case in ((1, 0.2, 64, 6, 2**31 - 1), (2, 0.9, 32, 6, 12345),
                 (3, 0.9, 8, 32, 2**30 + 7)):
        test = example(*case)(test)
    test = given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(1, 64),
                 st.integers(1, 32), st.integers(0, 2**31 - 1))(test)
    return settings(max_examples=60, deadline=None)(test)


@coder_cases
def test_entropy_coder_matches_reference(seed, density, rows, cols, damage):
    q = sparse_levels(seed, density, rows, cols)
    payload = entropy_encode(q)
    assert payload == reference_encode(q)
    assert payload[0] == reference_order(q.levels.tolist())
    assert_same(q, entropy_decode(payload, rows, cols, q.step))
    # a truncated payload and a payload with one bit flipped each meet the
    # same outcome in both decoders
    cut = payload[: damage % len(payload)]
    flipped = bytearray(payload)
    flipped[damage % len(payload)] ^= 1 << (damage >> 24) % 8
    for damaged in (cut, bytes(flipped)):
        # the reference let a level past int64 escape as OverflowError
        assert (decode_outcome(entropy_decode, damaged, rows, cols)
                == decode_outcome(reference_decode, damaged, rows, cols,
                                  (CorruptStreamError, OverflowError)))


@contextmanager
def recorded_splits():
    """(unclamped split, rng) of every adaptive bin the reference coder codes in the block."""
    seen = []
    split = _Contexts.split

    def recording(self, ctx, rng):
        c0 = self.zeros[ctx]
        seen.append((rng * c0 // (c0 + self.ones[ctx]), rng))
        return split(self, ctx, rng)

    _Contexts.split = recording
    try:
        yield seen
    finally:
        _Contexts.split = split


def assert_split_needs_no_clamp(q):
    # entropy_encode and entropy_decode do not clamp the split to [1, rng - 1]:
    # with rng >= 2**24 and c0 + c1 < 2**16 it already lies in [256, rng - 256]
    with recorded_splits() as seen:
        reference_decode(reference_encode(q), q.rows, q.cols, q.step)
    assert seen
    assert all(256 <= bound <= rng - 256 for bound, rng in seen)


@coder_cases
def test_reference_split_needs_no_clamp(seed, density, rows, cols, _damage):
    q = sparse_levels(seed, density, rows, cols)
    if q.levels.size:  # an all-zero matrix codes no adaptive bin
        assert_split_needs_no_clamp(q)


def test_reference_split_needs_no_clamp_past_count_halving():
    assert_split_needs_no_clamp(sparse_levels(7, 0.01, 300, 300))


def test_entropy_coder_matches_reference_past_count_halving():
    # 90k significance bits in one context: its counts reach 2**16 and halve
    q = sparse_levels(7, 0.01, 300, 300)
    payload = entropy_encode(q)
    assert payload == reference_encode(q)
    assert_same(q, entropy_decode(payload, 300, 300, q.step))


def test_entropy_coder_matches_reference_past_every_count_halving():
    # every cell significant with a level of +-1 to +-7: the significance and
    # prefix contexts each code over 2**16 bits and halve.
    # The coders halve in a separate place after each kind of bit; at this
    # seed a count reaches 2**16 at odd counts in each of those places but
    # the one after a significance zero, which the test above reaches. So
    # skipping any one halving changes the bytes of one of the two tests.
    levels = np.random.default_rng(13).choice([-7, -5, -3, -2, -1, 1, 2, 3, 4, 6],
                                              size=(260, 260))
    q = QuantizedSparseMatrix(1.0, levels != 0, levels.reshape(-1))
    payload = entropy_encode(q)
    assert payload == reference_encode(q)
    assert_same(q, entropy_decode(payload, 260, 260, q.step))


def test_entropy_coder_matches_reference_on_large_levels():
    levels = np.array([[2**62, -(2**62) - 5, 1], [-1, 0, 2**40 + 3]], dtype=np.int64)
    q = QuantizedSparseMatrix(1.0, levels != 0, levels[levels != 0])
    payload = entropy_encode(q)
    assert payload == reference_encode(q)
    assert_same(q, entropy_decode(payload, 2, 3, 1.0))


@pytest.mark.parametrize("significance, run", [
    ([[0, 1], [1, 1]], 0),  # the last cell is significant
    ([[0, 0], [0, 0]], 4),  # all zero: every cell is in the run
    ([[1, 0], [0, 0]], 3),  # only the first cell is significant
    ([[0] * 7 + [1]] + [[0] * 8] * 7, 56),
], ids=["T=0", "T=cells", "T=cells-1", "T=56"])
def test_entropy_codes_the_trailing_run(significance, run):
    significance = np.array(significance, dtype=bool)
    rows, cols = significance.shape
    q = QuantizedSparseMatrix(1.0, significance, np.arange(1, significance.sum() + 1))
    payload = entropy_encode(q)
    assert payload == reference_encode(q)
    assert RangeDecoder(payload).decode_run() == run
    for decode in (entropy_decode, reference_decode):
        assert_same(q, decode(payload, rows, cols, 1.0))


@pytest.mark.parametrize("level", [2**63, -(2**63) - 1, 2**64 - 1])
def test_entropy_decode_rejects_level_beyond_int64(level):
    for order in (0, 1, _MAX_ORDER):
        payload = reference_payload([1], [level], order)
        if _prefix_zeros(abs(level), order) + order > 63:
            # z + k of 2**64 - 1 is 64 at every order above 0
            for decode in (entropy_decode, reference_decode):
                with pytest.raises(CorruptStreamError, match="runaway Exp-Golomb prefix"):
                    decode(payload, 1, 1, 1.0)
            continue
        with pytest.raises(OverflowError):
            reference_decode(payload, 1, 1, 1.0)
        with pytest.raises(CorruptStreamError, match="level does not fit in int64"):
            entropy_decode(payload, 1, 1, 1.0)


def test_entropy_roundtrips_the_int64_extremes():
    levels = np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max]])
    q = QuantizedSparseMatrix(1.0, levels != 0, levels.reshape(-1))
    assert entropy_encode(q) == reference_encode(q)
    assert_same(q, roundtrip(q))


@pytest.mark.parametrize("order", range(_MAX_ORDER + 1))
def test_entropy_roundtrips_the_int64_extremes_at_every_order(order, monkeypatch):
    levels = np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 1]])
    q = QuantizedSparseMatrix(1.0, levels != 0, levels.reshape(-1))
    monkeypatch.setattr(entropy, "_exp_golomb_order", lambda _: order)
    payload = entropy_encode(q)
    assert payload[0] == order
    assert payload == reference_encode(q, order)
    assert_same(q, entropy_decode(payload, 1, 4, 1.0))
    assert_same(q, reference_decode(payload, 1, 4, 1.0))


@given(st.lists(st.one_of(st.integers(-(2**63), -1), st.integers(1, 2**63 - 1),
                          st.integers(-300, 300).filter(bool)), max_size=40))
@example([3])  # orders 0 and 2 both code it in 3 bits
@example([1, 2, 3, 4, 6, 7, -1, -2, -3, -5])  # orders 0 and 1 tie at 34 bits
@example([2**16 + 1] * 3)
@example([])
@settings(max_examples=200, deadline=None)
def test_exp_golomb_order_is_the_shortest_code(levels):
    assert entropy._exp_golomb_order(np.array(levels, dtype=np.int64)) == reference_order(levels)


def assert_both_decoders_refuse(payload, rows, cols, match):
    for decode in (entropy_decode, reference_decode):
        with pytest.raises(CorruptStreamError, match=match):
            decode(bytes(payload), rows, cols, 1.0)


@pytest.mark.parametrize("order", [_MAX_ORDER + 1, 255])
def test_entropy_decode_rejects_an_order_above_16(order):
    payload = bytearray(entropy_encode(sparse_levels(5, 0.5, 4, 4)))
    payload[0] = order
    assert_both_decoders_refuse(payload, 4, 4, f"order {order} exceeds 16")


def short_tail_payload(z):
    """A 1x1 payload whose sign-and-suffix word runs past its end.

    It codes significance 1 and an order-0 prefix of z zeros and a one. The
    word that versions 2 and 3 coded as a z + 1 bit bypass word is z + 1 bits
    of the raw tail; the payload drops the tail's last byte, so the word lies
    partly or wholly beyond the payload.
    """
    payload = reference_payload([1], [-(2**z)], 0)
    tail = RangeDecoder(payload)
    tail.decode_run()
    tail.decode_bit(CTX_SIGNIFICANCE)
    assert _decode_top(tail) == z
    assert len(payload) - tail.pos == (z + 1 + 7) // 8
    return payload[:-1]


# The start code 2**32 - 1 equals the initial range, and no encoder writes it;
# it is refused before the first bin.
@pytest.mark.parametrize("payload, match", [
    *((short_tail_payload(z), "payload ended mid-symbol") for z in (1, 7, 11, 15)),
    (b"\x00\xff\xff\xff\xff", "start code equals the range"),
], ids=["z1", "z7", "z11", "z15", "start-code-equals-range"])
def test_entropy_decode_rejects_a_bypass_word_out_of_range(payload, match):
    assert_both_decoders_refuse(payload, 1, 1, match)


@pytest.mark.parametrize("order", [0, 7, _MAX_ORDER])
def test_entropy_decode_rejects_a_runaway_prefix(order):
    enc = RangeEncoder(order)
    enc.encode_run(0)
    enc.encode_bit(CTX_SIGNIFICANCE, 1)
    for _ in range(64 - order):  # z + k = 64, one more than any int64 level
        enc.encode_bit(CTX_EG_PREFIX, 0)
    enc.encode_bit(CTX_EG_PREFIX, 1)
    assert_both_decoders_refuse(enc.finish(), 1, 1, "runaway Exp-Golomb prefix")


def test_entropy_decode_rejects_a_runaway_trailing_run_prefix():
    enc = RangeEncoder()
    for bit in [0] * 27 + [1] * 28:  # T + 1 = 2**28 - 1, past any matrix
        enc.encode_half(bit)
    assert_both_decoders_refuse(enc.finish(), 1, 1, "runaway trailing-run prefix")


def test_entropy_decode_rejects_a_trailing_run_past_the_cells():
    enc = RangeEncoder()
    enc.encode_run(5)
    assert_both_decoders_refuse(enc.finish(), 2, 2, "trailing run 5 exceeds 4 cells")


def test_entropy_decode_rejects_an_insignificant_last_coded_cell():
    # the run of 0 claims that the last cell is significant, then codes it 0:
    # the same matrix as the canonical payload with run 1
    canonical = reference_payload([1, 0], [3], 1)
    padded = reference_payload([1, 0], [3], 1, run=0)
    assert canonical != padded
    assert_same(entropy_decode(canonical, 1, 2, 1.0), reference_decode(canonical, 1, 2, 1.0))
    assert_both_decoders_refuse(padded, 1, 2, "last coded cell is insignificant")


def test_entropy_decode_rejects_nonzero_tail_padding():
    q = QuantizedSparseMatrix(1.0, np.ones((1, 1), dtype=bool), np.array([1]))
    payload = bytearray(entropy_encode(q))
    assert payload[-1] == 0  # the tail is one zero sign bit and seven zero pads
    for bit in range(7):
        payload[-1] = 1 << bit
        assert_both_decoders_refuse(payload, 1, 1, "nonzero tail padding")


def test_entropy_decode_rejects_bytes_past_the_tail():
    q = sparse_levels(5, 0.5, 4, 4)
    payload = entropy_encode(q)
    for extra in (b"\x00", b"\x80\x00"):
        assert_both_decoders_refuse(
            payload + extra, 4, 4,
            f"payload holds {len(payload) + len(extra)} bytes, decoded {len(payload)}")
