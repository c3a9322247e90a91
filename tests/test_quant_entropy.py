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
# container version 2 and the per-payload Exp-Golomb order of version 3, and
# nothing else.

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
        if bit:
            self.low += bound
            self.range -= bound
        else:
            self.range = bound
        self.ctx.update(ctx, bit)
        self._normalize()

    def encode_bypass(self, value, nbits):
        # equiprobable bits, 16 at a time from the top of value
        while nbits:
            t = min(nbits, 16)
            nbits -= t
            self.range >>= t
            self.low += ((value >> nbits) & ((1 << t) - 1)) * self.range
            self._normalize()

    def _normalize(self):
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
        self._normalize()
        return bit

    def decode_bypass(self, nbits):
        value = 0
        while nbits:
            t = min(nbits, 16)
            nbits -= t
            self.range >>= t
            bits = self.code // self.range
            if bits >= 1 << t:
                raise CorruptStreamError("bypass bits out of range")
            self.code -= bits * self.range
            value = (value << t) | bits
            self._normalize()
        return value

    def _normalize(self):
        while self.range < _TOP:
            self.range = (self.range << 8) & _MASK32
            self.code = ((self.code << 8) | self._next_byte()) & _MASK32


def _prefix_zeros(magnitude, order):
    return (magnitude - 1 + (1 << order)).bit_length() - 1 - order


def _encode_level(enc, level, order):
    # order-k Exp-Golomb of w = |level| - 1 + 2**k: z zero bits and a one bit,
    # adaptive; then in bypass the sign (1 for negative) and the z + k bits
    # of w below its leading one
    z = _prefix_zeros(abs(level), order)
    for _ in range(z):
        enc.encode_bit(CTX_EG_PREFIX, 0)
    enc.encode_bit(CTX_EG_PREFIX, 1)
    sign = 1 if level < 0 else 0
    low = abs(level) - 1 + (1 << order) - (1 << (z + order))
    enc.encode_bypass((sign << (z + order)) | low, z + order + 1)


def _decode_level(dec):
    z = 0
    while dec.decode_bit(CTX_EG_PREFIX) == 0:
        z += 1
        if z + dec.order > 64:
            raise CorruptStreamError("runaway Exp-Golomb prefix")
    n = z + dec.order
    word = dec.decode_bypass(n + 1)
    magnitude = (1 << n) + (word & ((1 << n) - 1)) + 1 - (1 << dec.order)
    return -magnitude if word >> n else magnitude


def reference_order(levels):
    """The order k with the fewest bits in sum(2z + k + 1), the first of ties.

    z is taken from each |level| as float64, which is exact below 2**53.
    """
    magnitudes = [int(abs(float(level))) for level in levels]
    lengths = [sum(2 * _prefix_zeros(m, k) + k + 1 for m in magnitudes)
               for k in range(_MAX_ORDER + 1)]
    return lengths.index(min(lengths))


def reference_encode(q: QuantizedSparseMatrix, order=None):
    if order is None:
        order = reference_order(q.levels.tolist())
    enc = RangeEncoder(order)
    sig = q.significance.reshape(-1)
    levels = q.levels
    idx = 0
    for bit in sig:
        if bit:
            enc.encode_bit(CTX_SIGNIFICANCE, 1)
            _encode_level(enc, int(levels[idx]), order)
            idx += 1
        else:
            enc.encode_bit(CTX_SIGNIFICANCE, 0)
    return enc.finish()


def reference_decode(data, rows, cols, step):
    dec = RangeDecoder(data)
    sig = np.zeros(rows * cols, dtype=bool)
    levels = []
    for i in range(rows * cols):
        if dec.decode_bit(CTX_SIGNIFICANCE):
            sig[i] = True
            levels.append(_decode_level(dec))
    if dec.pos != len(data):
        raise CorruptStreamError(f"payload holds {len(data)} bytes, decoded {dec.pos}")
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
    """(unclamped split, rng) of every bit the reference coder codes in the block."""
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
    assert_split_needs_no_clamp(sparse_levels(seed, density, rows, cols))


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


@pytest.mark.parametrize("level", [2**63, -(2**63) - 1, 2**64 - 1])
def test_entropy_decode_rejects_level_beyond_int64(level):
    for order in (0, 1, _MAX_ORDER):
        enc = RangeEncoder(order)
        enc.encode_bit(CTX_SIGNIFICANCE, 1)
        _encode_level(enc, level, order)
        payload = enc.finish()
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


@pytest.mark.parametrize("order", [_MAX_ORDER + 1, 255])
def test_entropy_decode_rejects_an_order_above_16(order):
    q = sparse_levels(5, 0.5, 4, 4)
    payload = bytearray(entropy_encode(q))
    payload[0] = order
    for decode in (entropy_decode, reference_decode):
        with pytest.raises(CorruptStreamError, match=f"order {order} exceeds 16"):
            decode(bytes(payload), 4, 4, q.step)


def sliver_payload(z):
    """A 1x1 payload whose bypass word is out of range.

    It codes significance 1 and a prefix of z < 16 zeros and a one. Then,
    where the z + 1 bit word belongs, it codes a value in the sliver
    [2**t * (rng >> t), rng) of the range that none of the word's 2**t parts
    covers (t = z + 1). A later 16-bit chunk has no sliver: the chunk before
    it leaves rng a multiple of 2**16.
    """
    enc = RangeEncoder()
    enc.encode_bit(CTX_SIGNIFICANCE, 1)
    for _ in range(z):
        enc.encode_bit(CTX_EG_PREFIX, 0)
    enc.encode_bit(CTX_EG_PREFIX, 1)
    t = z + 1
    covered = (enc.range >> t) << t
    assert covered < enc.range  # the sliver is not empty
    enc.low += covered
    enc.range -= covered
    enc._normalize()
    return enc.finish()


# The start code 2**32 - 1 equals the range: it decodes the first cell's
# significance and prefix as ones, without renormalizing, into its bypass word.
@pytest.mark.parametrize("payload",
                         [*map(sliver_payload, (1, 7, 11, 15)), b"\x00\xff\xff\xff\xff"],
                         ids=["z1", "z7", "z11", "z15", "start-code-equals-range"])
def test_entropy_decode_rejects_a_bypass_word_out_of_range(payload):
    for decode in (entropy_decode, reference_decode):
        with pytest.raises(CorruptStreamError, match="bypass bits out of range"):
            decode(payload, 1, 1, 1.0)
