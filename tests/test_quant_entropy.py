import sys
import tracemalloc

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
    # the all-zero payload of MAX_CELLS + 1 cells: N = 0, T = MAX_CELLS + 1
    empty = bytes(2) + bit_bytes("1" + "0" * 26 + bin(MAX_CELLS + 2)[2:])
    with pytest.raises(CorruptStreamError, match="exceeds"):
        entropy_decode(empty, 1, MAX_CELLS + 1, 1.0)


def test_entropy_encode_rejects_what_the_decoder_refuses():
    shape = (1, MAX_CELLS + 1)
    q = QuantizedSparseMatrix(1.0, np.broadcast_to(False, shape),
                              np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        entropy_encode(q)


# ---------------------------------------------------------------------------
# Reference coder: one symbol at a time on strings of "0" and "1", in Python
# ints, kept as the oracle for the vectorized coder's bytes and refusals.

_MAX_ORDER = 16
_GAP_BITS, _LEVEL_BITS = 26, 63


def reference_selector(values, top):
    """The selector byte of the shortest code of `values` (ints >= 0): the
    first of Exp-Golomb orders 0-16, then Rice parameters 0-top."""
    lengths = [sum(2 * ((v + (1 << k)).bit_length() - 1 - k) + k + 1 for v in values)
               for k in range(_MAX_ORDER + 1)]
    lengths += [sum((v >> r) + 1 + r for v in values) for r in range(top + 1)]
    best = lengths.index(min(lengths))
    return best if best <= _MAX_ORDER else 128 + best - _MAX_ORDER - 1


def reference_code(value, selector):
    """(prefix zeros, suffix bits) of `value` under `selector`."""
    rice, param = divmod(selector, 128)
    if rice:
        return value >> param, bin(value & ((1 << param) - 1) | 1 << param)[3:]
    w = value + (1 << param)
    return w.bit_length() - 1 - param, bin(w)[3:]


def reference_most_zeros(selector, top):
    rice, param = divmod(selector, 128)
    return (1 << (top - param)) - 1 if rice else top - param


def bit_bytes(bits):
    """A string of bits, zero-padded to bytes."""
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def reference_payload(significance, levels, selectors=None, run=None):
    """Code a flat significance list and its levels (ints of any size).

    `selectors` overrides the two selector bytes the chooser would write, and
    `run` the trailing run T.
    """
    positions = [i for i, bit in enumerate(significance) if bit]
    gaps = [b - a - 1 for a, b in zip([-1] + positions, positions)]
    values = [abs(level) - 1 for level in levels]
    if selectors is None:
        selectors = (reference_selector(gaps, _GAP_BITS), reference_selector(values, _LEVEL_BITS))
    gap_codes = [reference_code(gap, selectors[0]) for gap in gaps]
    level_codes = [reference_code(value, selectors[1]) for value in values]
    if run is None:
        run = len(significance) - 1 - positions[-1] if positions else len(significance)
    bits = "".join("0" * (count.bit_length() - 1) + bin(count)[2:]
                   for count in (len(levels) + 1, run + 1))
    bits += "".join("0" * zeros + "1" for zeros, _ in gap_codes + level_codes)
    bits += "".join(suffix for _, suffix in gap_codes)
    bits += "".join(("1" if level < 0 else "0") + suffix
                    for level, (_, suffix) in zip(levels, level_codes))
    return bytes(selectors) + bit_bytes(bits)


def reference_encode(q: QuantizedSparseMatrix):
    return reference_payload(q.significance.reshape(-1).tolist(), q.levels.tolist())


class BitReader:
    def __init__(self, data):
        self.bits = "".join(format(byte, "08b") for byte in data)
        self.pos = 0

    def take(self, width):
        if self.pos + width > len(self.bits):
            raise CorruptStreamError("payload ended mid-symbol")
        self.pos += width
        return self.bits[self.pos - width:self.pos]

    def prefix(self, most, what):
        """The zeros before the next one; more than `most` is a runaway."""
        zeros = 0
        while self.take(1) == "0":
            zeros += 1
            if zeros > most:
                raise CorruptStreamError(f"runaway {what}")
        return zeros


def reference_decode(data, rows, cols, step):
    cells = rows * cols
    if cells > MAX_CELLS:
        raise CorruptStreamError(f"{rows}x{cols} matrix exceeds {MAX_CELLS} cells")
    if len(data) < 2:
        raise CorruptStreamError("payload ended mid-symbol")
    sections = ((data[0], _GAP_BITS), (data[1], _LEVEL_BITS))
    for selector, top in sections:
        rice, param = divmod(selector, 128)
        if param > (top if rice else _MAX_ORDER):
            name = "Rice parameter" if rice else "Exp-Golomb order"
            raise CorruptStreamError(f"{name} {param} exceeds {top if rice else _MAX_ORDER}")
    reader = BitReader(data[2:])
    n, run = (int("1" + reader.take(reader.prefix(_GAP_BITS, "count prefix")), 2) - 1
              for _ in range(2))
    if n + run > cells:
        raise CorruptStreamError(f"{n} nonzeros and a run of {run} exceed {cells} cells")
    prefixes = [[reader.prefix(reference_most_zeros(selector, top), "prefix")
                 for _ in range(n)] for selector, top in sections]
    gaps, magnitudes, negative = [], [], []
    for zeros in prefixes[0]:
        rice, param = divmod(data[0], 128)
        suffix = reader.take(param if rice else zeros + param)
        gaps.append(((zeros if rice else (1 << zeros) - 1) << param) + int("0" + suffix, 2))
    for zeros in prefixes[1]:
        rice, param = divmod(data[1], 128)
        negative.append(reader.take(1) == "1")
        suffix = reader.take(param if rice else zeros + param)
        magnitudes.append(((zeros if rice else (1 << zeros) - 1) << param)
                          + int("0" + suffix, 2) + 1)
    rest = reader.bits[reader.pos:]
    if len(rest) >= 8:
        raise CorruptStreamError(
            f"payload holds {len(data)} bytes, decoded {len(data) - len(rest) // 8}")
    if "1" in rest:
        raise CorruptStreamError("nonzero padding")
    if any(m > 2**63 or m == 2**63 and not neg for m, neg in zip(magnitudes, negative)):
        raise CorruptStreamError("level does not fit in int64")
    positions, position = [], -1
    for gap in gaps:
        position += gap + 1
        positions.append(position)
    if (positions[-1] + 1 if positions else 0) + run != cells:
        raise CorruptStreamError(f"nonzeros and a run of {run} do not end at cell {cells}")
    if (data[0], data[1]) != (reference_selector(gaps, _GAP_BITS),
                              reference_selector([m - 1 for m in magnitudes], _LEVEL_BITS)):
        raise CorruptStreamError("a selector is not the shortest code of its section")
    significance = [False] * cells
    for position in positions:
        significance[position] = True
    return QuantizedSparseMatrix(
        step=float(step),
        significance=np.array(significance, dtype=bool).reshape(rows, cols),
        levels=np.array([-m if neg else m for m, neg in zip(magnitudes, negative)],
                        dtype=np.int64),
    )


def decode_outcome(decode, data, rows, cols):
    """What a decoder makes of `data`: its matrix, or the corrupt-stream error."""
    try:
        q = decode(data, rows, cols, 1.0)
    except CorruptStreamError:
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
    coefficients, and a 300x300 matrix of long gaps.
    """
    for case in ((1, 0.2, 64, 6, 2**31 - 1), (2, 0.9, 32, 6, 12345),
                 (3, 0.9, 8, 32, 2**30 + 7), (7, 0.01, 300, 300, 2**29 + 3)):
        test = example(*case)(test)
    test = given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(1, 64),
                 st.integers(1, 32), st.integers(0, 2**31 - 1))(test)
    return settings(max_examples=60, deadline=None)(test)


@coder_cases
def test_entropy_coder_matches_reference(seed, density, rows, cols, damage):
    q = sparse_levels(seed, density, rows, cols)
    payload = entropy_encode(q)
    assert payload == reference_encode(q)
    assert_same(q, entropy_decode(payload, rows, cols, q.step))
    # a truncated payload and a payload with one bit flipped each meet the
    # same outcome in both decoders
    cut = payload[: damage % len(payload)]
    flipped = bytearray(payload)
    flipped[damage % len(payload)] ^= 1 << (damage >> 24) % 8
    for damaged in (cut, bytes(flipped)):
        assert (decode_outcome(entropy_decode, damaged, rows, cols)
                == decode_outcome(reference_decode, damaged, rows, cols))


def test_entropy_coder_matches_reference_on_large_levels():
    levels = np.array([[2**62, -(2**62) - 5, 1], [-1, 0, 2**40 + 3]], dtype=np.int64)
    q = QuantizedSparseMatrix(1.0, levels != 0, levels[levels != 0])
    payload = entropy_encode(q)
    assert payload == reference_encode(q)
    assert_same(q, entropy_decode(payload, 2, 3, 1.0))


def assert_both_decoders_refuse(payload, rows, cols, match):
    for decode in (entropy_decode, reference_decode):
        with pytest.raises(CorruptStreamError, match=match):
            decode(bytes(payload), rows, cols, 1.0)


@pytest.mark.parametrize("level", [2**63, -(2**63) - 1, 2**64 - 1])
def test_entropy_decode_rejects_level_beyond_int64(level):
    # a value needing over 63 bits is a runaway prefix; the rest decode to a
    # magnitude int64 cannot hold with that sign
    for selector in (0, 1, _MAX_ORDER, 128 + 62, 128 + 63):
        payload = reference_payload([1], [level], (0, selector))
        zeros, _ = reference_code(abs(level) - 1, selector)
        runaway = zeros > reference_most_zeros(selector, _LEVEL_BITS)
        match = "runaway prefix" if runaway else "level does not fit in int64"
        assert_both_decoders_refuse(payload, 1, 1, match)


def test_entropy_roundtrips_the_int64_extremes():
    levels = np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max]])
    q = QuantizedSparseMatrix(1.0, levels != 0, levels.reshape(-1))
    assert entropy_encode(q) == reference_encode(q)
    assert_same(q, roundtrip(q))


@pytest.mark.parametrize("order", range(_MAX_ORDER + 1))
def test_entropy_roundtrips_the_int64_extremes_at_every_order(order):
    # eight levels of magnitude 2**order make `order` the shortest code
    levels = np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 1]
                       + [2**order, -(2**order)] * 4])
    q = QuantizedSparseMatrix(1.0, levels != 0, levels.reshape(-1))
    payload = entropy_encode(q)
    assert payload[1] == order
    assert payload == reference_encode(q)
    assert_same(q, entropy_decode(payload, *levels.shape, 1.0))
    assert_same(q, reference_decode(payload, *levels.shape, 1.0))


magnitude_pairs = st.lists(st.tuples(
    st.integers(0, 2**26 - 1) | st.integers(0, 40),
    st.one_of(st.integers(-(2**63), -1), st.integers(1, 2**63 - 1),
              st.integers(-300, 300).filter(bool))), max_size=40)


@given(magnitude_pairs)
@example([(0, 3)])  # orders 0 and 2 and Rice 1 code it in 3 bits
@example([(0, level) for level in (1, 2, 3, 4, 6, 7, -1, -2, -3, -5)])  # orders 0, 1 tie
@example([(2**26 - 1, 2**16 + 1)] * 3)
@example([])
@settings(max_examples=200, deadline=None)
def test_exp_golomb_order_is_the_shortest_code(pairs):
    # the selectors, Exp-Golomb orders among them, of a gap and a level section
    gaps = [gap for gap, _ in pairs]
    values = [abs(level) - 1 for _, level in pairs]
    magnitudes = np.array([[gap + 1 for gap in gaps], [v + 1 for v in values]], dtype=np.uint64)
    assert entropy._selectors(magnitudes.reshape(2, len(pairs))) == bytes(
        [reference_selector(gaps, _GAP_BITS), reference_selector(values, _LEVEL_BITS)])


@pytest.mark.parametrize("order", [_MAX_ORDER + 1, 255])
def test_entropy_decode_rejects_an_order_above_16(order):
    # 255 is Rice parameter 127, past both sections' bounds
    payload = entropy_encode(sparse_levels(5, 0.5, 4, 4))
    for byte, top in ((0, _GAP_BITS), (1, _LEVEL_BITS)):
        crafted = bytearray(payload)
        crafted[byte] = order
        match = f"order {order} exceeds 16" if order < 128 else f"parameter 127 exceeds {top}"
        assert_both_decoders_refuse(crafted, 4, 4, match)


def test_entropy_decode_rejects_a_rice_parameter_past_its_section():
    payload = entropy_encode(sparse_levels(5, 0.5, 4, 4))
    for byte, top in ((0, _GAP_BITS), (1, _LEVEL_BITS)):
        for param in (top, top + 1):
            crafted = bytearray(payload)
            crafted[byte] = 128 + param
            if param > top:
                assert_both_decoders_refuse(crafted, 4, 4, f"parameter {param} exceeds {top}")
            else:  # refused, but further on
                for decode in (entropy_decode, reference_decode):
                    with pytest.raises(CorruptStreamError, match="^(?!Rice)"):
                        decode(bytes(crafted), 4, 4, 1.0)


def short_tail_payload(z):
    """A 1x1 payload of the level -(2**z) without its last byte.

    Its level section is at order z: a prefix of one bit, then a word of its
    sign and z suffix bits that ends the payload. So the word lies partly or
    wholly beyond the cut payload.
    """
    payload = reference_payload([1], [-(2**z)])
    assert payload[1] == z
    return payload[:-1]


@pytest.mark.parametrize("payload", [short_tail_payload(z) for z in (1, 7, 11, 15)],
                         ids=["z1", "z7", "z11", "z15"])
def test_entropy_decode_rejects_a_bypass_word_out_of_range(payload):
    assert_both_decoders_refuse(payload, 1, 1, "payload ended mid-symbol")


def prefix_payload(selectors, gap_zeros, level_zeros):
    """A 1x1 payload whose gap and level prefixes hold the given zeros."""
    return bytes(selectors) + bit_bytes("0101" + "0" * gap_zeros + "1" + "0" * level_zeros + "1")


@pytest.mark.parametrize("order", [0, 7, _MAX_ORDER])
def test_entropy_decode_rejects_a_runaway_prefix(order):
    # z + k = 64, one more than any int64 level needs
    assert_both_decoders_refuse(prefix_payload((0, order), 0, 64 - order), 1, 1,
                                "runaway prefix")


@pytest.mark.parametrize("selectors, gap_zeros, level_zeros", [
    ((0, 0), 27, 0), ((_MAX_ORDER, 0), 11, 0), ((128 + 20, 0), 64, 0),
    ((128 + 26, 0), 1, 0), ((0, 128 + 60), 0, 8), ((0, 128 + 63), 0, 1),
], ids=["gap-order-0", "gap-order-16", "gap-rice-20", "gap-rice-26", "level-rice-60",
        "level-rice-63"])
def test_entropy_decode_bounds_every_prefix_by_its_value_bits(selectors, gap_zeros,
                                                             level_zeros):
    # one zero fewer than a runaway is refused only further on
    assert_both_decoders_refuse(prefix_payload(selectors, gap_zeros, level_zeros), 1, 1,
                                "runaway prefix")
    shorter = prefix_payload(selectors, gap_zeros - (gap_zeros > 0),
                             level_zeros - (level_zeros > 0))
    for decode in (entropy_decode, reference_decode):
        with pytest.raises(CorruptStreamError, match="^(?!runaway)"):
            decode(shorter, 1, 1, 1.0)


def test_entropy_decode_rejects_a_runaway_count_prefix():
    payload = bytes(2) + bit_bytes("0" * 27 + "1" * 28)  # N + 1 = 2**28 - 1
    assert_both_decoders_refuse(payload, 1, 1, "runaway count prefix")


def test_entropy_decode_rejects_a_runaway_trailing_run_prefix():
    payload = bytes(2) + bit_bytes("1" + "0" * 27 + "1" * 28)  # N = 0, T + 1 = 2**28 - 1
    assert_both_decoders_refuse(payload, 1, 1, "runaway count prefix")


def test_entropy_decode_rejects_a_count_past_the_cells():
    assert_both_decoders_refuse(reference_payload([1] * 5, [1] * 5), 2, 2,
                                "5 nonzeros and a run of 0 exceed 4 cells")


def test_entropy_decode_rejects_a_trailing_run_past_the_cells():
    assert_both_decoders_refuse(reference_payload([1, 0, 0], [1]), 1, 2,
                                "1 nonzeros and a run of 2 exceed 2 cells")
    assert_both_decoders_refuse(reference_payload([0] * 5, []), 2, 2,
                                "0 nonzeros and a run of 5 exceed 4 cells")


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
    reader = BitReader(payload[2:])
    reader.take(reader.prefix(_GAP_BITS, "count prefix"))  # N + 1 below its leading one
    assert int("1" + reader.take(reader.prefix(_GAP_BITS, "count prefix")), 2) - 1 == run
    for decode in (entropy_decode, reference_decode):
        assert_same(q, decode(payload, rows, cols, 1.0))


@pytest.mark.parametrize("cols", [3, 5])
def test_entropy_decode_rejects_nonzeros_and_run_that_miss_the_last_cell(cols):
    # a 1x4 payload read as 1x3 puts a nonzero past the last cell, and read
    # as 1x5 ends a cell short of it
    payload = reference_payload([1, 0, 0, 1], [2, -3])
    assert_both_decoders_refuse(payload, 1, cols, f"do not end at cell {cols}")


def test_entropy_decode_rejects_an_insignificant_last_coded_cell():
    # the run of 0 claims that the last cell holds a nonzero: the matrix of
    # the canonical payload with run 1, one cell short
    canonical = reference_payload([1, 0], [3])
    padded = reference_payload([1, 0], [3], run=0)
    assert canonical != padded
    assert_same(entropy_decode(canonical, 1, 2, 1.0), reference_decode(canonical, 1, 2, 1.0))
    assert_both_decoders_refuse(padded, 1, 2, "a run of 0 do not end at cell 2")


def test_entropy_decode_rejects_a_selector_the_chooser_would_not_pick():
    # gaps 0, 1 take 3 bits at Rice 0 and 4 at Exp-Golomb 0; values 2, 0
    # take 4 bits at Exp-Golomb 0 and Rice 0. Another selector codes the
    # same matrix in another payload.
    canonical = reference_payload([1, 0, 1], [3, -1])
    assert canonical[:2] == b"\x80\x00"
    assert_same(entropy_decode(canonical, 1, 3, 1.0), reference_decode(canonical, 1, 3, 1.0))
    for selectors in ((0, 0), (128, 128), (128, 1)):
        payload = reference_payload([1, 0, 1], [3, -1], selectors)
        assert payload != canonical
        assert_both_decoders_refuse(payload, 1, 3, "not the shortest code")


def test_entropy_decode_rejects_nonzero_tail_padding():
    q = QuantizedSparseMatrix(1.0, np.ones((1, 1), dtype=bool), np.array([1]))
    payload = bytearray(entropy_encode(q))
    # N + 1 = 2, T + 1 = 1, gap and level prefixes and a zero sign: 7 bits
    assert payload == b"\x00\x00\x5c"
    payload[-1] = 0x5d
    assert_both_decoders_refuse(payload, 1, 1, "nonzero padding")


def test_entropy_decode_rejects_bytes_past_the_tail():
    q = sparse_levels(5, 0.5, 4, 4)
    payload = entropy_encode(q)
    for extra in (b"\x00", b"\x80\x00"):
        assert_both_decoders_refuse(
            payload + extra, 4, 4,
            f"payload holds {len(payload) + len(extra)} bytes, decoded {len(payload)}")


@pytest.mark.parametrize("last", [False, True], ids=["first-cell", "last-cell"])
def test_entropy_decode_work_does_not_grow_with_the_cells(last):
    # A payload of one nonzero at the first or the last cell takes a few
    # bytes at any size. Decoding it runs the same lines at 2**10 and 2**24
    # cells and allocates little beyond one zeroed map.
    def payload_and_lines(cols):
        significance = np.zeros((1, cols), dtype=bool)
        significance[0, -1 if last else 0] = True
        payload = entropy_encode(QuantizedSparseMatrix(1.0, significance, np.array([-5])))
        assert len(payload) <= 16
        lines = 0

        def trace(frame, event, arg):
            nonlocal lines
            if frame.f_code.co_filename != entropy.__file__:
                return None
            lines += event == "line"
            return trace

        sys.settrace(trace)
        try:
            out = entropy_decode(payload, 1, cols, 1.0)
        finally:
            sys.settrace(None)
        assert out.levels.tolist() == [-5]
        assert np.array_equal(out.significance, significance)
        return payload, lines

    payload, lines = payload_and_lines(2**24)
    assert lines == payload_and_lines(2**10)[1] > 0
    tracemalloc.start()
    try:
        entropy_decode(payload, 1, 2**24, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24 + 2**20
