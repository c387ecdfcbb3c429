"""Format ladder and conversion tests.

The 16-bit source space is small enough to enumerate, so most laws are
checked exhaustively rather than sampled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.quant import FpFormat, GuardConfig, check_ladder, plane_set
from reference import (
    FP0,
    FP4,
    FP6,
    FP8,
    FP12,
    FP16,
    LADDER,
    NO_GUARD,
    Rounding,
    WeightWord,
    convert,
    convert_words,
    dequantize,
    encode_fp16,
    fp16_value,
    minifloat_value,
    ref_convert,
    ref_encode_fp16,
)

E4M3 = FpFormat("E4M3", 4, 3)
WORDS = np.arange(1 << 16)  # every FP16 bit pattern
GUARDS = [GuardConfig(ge, gm) for ge in (0, 1, 2) for gm in (0, 1, 2)]


def test_ladder_shape():
    assert [f.total_bits for f in LADDER] == [16, 12, 8, 6, 4, 0]
    assert FP16.bias == 15 and FP12.bias == 15 and FP8.bias == 15
    assert FP6.bias == 3 and FP4.bias == 1
    assert FP0.is_skip


def test_format_validation():
    with pytest.raises(ValueError):
        FpFormat("bad", 6, 2)  # exponent wider than the stored layout
    with pytest.raises(ValueError):
        FpFormat("bad", 5, 11)
    with pytest.raises(ValueError, match="^M3: exp_bits must be in 1..5$"):
        FpFormat("M3", 0, 3)  # only the skip format has no exponent
    with pytest.raises(ValueError):
        GuardConfig(3, 0)
    # Sign and bias follow from the widths.
    assert (E4M3.sign_bits, E4M3.bias, E4M3.total_bits) == (1, 7, 8)
    assert (FP0.sign_bits, FP0.bias, FP0.total_bits) == (0, 0, 0)


@pytest.mark.parametrize(
    "ladder, match",
    [
        ((), "needs a top format and a skip level"),
        ((FP0,), "needs a top format and a skip level"),
        ((FP16, FP8), "must end in a skip level \\(0 bits\\), not FP8"),
        ((FP8, FP16, FP0), "strictly decreasing in width"),
        ((FP16, FP8, FP8, FP0), "strictly decreasing in width"),
        # Equal widths are a repeated rung even under another name.
        ((FP16, FP8, FpFormat("E4M3", 4, 3), FP0), "strictly decreasing in width"),
        # Reports and assignment CSVs key rungs by name.
        ((FP16, FpFormat("X", 5, 6), FpFormat("X", 5, 2), FP0), "ladder names 'X' twice"),
    ],
)
def test_ladder_rules(ladder, match):
    with pytest.raises(ValueError, match=match):
        check_ladder(ladder)


def test_plane_set_examples():
    assert plane_set(FP8, NO_GUARD) == (0, 1, 2, 3, 4, 5, 6, 7)
    for g in GUARDS:
        assert plane_set(FP16, g) == tuple(range(16))
    assert plane_set(FP4, GuardConfig(1, 2)) == (0, 1, 2, 3, 6, 7, 8)
    with pytest.raises(ValueError, match="skipped chunk has no planes"):
        plane_set(FP0, NO_GUARD)


def test_plane_count_law():
    for fmt in LADDER[:-1]:
        for g in GUARDS:
            expected = 1 + min(5, fmt.exp_bits + g.exp_bits) + min(10, fmt.man_bits + g.man_bits)
            assert len(plane_set(fmt, g)) == expected


def test_convert_examples():
    one = WeightWord(0x3C00, FP16)
    assert convert(one, FP8).bits == 0b0_01111_00
    assert dequantize(convert(one, FP8)) == 1.0
    # 0.99951… rounds up through the mantissa into the exponent.
    near_one = WeightWord(0x3BFF, FP16)
    out = convert(near_one, FP8, GuardConfig(0, 2), Rounding.ROUND_NEAREST_EVEN)
    assert out.bits == 0b0_01111_00
    assert dequantize(out) == 1.0
    # Same word truncated instead: stays just below one.
    out_t = convert(near_one, FP8, GuardConfig(0, 2), Rounding.TRUNCATE)
    assert dequantize(out_t) < 1.0


def test_convert_rejects_bad_inputs():
    with pytest.raises(ValueError):
        convert(WeightWord(0x3C00, FP16), FP0)
    with pytest.raises(ValueError):
        convert(WeightWord(0b0_01111_00, FP8), FP8)


def test_truncation_subset_law():
    # Formats keeping the full exponent convert by masking mantissa planes.
    for fmt in (FP16, FP12, FP8):
        drop = 10 - fmt.man_bits
        sliced = ((WORDS >> 15) << (5 + fmt.man_bits)) | ((WORDS & 0x7FFF) >> drop)
        assert np.array_equal(convert_words(WORDS, fmt), sliced)


def test_guard_degeneracy():
    for fmt in (FP12, FP8, FP6, FP4, E4M3):
        for ge in (0, 1, 2):
            g = GuardConfig(ge, 0)
            assert np.array_equal(
                convert_words(WORDS, fmt, g, Rounding.ROUND_NEAREST_EVEN),
                convert_words(WORDS, fmt, g, Rounding.TRUNCATE),
            )


def test_monotone_fidelity():
    # Error is non-increasing as mantissa width grows at full exponent width.
    narrowed = zip(*(convert_words(WORDS, fmt).tolist() for fmt in (FP8, FP12, FP16)))
    for bits, (w8, w12, w16) in zip(WORDS.tolist(), narrowed):
        src = dequantize(WeightWord(bits, FP16))
        err8 = abs(dequantize(WeightWord(w8, FP8)) - src)
        err12 = abs(dequantize(WeightWord(w12, FP12)) - src)
        err16 = abs(dequantize(WeightWord(w16, FP16)) - src)
        assert err16 <= err12 <= err8


def test_sign_preservation():
    for fmt in (FP12, FP8, FP6, FP4, E4M3):
        out = convert_words(WORDS, fmt, GuardConfig(1, 1), Rounding.ROUND_NEAREST_EVEN)
        assert np.array_equal(out >> (fmt.exp_bits + fmt.man_bits), WORDS >> 15)


def test_saturation_and_flush():
    huge = WeightWord(0x7BFF, FP16)  # 65504
    assert convert(huge, FP4).bits == 0b0_11_1
    assert dequantize(convert(huge, FP4)) == 6.0
    assert convert(huge, FP6).bits == 0b0_111_11
    tiny = WeightWord(0x0001, FP16)  # smallest subnormal
    assert convert(tiny, FP6).bits == 0
    assert convert(WeightWord(0x8001, FP16), FP6).bits == 0b1_000_00  # signed zero
    # With only 4 exponent MSB planes, E=15 masks to 14: 1.0 degrades to 0.5.
    assert convert(WeightWord(0x3C00, FP16), E4M3).bits == 0b0_0110_000
    # Fetching the guard exponent plane restores exactness.
    assert convert(WeightWord(0x3C00, FP16), E4M3, GuardConfig(1, 0)).bits == 0b0_0111_000


def test_subnormal_passthrough_on_aligned_targets():
    # Full-exponent targets slice subnormals bit for bit.
    w = WeightWord(0x03FF, FP16)
    assert convert(w, FP8).bits == 0b0_00000_11
    assert convert(w, FP12).bits == 0b0_00000_111111


def test_dequantize_examples():
    assert dequantize(WeightWord(0b0_01111_00, FP8)) == 1.0
    assert dequantize(WeightWord(0xC000, FP16)) == -2.0
    assert dequantize(WeightWord(0b0_011_01, FP6)) == 1.25


def test_encode_fp16_examples():
    assert encode_fp16(1.0).bits == 0x3C00
    assert encode_fp16(-2.0).bits == 0xC000
    assert encode_fp16(0.1).bits == 0x2E66


def test_encode_dequantize_roundtrip():
    # Every pattern survives decode -> nearest-even encode unchanged.
    for bits in range(1 << 16):
        w = WeightWord(bits, FP16)
        assert encode_fp16(dequantize(w)).bits == bits


@settings(deadline=None)
@given(st.floats(min_value=-2.0e5, max_value=2.0e5, allow_nan=False))
def test_encode_matches_reference(value):
    assert encode_fp16(value).bits == ref_encode_fp16(value)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from([FP12, FP8, FP6, FP4, E4M3]),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
)
def test_convert_matches_reference_sampled(bits, fmt, ge, gm, truncate):
    mode = Rounding.TRUNCATE if truncate else Rounding.ROUND_NEAREST_EVEN
    got = convert(WeightWord(bits, FP16), fmt, GuardConfig(ge, gm), mode).bits
    want = ref_convert(bits, fmt.exp_bits, fmt.man_bits, fmt.bias, ge, gm, truncate)
    assert got == want


def test_reference_value_helpers():
    assert fp16_value(0x3C00) == 1
    assert fp16_value(0xC000) == -2
    assert minifloat_value(0b0_011_01, 3, 2, 3) == 1.25
