"""Packing, unpacking, directory, image-file, fetch and reconstruction tests."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.bitplane import (
    NUM_PLANES,
    BitPlaneImage,
    Chunk,
    ChunkDirectory,
    ChunkKind,
    PlaneLayout,
    load_image,
    pack,
    plane_stride_for,
    save_image,
    unpack_full,
)
from planestore.quant import (
    DEFAULT_LADDER,
    FP4,
    FP6,
    FP8,
    FP16,
    FpFormat,
    GuardConfig,
    Rounding,
    WeightWord,
    convert,
    plane_set,
)


# Selective plane fetches and word reconstruction from fetched planes.
# Nothing in the package reads partial planes back; these helpers pin the
# plane layout that the address model charges for, and the conversion
# contract that unfetched planes contribute zero bits.


@dataclass(frozen=True)
class PlaneSegment:
    """Bits [bit_offset, bit_offset + bit_length) of one plane."""

    plane_index: int
    bit_offset: int
    bit_length: int
    payload: np.ndarray  # one uint8 per bit

    def __post_init__(self) -> None:
        if not 0 <= self.plane_index < NUM_PLANES:
            raise ValueError(f"plane_index {self.plane_index} out of range")
        if len(self.payload) != self.bit_length:
            raise ValueError("payload length disagrees with bit_length")


def fetch_planes(
    image: BitPlaneImage, start: int, length: int, planes: Sequence[int]
) -> list[PlaneSegment]:
    """Extract bits [start, start+length) of each requested plane."""
    if len(planes) == 0:
        raise ValueError("empty plane set")
    if not 0 <= start <= start + length <= image.num_weights:
        raise ValueError(f"chunk [{start}, +{length}) outside [0, {image.num_weights})")
    segments = []
    for p in planes:
        bits = np.unpackbits(image.plane_bytes(p), bitorder="big")[start : start + length]
        segments.append(PlaneSegment(p, start, length, bits))
    return segments


@lru_cache(maxsize=64)
def _convert_lut(target: FpFormat, guard: GuardConfig, mode: Rounding) -> np.ndarray:
    lut = np.empty(1 << 16, dtype=np.uint16)
    for bits in range(1 << 16):
        lut[bits] = convert(WeightWord(bits, FP16), target, guard, mode).bits
    return lut


def reconstruct(
    segments: Sequence[PlaneSegment],
    target: FpFormat,
    guard: GuardConfig,
    mode: Rounding = Rounding.TRUNCATE,
) -> list[WeightWord]:
    """Assemble partial words from segments and convert each to ``target``.

    Unfetched planes contribute zero bits, matching the conversion
    contract, so the result equals element-wise conversion of the original
    words whenever the segments came from plane_set(target, guard).
    """
    lengths = {s.bit_length for s in segments}
    if len(lengths) != 1:
        raise ValueError("mismatched segment lengths")
    needed = set(plane_set(target, guard))
    present = {s.plane_index for s in segments}
    if not needed <= present:
        raise ValueError(f"segments missing planes {sorted(needed - present)}")
    n = lengths.pop()
    words = np.zeros(n, dtype=np.uint16)
    for s in segments:
        if s.plane_index in needed:
            words |= s.payload.astype(np.uint16) << (15 - s.plane_index)
    lut = _convert_lut(target, guard, mode)
    out = lut[words]
    return [WeightWord(int(w), target) for w in out]


def test_plane_stride_rounding():
    assert plane_stride_for(1) == 64
    assert plane_stride_for(512) == 64
    assert plane_stride_for(513) == 128
    assert plane_stride_for(2**20) == 131072
    with pytest.raises(ValueError):
        plane_stride_for(0)


def test_pack_all_ones():
    img = pack([WeightWord(0xFFFF, FP16)])
    for p in range(16):
        assert np.unpackbits(img.plane_bytes(p))[0] == 1
        assert img.plane_bytes(p)[1:].sum() == 0


def test_pack_sign_only():
    img = pack([WeightWord(0x8000, FP16), WeightWord(0x0000, FP16)])
    sign_bits = np.unpackbits(img.plane_bytes(0))[:2]
    assert sign_bits.tolist() == [1, 0]
    for p in range(1, 16):
        assert img.plane_bytes(p).sum() == 0


def test_roundtrip_random():
    rng = np.random.default_rng(7)
    words = rng.integers(0, 1 << 16, size=10_000, dtype=np.uint16)
    img = pack(words)
    assert np.array_equal(unpack_full(img), words)


def test_roundtrip_full_enumeration():
    words = np.arange(1 << 16, dtype=np.uint16)
    img = pack(words)
    out = unpack_full(img)
    assert out.dtype == np.uint16
    assert np.array_equal(out, np.arange(1 << 16))


def test_unpack_ranges():
    words = np.arange(100, dtype=np.uint16)
    img = pack(words)
    empty = unpack_full(img, 10, 10)
    assert empty.size == 0 and empty.dtype == np.uint16
    assert np.array_equal(unpack_full(img, 90, 100), np.arange(90, 100))
    with pytest.raises(ValueError):
        unpack_full(img, 0, 101)
    with pytest.raises(ValueError):
        pack([])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unpack_slice_equals_word_slice(data):
    # Lengths around whole bytes and whole 64-byte granules, so that ranges
    # start and end mid-byte, on byte edges and inside the last partial byte.
    n = data.draw(
        st.one_of(st.integers(1, 40), st.integers(500, 530), st.integers(1, 3000)), label="n"
    )
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    words = np.random.default_rng(seed).integers(0, 1 << 16, n, dtype=np.uint16)
    a = data.draw(st.integers(0, n), label="a")
    b = data.draw(st.integers(a, n), label="b")
    got = unpack_full(pack(words), a, b)
    assert got.dtype == np.uint16
    assert np.array_equal(got, words[a:b])


def test_unpack_slice_edges_of_last_partial_byte():
    words = np.random.default_rng(17).integers(0, 1 << 16, 1003, dtype=np.uint16)
    img = pack(words)
    for a, b in ((1000, 1003), (1001, 1002), (999, 1003), (996, 1001), (0, 1003), (1003, 1003)):
        got = unpack_full(img, a, b)
        assert got.dtype == np.uint16 and np.array_equal(got, words[a:b]), (a, b)
    with pytest.raises(ValueError):
        unpack_full(img, 5, 4)


def test_physical_shape():
    img = pack(np.arange(1000, dtype=np.uint16))
    assert img.footprint_bytes == 16 * img.plane_stride
    assert img.footprint_bytes * 8 >= 1000 * 16
    assert img.layout == PlaneLayout(1000, img.plane_stride, 0)


def test_directory_validation():
    d = ChunkDirectory(
        12,
        (
            Chunk(0, 0, 4, ChunkKind.ATTENTION_HEAD),
            Chunk(1, 4, 4, ChunkKind.MLP_NEURON),
            Chunk(2, 8, 4, ChunkKind.PREDICTOR),
        ),
    )
    assert len(d) == 3
    with pytest.raises(ValueError, match="expected 4"):
        ChunkDirectory(12, (Chunk(0, 0, 4, ChunkKind.PREDICTOR), Chunk(1, 6, 6, ChunkKind.PREDICTOR)))
    with pytest.raises(ValueError, match="cover"):
        ChunkDirectory(13, (Chunk(0, 0, 4, ChunkKind.PREDICTOR), Chunk(1, 4, 8, ChunkKind.PREDICTOR)))


def test_fetch_planes_accounting():
    rng = np.random.default_rng(3)
    img = pack(rng.integers(0, 1 << 16, size=64, dtype=np.uint16))
    segs = fetch_planes(img, 0, 8, plane_set(FP8))
    assert len(segs) == 8
    assert sum(s.bit_length for s in segs) == 64
    full = fetch_planes(img, 0, 8, plane_set(FP16))
    assert sum(s.bit_length for s in full) == 128
    with pytest.raises(ValueError):
        fetch_planes(img, 0, 8, [])
    with pytest.raises(ValueError):
        fetch_planes(img, 60, 8, plane_set(FP8))


def test_fetch_matches_brute_force():
    rng = np.random.default_rng(11)
    words = rng.integers(0, 1 << 16, size=7200, dtype=np.uint16)
    img = pack(words)
    segs = fetch_planes(img, 100, 7000, plane_set(FP6))
    assert len(segs) == 6
    for s in segs:
        want = (words[100:7100] >> (15 - s.plane_index)) & 1
        assert np.array_equal(s.payload, want.astype(np.uint8))


def test_reconstruct_identity_path():
    rng = np.random.default_rng(5)
    words = rng.integers(0, 1 << 16, size=500, dtype=np.uint16)
    img = pack(words)
    segs = fetch_planes(img, 0, 500, plane_set(FP16))
    out = reconstruct(segs, FP16, GuardConfig(0, 0))
    assert [w.bits for w in out] == words.tolist()


def test_reconstruct_simple():
    img = pack([WeightWord(0x3C00, FP16)])
    segs = fetch_planes(img, 0, 1, plane_set(FP8))
    assert reconstruct(segs, FP8, GuardConfig(0, 0))[0].bits == 0b0_01111_00


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([FP8, FP6, FP4]),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
)
def test_reconstruct_composition(seed, fmt, guard_man, truncate):
    # reconstruct(fetch_planes(...)) == map(convert) over the originals
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 1 << 16, size=200, dtype=np.uint16)
    img = pack(words)
    guard = GuardConfig(0, guard_man)
    mode = Rounding.TRUNCATE if truncate else Rounding.ROUND_NEAREST_EVEN
    got = reconstruct(fetch_planes(img, 50, 100, plane_set(fmt, guard)), fmt, guard, mode)
    want = [convert(WeightWord(int(b), FP16), fmt, guard, mode) for b in words[50:150]]
    assert got == want


def test_reconstruct_errors():
    img = pack(np.arange(16, dtype=np.uint16))
    segs = fetch_planes(img, 0, 8, plane_set(FP8))
    short = fetch_planes(img, 0, 4, [6])
    with pytest.raises(ValueError, match="mismatched"):
        reconstruct(segs + short, FP8, GuardConfig(0, 0))
    with pytest.raises(ValueError, match="missing planes"):
        reconstruct(segs[:4], FP8, GuardConfig(0, 0))


def test_image_file_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    words = rng.integers(0, 1 << 16, size=1000, dtype=np.uint16)
    img = pack(words)
    path = str(tmp_path / "model.planes")
    save_image(img, DEFAULT_LADDER, path)
    loaded, ladder = load_image(path)
    assert ladder == DEFAULT_LADDER
    assert loaded.num_weights == 1000
    assert np.array_equal(unpack_full(loaded), words)
    for p in range(16):
        assert np.array_equal(loaded.plane_bytes(p), img.plane_bytes(p))


def test_image_file_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.planes")
    with open(path, "wb") as f:
        f.write(b"nope" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a plane-store image"):
        load_image(path)
