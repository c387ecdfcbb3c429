"""Region bloating, resolve, and translation tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.address import (
    LogicalRead,
    RegionTable,
    Trace,
    TraditionalLayout,
    build_regions,
    plane_span,
    region_report,
    resolve,
    translate,
    translate_traditional,
)
from planestore.bitplane import Chunk, ChunkDirectory, ChunkKind, PlaneLayout, plane_stride_for
from planestore.quant import DEFAULT_LADDER, FP0, FP4, FP6, FP8, FP12, FP16, GuardConfig, plane_set

LADDER5 = [FP16, FP12, FP8, FP6, FP4]


def layout_for(num_weights: int) -> PlaneLayout:
    return PlaneLayout(num_weights, plane_stride_for(num_weights))


def test_build_regions_sizes():
    t = build_regions(1000, LADDER5)
    assert [r.size_bits for r in t.regions] == [16000, 12000, 8000, 6000, 4000]
    assert t.total_logical_bits == 46000
    assert 1000 * 16 == 16000  # physical bits for comparison


def test_build_regions_degenerate():
    t = build_regions(1, [FP16])
    assert len(t.regions) == 1
    assert t.total_logical_bits == 16


def test_build_regions_bases():
    t = build_regions(64, LADDER5)
    assert [r.base_bit for r in t.regions] == [0, 1024, 1792, 2304, 2688]


def test_fp0_contributes_no_region():
    t = build_regions(64, DEFAULT_LADDER)
    assert [r.fmt.name for r in t.regions] == ["FP16", "FP12", "FP8", "FP6", "FP4"]


def test_bloat_identity_random():
    import random

    rng = random.Random(42)
    for _ in range(100):
        num = rng.randrange(1, 10_000)
        ladder = rng.sample(DEFAULT_LADDER, rng.randrange(1, len(DEFAULT_LADDER) + 1))
        t = build_regions(num, ladder)
        assert t.total_logical_bits == sum(num * f.total_bits for f in ladder if not f.is_skip)


def test_resolve_examples():
    t = build_regions(64, LADDER5)
    assert resolve(t, LogicalRead(1024, 24)) == (FP12, 0, 2)
    assert resolve(t, LogicalRead(0, 1024)) == (FP16, 0, 64)
    assert resolve(t, LogicalRead(1792 + 8 * 10, 8 * 5)) == (FP8, 10, 5)


def test_resolve_errors():
    t = build_regions(64, LADDER5)
    with pytest.raises(ValueError, match="cross-region read"):
        resolve(t, LogicalRead(1020, 8))
    with pytest.raises(ValueError, match="not weight-aligned"):
        resolve(t, LogicalRead(1025, 12))
    with pytest.raises(ValueError, match="not weight-aligned"):
        resolve(t, LogicalRead(1024, 13))
    with pytest.raises(ValueError, match="beyond the logical space"):
        resolve(t, LogicalRead(2688 + 64 * 4, 4))


def test_resolve_roundtrip():
    t = build_regions(512, LADDER5)
    for region in t.regions:
        width = region.fmt.total_bits
        for start, count in [(0, 1), (10, 5), (500, 12), (0, 512)]:
            read = LogicalRead(region.base_bit + start * width, count * width)
            assert resolve(t, read) == (region.fmt, start, count)


def test_translate_whole_planes():
    layout = PlaneLayout(32768, 4096)
    planes, lo, size = translate((FP16, 0, 32768), GuardConfig(0, 0), layout)
    assert len(lo) == 16
    assert (size == 4096).all()
    assert lo.tolist() == [p * 4096 for p in range(16)]


def test_translate_single_burst_per_plane():
    layout = layout_for(512)
    planes, lo, size = translate((FP8, 0, 512), GuardConfig(0, 0), layout)
    assert len(lo) == 8
    assert (size == 64).all()


def test_translate_neuron_chunk():
    layout = layout_for(7200)
    planes, lo, size = translate((FP6, 0, 7200), GuardConfig(0, 0), layout)
    assert len(lo) == 6
    assert (size == 960).all()
    assert set(planes.tolist()) == set(plane_set(FP6))


def test_translate_rejects_fp0():
    with pytest.raises(ValueError, match="skipped"):
        translate((FP0, 0, 8), GuardConfig(0, 0), layout_for(8))


def test_plane_span_brute_force():
    # Aligned span must cover exactly the bytes the bit range touches.
    layout = PlaneLayout(10_000, plane_stride_for(10_000))
    for plane in (0, 3, 15):
        base = plane * layout.plane_stride
        for start, count in [(0, 1), (7, 9), (511, 2), (512, 512), (4095, 4097)]:
            lo, size = plane_span(layout, plane, start, count)
            first_byte = base + start // 8
            last_byte = base + (start + count - 1) // 8
            assert lo % 64 == 0 and size % 64 == 0
            assert lo <= first_byte and last_byte < lo + size
            assert first_byte - lo < 64 and (lo + size) - last_byte <= 64


def make_directory(lengths):
    chunks = []
    start = 0
    for i, n in enumerate(lengths):
        chunks.append(Chunk(i, start, n, ChunkKind.MLP_NEURON))
        start += n
    return ChunkDirectory(start, tuple(chunks))


def test_translate_traditional_block_requests():
    directory = make_directory([512, 512])
    layout = TraditionalLayout.from_directory(directory)
    extent = translate_traditional((FP16, 0, 512), layout)
    assert extent == (0, 16 * 64)  # gen_trace issues it as 16 block requests
    # Format-independence: FP8 fetches the same bytes.
    assert translate_traditional((FP8, 0, 512), layout) == extent
    # Skipped chunks transfer nothing.
    assert translate_traditional((FP0, 0, 512), layout) == (0, 0)


def test_traditional_chunk_bases_aligned():
    directory = make_directory([100, 100, 100])
    layout = TraditionalLayout.from_directory(directory)
    assert layout.chunk_bases == (0, 256, 512)  # 200B extents padded to 64B
    assert translate_traditional((FP16, 100, 100), layout) == (256, 256)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([FP12, FP8, FP6, FP4]),
    st.sampled_from([2**10, 2**16, 2**20]),
    st.integers(min_value=0, max_value=2**14),
)
def test_proportionality_amortizes(fmt, count, start):
    num = start + count
    layout = PlaneLayout(num, plane_stride_for(num))
    directory = ChunkDirectory(num, (Chunk(0, 0, num, ChunkKind.MLP_NEURON),))
    trad_layout = TraditionalLayout.from_directory(directory)
    smart = translate((fmt, start, count), GuardConfig(0, 0), layout)[2].sum()
    trad = translate_traditional((FP16, start, count), trad_layout)[1]
    planes = len(plane_set(fmt))
    # Per plane the aligned span exceeds the payload by under two blocks.
    tol = (planes * 2 * 64 + 64) / (2 * count)
    assert abs(smart / trad - planes / 16) <= tol


def test_determinism():
    layout = layout_for(9999)
    a = translate((FP6, 123, 4567), GuardConfig(1, 1), layout)
    b = translate((FP6, 123, 4567), GuardConfig(1, 1), layout)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert a[1].tolist() == sorted(a[1].tolist())


def test_request_validation():
    with pytest.raises(ValueError):
        Trace([30], [64])
    with pytest.raises(ValueError):
        Trace([64], [30])


def test_region_report():
    rows = region_report(build_regions(64, LADDER5))
    assert rows[0] == {"format": "FP16", "base_bit": 0, "size_bits": 1024, "base_byte": 0, "size_bytes": 128}
    assert rows[1]["base_bit"] == 1024
