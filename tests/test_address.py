"""Region bloating, resolve, and translation tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.address import (
    Trace,
    build_regions,
    first_invalid,
    plane_span,
    region_report,
    resolve,
    translate,
    translate_traditional,
)
from planestore.bitplane import KIND_LABELS, ChunkDirectory, ChunkKind, plane_stride_for
from planestore.quant import FpFormat, GuardConfig, plane_set
from planestore.workload import gen_trace
from reference import (
    FP0,
    FP4,
    FP6,
    FP8,
    FP12,
    FP16,
    LADDER,
    NO_GUARD,
    LogicalRead,
    reference_first_invalid,
    scalar_resolve,
    assignment_of,
    scalar_translate,
    scalar_translate_traditional,
)

LADDER5 = [FP16, FP12, FP8, FP6, FP4]


def rows_of(table, reads) -> list:
    """resolve's (code, start, count) columns as (format, start, count)
    tuples."""
    code, start, count = (column.tolist() for column in reads)
    return [(table.regions[k].fmt, s, n) for k, s, n in zip(code, start, count)]


def resolve_one(table, addr_bit: int, len_bits: int) -> tuple:
    [row] = rows_of(table, resolve(table, [addr_bit], [len_bits]))
    return row


def logical_read(table, fmt, start: int, count: int) -> tuple:
    """(addr_bit, len_bits) of weights [start, start + count) at fmt."""
    [region] = [r for r in table.regions if r.fmt == fmt]
    width = fmt.total_bits
    return region.base_bit + start * width, count * width


def spans_of(fmt, start: int, count: int, num_weights: int, guard=NO_GUARD) -> tuple:
    """translate's columns for one read of weights [start, start + count)
    at fmt, in an image of num_weights weights: resolve, then translate."""
    table = build_regions(num_weights, [fmt])
    addr, length = logical_read(table, fmt, start, count)
    return translate(table, *resolve(table, [addr], [length]), guard)


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
    t = build_regions(64, LADDER)
    assert [r.fmt.name for r in t.regions] == ["FP16", "FP12", "FP8", "FP6", "FP4"]


def test_bloat_identity_random():
    import random

    rng = random.Random(42)
    for _ in range(100):
        num = rng.randrange(1, 10_000)
        ladder = rng.sample(LADDER, rng.randrange(1, len(LADDER) + 1))
        t = build_regions(num, ladder)
        assert t.total_logical_bits == sum(num * f.total_bits for f in ladder if not f.is_skip)


def test_resolve_examples():
    t = build_regions(64, LADDER5)
    assert resolve_one(t, 1024, 24) == (FP12, 0, 2)
    assert resolve_one(t, 0, 1024) == (FP16, 0, 64)
    assert resolve_one(t, 1792 + 8 * 10, 8 * 5) == (FP8, 10, 5)


def test_resolve_errors():
    t = build_regions(64, LADDER5)
    with pytest.raises(ValueError, match="cross-region read"):
        resolve_one(t, 1020, 8)
    with pytest.raises(ValueError, match="not weight-aligned"):
        resolve_one(t, 1025, 12)
    with pytest.raises(ValueError, match="not weight-aligned"):
        resolve_one(t, 1024, 13)
    with pytest.raises(ValueError, match="beyond the logical space"):
        resolve_one(t, 2688 + 64 * 4, 4)


def test_a_batch_names_its_first_failing_read():
    # An empty read is checked with the other rules, read by read, so the
    # batch's error is that of whichever failing read comes first.
    t = build_regions(64, LADDER5)
    empty, misaligned = (1024 + 24, 0), (1025, 12)
    with pytest.raises(ValueError, match=r"^weight range \[2, \+0\) is empty$"):
        resolve(t, *zip(empty, misaligned))
    with pytest.raises(ValueError, match="^not weight-aligned$"):
        resolve(t, *zip(misaligned, empty))


def test_resolve_roundtrip():
    t = build_regions(512, LADDER5)
    for region in t.regions:
        width = region.fmt.total_bits
        for start, count in [(0, 1), (10, 5), (500, 12), (0, 512)]:
            assert resolve_one(t, region.base_bit + start * width, count * width) == (
                region.fmt,
                start,
                count,
            )


def test_translate_whole_planes():
    _, planes, lo, size = spans_of(FP16, 0, 32768, 32768)
    assert len(lo) == 16
    assert (size == 4096).all()
    assert lo.tolist() == [p * 4096 for p in range(16)]


def test_translate_single_burst_per_plane():
    _, planes, lo, size = spans_of(FP8, 0, 512, 512)
    assert len(lo) == 8
    assert (size == 64).all()


def test_translate_neuron_chunk():
    _, planes, lo, size = spans_of(FP6, 0, 7200, 7200)
    assert len(lo) == 6
    assert (size == 960).all()
    assert set(planes.tolist()) == set(plane_set(FP6, NO_GUARD))


def test_plane_span_brute_force():
    # Aligned span must cover exactly the bytes the bit range touches.
    stride = plane_stride_for(10_000)
    for plane in (0, 3, 15):
        base = plane * stride
        for start, count in [(0, 1), (7, 9), (511, 2), (512, 512), (4095, 4097)]:
            lo, size = plane_span(stride, plane, start, count)
            first_byte = base + start // 8
            last_byte = base + (start + count - 1) // 8
            assert lo % 64 == 0 and size % 64 == 0
            assert lo <= first_byte and last_byte < lo + size
            assert first_byte - lo < 64 and (lo + size) - last_byte <= 64


def make_directory(lengths):
    """MLP-neuron chunks of the given lengths, back to back."""
    return ChunkDirectory(lengths, [KIND_LABELS.index(ChunkKind.MLP_NEURON)] * len(lengths))


def extents(lengths, loaded=None) -> list:
    """The traditional (lo, size) extents of a directory of the given
    lengths, for the loaded chunks (all by default)."""
    loaded = np.ones(len(lengths), bool) if loaded is None else np.array(loaded, bool)
    return list(zip(*(c.tolist() for c in translate_traditional(make_directory(lengths), loaded))))


def test_translate_traditional_block_requests():
    # 512 FP16 weights are 16 blocks, which gen_trace issues one by one.
    assert extents([512, 512]) == [(0, 16 * 64), (16 * 64, 16 * 64)]


def test_traditional_trace_ignores_the_format():
    # Loading the same chunks at other formats fetches the same bytes.
    directory = make_directory([512, 100, 300])
    traces = [
        gen_trace(assignment_of(formats, LADDER), directory, "traditional", NO_GUARD)
        for formats in ([FP16, FP0, FP16], [FP8, FP0, FP4], [FP4, FP0, FP12])
    ]
    assert traces[0] == traces[1] == traces[2]
    assert traces[0].addr.tolist() == [0, 1280] and traces[0].size.tolist() == [1024, 640]


def test_traditional_chunk_bases_aligned():
    # 200B extents are padded to 256B; a skipped chunk keeps its place.
    assert extents([100, 100, 100]) == [(0, 256), (256, 256), (512, 256)]
    assert extents([100, 100, 100], [False, True, False]) == [(256, 256)]


def test_empty_read_rejected():
    table = build_regions(512, LADDER5)
    # An empty read at a region's end starts the next region; at the
    # space's end it is still the last region's.
    for fmt, start in ((FP8, 0), (FP8, 100), (FP4, 512)):
        message = rf"^weight range \[{start}, \+0\) is empty$"
        addr, length = logical_read(table, fmt, start, 0)
        with pytest.raises(ValueError, match=message):
            resolve(table, [addr], [length])
        with pytest.raises(ValueError, match=message):
            scalar_resolve(table, LogicalRead(addr, length))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 300), st.booleans()), min_size=1, max_size=12)
)
def test_traditional_extents_tile_the_directory_in_order(chunks):
    lengths = [length for length, _ in chunks]
    loaded = [keep for _, keep in chunks]
    directory = make_directory(lengths)
    got = extents(lengths, loaded)
    wanted = [chunk_id for chunk_id, keep in enumerate(loaded) if keep]
    # Skipped chunks are absent; every loaded chunk has its oracle extent.
    assert got == [scalar_translate_traditional(directory, chunk_id) for chunk_id in wanted]
    end = 0
    for chunk_id, (lo, size) in zip(wanted, got):
        # Block-aligned, in directory order and disjoint, holding the
        # chunk's FP16 bytes with less than a block of padding.
        assert lo % 64 == 0 and size % 64 == 0
        assert lo >= end
        end = lo + size
        assert 2 * lengths[chunk_id] <= size < 2 * lengths[chunk_id] + 64


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([FP12, FP8, FP6, FP4]),
    st.sampled_from([2**10, 2**16, 2**20]),
    st.integers(min_value=0, max_value=2**14),
)
def test_proportionality_amortizes(fmt, count, start):
    num = start + count
    smart = spans_of(fmt, start, count, num)[3].sum()
    # The traditional side fetches a count-weight chunk whole.
    [(_, trad)] = extents([count])
    planes = len(plane_set(fmt, NO_GUARD))
    # Per plane the aligned span exceeds the payload by under two blocks.
    tol = (planes * 2 * 64 + 64) / (2 * count)
    assert abs(smart / trad - planes / 16) <= tol


def test_determinism():
    a = spans_of(FP6, 123, 4567, 9999, GuardConfig(1, 1))
    b = spans_of(FP6, 123, 4567, 9999, GuardConfig(1, 1))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert a[2].tolist() == sorted(a[2].tolist())


def test_request_validation():
    with pytest.raises(ValueError):
        Trace([30], [64])
    with pytest.raises(ValueError):
        Trace([64], [30])


def test_a_row_is_its_reads():
    # len counts 64-byte reads, not rows, in Python ints past the int64
    # sum; an untagged row is named by its first read.
    trace = Trace([0, 640], [640, 128], [0, 1], ("a", "b"), [3, 4])
    assert (len(trace), trace.addr.size) == (12, 2)
    assert trace.bytes_by_tag().tolist() == [640, 128]
    assert len(Trace([0] * 3, [1 << 62] * 3)) == 3 << 56
    untagged = Trace([0, 640], [640, 64], [0, -1], ("a",))
    with pytest.raises(ValueError, match=r"^request 10 is untagged$"):
        untagged.bytes_by_tag()


def test_region_report():
    rows = region_report(build_regions(64, LADDER5))
    assert rows[0] == {"format": "FP16", "base_bit": 0, "size_bits": 1024, "base_byte": 0, "size_bytes": 128}
    assert rows[1]["base_bit"] == 1024


# --- the array-valued functions against their scalar oracles ---------------


def outcome(fn, *args):
    """fn(*args) as plain ints, or ("error", message) when it raises."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return "error", str(exc)
    return tuple(x if isinstance(x, FpFormat) else np.asarray(x).tolist() for x in result)


def assert_batch_matches(expected: list, batch):
    """A batch call raises the first failing read's error, or returns
    every read's result."""
    errors = [want for want in expected if want[0] == "error"]
    if errors:
        with pytest.raises(ValueError) as info:
            batch()
        assert str(info.value) == errors[0][1]
        return None
    return batch()


@st.composite
def region_tables(draw):
    num_weights = draw(st.integers(1, 5000))
    picked = draw(st.sets(st.sampled_from(LADDER5), min_size=1))
    return build_regions(num_weights, [f for f in LADDER if f in picked or f.is_skip])


@st.composite
def logical_reads(draw, table):
    """Bit reads of every kind: whole weights inside one region, and reads
    that cross a region's end, are misaligned, run beyond the space or
    start below 0."""
    region = draw(st.sampled_from(table.regions))
    width = region.fmt.total_bits
    start = draw(st.integers(0, table.num_weights))
    count = draw(st.integers(0, table.num_weights - start))
    addr, length = region.base_bit + start * width, count * width
    kind = draw(st.sampled_from(["inside", "inside", "cross", "misaligned", "beyond", "negative"]))
    if kind == "cross":
        length = region.end_bit - addr + draw(st.integers(1, 64))
    elif kind == "misaligned":
        addr += draw(st.integers(0, width - 1))
        length += draw(st.integers(0, width - 1))
    elif kind == "beyond":
        addr = table.total_logical_bits - draw(st.integers(0, 32))
        length = draw(st.integers(33, 96))
    elif kind == "negative":
        addr, length = draw(st.sampled_from([(-width, width), (addr, -width)]))
    return addr, length


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_resolve_matches_scalar_resolve(data):
    table = data.draw(region_tables())
    reads = data.draw(st.lists(logical_reads(table), min_size=1, max_size=8))

    def scalar(addr, length):
        return scalar_resolve(table, LogicalRead(addr, length))

    expected = [outcome(scalar, addr, length) for addr, length in reads]
    for (addr, length), want in zip(reads, expected):
        assert outcome(resolve_one, table, addr, length) == want
    resolved = assert_batch_matches(expected, lambda: resolve(table, *zip(*reads)))
    if resolved is not None:
        assert rows_of(table, resolved) == expected


@st.composite
def resolved_reads(draw, num_weights):
    """(format, (start, count)) reads at a loaded format, as `resolve`
    returns them: non-empty and inside the image, some ending at its
    last weight."""
    start = draw(st.integers(0, num_weights - 1))
    count = draw(st.one_of(st.integers(1, num_weights - start), st.just(num_weights - start)))
    return draw(st.sampled_from(LADDER5)), (start, count)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 1000).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(resolved_reads(n), min_size=1, max_size=8))
    ),
    st.builds(GuardConfig, st.integers(0, 2), st.integers(0, 2)),
)
def test_translate_matches_scalar_translate(case, guard):
    # The reads' errors are resolve's, which test_resolve_matches_scalar_resolve
    # covers; here every read is one resolve returns.
    num_weights, reads = case
    expected = [
        outcome(scalar_translate, (fmt, start, count), guard, num_weights)
        for fmt, (start, count) in reads
    ]
    for (fmt, (start, count)), want in zip(reads, expected):
        assert outcome(spans_of, fmt, start, count, num_weights, guard)[1:] == want
    table = build_regions(num_weights, LADDER)
    logical = [logical_read(table, fmt, start, count) for fmt, (start, count) in reads]
    read, *columns = (c.tolist() for c in translate(table, *resolve(table, *zip(*logical)), guard))
    for i, want in enumerate(expected):
        rows = [k for k, r in enumerate(read) if r == i]
        assert tuple([column[k] for k in rows] for column in columns) == want


# --- request rows ------------------------------------------------------------

# Mostly valid rows, with negative, misaligned, zero and negative sizes
# and negative or misaligned addresses mixed in.
row_values = st.one_of(
    st.integers(0, 64).map(lambda k: 64 * k),
    st.integers(-200, 200),
    st.sampled_from([0, -64, 1, 63, 65]),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(row_values, row_values), max_size=20))
def test_first_invalid_matches_the_mask_oracle(rows):
    addr = np.array([a for a, _ in rows], np.int64)
    size = np.array([n for _, n in rows], np.int64)
    assert first_invalid(addr, size) == reference_first_invalid(addr, size)


@pytest.mark.parametrize(
    "addr, size",
    [
        ([], []),
        ([0, 64, 128], [64, 64, 128]),
        ([0, -64], [64, 64]),
        ([0, 64], [64, 0]),
        ([0, 64], [64, -64]),
        ([0, 32], [64, 64]),
        ([0, 64], [64, 96]),
        ([-1, 1], [0, 63]),
    ],
)
def test_first_invalid_examples_match_the_mask_oracle(addr, size):
    addr, size = np.array(addr, np.int64), np.array(size, np.int64)
    assert first_invalid(addr, size) == reference_first_invalid(addr, size)
