"""Logical space bloating and request translation.

The device exposes one logical region per ladder format, each sized as if
the whole model were stored at that format (L * N_i bits). Every region is
backed by the same physical plane image; a read's region selects the
format, its offset selects the weight range, and translation fans the
range out into one block-aligned span per needed plane.

The traditional baseline layout stores weights contiguously at full
precision, one 64-byte-aligned extent per chunk in directory order.

A request stream is a `Trace`: numpy columns with one row per
block-granular read, in issue order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitplane import ChunkDirectory, PlaneLayout
from .quant import FpFormat, GuardConfig, plane_set

BLOCK = 64  # bytes; cacheline transaction granularity on both sides
BLOCK_BITS = BLOCK * 8

FP16_BYTES = 2  # traditional layout stores every weight full-precision


@dataclass(frozen=True)
class Region:
    fmt: FpFormat
    base_bit: int
    size_bits: int

    @property
    def end_bit(self) -> int:
        return self.base_bit + self.size_bits


@dataclass(frozen=True)
class RegionTable:
    num_weights: int
    regions: tuple[Region, ...]

    @property
    def total_logical_bits(self) -> int:
        return sum(r.size_bits for r in self.regions)


@dataclass(frozen=True)
class LogicalRead:
    addr_bit: int
    len_bits: int

    def __post_init__(self) -> None:
        if self.addr_bit < 0 or self.len_bits < 0:
            raise ValueError("negative logical read")


def first_invalid(addr: np.ndarray, size: np.ndarray):
    """(row, message) of the first row that is not a non-empty read of
    whole BLOCK-aligned blocks at a non-negative address, or None when
    every row is one."""
    bad = np.flatnonzero(
        (addr < 0) | (addr % BLOCK != 0) | (size % BLOCK != 0) | (size <= 0)
    )
    if not bad.size:
        return None
    row = int(bad[0])
    request = f"request [{addr[row]}, +{size[row]})"
    if addr[row] < 0:
        return row, f"{request} starts at a negative address"
    return row, f"{request} not {BLOCK}B-granular"


@dataclass(frozen=True, eq=False)
class Trace:
    """A request stream as columns, one row per read, in issue order.

    addr and size are byte address and length (int64), BLOCK-granular.
    tag holds each row's index into labels (int32, -1 for untagged);
    chunk holds the id of the directory chunk the row loads (int32, -1
    for none).  tag and chunk default to all -1.
    """

    addr: np.ndarray
    size: np.ndarray
    tag: np.ndarray = None
    labels: tuple = ()
    chunk: np.ndarray = None

    def __post_init__(self) -> None:
        n = len(self.addr)
        columns = {
            "addr": (self.addr, np.int64),
            "size": (self.size, np.int64),
            "tag": (np.full(n, -1) if self.tag is None else self.tag, np.int32),
            "chunk": (np.full(n, -1) if self.chunk is None else self.chunk, np.int32),
        }
        for name, (values, dtype) in columns.items():
            column = np.asarray(values, dtype).reshape(-1)
            if column.size != n:
                raise ValueError(f"trace column {name} has {column.size} rows, addr has {n}")
            object.__setattr__(self, name, column)
        object.__setattr__(self, "labels", tuple(self.labels))
        bad = first_invalid(self.addr, self.size)
        if bad is not None:
            raise ValueError(bad[1])
        if n and not -1 <= self.tag.min() <= self.tag.max() < len(self.labels):
            raise ValueError(f"tag codes must lie in [-1, {len(self.labels)})")

    def __len__(self) -> int:
        return self.addr.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.labels == other.labels and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("addr", "size", "tag", "chunk")
        )

    __hash__ = None


def build_regions(num_weights: int, ladder: Sequence[FpFormat]) -> RegionTable:
    """Lay the ladder's regions out back to back in ladder order."""
    if num_weights < 1:
        raise ValueError("need at least one weight")
    if not ladder:
        raise ValueError("empty format ladder")
    regions = []
    base = 0
    for fmt in ladder:
        if fmt.is_skip:
            continue  # a skipped chunk occupies no logical space
        size = num_weights * fmt.total_bits
        regions.append(Region(fmt, base, size))
        base += size
    return RegionTable(num_weights, tuple(regions))


def resolve(table: RegionTable, read: LogicalRead) -> tuple[FpFormat, int, int]:
    """Map a logical read to (format, start_weight, weight_count)."""
    if read.addr_bit + read.len_bits > table.total_logical_bits:
        raise ValueError("read beyond the logical space")
    bases = [r.base_bit for r in table.regions]
    idx = bisect_right(bases, read.addr_bit) - 1
    region = table.regions[idx]
    if read.addr_bit + read.len_bits > region.end_bit:
        raise ValueError("cross-region read")
    width = region.fmt.total_bits
    offset = read.addr_bit - region.base_bit
    if offset % width or read.len_bits % width:
        raise ValueError("not weight-aligned")
    return region.fmt, offset // width, read.len_bits // width


def plane_span(layout: PlaneLayout, plane, start: int, count: int):
    """Aligned physical byte range covering bits [start, start+count) of a
    plane: (lo, size).  plane may be an int or an array of planes."""
    plane_base = plane * layout.plane_stride
    lo = (plane_base + start // 8) // BLOCK * BLOCK
    last = plane_base + (start + count - 1) // 8
    hi = (last // BLOCK + 1) * BLOCK
    return lo, hi - lo


def translate(
    resolved: tuple[FpFormat, int, int], guard: GuardConfig, layout: PlaneLayout
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One aligned span per needed plane covering the weight range.

    Returns (plane, lo, size) int64 arrays in ascending address order
    (planes sit at increasing bases, so that is also plane order).
    """
    fmt, start, count = resolved
    if fmt.is_skip:
        raise ValueError("cannot translate a skipped chunk")
    if not 0 <= start <= start + count <= layout.num_weights:
        raise ValueError(f"weight range [{start}, +{count}) outside the image")
    planes = np.array(plane_set(fmt, guard), np.int64)
    lo, size = plane_span(layout, planes, start, count)
    return planes, lo, size


@dataclass(frozen=True)
class TraditionalLayout:
    """Weight-contiguous FP16 placement: chunk extents in directory order,
    each base aligned to the block granule."""

    chunk_starts: tuple[int, ...]  # weight index of each chunk
    chunk_bases: tuple[int, ...]  # physical byte base of each chunk
    num_weights: int

    @classmethod
    def from_directory(cls, directory: ChunkDirectory) -> "TraditionalLayout":
        starts, bases = [], []
        offset = 0
        for chunk in directory:
            starts.append(chunk.start)
            bases.append(offset)
            offset += -(-chunk.length * FP16_BYTES // BLOCK) * BLOCK
        return cls(tuple(starts), tuple(bases), directory.num_weights)


def translate_traditional(
    resolved: tuple[FpFormat, int, int], layout: TraditionalLayout
) -> tuple[int, int]:
    """Full-precision fetch of the weight range: its aligned (lo, size)
    extent, size 0 for a skipped chunk.

    The target format is irrelevant by construction, except that skipped
    chunks transfer nothing at all.
    """
    fmt, start, count = resolved
    if fmt.is_skip:
        return 0, 0
    if not 0 <= start <= start + count <= layout.num_weights:
        raise ValueError(f"weight range [{start}, +{count}) outside the layout")
    idx = bisect_right(layout.chunk_starts, start) - 1
    chunk_base = layout.chunk_bases[idx]
    chunk_start = layout.chunk_starts[idx]
    first = chunk_base + (start - chunk_start) * FP16_BYTES
    last = chunk_base + (start + count - chunk_start) * FP16_BYTES - 1
    lo = first // BLOCK * BLOCK
    hi = (last // BLOCK + 1) * BLOCK
    return lo, hi - lo


def region_report(table: RegionTable) -> list[dict]:
    """Rows for the logical-space map dump."""
    return [
        {
            "format": r.fmt.name,
            "base_bit": r.base_bit,
            "size_bits": r.size_bits,
            "base_byte": r.base_bit // 8,
            "size_bytes": r.size_bits // 8,
        }
        for r in table.regions
    ]
