"""Logical space bloating and request translation.

The device exposes one logical region per ladder format, each sized as if
the whole model were stored at that format (L * N_i bits). Every region is
backed by the same physical plane image; a read's region selects the
format, its offset selects the weight range, and translation fans the
range out into one block-aligned span per needed plane.

The traditional baseline is a plain weight-contiguous FP16 store with
no logical space of its own: one 64-byte-aligned extent per chunk in
directory order, which `translate_traditional` reads off the chunk
directory directly.

The bit-plane functions work on columns, one row per read: `resolve`
maps a whole array of logical reads and `translate` fans every
resolved read out into its plane spans.  `workload.gen_trace` calls
them for bit-plane mode only, on the chunk directory's `start` and
`length` columns, so a trace costs one call of each, not one per
chunk.  The skip format has no region, so a `Resolved` read never
carries it, and `translate` has no case for it.

A request stream is a `Trace`: read-only numpy columns, in issue order,
each row standing for `count` back-to-back block-granular reads of
`size` bytes.  The bit-plane trace has one request a row; the
traditional trace has one row per loaded chunk, its extent read one
block at a time.  The constructor rejects any other row, so the DRAM
model's `plan` takes the rows as they come.  `Trace.per_request` lists
the same stream one request a row, as a trace file writes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitplane import BLOCK, ChunkDirectory, plane_stride_for
from .quant import FpFormat, GuardConfig, plane_set

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


def first_invalid(addr: np.ndarray, size: np.ndarray):
    """(row, message) of the first row that is not a non-empty read of
    whole BLOCK-aligned blocks at a non-negative address, or None when
    every row is one."""
    # BLOCK is a power of two: a multiple of it has no low bits set.
    # Reductions decide the common all-valid case without a per-row mask.
    if not addr.size or (
        addr.min() >= 0
        and size.min() > 0
        and not (np.bitwise_or.reduce(addr) | np.bitwise_or.reduce(size)) & (BLOCK - 1)
    ):
        return None
    bad = (addr < 0) | ((addr | size) & (BLOCK - 1) != 0) | (size <= 0)
    row = int(np.argmax(bad))
    request = f"request [{addr[row]}, +{size[row]})"
    if addr[row] < 0:
        return row, f"{request} starts at a negative address"
    return row, f"{request} not {BLOCK}B-granular"


_INT64_MAX = int(np.iinfo(np.int64).max)


def _counts(values) -> np.ndarray:
    """values as int64, raising for the first that is not a whole number
    in the int64 range rather than letting the cast truncate or wrap it."""
    values = np.asarray(values)
    if values.dtype.kind == "i":
        return values
    try:
        with np.errstate(invalid="ignore"):
            cast = values.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        raise ValueError("trace column count holds a value that is not an int64 whole number")
    exact = cast == values
    if not exact.all():
        row = int(np.argmin(exact))
        raise ValueError(f"trace row {row} has count {values[row]}, not an int64 whole number")
    return cast


@dataclass(frozen=True, eq=False)
class Trace:
    """A request stream as read-only columns, one row per run of reads,
    in issue order.

    Row i stands for count[i] back-to-back reads of size[i] bytes from
    addr[i] on, so the stream holds len(trace) == count.sum() requests.
    addr and size are byte address and length (int64): every row reads
    whole BLOCK-aligned blocks at a non-negative address and ends within
    the int64 range, which the constructor checks, so consumers need
    not.  count (int64, each at least 1) defaults to all 1.  tag holds
    each row's index into labels (int32, -1 for untagged); chunk holds
    the id of the directory chunk the row loads (int32, -1 for none).
    tag and chunk default to all -1.  A column given in its type is
    kept as it is: a read-only `np.broadcast_to` view, such as the
    traditional trace's size column or the default count, holds no
    memory per row.
    """

    addr: np.ndarray
    size: np.ndarray
    tag: np.ndarray = None
    labels: tuple = ()
    chunk: np.ndarray = None
    count: np.ndarray = None

    def __post_init__(self) -> None:
        n = len(self.addr)
        columns = {
            "addr": (self.addr, np.int64),
            "size": (self.size, np.int64),
            "tag": (np.full(n, -1) if self.tag is None else self.tag, np.int32),
            "chunk": (np.full(n, -1) if self.chunk is None else self.chunk, np.int32),
            "count": (
                np.broadcast_to(np.int64(1), n) if self.count is None else _counts(self.count),
                np.int64,
            ),
        }
        for name, (values, dtype) in columns.items():
            column = np.asarray(values, dtype).reshape(-1)
            if column.size != n:
                raise ValueError(f"trace column {name} has {column.size} rows, addr has {n}")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "labels", tuple(self.labels))
        bad = first_invalid(self.addr, self.size)
        if bad is not None:
            raise ValueError(bad[1])
        requests = 0
        if n:
            count, most = self.count, int(self.count.max())
            if count.min() < 1:
                row = int(np.argmax(count < 1))
                raise ValueError(f"trace row {row} has count {count[row]}, below 1")
            # Python ints: neither bound can wrap.
            if int(self.addr.max()) + int(self.size.max()) * most > _INT64_MAX:
                over = np.flatnonzero(count > (_INT64_MAX - self.addr) // self.size)
                if over.size:
                    row = int(over[0])
                    raise ValueError(
                        f"trace row {row} reads {count[row]} x [{self.addr[row]},"
                        f" +{self.size[row]}), which ends past the int64 range"
                    )
            requests = int(count.sum()) if n * most <= _INT64_MAX else sum(count.tolist())
        object.__setattr__(self, "_requests", requests)
        if n and not -1 <= self.tag.min() <= self.tag.max() < len(self.labels):
            raise ValueError(f"tag codes must lie in [-1, {len(self.labels)})")

    def __len__(self) -> int:
        """The number of requests, count.sum(), not of rows."""
        return self._requests

    def per_request(self) -> Trace:
        """The same stream one request a row: row i becomes count[i]
        rows of size[i] bytes, the k-th at addr[i] + k * size[i]."""
        count = self.count
        rows = np.repeat(np.arange(count.size), count)
        step = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
        size = self.size[rows]
        return Trace(
            self.addr[rows] + step * size, size, self.tag[rows], self.labels, self.chunk[rows]
        )

    def check_tagged(self) -> None:
        """Raise unless every row carries a tag, naming the first request
        of the first row without one."""
        if len(self) and self.tag.min() < 0:
            row = int(np.argmax(self.tag < 0))
            raise ValueError(f"request {int(self.count[:row].sum())} is untagged")

    def bytes_by_tag(self) -> np.ndarray:
        """Total bytes per label, in labels order (int64).  Every row must
        carry a tag."""
        self.check_tagged()
        totals = np.zeros(len(self.labels), np.int64)
        if len(self):
            # A trace holds few runs of one tag: sum each run, then each tag.
            heads = np.flatnonzero(np.r_[True, self.tag[1:] != self.tag[:-1]])
            np.add.at(totals, self.tag[heads], np.add.reduceat(self.size * self.count, heads))
        return totals

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.labels == other.labels and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("addr", "size", "tag", "chunk", "count")
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


def _first_failure(*masks: np.ndarray):
    """(row, k) for the first row that fails any of the masks, with k the
    first mask it fails, or None when no row fails.  The masks are one
    read's checks in the order a single read is checked."""
    rows = np.flatnonzero(np.logical_or.reduce(masks))
    if not rows.size:
        return None
    row = int(rows[0])
    return row, next(k for k, mask in enumerate(masks) if mask[row])


@dataclass(frozen=True, eq=False)
class Resolved:
    """Resolved reads as columns: read i serves weights [start[i],
    start[i] + count[i]) at formats[code[i]].  No format is the skip
    format: a skipped chunk has no region, so nothing resolves to it."""

    formats: tuple
    code: np.ndarray
    start: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "formats", tuple(self.formats))
        for fmt in self.formats:
            if fmt.is_skip:
                raise ValueError(f"{fmt.name}: a read cannot resolve to the skip format")
        for name in ("code", "start", "count"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), np.int64).reshape(-1))
        if not self.code.size == self.start.size == self.count.size:
            raise ValueError("resolved columns differ in length")
        if self.code.size and not 0 <= self.code.min() <= self.code.max() < len(self.formats):
            raise ValueError(f"format codes must lie in [0, {len(self.formats)})")


def resolve(table: RegionTable, addr_bit, len_bits) -> Resolved:
    """Map logical reads, given as bit address and bit length columns, to
    their formats and weight ranges.

    Raises for the first read that is negative, runs beyond the logical
    space, crosses a region boundary or is not weight-aligned, checked in
    that order.
    """
    addr = np.asarray(addr_bit, np.int64).reshape(-1)
    length = np.asarray(len_bits, np.int64).reshape(-1)
    if addr.size != length.size:
        raise ValueError(f"{addr.size} read addresses for {length.size} lengths")
    # The padding keeps the lookups below in bounds for a table without
    # regions, where every read but an empty one runs beyond the space.
    bases = np.array([r.base_bit for r in table.regions] or [0], np.int64)
    ends = np.array([r.end_bit for r in table.regions] or [0], np.int64)
    widths = np.array([r.fmt.total_bits for r in table.regions] or [1], np.int64)
    end = addr + length
    region = np.maximum(np.searchsorted(bases, addr, side="right") - 1, 0)
    width = widths[region]
    offset = addr - bases[region]
    failure = _first_failure(
        (addr < 0) | (length < 0),
        end > table.total_logical_bits,
        end > ends[region],
        (offset % width != 0) | (length % width != 0),
    )
    if failure is not None:
        raise ValueError(
            (
                "negative logical read",
                "read beyond the logical space",
                "cross-region read",
                "not weight-aligned",
            )[failure[1]]
        )
    return Resolved(tuple(r.fmt for r in table.regions), region, offset // width, length // width)


def plane_span(stride: int, plane, start, count):
    """Aligned physical byte range covering bits [start, start+count) of a
    plane, planes being stride bytes apart: (lo, size).  Each argument
    but stride may be an int or an array."""
    plane_base = plane * stride
    lo = (plane_base + start // 8) // BLOCK * BLOCK
    last = plane_base + (start + count - 1) // 8
    hi = (last // BLOCK + 1) * BLOCK
    return lo, hi - lo


def _check_ranges(resolved: Resolved, num_weights: int) -> None:
    """Raise for the first read whose weight range lies outside the
    image or is empty, checked in that order."""
    start, count = resolved.start, resolved.count
    failure = _first_failure(
        (start < 0) | (count < 0) | (start + count > num_weights), count == 0
    )
    if failure is not None:
        row, k = failure
        reason = ("outside the image", "is empty")[k]
        raise ValueError(f"weight range [{start[row]}, +{count[row]}) {reason}")


def translate(
    resolved: Resolved, guard: GuardConfig, num_weights: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One aligned span per needed plane of every resolved read, in the
    image of num_weights weights.

    Returns (read, plane, lo, size) int64 columns: the reads in their
    given order, each read's spans in ascending address order (planes
    sit at increasing bases, so that is also plane order).
    """
    code = resolved.code
    _check_ranges(resolved, num_weights)
    # One plane set per format, expanded to every read of that format.
    sets = [plane_set(fmt, guard) for fmt in resolved.formats]
    by_format = np.zeros((len(sets), max(map(len, sets), default=0)), np.int64)
    for k, planes in enumerate(sets):
        by_format[k, : len(planes)] = planes
    counts = np.array([len(planes) for planes in sets], np.int64)[code]
    read = np.repeat(np.arange(code.size), counts)
    slot = np.arange(read.size) - np.repeat(np.cumsum(counts) - counts, counts)
    plane = by_format[code[read], slot]
    lo, size = plane_span(
        plane_stride_for(num_weights), plane, resolved.start[read], resolved.count[read]
    )
    return read, plane, lo, size


def translate_traditional(
    directory: ChunkDirectory, loaded: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """FP16 extent of every loaded chunk: (lo, size) int64 columns in
    directory order, loaded being a mask over the directory's chunks.

    Every chunk, loaded or not, is stored at full precision in an extent
    padded to whole blocks, the extents back to back in directory order.
    """
    size = -(-directory.length * FP16_BYTES // BLOCK) * BLOCK
    lo = np.cumsum(size) - size
    return lo[loaded], size[loaded]


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
