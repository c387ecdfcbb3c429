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
chunk.  `resolve` is a read's one check, so `translate` takes its
columns with the same `RegionTable` and checks nothing.  The skip
format has no region, so no code names it, and `translate` has no case
for it.

A request stream is a `Trace`: read-only numpy columns, in issue order,
each row one extent of `size` bytes from `addr` on, read one 64-byte
block at a time.  The bit-plane trace has one row per plane span, the
traditional trace one row per loaded chunk, its FP16 extent.  A
request is one block read, so `len(trace)` is the trace's bytes over
the block.  The constructor rejects any other row, so the DRAM model's
`plan` takes the rows as they come.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitplane import BLOCK, ChunkDirectory, plane_stride_for
from .quant import FpFormat, GuardConfig, plane_set

FP16_BYTES = 2  # traditional layout stores every weight full-precision


def _spread(lengths: np.ndarray):
    """(owner, rank) of every item, group after group, when group i
    holds lengths[i] items: owner is the item's group, rank its position
    in the group."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    rank = np.arange(owner.size) - (np.cumsum(lengths) - lengths)[owner]
    return owner, rank


def _heads(keys: np.ndarray) -> np.ndarray:
    """Position of the first item of each run of equal keys."""
    head = np.empty(keys.size, bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return np.flatnonzero(head)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable").  numpy sorts 16-bit keys stably
    by radix, several times faster than wider ones, so keys that fit in
    16 bits (as banks and planes do) are sorted as such."""
    if keys.size and -(1 << 15) <= keys.min() and keys.max() < 1 << 15:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")


def _ends(keys: np.ndarray) -> np.ndarray:
    """Position of the last item of each run of equal keys."""
    end = np.empty(keys.size, bool)
    end[-1:] = True
    np.not_equal(keys[1:], keys[:-1], out=end[:-1])
    return np.flatnonzero(end)


def _lookup(keys: np.ndarray, query: np.ndarray, column: np.ndarray, missing: int):
    """column's value at the position of each query in the ascending
    keys, missing where a query is not among them."""
    if not keys.size:
        return np.full(query.size, missing, column.dtype)
    at = np.searchsorted(keys, query)
    np.minimum(at, keys.size - 1, out=at)
    return np.where(keys[at] == query, column[at], missing)


def _previous(keys, values, known_keys, known, missing):
    """(previous, order).  previous[i] is values at the last item before
    i with keys[i], or for a key's first item `_lookup(known_keys, keys[i],
    known, missing)`, in values' dtype; order is the stable order of keys."""
    order = _stable_order(keys)
    heads = order[_heads(keys[order])]
    previous = np.empty(keys.size, values.dtype)
    previous[order[1:]] = values[order[:-1]]
    previous[heads] = _lookup(known_keys, keys[heads], known, missing)
    return previous, order


def _newest(keys: np.ndarray) -> np.ndarray:
    """Position of each key's last item, keys ascending."""
    order = _stable_order(keys)
    return order[_ends(keys[order])]


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


@dataclass(frozen=True, eq=False)
class Trace:
    """A request stream as read-only columns, one row per extent, in
    issue order.

    Row i reads size[i] bytes from addr[i] on, one BLOCK at a time, so
    the stream holds len(trace) == size.sum() // BLOCK requests.  addr
    and size are byte address and length (int64): every row reads whole
    BLOCK-aligned blocks at a non-negative address, which the
    constructor checks, so consumers need not.  tag holds each row's
    index into labels (int32, -1 for untagged); chunk holds the id of
    the directory chunk the row loads (int32, -1 for none).  tag and
    chunk default to all -1.
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
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "labels", tuple(self.labels))
        bad = first_invalid(self.addr, self.size)
        if bad is not None:
            raise ValueError(bad[1])
        reads = self.size // BLOCK
        # Python ints where the int64 sum could wrap.
        wraps = n and n * int(reads.max()) > _INT64_MAX
        object.__setattr__(self, "_reads", sum(reads.tolist()) if wraps else int(reads.sum()))
        if n and not -1 <= self.tag.min() <= self.tag.max() < len(self.labels):
            raise ValueError(f"tag codes must lie in [-1, {len(self.labels)})")

    def __len__(self) -> int:
        """The number of requests, 64-byte block reads, not of rows."""
        return self._reads

    def check_tagged(self) -> None:
        """Raise unless every row carries a tag, naming the first request
        of the first row without one."""
        if self.tag.size and self.tag.min() < 0:
            row = int(np.argmax(self.tag < 0))
            raise ValueError(f"request {sum(self.size[:row].tolist()) // BLOCK} is untagged")

    def bytes_by_tag(self) -> np.ndarray:
        """Total bytes per label, in labels order (int64).  Every row must
        carry a tag."""
        return self.sum_by_tag(self.size)

    def sum_by_tag(self, values: np.ndarray) -> np.ndarray:
        """The sum of an integer per row over each label's rows, in
        labels order (int64).  Every row must carry a tag."""
        self.check_tagged()
        totals = np.zeros(len(self.labels), np.int64)
        if self.tag.size:
            # A trace holds few runs of one tag: sum each run, then each tag.
            heads = _heads(self.tag)
            np.add.at(totals, self.tag[heads], np.add.reduceat(values, heads))
        return totals

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


def _first_failure(*masks: np.ndarray):
    """(row, k) for the first row that fails any of the masks, with k the
    first mask it fails, or None when no row fails.  The masks are one
    read's checks in the order a single read is checked."""
    rows = np.flatnonzero(np.logical_or.reduce(masks))
    if not rows.size:
        return None
    row = int(rows[0])
    return row, next(k for k, mask in enumerate(masks) if mask[row])


def resolve(table: RegionTable, addr_bit, len_bits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map logical reads, given as bit address and bit length columns, to
    their regions and weight ranges.

    Returns (code, start, count) int64 columns: read i serves weights
    [start[i], start[i] + count[i]) at table.regions[code[i]]'s format.
    Raises for the first read that is negative, runs beyond the logical
    space, crosses a region boundary, is not weight-aligned or is empty,
    checked in that order, so every range returned is non-empty and lies
    inside the image.
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
        length == 0,
    )
    if failure is not None:
        row, k = failure
        raise ValueError(
            (
                "negative logical read",
                "read beyond the logical space",
                "cross-region read",
                "not weight-aligned",
                f"weight range [{offset[row] // width[row]}, +0) is empty",
            )[k]
        )
    return region, offset // width, length // width


def plane_span(stride: int, plane, start, count):
    """Aligned physical byte range covering bits [start, start+count) of a
    plane, planes being stride bytes apart: (lo, size).  Each argument
    but stride may be an int or an array."""
    plane_base = plane * stride
    lo = (plane_base + start // 8) // BLOCK * BLOCK
    last = plane_base + (start + count - 1) // 8
    hi = (last // BLOCK + 1) * BLOCK
    return lo, hi - lo


def translate(
    table: RegionTable, code: np.ndarray, start: np.ndarray, count: np.ndarray, guard: GuardConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One aligned span per needed plane of every read, in the table's
    image.  code, start and count are columns `resolve` returned for the
    table; nothing here checks them again.

    Returns (read, plane, lo, size) int64 columns: the reads in their
    given order, each read's spans in ascending address order (planes
    sit at increasing bases, so that is also plane order).
    """
    # One plane set per region, expanded to every read of that region.
    sets = [plane_set(region.fmt, guard) for region in table.regions]
    by_region = np.zeros((len(sets), max(map(len, sets), default=0)), np.int64)
    for k, planes in enumerate(sets):
        by_region[k, : len(planes)] = planes
    read, slot = _spread(np.array([len(planes) for planes in sets], np.int64)[code])
    plane = by_region[code[read], slot]
    lo, size = plane_span(plane_stride_for(table.num_weights), plane, start[read], count[read])
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
