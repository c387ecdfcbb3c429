"""Plane-major packing of FP16 weights and the store-image file.

A packed image holds 16 contiguous bit arrays, one per plane under the
quant module's numbering (sign, exponent MSB first, mantissa MSB first).
Plane p of weight w is bit (15 - p) of its stored word. Within a plane,
weight w lands at byte w >> 3, bit 7 - (w & 7) (MSB-first within bytes);
the store-image file format below relies on exactly this layout.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .files import write_file
from .quant import FpFormat, WeightWord, make_format

NUM_PLANES = 16
STRIDE_GRANULE = 64  # bytes; plane arrays padded to the interleave granule

IMAGE_MAGIC = b"SQBP"
IMAGE_VERSION = 1


class ChunkKind(Enum):
    ATTENTION_HEAD = "attention_head"
    MLP_NEURON = "mlp_neuron"
    PREDICTOR = "predictor"


@dataclass(frozen=True)
class Chunk:
    chunk_id: int
    start: int
    length: int
    kind: ChunkKind

    def __post_init__(self) -> None:
        if self.start < 0 or self.length <= 0:
            raise ValueError(f"chunk {self.chunk_id}: bad range [{self.start}, +{self.length})")

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class ChunkDirectory:
    """Ordered, disjoint chunks tiling the weight index space exactly."""

    num_weights: int
    chunks: tuple[Chunk, ...]

    def __post_init__(self) -> None:
        expect = 0
        for c in self.chunks:
            if c.start != expect:
                raise ValueError(f"chunk {c.chunk_id} starts at {c.start}, expected {expect}")
            expect = c.stop
        if expect != self.num_weights:
            raise ValueError(f"chunks cover [0, {expect}), image has {self.num_weights} weights")

    def __iter__(self):
        return iter(self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)


@dataclass(frozen=True)
class PlaneLayout:
    """Addressing metadata of a packed image (no payload)."""

    num_weights: int
    plane_stride: int
    base_addr: int = 0

    def __post_init__(self) -> None:
        if self.plane_stride != plane_stride_for(self.num_weights):
            raise ValueError(
                f"plane_stride {self.plane_stride} inconsistent with {self.num_weights} weights"
            )


def plane_stride_for(num_weights: int) -> int:
    """Bytes per plane: bit count rounded to whole bytes, then to the granule."""
    if num_weights <= 0:
        raise ValueError("image must hold at least one weight")
    raw = (num_weights + 7) // 8
    return -(-raw // STRIDE_GRANULE) * STRIDE_GRANULE


class BitPlaneImage:
    """Immutable plane-major image of ``num_weights`` FP16 words."""

    def __init__(self, num_weights: int, planes: np.ndarray, base_addr: int = 0):
        stride = plane_stride_for(num_weights)
        if planes.shape != (NUM_PLANES, stride) or planes.dtype != np.uint8:
            raise ValueError(f"planes must be uint8 [{NUM_PLANES}, {stride}]")
        self.num_weights = num_weights
        self.plane_stride = stride
        self.base_addr = base_addr
        self._planes = np.ascontiguousarray(planes)
        self._planes.setflags(write=False)

    @property
    def layout(self) -> PlaneLayout:
        return PlaneLayout(self.num_weights, self.plane_stride, self.base_addr)

    @property
    def footprint_bytes(self) -> int:
        return NUM_PLANES * self.plane_stride

    def plane_bytes(self, plane: int) -> np.ndarray:
        return self._planes[plane]


def _as_word_array(weights: Iterable) -> np.ndarray:
    if isinstance(weights, np.ndarray):
        arr = weights.astype(np.uint16, casting="safe", copy=False)
    else:
        arr = np.fromiter(
            (w.bits if isinstance(w, WeightWord) else int(w) for w in weights),
            dtype=np.uint16,
        )
    if arr.size == 0:
        raise ValueError("cannot pack an empty weight sequence")
    return arr


def pack(weights: Sequence[WeightWord] | np.ndarray, base_addr: int = 0) -> BitPlaneImage:
    """Disaggregate FP16 words into 16 plane arrays."""
    arr = _as_word_array(weights)
    stride = plane_stride_for(arr.size)
    planes = np.zeros((NUM_PLANES, stride), dtype=np.uint8)
    bits = np.empty(arr.size, dtype=np.uint8)
    used = (arr.size + 7) >> 3
    for p in range(NUM_PLANES):
        np.bitwise_and(arr >> (15 - p), 1, out=bits, casting="unsafe")
        planes[p, :used] = np.packbits(bits, bitorder="big")
    return BitPlaneImage(arr.size, planes, base_addr)


def unpack_full(image: BitPlaneImage, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Bit-exact inverse of pack over [start, stop), as a fresh uint16 array.

    Each plane unpacks only the bytes that cover the range.
    """
    if stop is None:
        stop = image.num_weights
    if not 0 <= start <= stop <= image.num_weights:
        raise ValueError(f"weight range [{start}, {stop}) outside [0, {image.num_weights})")
    lo, hi = start >> 3, (stop + 7) >> 3
    first, last = start - 8 * lo, stop - 8 * lo
    words = np.zeros(stop - start, dtype=np.uint16)
    shifted = np.empty_like(words)
    for p in range(NUM_PLANES):
        bits = np.unpackbits(image.plane_bytes(p)[lo:hi], bitorder="big")[first:last]
        np.left_shift(bits, 15 - p, out=shifted, dtype=np.uint16)
        words |= shifted
    return words


def save_image(image: BitPlaneImage, ladder: Sequence[FpFormat], path: str) -> None:
    """Write the store-image file: header then 16 plane arrays.

    Layout (little-endian): magic "SQBP", version u16, num_weights u64,
    plane_stride u64, ladder count u16, then per format a name (u8 length +
    bytes), exp_bits u8, man_bits u8, bias i16; then the plane arrays in
    plane order, plane_stride bytes each.
    """
    header = [
        IMAGE_MAGIC,
        struct.pack("<HQQH", IMAGE_VERSION, image.num_weights, image.plane_stride, len(ladder)),
    ]
    for fmt in ladder:
        name = fmt.name.encode("utf-8")
        if len(name) > 255:
            raise ValueError(f"format name too long: {fmt.name}")
        header.append(struct.pack("<B", len(name)) + name)
        header.append(struct.pack("<BBh", fmt.exp_bits, fmt.man_bits, fmt.bias))
    # The header is complete before the file is touched, so a ladder it
    # cannot encode leaves an existing image as it was.
    write_file(path, b"".join(header), image._planes.data)


def load_image(path: str) -> tuple[BitPlaneImage, tuple[FpFormat, ...]]:
    """Read a store-image file, checking its header against its size."""
    with open(path, "rb") as f:
        if f.read(4) != IMAGE_MAGIC:
            raise ValueError(f"{path}: not a plane-store image")
        try:
            version, num_weights, stride, nfmt = struct.unpack("<HQQH", f.read(20))
            if version != IMAGE_VERSION:
                raise ValueError(f"unsupported image version {version}")
            ladder = []
            for _ in range(nfmt):
                (nlen,) = struct.unpack("<B", f.read(1))
                name = f.read(nlen).decode("utf-8")
                exp_bits, man_bits, bias = struct.unpack("<BBh", f.read(4))
                ladder.append(make_format(name, exp_bits, man_bits, bias if exp_bits else None))
        except struct.error:
            raise ValueError(f"{path}: truncated header") from None
        except ValueError as exc:  # a bad version, format name or format widths
            raise ValueError(f"{path}: {exc}") from None
        if num_weights == 0:
            raise ValueError(f"{path}: image must hold at least one weight")
        if stride != plane_stride_for(num_weights):
            raise ValueError(
                f"{path}: plane_stride {stride} inconsistent with {num_weights} weights"
            )
        left = os.fstat(f.fileno()).st_size - f.tell()
        if NUM_PLANES * stride > left:
            raise ValueError(f"{path}: truncated plane data")
        if NUM_PLANES * stride < left:
            raise ValueError(f"{path}: trailing data")
        planes = np.empty((NUM_PLANES, stride), dtype=np.uint8)
        if f.readinto(planes.data) != planes.nbytes:
            raise ValueError(f"{path}: truncated plane data")
    return BitPlaneImage(num_weights, planes), tuple(ladder)
