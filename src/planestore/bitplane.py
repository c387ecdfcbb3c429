"""Plane-major packing of FP16 weights and selective plane fetches.

A packed image holds 16 contiguous bit arrays, one per plane under the
quant module's numbering (sign, exponent MSB first, mantissa MSB first).
Plane p of weight w is bit (15 - p) of its stored word. Within a plane,
weight w lands at byte w >> 3, bit 7 - (w & 7) (MSB-first within bytes);
the store-image file format below relies on exactly this layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .quant import (
    FpFormat,
    GuardConfig,
    Rounding,
    WeightWord,
    FP16,
    convert,
    make_format,
    plane_set,
)

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


class BitPlaneImage:
    """Immutable plane-major image of ``num_weights`` FP16 words."""

    def __init__(self, num_weights: int, planes: np.ndarray, base_addr: int = 0):
        stride = plane_stride_for(num_weights)
        if planes.shape != (NUM_PLANES, stride) or planes.dtype != np.uint8:
            raise ValueError(f"planes must be uint8 [{NUM_PLANES}, {stride}]")
        self.num_weights = num_weights
        self.plane_stride = stride
        self.base_addr = base_addr
        self._planes = planes
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
    for p in range(NUM_PLANES):
        bits = ((arr >> (15 - p)) & 1).astype(np.uint8)
        packed = np.packbits(bits, bitorder="big")
        planes[p, : packed.size] = packed
    return BitPlaneImage(arr.size, planes, base_addr)


def unpack_full(image: BitPlaneImage, start: int = 0, stop: int | None = None) -> list[WeightWord]:
    """Bit-exact inverse of pack over [start, stop)."""
    if stop is None:
        stop = image.num_weights
    if not 0 <= start <= stop <= image.num_weights:
        raise ValueError(f"weight range [{start}, {stop}) outside [0, {image.num_weights})")
    if start == stop:
        return []
    words = np.zeros(stop - start, dtype=np.uint16)
    for p in range(NUM_PLANES):
        bits = np.unpackbits(image.plane_bytes(p), bitorder="big")[start:stop]
        words |= bits.astype(np.uint16) << (15 - p)
    return [WeightWord(int(w), FP16) for w in words]


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


def save_image(image: BitPlaneImage, ladder: Sequence[FpFormat], path: str) -> None:
    """Write the store-image file: header then 16 plane arrays.

    Layout (little-endian): magic "SQBP", version u16, num_weights u64,
    plane_stride u64, ladder count u16, then per format a name (u8 length +
    bytes), exp_bits u8, man_bits u8, bias i16; then the plane arrays in
    plane order, plane_stride bytes each.
    """
    with open(path, "wb") as f:
        f.write(IMAGE_MAGIC)
        f.write(struct.pack("<HQQH", IMAGE_VERSION, image.num_weights, image.plane_stride, len(ladder)))
        for fmt in ladder:
            name = fmt.name.encode("utf-8")
            if len(name) > 255:
                raise ValueError(f"format name too long: {fmt.name}")
            f.write(struct.pack("<B", len(name)) + name)
            f.write(struct.pack("<BBh", fmt.exp_bits, fmt.man_bits, fmt.bias))
        for p in range(NUM_PLANES):
            f.write(image.plane_bytes(p).tobytes())


def load_image(path: str) -> tuple[BitPlaneImage, tuple[FpFormat, ...]]:
    with open(path, "rb") as f:
        if f.read(4) != IMAGE_MAGIC:
            raise ValueError(f"{path}: not a plane-store image")
        try:
            version, num_weights, stride, nfmt = struct.unpack("<HQQH", f.read(20))
            if version != IMAGE_VERSION:
                raise ValueError(f"{path}: unsupported image version {version}")
            ladder = []
            for _ in range(nfmt):
                (nlen,) = struct.unpack("<B", f.read(1))
                name = f.read(nlen).decode("utf-8")
                exp_bits, man_bits, bias = struct.unpack("<BBh", f.read(4))
                ladder.append(make_format(name, exp_bits, man_bits, bias if exp_bits else None))
        except struct.error:
            raise ValueError(f"{path}: truncated header") from None
        planes = np.frombuffer(f.read(NUM_PLANES * stride), dtype=np.uint8).copy()
    if stride != plane_stride_for(num_weights):
        raise ValueError(f"{path}: plane_stride {stride} inconsistent with {num_weights} weights")
    if planes.size != NUM_PLANES * stride:
        raise ValueError(f"{path}: truncated plane data")
    return BitPlaneImage(num_weights, planes.reshape(NUM_PLANES, stride)), tuple(ladder)
