"""Plane-major packing of FP16 weights and the store-image file.

A packed image holds 16 contiguous bit arrays, one per plane under the
quant module's numbering (sign, exponent MSB first, mantissa MSB first).
Plane p of weight w is bit (15 - p) of its stored word. Within a plane,
weight w lands at byte w >> 3, bit 7 - (w & 7) (MSB-first within bytes);
the store-image file format below relies on exactly this layout.  The
plane bits past the last weight, up to the plane stride, are padding:
pack writes them zero and load_image clears them, so a loaded image
holds exactly the planes pack builds from its words.

The chunk directory cuts the weight index space into the pieces that
get a format each (attention heads, MLP neurons, predictor blocks).  It
is three columns, one row per chunk: a length, a kind code and a layer.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .files import write_file
from .quant import FpFormat, check_ladder

NUM_PLANES = 16
BLOCK = 64  # bytes: a trace request's granule, a DRAM burst, a plane's pad
# Weights that pack and unpack_full transpose per step: bounds their
# working memory, and a multiple of 8 so that no byte group straddles two.
CODEC_BLOCK = 1 << 16

IMAGE_MAGIC = b"SQBP"
IMAGE_VERSION = 1


class ChunkKind(Enum):
    ATTENTION_HEAD = "attention_head"
    MLP_NEURON = "mlp_neuron"
    PREDICTOR = "predictor"


# A chunk's kind code is its kind's position here.
KIND_LABELS = tuple(ChunkKind)


@dataclass(frozen=True, eq=False)
class ChunkDirectory:
    """The chunks tiling the weight index space, in order, as read-only
    int64 columns.

    Chunk i holds length[i] weights of kind KIND_LABELS[kind[i]] and
    starts where chunk i - 1 ends, at start[i]; its id is i.  It lies in
    model layer layer[i]; a layer's chunks are consecutive, so the column
    never decreases, and a directory built without one is one layer, 0.
    """

    length: np.ndarray
    kind: np.ndarray
    layer: np.ndarray = None
    start: np.ndarray = field(init=False, repr=False)
    num_weights: int = field(init=False)

    def __post_init__(self) -> None:
        length = np.array(self.length, np.int64).reshape(-1)
        kind = np.array(self.kind, np.int64).reshape(-1)
        layer = np.zeros(length.size, np.int64) if self.layer is None else (
            np.array(self.layer, np.int64).reshape(-1)
        )
        if length.size != kind.size:
            raise ValueError(f"{length.size} chunk lengths for {kind.size} kinds")
        if layer.size != length.size:
            raise ValueError(f"{length.size} chunk lengths for {layer.size} layers")
        if (layer[1:] < layer[:-1]).any():
            raise ValueError("chunk layers must not decrease")
        if length.size and length.min() <= 0:
            chunk = int(np.argmax(length <= 0))
            raise ValueError(f"chunk {chunk}: length {length[chunk]} is not positive")
        if kind.size and not 0 <= kind.min() <= kind.max() < len(KIND_LABELS):
            raise ValueError(f"chunk kind codes must lie in [0, {len(KIND_LABELS)})")
        start = np.cumsum(length) - length
        columns = {"length": length, "kind": kind, "layer": layer, "start": start}
        for name, column in columns.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "num_weights", int(length.sum()))

    def __len__(self) -> int:
        return self.length.size


def plane_stride_for(num_weights: int) -> int:
    """Bytes per plane: bit count rounded to whole bytes, then to a block."""
    if num_weights <= 0:
        raise ValueError("image must hold at least one weight")
    raw = (num_weights + 7) // 8
    return -(-raw // BLOCK) * BLOCK


class BitPlaneImage:
    """Immutable plane-major image of ``num_weights`` FP16 words."""

    def __init__(self, num_weights: int, planes: np.ndarray):
        stride = plane_stride_for(num_weights)
        if planes.shape != (NUM_PLANES, stride) or planes.dtype != np.uint8:
            raise ValueError(f"planes must be uint8 [{NUM_PLANES}, {stride}]")
        self.num_weights = num_weights
        self.plane_stride = stride
        self._planes = np.ascontiguousarray(planes)
        self._planes.setflags(write=False)

    @property
    def footprint_bytes(self) -> int:
        return NUM_PLANES * self.plane_stride

    def plane_bytes(self, plane: int) -> np.ndarray:
        return self._planes[plane]


# The three delta swaps of _transpose8: (shift, mask of the bits that
# move up by shift).
_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((9, 0x0055005500550055), (18, 0x0000333300003333), (36, 0x0F0F0F0F))
)

# (first plane, byte of a little-endian word): a word's high byte holds
# its bits for planes 0-7, its low byte those for planes 8-15.
_HALVES = ((0, 1), (8, 0))


def _transpose8(x: np.ndarray) -> np.ndarray:
    """Transpose each uint64 of x in place, as an 8×8 bit matrix, across
    its anti-diagonal, and return x.

    Row r of a matrix is its byte r (least significant first), column c
    is bit c of that byte; bit (r, c) moves to (7 - c, 7 - r).  Three
    delta swaps exchange the off-diagonal 1×1, 2×2 and 4×4 blocks
    (Warren, Hacker's Delight, 7-3).  The transpose is its own inverse.
    """
    t = np.empty_like(x)
    for shift, mask in _SWAPS:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x


def pack(count: int, read: Callable[[int, int], np.ndarray]) -> BitPlaneImage:
    """Disaggregate ``count`` FP16 words into 16 plane arrays.

    The words come from ``read(lo, hi)``, which returns words [lo, hi)
    as unsigned 16-bit integers; it is called once per block of
    CODEC_BLOCK weights, in order, so only one block of words is held at
    a time.  Each group of 8 words has its high and low bytes gathered
    into one little-endian uint64 each; the anti-diagonal transpose of
    that 8×8 bit matrix holds byte g of planes 0-7 (or 8-15) in its
    bytes 0-7.
    """
    if count <= 0:
        raise ValueError("cannot pack an empty weight sequence")
    planes = np.zeros((NUM_PLANES, plane_stride_for(count)), dtype=np.uint8)
    buf = np.empty((CODEC_BLOCK // 8, 8), dtype="<u2")
    for lo in range(0, count, CODEC_BLOCK):
        hi = min(lo + CODEC_BLOCK, count)
        groups = -(-(hi - lo) // 8)
        words = buf[:groups].reshape(-1)
        np.copyto(words[: hi - lo], read(lo, hi), casting="safe")
        words[hi - lo :] = 0
        pairs = buf[:groups].view(np.uint8).reshape(groups, 8, 2)
        for first, byte in _HALVES:
            rows = _transpose8(np.ascontiguousarray(pairs[:, :, byte]).view("<u8"))
            planes[first : first + 8, lo // 8 : lo // 8 + groups] = rows.view(np.uint8).T
    return BitPlaneImage(count, planes)


def unpack_full(image: BitPlaneImage, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Bit-exact inverse of pack over [start, stop), as a fresh uint16 array.

    The byte groups that cover the range are decoded CODEC_BLOCK weights
    at a time: each group's 8 bytes of planes 0-7, and of planes 8-15,
    transpose back into the high and low bytes of its 8 words.
    """
    if stop is None:
        stop = image.num_weights
    if not 0 <= start <= stop <= image.num_weights:
        raise ValueError(f"weight range [{start}, {stop}) outside [0, {image.num_weights})")
    words = np.empty(stop - start, dtype=np.uint16)
    pairs = np.empty((CODEC_BLOCK // 8, 8, 2), dtype=np.uint8)
    end = (stop + 7) >> 3
    for lo in range(start >> 3, end, CODEC_BLOCK // 8):
        hi = min(lo + CODEC_BLOCK // 8, end)
        block = pairs[: hi - lo]
        for first, byte in _HALVES:
            rows = np.ascontiguousarray(image._planes[first : first + 8, lo:hi].T).view("<u8")
            block[:, :, byte] = _transpose8(rows).view(np.uint8)
        got = block.view("<u2").reshape(-1)
        a, b = max(start, 8 * lo), min(stop, 8 * hi)
        words[a - start : b - start] = got[a - 8 * lo : b - 8 * lo]
    return words


def save_image(image: BitPlaneImage, ladder: Sequence[FpFormat], path: str) -> None:
    """Write the store-image file: header then 16 plane arrays.

    Layout (little-endian): magic "SQBP", version u16, num_weights u64,
    plane_stride u64, ladder count u16, then per format a name (u8 length +
    bytes), exp_bits u8, man_bits u8, bias i16; then the plane arrays in
    plane order, plane_stride bytes each.  The bias restates the one the
    widths give, and `load_image` rejects a header where it does not.
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
    """Read a store-image file, checking its header against its size.

    Padding loads as zero: every plane bit past ``num_weights`` is
    cleared, whatever the file holds there, so the image equals the one
    pack builds from its words and saving it writes pack's bytes.
    """
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
                fmt = FpFormat(name, exp_bits, man_bits)
                if bias != fmt.bias:
                    raise ValueError(f"{name}: bias {bias} differs from the derived {fmt.bias}")
                ladder.append(fmt)
            check_ladder(ladder)
        except struct.error:
            raise ValueError(f"{path}: truncated header") from None
        except ValueError as exc:  # a bad version, format name, widths, bias or ladder
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
    used, tail = divmod(num_weights, 8)
    if tail:
        planes[:, used] &= (0xFF << (8 - tail)) & 0xFF  # the tail weights' bits
        used += 1
    planes[:, used:] = 0
    return BitPlaneImage(num_weights, planes), tuple(ladder)
