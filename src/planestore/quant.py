"""Minifloat format ladder and the planes each format fetches.

Weights are stored as FP16 bit patterns and served at narrower formats by
slicing bit-planes. Plane numbering is fixed: plane 0 is the sign, planes
1..5 the exponent MSB first, planes 6..15 the mantissa MSB first. A format
is a name and its exponent and mantissa widths; its sign bit and bias
follow from them. A format that keeps the full 5-bit exponent converts by
pure plane slicing; narrower exponents are re-biased with saturation on
overflow and flush-to-zero on underflow.

There are no Inf/NaN encodings anywhere in the ladder: the all-ones exponent
code is an ordinary finite value. This keeps plane slicing exact (masking
mantissa planes of any FP16 pattern is itself the conversion) and makes
saturation emerge naturally for narrow exponent ranges.  The conversion
itself is not on the package's path: the DRAM model charges for planes,
not values, and the tests hold the bit-exact conversion that pins what
those planes must carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

FP16_EXP_BITS = 5
FP16_MAN_BITS = 10
FP16_BIAS = 15


@dataclass(frozen=True)
class FpFormat:
    """One rung of the format ladder, given by its two widths.

    ``exp_bits`` and ``man_bits`` must be sub-slices of the FP16 layout.
    Everything else follows from them: every rung carries one sign bit
    and the standard minifloat bias 2^(exp_bits-1) - 1, except the
    zero-width format (a skipped chunk), which has both widths 0 and no
    sign bit.
    """

    name: str
    exp_bits: int
    man_bits: int

    def __post_init__(self) -> None:
        if self.is_skip:
            return
        if not 1 <= self.exp_bits <= FP16_EXP_BITS:
            raise ValueError(f"{self.name}: exp_bits must be in 1..{FP16_EXP_BITS}")
        if not 0 <= self.man_bits <= FP16_MAN_BITS:
            raise ValueError(f"{self.name}: man_bits must be in 0..{FP16_MAN_BITS}")

    @property
    def is_skip(self) -> bool:
        return self.exp_bits == 0 and self.man_bits == 0

    @property
    def sign_bits(self) -> int:
        return 0 if self.is_skip else 1

    @property
    def bias(self) -> int:
        return 0 if self.is_skip else (1 << (self.exp_bits - 1)) - 1

    @property
    def total_bits(self) -> int:
        return self.sign_bits + self.exp_bits + self.man_bits


def check_ladder(ladder: Sequence[FpFormat]) -> None:
    """Raise unless ladder is a usable format ladder: a top format and
    at least the skip level, ending in the skip level, strictly
    decreasing in width, and naming each rung once (reports, assignment
    CSVs and region maps key rungs by name)."""
    if len(ladder) < 2:
        raise ValueError("ladder needs a top format and a skip level")
    if not ladder[-1].is_skip:
        # Scores below the last cut get the last rung, which the solver
        # counts as 0 bits.
        raise ValueError(f"ladder must end in a skip level (0 bits), not {ladder[-1].name}")
    widths = [fmt.total_bits for fmt in ladder]
    if any(hi <= lo for hi, lo in zip(widths, widths[1:])):
        raise ValueError("ladder must be strictly decreasing in width")
    names = [fmt.name for fmt in ladder]
    for index, name in enumerate(names):
        if name in names[:index]:
            raise ValueError(f"ladder names {name!r} twice")


@dataclass(frozen=True)
class GuardConfig:
    """Extra exponent/mantissa planes fetched beyond the target width."""

    exp_bits: int
    man_bits: int

    def __post_init__(self) -> None:
        if self.exp_bits not in (0, 1, 2):
            raise ValueError(f"guard exp_bits must be in 0..2, got {self.exp_bits}")
        if self.man_bits not in (0, 1, 2):
            raise ValueError(f"guard man_bits must be in 0..2, got {self.man_bits}")


def fetched_widths(fmt: FpFormat, guard: GuardConfig) -> tuple[int, int]:
    """Exponent/mantissa plane counts actually read for (fmt, guard)."""
    if fmt.is_skip:
        raise ValueError("skipped chunk has no planes")
    exp = min(FP16_EXP_BITS, fmt.exp_bits + guard.exp_bits)
    man = min(FP16_MAN_BITS, fmt.man_bits + guard.man_bits)
    return exp, man


def plane_set(fmt: FpFormat, guard: GuardConfig) -> tuple[int, ...]:
    """Plane indices needed to serve a chunk at (fmt, guard).

    Always the sign plane, then exponent MSB planes, then mantissa MSB
    planes: {0} + {1..exp} + {6..6+man-1}.
    """
    exp, man = fetched_widths(fmt, guard)
    return (0,) + tuple(range(1, exp + 1)) + tuple(range(6, 6 + man))

