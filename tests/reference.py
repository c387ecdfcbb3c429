"""Reference implementations used as test oracles, and the typed defaults.

The typed defaults (the format ladder, the band profile, the DRAM
constants) come from `config.load_config()`, so that the tests and the
package read one set of built-in values.

`convert_words`, `dequantize` and `encode_fp16` are the bit-twiddling
conversion the store's planes serve: nothing in the package converts
values, so it lives here, checked against the exact oracles below.
`convert_words` works on arrays of words; `convert` is its one-word
form.

The conversion oracles work in Fraction arithmetic over explicitly
enumerated code tables, deliberately avoiding the bit-twiddling style of
`convert`. Slow but exact; call sites memoize where sweeps
get large.

`reference_pack` and `reference_unpack_full` are the store-image codec
the package started from: one full-length bit array per plane, packed
and unpacked with `np.packbits`/`np.unpackbits`.  The package's block
transpose must write and read the same bytes, which
`assert_same_planes` checks.  `pack_array` packs a whole in-memory word
array through the package's streaming `pack`.

`expand` turns a run table `plan` built into the command table it
encodes: each run an RD row of its reads, behind the PRE and ACT rows
that open its row.  The production engine holds runs only; the
`CommandTable`, its validation, the row interleave, `CommandState` and
`carry`, which takes a `CommandState` across a command table, live
here, so that every table shape `plan` builds is expanded and replayed
in the tests.  `CommandState` is the state any command stream leaves:
besides what `plan`'s `DramState` holds (each channel's last read and
its bank, and each opened bank's row and ACT cycle), each channel's
last command and each bank's newest ACT or PRE with its kind, which
only a hand-made stream sets apart, by ending a channel on a PRE or
leaving a bank precharged.  `narrow` asserts that a `CommandState` is
one a planned stream can leave and gives its `DramState`.
`expanded` plans and expands a trace piece by piece, as `simulate`
plans it, and checks each piece's state against `narrow` of the
carried one; `planned` plans and expands a trace in one piece.
`from_commands` turns any `DramCommand` stream into a
`CommandTable` of count-1 rows, so that `replay` can take hand-written
and `schedule` streams.  `cut` splits a table into pieces at row
boundaries, as `simulate` plans one layer at a time.

reference_simulate is the per-command legality replay the DRAM model
started from: one dictionary update per command, in stream order.
`replay` is the same check vectorized over a command table's rows, one
table at a time from the `CommandState` the tables before it leave.  It
once ran inside the package's `simulate` on every table; the package
now holds only tables `plan` builds, and the tests replay every table
shape `plan` builds instead.  `replay` must accept and reject exactly
the streams reference_simulate does, with the same message, and
`simulate` must total a trace as reference_simulate totals its
`schedule` stream.  Beside the totals reference_simulate returns each
request's completion, reads and ACTs (`PerRequest`); the package's
`SimResult` carries the completions and ACTs, and the reads are the
trace's sizes.

reference_energy_breakdown is `energy_breakdown` in exact arithmetic:
it sums the replay's per-request ACTs and reads per tag and splits the
result's energy categories by those counts as Fractions.  The package
must count the same and come within a few roundings of the exact
split, which `assert_breakdown_exact` checks.  reference_first_invalid
is the row check `address.first_invalid` started from: one mask per
condition over every row, where the package decides the all-valid case
by reductions first.

reference_trace is the trace generator the package started from: one
row object per plane span, trimmed against a per-plane high-water
dictionary, or per chunk extent in traditional mode.  The columnar
`gen_trace` must produce the same rows.

`scalar_resolve` and `scalar_translate` are the package's bit-plane
address functions as they were when `gen_trace` called them once per
chunk, taking one `LogicalRead` or one resolved `(format, start,
count)`; the package's array-valued versions must agree with them read
by read.  `scalar_resolve` is the one check on a read, errors included,
and `scalar_translate` takes only ranges it returned.
`scalar_translate_traditional` places one chunk's FP16 extent by a
running sum over the directory's lengths.
reference_trace builds its rows with all three.

The package holds the chunk directory and the format assignment as
columns.  `chunks` and `formats_of` read them back one chunk at a time,
`assignment_of` builds an assignment from per-chunk formats, and
`format_for` is the per-score bucket rule `assign_formats` must match.
`reference_enumerate_chunks` and `reference_gen_scores` are the
per-chunk loops the package's `enumerate_chunks` and `gen_scores`
started from.  `reference_gen_scores` looks each chunk's distribution
up again and draws through `reference_draw`, the per-call draw that
the package's per-family `ScoreDistribution.sampler` replaced; both
must take the same draws from the stream, in the same order.
`reference_solve_thresholds` is the solver as it started: every one of
its 80 bisection steps builds a `ThresholdSet`, masks every score once
per cut and takes the average as a dot product over every chunk.  The
package's solver instead measures a set from integer prefix sums of
the lengths in score order, and stops as soon as no knob left can give
a set it has not measured.  On scores in [0, 1] the two must
return the same set and raise the same errors; the package also
rejects any other score, which the reference does not check.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from planestore.address import FP16_BYTES, RegionTable, build_regions, plane_span
from planestore.bitplane import (
    BLOCK,
    KIND_LABELS,
    NUM_PLANES,
    BitPlaneImage,
    ChunkDirectory,
    ChunkKind,
    pack,
    plane_stride_for,
)
from planestore.config import load_config
from planestore.dram import (
    CommandKind,
    DramCommand,
    DramConfig,
    DramState,
    RunTable,
    SimResult,
    _ends,
    _heads,
    _lookup,
    _stable_order,
    energy_breakdown,
    plan,
)
from planestore.quant import (
    FP16_BIAS,
    FP16_EXP_BITS,
    FP16_MAN_BITS,
    FpFormat,
    GuardConfig,
    fetched_widths,
    plane_set,
)
from planestore.workload import (
    THETA_MAX,
    BandProfile,
    FormatAssignment,
    ScoreDistribution,
    ThresholdSet,
    _force_decreasing,
    _PREDICTOR,
)

DEFAULT = load_config()
LADDER = DEFAULT.ladder
FP16, FP12, FP8, FP6, FP4, FP0 = LADDER
BAND_PROFILE = DEFAULT.band_profile
NO_GUARD = GuardConfig(0, 0)


def dram(**overrides) -> DramConfig:
    """The default DRAM constants with the given fields replaced."""
    return dataclasses.replace(DEFAULT.dram, **overrides)


def pack_array(words: np.ndarray) -> BitPlaneImage:
    """`pack` of an in-memory word array."""
    return pack(len(words), lambda lo, hi: words[lo:hi])


def reference_pack(words: np.ndarray) -> BitPlaneImage:
    """Disaggregate an array of FP16 words into 16 plane arrays, one
    full-length bit array per plane."""
    arr = words.astype(np.uint16, casting="safe", copy=False)
    if arr.size == 0:
        raise ValueError("cannot pack an empty weight sequence")
    stride = plane_stride_for(arr.size)
    planes = np.zeros((NUM_PLANES, stride), dtype=np.uint8)
    bits = np.empty(arr.size, dtype=np.uint8)
    used = (arr.size + 7) >> 3
    for p in range(NUM_PLANES):
        np.bitwise_and(arr >> (15 - p), 1, out=bits, casting="unsafe")
        planes[p, :used] = np.packbits(bits, bitorder="big")
    return BitPlaneImage(arr.size, planes)


def assert_same_planes(got: BitPlaneImage, want: BitPlaneImage) -> None:
    assert got.num_weights == want.num_weights
    for p in range(NUM_PLANES):
        assert np.array_equal(got.plane_bytes(p), want.plane_bytes(p)), p


def reference_unpack_full(image: BitPlaneImage, start: int = 0, stop: int | None = None):
    """Words [start, stop) of an image; each plane unpacks only the bytes
    that cover the range."""
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


class ChunkRow(NamedTuple):
    """One chunk of a directory."""

    chunk_id: int
    start: int
    length: int
    kind: ChunkKind

    @property
    def stop(self) -> int:
        return self.start + self.length


def chunks(directory) -> list[ChunkRow]:
    """A directory's chunks, one row each, in directory order."""
    columns = zip(directory.start.tolist(), directory.length.tolist(), directory.kind.tolist())
    return [
        ChunkRow(chunk_id, start, length, KIND_LABELS[code])
        for chunk_id, (start, length, code) in enumerate(columns)
    ]


def assignment_of(formats, ladder) -> FormatAssignment:
    """The assignment of the given per-chunk formats, each coded by its
    first position on the ladder."""
    ladder = tuple(ladder)
    return FormatAssignment([ladder.index(fmt) for fmt in formats], ladder)


def formats_of(assignment: FormatAssignment) -> tuple:
    """Each chunk's format, in directory order."""
    return tuple(assignment.ladder[code] for code in assignment.codes.tolist())


def format_for(thresholds: ThresholdSet, score: float) -> FpFormat:
    """The format a score gets: the rung of the first cut it reaches,
    the last rung if it reaches none."""
    for t, fmt in zip(thresholds.values, thresholds.ladder):
        if score >= t:
            return fmt
    return thresholds.ladder[-1]


def reference_enumerate_chunks(geometry) -> list[ChunkRow]:
    """Tile the weight space: per layer heads, then neurons, then predictor."""
    chunks = []
    start = 0

    def add(length: int, kind: ChunkKind) -> None:
        nonlocal start
        chunks.append(ChunkRow(len(chunks), start, length, kind))
        start += length

    for _ in range(geometry.layers):
        for _ in range(geometry.heads_per_layer):
            add(geometry.weights_per_head, ChunkKind.ATTENTION_HEAD)
        for _ in range(geometry.neurons_per_layer):
            add(geometry.weights_per_neuron, ChunkKind.MLP_NEURON)
        if geometry.predictor_weights_per_layer:
            add(geometry.predictor_weights_per_layer, ChunkKind.PREDICTOR)
    return chunks


def reference_draw(dist: ScoreDistribution, rng: np.random.Generator) -> float:
    """One score from dist: the per-call draw the package's per-family
    samplers replaced.  One uniform for the simple families,
    uniform-then-beta for the mixture."""
    if dist.family == "uniform":
        return float(rng.random())
    if dist.family == "beta":
        return float(rng.beta(dist.a, dist.b))
    if dist.family == "two_point":
        return 1.0 if rng.random() < dist.mix else 0.0
    hi = rng.random() < dist.mix
    a, b = (dist.a, dist.b) if hi else (dist.a_lo, dist.b_lo)
    return float(rng.beta(a, b))


def reference_gen_scores(rows, model) -> np.ndarray:
    """One score per non-predictor chunk row, in order.

    Predictor chunks consume no randomness, so adding or removing them
    from the geometry does not shift every other chunk's draw.
    """
    rng = np.random.default_rng(model.seed)
    out = []
    for chunk in rows:
        if chunk.kind is ChunkKind.PREDICTOR:
            continue
        score = reference_draw(model.dist_for(chunk.kind), rng)
        out.append(score)
    scores = np.asarray(out, dtype=np.float64)
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise AssertionError("score distribution left [0, 1]")
    return scores


def reference_solve_thresholds(
    directory: ChunkDirectory,
    scores: Sequence[float],
    target_avg_bits: float,
    ladder: Sequence[FpFormat],
    profile: BandProfile,
) -> ThresholdSet:
    """Find thresholds whose assignment averages target_avg_bits per
    non-predictor weight.

    Monotone bisection over a single knob: the knob position fixes a
    cumulative weight fraction per band via the profile, each fraction
    becomes a weighted score quantile, and the resulting average rises
    monotonically with the knob.  Tolerance is +/-0.05 bits.  An
    unreachable target raises with the achievable range; with no scored
    chunks any target gets the same staircase.
    """
    ladder = tuple(ladder)
    if len(profile.gains) != len(ladder) - 1:
        raise ValueError("band profile does not match the ladder")
    scores = np.asarray(scores, dtype=np.float64)
    predictor = directory.kind == _PREDICTOR
    lens = directory.length[~predictor].astype(np.float64)
    if scores.shape != lens.shape:
        raise ValueError(f"got {scores.size} scores for {lens.size} scored chunks")
    widths = np.asarray([f.total_bits for f in ladder[:-1]], dtype=np.float64)

    if scores.size == 0:
        n = len(ladder) - 1
        return ThresholdSet(tuple((n - k) / (n + 1) for k in range(n)), ladder)

    order = np.argsort(-scores, kind="stable")
    s_desc = scores[order]
    cum = np.cumsum(lens[order])
    mass = float(cum[-1])

    def quantile(fraction: float) -> float:
        want = fraction * mass
        if want <= 0.0:
            return math.inf
        if want >= mass:
            return float(s_desc[-1])
        idx = int(np.searchsorted(cum, want, side="left"))
        return float(s_desc[idx])

    def thresholds_at(theta: float) -> ThresholdSet:
        terms = [g * theta**p for g, p in zip(profile.gains, profile.exponents)]
        fractions = np.clip(np.cumsum(terms), 0.0, 1.0)
        raw = [quantile(float(f)) for f in fractions]
        return ThresholdSet(tuple(_force_decreasing(raw)), ladder)

    def measured(ts: ThresholdSet) -> float:
        bits = np.zeros_like(scores)
        for k in range(len(ts.values) - 1, -1, -1):
            bits[scores >= ts.values[k]] = widths[k]
        return float(np.dot(lens, bits)) / mass

    lo_set, hi_set = thresholds_at(0.0), thresholds_at(THETA_MAX)
    lo_avg, hi_avg = measured(lo_set), measured(hi_set)
    if not lo_avg - 0.05 <= target_avg_bits <= hi_avg + 0.05:
        raise ValueError(
            f"target {target_avg_bits} bits/weight is outside the achievable "
            f"range [{lo_avg:.3f}, {hi_avg:.3f}]"
        )

    best_set, best_err = lo_set, abs(lo_avg - target_avg_bits)
    if abs(hi_avg - target_avg_bits) < best_err:
        best_set, best_err = hi_set, abs(hi_avg - target_avg_bits)
    lo, hi = 0.0, THETA_MAX
    for _ in range(80):
        mid = (lo + hi) / 2.0
        ts = thresholds_at(mid)
        got = measured(ts)
        if abs(got - target_avg_bits) < best_err:
            best_set, best_err = ts, abs(got - target_avg_bits)
        if got < target_avg_bits:
            lo = mid
        else:
            hi = mid
    return best_set


class Rounding(Enum):
    """Mantissa narrowing behavior when dropping stored LSBs."""

    TRUNCATE = "truncate"
    ROUND_NEAREST_EVEN = "round-nearest-even"


@dataclass(frozen=True)
class WeightWord:
    """A bit pattern tagged with the format that gives it meaning."""

    bits: int
    fmt: FpFormat

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.fmt.total_bits):
            raise ValueError(f"bits 0x{self.bits:x} out of range for {self.fmt.name}")


def _round_field(value: np.ndarray, drop: int, mode: Rounding) -> np.ndarray:
    """Narrow an unsigned field by ``drop`` LSBs under the given mode.

    The dropped LSBs are the exact remainder; ties go to even. The result
    may carry out of the field width (caller handles overflow).
    """
    if drop == 0:
        return value
    kept = value >> drop
    if mode is Rounding.TRUNCATE:
        return kept
    rem = value & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    return kept + ((rem > half) | ((rem == half) & ((kept & 1) == 1)))


def keeps_fp16_scale(fmt: FpFormat) -> bool:
    """True when conversion is pure plane slicing (no re-bias needed)."""
    return fmt.exp_bits == FP16_EXP_BITS and fmt.bias == FP16_BIAS


def convert_words(
    words,
    target: FpFormat,
    guard: GuardConfig = NO_GUARD,
    mode: Rounding = Rounding.TRUNCATE,
) -> np.ndarray:
    """Convert stored FP16 words to ``target`` using only fetched planes.

    words is an array of FP16 bit patterns; the result holds the target
    words as int64.  Unfetched exponent/mantissa LSBs are zero. Formats
    that keep the FP16 exponent scale convert by slicing the magnitude
    word directly, with the fetched guard mantissa bits driving
    nearest-even rounding; narrower exponents re-bias, saturating to the
    maximum-magnitude finite value on overflow and flushing to signed
    zero on underflow.
    """
    if target.is_skip:
        raise ValueError("cannot convert to the skipped format")

    exp_f, man_f = fetched_widths(target, guard)
    bits = np.asarray(words, np.int64)
    body = target.exp_bits + target.man_bits
    signed = (bits >> 15) << body
    exp = (bits >> FP16_MAN_BITS) & 0x1F
    man = bits & 0x3FF

    # Zero unfetched LSB planes; this is the only data conversion sees.
    exp_keep = exp & ~((1 << (FP16_EXP_BITS - exp_f)) - 1)
    man_keep = man & ~((1 << (FP16_MAN_BITS - man_f)) - 1)

    if keeps_fp16_scale(target):
        # Pure slicing: exponent passes through (subnormals included), the
        # mantissa narrows with carry into the exponent field, clamped to
        # the maximum finite value.
        field = (exp_keep << man_f) | (man_keep >> (FP16_MAN_BITS - man_f))
        field = _round_field(field, man_f - target.man_bits, mode)
        return signed | np.minimum(field, (1 << body) - 1)

    exp_max = (1 << target.exp_bits) - 1
    rebias = exp_keep - FP16_BIAS + target.bias
    man_t = _round_field(man_keep >> (FP16_MAN_BITS - man_f), man_f - target.man_bits, mode)
    # A mantissa that rounds up out of its field carries into the exponent.
    carry = man_t >> target.man_bits
    rounded = rebias + carry
    return np.select(
        [
            # A source subnormal is far below any re-biased min normal.
            (exp_keep == 0) | (rebias < 1),
            rounded > exp_max,
        ],
        [signed, signed | ((1 << body) - 1)],
        signed | (rounded << target.man_bits) | np.where(carry, 0, man_t),
    )


def convert(
    source: WeightWord,
    target: FpFormat,
    guard: GuardConfig = NO_GUARD,
    mode: Rounding = Rounding.TRUNCATE,
) -> WeightWord:
    """`convert_words` for one stored FP16 word."""
    if source.fmt.total_bits != 16 or not keeps_fp16_scale(source.fmt):
        raise ValueError("conversion source must be a full FP16 word")
    return WeightWord(int(convert_words(source.bits, target, guard, mode)), target)


def dequantize(word: WeightWord) -> float:
    """Value of a minifloat word: (-1)^s * 2^(e-bias) * (1 + m/2^man_bits),
    with the e = 0 row subnormal."""
    fmt = word.fmt
    if fmt.is_skip:
        raise ValueError("skipped format has no value")
    sign = word.bits >> (fmt.exp_bits + fmt.man_bits)
    exp = (word.bits >> fmt.man_bits) & ((1 << fmt.exp_bits) - 1)
    man = word.bits & ((1 << fmt.man_bits) - 1)
    scale = 1 << fmt.man_bits
    if exp == 0:
        value = math.ldexp(man / scale, 1 - fmt.bias)
    else:
        value = math.ldexp(1 + man / scale, exp - fmt.bias)
    return -value if sign else value


def encode_fp16(value: float) -> WeightWord:
    """Nearest-even FP16 encoding of a finite real (test-fixture helper).

    Magnitudes beyond the largest finite pattern clamp to it; note the
    codomain has no Inf, so values that IEEE half would round to infinity
    land on large finite codes instead.
    """
    if math.isnan(value) or math.isinf(value):
        raise ValueError("encode_fp16 requires a finite value")
    sign = 1 if math.copysign(1.0, value) < 0 else 0
    mag = abs(value)
    if mag == 0.0:
        return WeightWord(sign << 15, FP16)

    frac, exp2 = math.frexp(mag)  # mag = frac * 2^exp2, frac in [0.5, 1)
    biased = exp2 - 1 + FP16_BIAS
    if biased <= 0:
        # Subnormal row: units of 2^-24.
        q = _round_half_even(math.ldexp(mag, 24))
        if q >= 1 << FP16_MAN_BITS:
            return WeightWord((sign << 15) | (1 << FP16_MAN_BITS), FP16)
        return WeightWord((sign << 15) | q, FP16)
    man = _round_half_even(math.ldexp(frac * 2 - 1, FP16_MAN_BITS))
    if man >> FP16_MAN_BITS:
        man = 0
        biased += 1
    if biased >= (1 << FP16_EXP_BITS):
        return WeightWord((sign << 15) | 0x7FFF, FP16)
    return WeightWord((sign << 15) | (biased << FP16_MAN_BITS) | man, FP16)


def _round_half_even(x: float) -> int:
    lo = math.floor(x)
    rem = x - lo
    if rem > 0.5 or (rem == 0.5 and lo & 1):
        return lo + 1
    return lo


TWO = Fraction(2)


def minifloat_value(bits: int, exp_bits: int, man_bits: int, bias: int) -> Fraction:
    """Exact value of a minifloat code; exponent code 0 is the subnormal row
    and there are no Inf/NaN codes."""
    sign = bits >> (exp_bits + man_bits)
    exp = (bits >> man_bits) & ((1 << exp_bits) - 1)
    man = bits & ((1 << man_bits) - 1)
    scale = 1 << man_bits
    if exp == 0:
        mag = Fraction(man, scale) * TWO ** (1 - bias)
    else:
        mag = (1 + Fraction(man, scale)) * TWO ** (exp - bias)
    return -mag if sign else mag


def fp16_value(bits: int) -> Fraction:
    return minifloat_value(bits, 5, 10, 15)


@lru_cache(maxsize=None)
def _magnitude_table(exp_bits: int, man_bits: int, bias: int) -> tuple[Fraction, ...]:
    # Non-negative codes in order; code order equals value order because
    # the encoding has no special rows.
    return tuple(
        minifloat_value(code, exp_bits, man_bits, bias)
        for code in range(1 << (exp_bits + man_bits))
    )


def _nearest_even_code(mags: tuple[Fraction, ...], v: Fraction) -> int:
    """Code of the table value nearest to v >= 0, ties to the even code."""
    i = bisect_right(mags, v)
    if i == 0:
        return 0
    if i == len(mags):
        return len(mags) - 1
    lo, hi = mags[i - 1], mags[i]
    d_lo, d_hi = v - lo, hi - v
    if d_lo < d_hi:
        return i - 1
    if d_hi < d_lo:
        return i
    return i if (i % 2 == 0) else i - 1


def _round_fraction_half_even(n: Fraction) -> int:
    floor = n.numerator // n.denominator
    rem = n - floor
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2 == 1):
        return floor + 1
    return floor


@lru_cache(maxsize=None)
def _convert_map(
    exp_bits: int, man_bits: int, bias: int, fetched_exp: int, fetched_man: int, truncate: bool
) -> dict[int, int]:
    """Masked FP16 word -> converted target word, for every reachable mask."""
    out: dict[int, int] = {}
    body_bits = exp_bits + man_bits
    for sign in (0, 1):
        for exp_m in range(0, 32, 1 << (5 - fetched_exp)):
            for man_m in range(0, 1024, 1 << (10 - fetched_man)):
                masked = (sign << 15) | (exp_m << 10) | man_m
                v = abs(fp16_value(masked))
                if exp_bits == 5 and bias == 15:
                    # Aligned codomain includes the subnormal row.
                    mags = _magnitude_table(5, man_bits, 15)
                    if truncate:
                        code = bisect_right(mags, v) - 1
                    else:
                        code = _nearest_even_code(mags, v)
                    out[masked] = (sign << body_bits) | code
                    continue
                max_exp = (1 << exp_bits) - 1
                if exp_m == 0:
                    out[masked] = sign << body_bits
                    continue
                target_exp = exp_m - 15 + bias
                if target_exp > max_exp:
                    out[masked] = (sign << body_bits) | ((1 << body_bits) - 1)
                    continue
                if target_exp < 1:
                    out[masked] = sign << body_bits
                    continue
                frac = v / TWO ** (exp_m - 15) - 1
                n = frac * (1 << man_bits)
                man_t = n.numerator // n.denominator if truncate else _round_fraction_half_even(n)
                if man_t == 1 << man_bits:
                    man_t = 0
                    target_exp += 1
                    if target_exp > max_exp:
                        out[masked] = (sign << body_bits) | ((1 << body_bits) - 1)
                        continue
                out[masked] = (sign << body_bits) | (target_exp << man_bits) | man_t
    return out


@lru_cache(maxsize=None)
def _convert_table(*key) -> np.ndarray:
    """_convert_map(*key) as a read-only array indexed by masked word;
    words no mask produces hold -1."""
    mapping = _convert_map(*key)
    table = np.full(1 << 16, -1, np.int64)
    table[list(mapping)] = list(mapping.values())
    table.setflags(write=False)
    return table


def ref_convert(
    bits16,
    exp_bits: int,
    man_bits: int,
    bias: int,
    guard_exp: int,
    guard_man: int,
    truncate: bool,
):
    """Reference conversion of FP16 bit patterns, an int or an int array,
    to the target layout."""
    fetched_exp = min(5, exp_bits + guard_exp)
    fetched_man = min(10, man_bits + guard_man)
    sign = bits16 >> 15
    exp = (bits16 >> 10) & 0x1F
    man = bits16 & 0x3FF
    exp_m = (exp >> (5 - fetched_exp)) << (5 - fetched_exp)
    man_m = (man >> (10 - fetched_man)) << (10 - fetched_man)
    masked = (sign << 15) | (exp_m << 10) | man_m
    return _convert_table(exp_bits, man_bits, bias, fetched_exp, fetched_man, truncate)[masked]


def ref_encode_fp16(value: float) -> int:
    """Nearest-even FP16 code for a finite real, clamping beyond the table."""
    sign = 1 if math.copysign(1.0, value) < 0 else 0
    code = _nearest_even_code(_magnitude_table(5, 10, 15), abs(Fraction(value)))
    return (sign << 15) | code


# Plain ints: numpy compares a column with an int several times faster
# than with an IntEnum member.
_ACT, _RD, _PRE = (int(kind) for kind in (CommandKind.ACT, CommandKind.RD, CommandKind.PRE))


@dataclass(frozen=True, eq=False)
class CommandTable:
    """A timed command stream as columns, one row per command or run.

    kind holds the row's CommandKind value; the other per-row columns
    mirror DramCommand's fields for the row's first command, so
    request_index is the trace row of that command.  An RD row stands
    for count reads to consecutive columns of its (bank, row), the k-th
    at issue_cycle + k * t_ccd_l, column + k; every other row has count
    1.  A channel's rows are in its stream order; rows of different
    channels may interleave in any order.  `expand` builds the columns
    in the types of `_COLUMN_TYPES` (kind int8), 29 bytes a row; wider
    integer columns are taken too.
    """

    kind: np.ndarray
    channel: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray
    issue_cycle: np.ndarray
    request_index: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        if self.kind.size and not 0 <= self.kind.min() <= self.kind.max() < len(CommandKind):
            raise ValueError(f"command kind codes must lie in [0, {len(CommandKind)})")
        reads = self.count[self.kind == _RD]
        if (reads < 1).any() or (self.count[self.kind != _RD] != 1).any():
            raise ValueError("an RD row needs a count of at least 1, any other row 1")
        if (self.request_index < 0).any():
            raise ValueError("a row's request_index must not be negative")

    def __len__(self) -> int:
        return self.kind.size


# The column types `expand` builds: with kind's int8, 29 bytes a row.
_COLUMN_TYPES = {
    "channel": np.int16,
    "bank": np.int16,
    "row": np.int32,
    "column": np.int32,
    "issue_cycle": np.int64,
    "request_index": np.int32,
    "count": np.int32,
}


def expand(config: DramConfig, runs: RunTable, state: DramState) -> CommandTable:
    """runs, a run table planned from state, as the command table it
    encodes: each run an RD row of its count reads, preceded by the PRE
    and ACT rows that open its row if it is an opening, each naming the
    run's trace row.  A PRE closes the row its bank has open: the
    previous run's on its bank, or else state's."""
    n = len(runs)
    opening = runs.opening
    has_pre = np.zeros(n, bool)
    has_pre[np.flatnonzero(opening)[runs.precharges]] = True
    key = runs.channel.astype(np.int64) * config.banks_per_channel + runs.bank
    by_bank = _stable_order(key)
    key = key[by_bank]
    previous = np.empty(n, np.int64)
    previous[1:] = runs.row[by_bank[:-1]]
    heads = _heads(key)
    previous[heads] = _lookup(state.key, key[heads], state.row, -1)
    closed = np.empty(n, np.int64)
    closed[by_bank] = previous

    # Table order: runs as listed, each preceded by its PRE and ACT rows.
    rows_of = np.add(opening, has_pre, dtype=np.intp)
    rows_of += 1
    rd_pos = np.cumsum(rows_of)
    rd_pos -= 1
    act_pos, pre_pos = rd_pos[opening] - 1, rd_pos[has_pre] - 2
    kind = np.full(int(rows_of.sum()), _RD, np.int8)
    kind[act_pos], kind[pre_pos] = _ACT, _PRE
    run_of = np.repeat(np.arange(n), rows_of)  # each table row's run
    act = runs.act_cycle
    # (ACT rows, PRE rows) of the columns where those differ from the run.
    patches = {
        "row": (None, closed[has_pre]),
        "column": (None, 0),
        "issue_cycle": (act, act[runs.precharges] - config.t_rp),
        "count": (1, 1),
    }
    columns = {"kind": kind}
    for name, dtype in _COLUMN_TYPES.items():
        source = runs.request if name == "request_index" else getattr(runs, name)
        out = source[run_of].astype(dtype)
        act_value, pre_value = patches.get(name, (None, None))
        if act_value is not None:
            out[act_pos] = act_value
        if pre_value is not None:
            out[pre_pos] = pre_value
        columns[name] = out
    return CommandTable(**columns)


@dataclass(frozen=True, eq=False)
class CommandState:
    """What a command stream leaves the commands after it: `DramState`
    widened to any stream.

    Per channel, int64 columns of config.channels rows, -1 for none: the
    cycle of its last command (last_cycle), and the cycle and bank of
    its last read (last_read, last_bank).  Per bank that has seen an ACT
    or PRE, ascending in key = channel * banks_per_channel + bank: the
    newest one's kind, its row (the row open after an ACT) and its
    cycle.  A stream `plan` builds ends each channel on a read and each
    bank on an ACT, and `narrow` drops what that makes redundant.
    """

    last_cycle: np.ndarray
    last_read: np.ndarray
    last_bank: np.ndarray
    key: np.ndarray
    kind: np.ndarray
    row: np.ndarray
    cycle: np.ndarray

    @classmethod
    def initial(cls, config: DramConfig) -> CommandState:
        """The state before any command: nothing issued, every bank closed."""
        none = np.full(config.channels, -1, np.int64)
        empty = np.zeros(0, np.int64)
        return cls(none, none, none, empty, empty, empty, empty)


def narrow(state: CommandState) -> DramState:
    """state as the `DramState` `plan` returns, once asserted to be one
    a planned stream can leave: each channel's last command is its last
    read, and each bank's newest ACT or PRE is an ACT."""
    assert np.array_equal(state.last_cycle, state.last_read), (
        "a channel's last command is not its last read"
    )
    assert (state.kind == _ACT).all(), "a bank's newest ACT or PRE is a PRE"
    return DramState(state.last_read, state.last_bank, state.key, state.row, state.cycle)


def carry(config: DramConfig, state: CommandState, table: CommandTable) -> CommandState:
    """The state that state leaves once table, the commands after it,
    has issued.

    table's rows must lie within the config, as a legal table's do, in
    any channel order; a table grouped by channel, as `expand` builds
    them, is read without sorting but for its ACT and PRE rows."""
    channel, kind, bank = table.channel, table.kind, table.bank
    order = None if (channel[1:] >= channel[:-1]).all() else _stable_order(channel)
    if order is not None:
        channel, kind, bank = channel[order], kind[order], bank[order]

    def at(rows):  # table positions of grouped rows
        return rows if order is None else order[rows]

    def end_cycle(rows):  # the cycle of each row's last command
        rows = at(rows)
        return np.multiply(table.count[rows] - 1, config.t_ccd_l, dtype=np.int64) + (
            table.issue_cycle[rows]
        )

    last_cycle, last_read, last_bank = (
        c.copy() for c in (state.last_cycle, state.last_read, state.last_bank)
    )
    last = _ends(channel)
    last_cycle[channel[last]] = end_cycle(last)
    rd = np.flatnonzero(kind == _RD)
    rd = rd[_ends(channel[rd])]
    last_read[channel[rd]] = end_cycle(rd)
    last_bank[channel[rd]] = bank[rd]
    # Each bank's newest ACT or PRE, after the state's, then the newest
    # per key of both.
    other = np.flatnonzero(kind != _RD)
    key = channel[other].astype(np.int32) * config.banks_per_channel + bank[other]
    by_key = _stable_order(key)
    newest = other[by_key[_ends(key[by_key])]]
    key = np.concatenate((state.key, key[by_key][_ends(key[by_key])]))
    by_key = np.argsort(key, kind="stable")
    by_key = by_key[_ends(key[by_key])]
    newest = at(newest)
    columns = (
        np.concatenate((state.kind, table.kind[newest])),
        np.concatenate((state.row, table.row[newest])),
        np.concatenate((state.cycle, table.issue_cycle[newest])),
    )
    return CommandState(
        last_cycle, last_read, last_bank, key[by_key], *(c[by_key] for c in columns)
    )


class Piece(NamedTuple):
    """One planned piece of a trace: the state `plan` returned for it,
    and its run table's expansion."""

    state: DramState
    table: CommandTable


def expanded(config: DramConfig, trace, cuts: Iterable[int] = ()) -> Iterator[Piece]:
    """trace planned and expanded piece by piece, cut before each trace
    row in cuts (ascending), as `simulate` plans it: each piece from
    the state `plan` returned for the piece before.  Asserts that the
    state `plan` returns for each piece is `narrow` of the one `carry`
    takes across the pieces' expansions."""
    bounds = [0, *(int(at) for at in cuts), trace.addr.size]
    state, carried = DramState.initial(config), CommandState.initial(config)
    for piece in zip(bounds, bounds[1:]):
        runs, after = plan(config, trace, piece, state)
        table = expand(config, runs, state)
        carried = carry(config, carried, table)
        assert_same_state(after, narrow(carried))
        yield Piece(after, table)
        state = after


def planned(config: DramConfig, trace) -> CommandTable:
    """The command table of trace planned in one piece."""
    (piece,) = expanded(config, trace)
    return piece.table


def assert_same_state(got: DramState, want: DramState) -> None:
    """got and want hold the same columns, dtypes included."""
    for name, column in vars(want).items():
        value = getattr(got, name)
        assert value.dtype == column.dtype and np.array_equal(value, column), name


def from_commands(commands: Iterable[DramCommand]) -> CommandTable:
    """One count-1 row per command, in stream order.  A command whose
    kind is not a CommandKind member is rejected before any replay."""
    rows = []
    for cmd in commands:
        if not isinstance(cmd.kind, CommandKind):
            raise ValueError(f"unknown command kind {cmd.kind!r}")
        rows.append(cmd)
    cols = np.array(rows, dtype=np.int64).reshape(-1, 7).T
    kind = cols[0].astype(np.int8)
    return CommandTable(kind, *cols[1:], count=np.ones(kind.size, np.int64))


def cut(table: CommandTable, at: Iterable[int]) -> list:
    """table as pieces of consecutive rows, cut before each row in at
    (ascending)."""
    bounds = [0, *at, len(table)]
    return [
        CommandTable(**{name: column[lo:hi] for name, column in vars(table).items()})
        for lo, hi in zip(bounds, bounds[1:])
    ]


class PerRequest(NamedTuple):
    """Per-request columns, indexed by request_index up to the largest
    one a command names: the last data beat, the RD and the ACT count."""

    completion: tuple
    reads: tuple
    acts: tuple


def reference_simulate(
    config: DramConfig, commands: Iterable[DramCommand]
) -> tuple[SimResult, PerRequest]:
    """Replay a command stream, checking legality, and account for it.

    The stream must respect the bank state machine and the configured
    timings; a violation raises ValueError naming the constraint.  The
    trace ends at the last data beat (or the last command, for a stream
    with no reads).  Background energy covers every channel for the whole
    span, busy or not: standby power does not care who is reading.
    """
    open_row: dict = {}
    act_cycle: dict = {}
    pre_cycle: dict = {}
    last_bus: dict = {}
    last_rd: dict = {}

    count_act = 0
    count_rd = 0
    last_cycle = -1
    end_cycle = 0
    reads: dict[int, int] = {}
    acts: dict[int, int] = {}
    completion: dict[int, int] = {}
    n_requests = 0

    for cmd in commands:
        ch, bank = cmd.channel, cmd.bank
        key = (ch, bank)
        if not (0 <= ch < config.channels and 0 <= bank < config.banks_per_channel):
            raise ValueError(f"command addresses channel {ch} bank {bank} outside the config")
        if cmd.issue_cycle <= last_bus.get(ch, -1):
            raise ValueError(f"command bus conflict on channel {ch} at cycle {cmd.issue_cycle}")
        last_bus[ch] = cmd.issue_cycle
        last_cycle = max(last_cycle, cmd.issue_cycle)
        n_requests = max(n_requests, cmd.request_index + 1)

        if cmd.kind is CommandKind.ACT:
            if key in open_row:
                raise ValueError(f"activate on channel {ch} bank {bank} with a row already open")
            if key in pre_cycle and cmd.issue_cycle < pre_cycle[key] + config.t_rp:
                raise ValueError(f"t_rp violated on channel {ch} bank {bank}")
            open_row[key] = cmd.row
            act_cycle[key] = cmd.issue_cycle
            count_act += 1
            acts[cmd.request_index] = acts.get(cmd.request_index, 0) + 1
        elif cmd.kind is CommandKind.PRE:
            if key not in open_row:
                raise ValueError(f"precharge on channel {ch} bank {bank} with no open row")
            if cmd.issue_cycle < act_cycle[key] + config.t_ras:
                raise ValueError(f"t_ras violated on channel {ch} bank {bank}")
            del open_row[key]
            pre_cycle[key] = cmd.issue_cycle
        elif cmd.kind is CommandKind.RD:
            if key not in open_row:
                raise ValueError(f"read on channel {ch} bank {bank} with no open row")
            if open_row[key] != cmd.row:
                raise ValueError(f"read to row {cmd.row} on channel {ch} bank {bank} while row {open_row[key]} is open")
            if cmd.issue_cycle < act_cycle[key] + config.t_rcd:
                raise ValueError(f"t_rcd violated on channel {ch} bank {bank}")
            if ch in last_rd:
                prev_cycle, prev_bank = last_rd[ch]
                gap = config.t_ccd_l if prev_bank == bank else config.t_ccd_s
                name = "t_ccd_l" if prev_bank == bank else "t_ccd_s"
                if cmd.issue_cycle < prev_cycle + gap:
                    raise ValueError(f"{name} violated on channel {ch}")
            last_rd[ch] = (cmd.issue_cycle, bank)
            done = cmd.issue_cycle + config.t_cl + config.burst_cycles
            end_cycle = max(end_cycle, done)
            count_rd += 1
            reads[cmd.request_index] = reads.get(cmd.request_index, 0) + 1
            prev = completion.get(cmd.request_index, 0)
            completion[cmd.request_index] = max(prev, done)
        else:
            raise ValueError(f"unknown command kind {cmd.kind!r}")

    if count_rd == 0:
        total_cycles = last_cycle + 1 if last_cycle >= 0 else 0
    else:
        total_cycles = end_cycle
    total_ns = total_cycles * config.clock_ns
    e_act = config.e_act_pj * count_act
    e_rd = config.e_rd_pj * count_rd
    e_bg = config.p_bg_mw * config.channels * total_ns  # mW * ns = pJ
    energy = {
        "activation": e_act,
        "read": e_rd,
        "background": e_bg,
        "total": e_act + e_rd + e_bg,
    }
    per_request = PerRequest(
        completion=tuple(completion.get(i, 0) for i in range(n_requests)),
        reads=tuple(reads.get(i, 0) for i in range(n_requests)),
        acts=tuple(acts.get(i, 0) for i in range(n_requests)),
    )
    totals = SimResult(
        total_cycles=total_cycles,
        total_ns=total_ns,
        energy_pj=energy,
        bytes_transferred=BLOCK * count_rd,
        num_acts=count_act,
        num_reads=count_rd,
        completion=np.array(per_request.completion, np.int64),
        acts=np.array(per_request.acts, np.int64),
    )
    return totals, per_request


# The replay's checks in the order it applies them to one command; the
# first that fails names the violation.
_VIOLATIONS = (
    "command addresses channel {ch} bank {bank} outside the config",
    "command bus conflict on channel {ch} at cycle {cycle}",
    "activate on channel {ch} bank {bank} with a row already open",
    "t_rp violated on channel {ch} bank {bank}",
    "precharge on channel {ch} bank {bank} with no open row",
    "t_ras violated on channel {ch} bank {bank}",
    "read on channel {ch} bank {bank} with no open row",
    "read to row {row} on channel {ch} bank {bank} while row {open_row} is open",
    "t_rcd violated on channel {ch} bank {bank}",
    "t_ccd_l violated on channel {ch}",
    "t_ccd_s violated on channel {ch}",
)

def _latest(flags: np.ndarray, after: int) -> np.ndarray:
    """Index of the nearest True in flags at or before each row (after 0)
    or strictly before it (after 1), or -1 for none."""
    at = np.flatnonzero(flags)
    return np.repeat(np.r_[-1, at], np.diff(np.r_[0, at + after, flags.size]))


def _first_violation(config: DramConfig, table: CommandTable, state: CommandState):
    """The message for the table's first illegal row, or None when all
    are legal.

    The rows are checked in one pass, grouped by channel, each channel's
    in stream order.  Each row's first command is checked against the
    state the rows before it on its channel leave: the last cycle of the
    previous row, the last read of the previous RD row, and the bank's
    newest ACT or PRE (open if it was an ACT).  The table continues the
    stream that left state, which answers where no row of the table
    before it does.  Up to a channel's first illegal row that is exactly
    the state a command-by-command replay holds, and channels share no
    state, so the replay stops at the earliest of the channels' first
    illegal rows in table order.  The later reads of an RD row need no
    check of their own: nothing else issues on the channel between them,
    they stay on the open row, and they are t_ccd_l >= 1 apart, which
    satisfies the bus, tCCD and tRCD rules once the first read does.

    `fail` holds each row's first broken rule as an index into
    `_VIOLATIONS`, len(_VIOLATIONS) for a legal row.  The rules are
    recorded from last to first, so an earlier rule overwrites a later
    one.  Each rule's inputs are freed once it is recorded, but the bus
    mask, computed with the read spacing, waits for its turn.
    """
    channel = table.channel
    n, channels, banks = channel.size, config.channels, config.banks_per_channel
    # plan's tables are grouped already; only other tables are gathered.
    order = None if (channel[1:] >= channel[:-1]).all() else _stable_order(channel)
    columns = (channel, table.kind, table.bank, table.row, table.issue_cycle, table.count)
    if order is not None:
        columns = tuple(c[order] for c in columns)
    ch, kind, bank, row, cycle, count = columns
    cycle = np.asarray(cycle, np.int64)
    fail = np.full(n, len(_VIOLATIONS), np.int8)

    # Bus and read spacing: the last cycle of each row and of each RD
    # row's last read.
    last = np.multiply(count - 1, config.t_ccd_l, dtype=np.int64)
    last += cycle
    previous_last = np.empty(n, np.int64)
    previous_last[1:] = last[:-1]
    heads = _heads(ch)  # each channel's first row
    previous_last[heads] = state.last_cycle[np.clip(ch[heads], 0, channels - 1)]
    bus = cycle <= previous_last
    del previous_last, heads
    # Each RD row against the channel's previous read, that of the RD
    # row before it or else the state's: t_ccd_l on the same bank,
    # t_ccd_s across banks.
    rd = np.flatnonzero(kind == _RD)
    prior = np.empty(rd.size, np.int64)
    prior[1:] = last[rd[:-1]]
    del last
    prior_bank = np.empty(rd.size, bank.dtype)
    prior_bank[1:] = bank[rd[:-1]]
    heads = _heads(ch[rd])
    inside = np.clip(ch[rd[heads]], 0, channels - 1)
    prior[heads], prior_bank[heads] = state.last_read[inside], state.last_bank[inside]
    del heads, inside
    same_bank = prior_bank == bank[rd]
    del prior_bank
    early = prior >= 0  # -1: the channel's first read
    prior += np.where(same_bank, config.t_ccd_l, config.t_ccd_s)
    early &= cycle[rd] < prior
    fail[rd[early]] = np.where(same_bank[early], 9, 10)
    del rd, prior, same_bank, early

    # Bank state, grouped by (channel, bank).  Channels and banks outside
    # the config share one key below and one above: their rows fail the
    # first rule, and no other row reads their state.
    key = (np.clip(ch, -1, channels).astype(np.int64) + 1) * (banks + 2)
    key += np.clip(bank, -1, banks)
    by_bank = _stable_order(key)
    key = key[by_bank]
    prev = _latest((kind != _RD)[by_bank], 1)  # the newest ACT or PRE before
    prev[prev < _latest(np.r_[True, key[1:] != key[:-1]], 0)] = -1
    del key
    newest = np.empty(n, np.int64)
    newest[by_bank] = np.where(prev >= 0, by_bank[prev], -1)
    del by_bank, prev
    has_state = newest >= 0
    newest[~has_state] = 0
    state_kind, state_row, since = kind[newest], row[newest], cycle - cycle[newest]
    del newest
    # Rows no row of the table before them answers: the state's newest.
    missing = np.flatnonzero(~has_state)
    key = np.clip(ch[missing], 0, channels - 1).astype(np.int64) * banks
    key += np.clip(bank[missing], 0, banks - 1)
    state_kind[missing] = _lookup(state.key, key, state.kind, -1)
    has_state[missing] = state_kind[missing] >= 0
    state_row[missing] = _lookup(state.key, key, state.row, -1)
    since[missing] = cycle[missing] - _lookup(state.key, key, state.cycle, 0)
    del key, missing
    is_open = has_state & (state_kind == _ACT)
    del state_kind
    is_act, is_pre, is_rd = kind == _ACT, kind == _PRE, kind == _RD
    fail[is_rd & (since < config.t_rcd)] = 8
    fail[is_rd & (state_row != row)] = 7
    fail[is_rd & ~is_open] = 6
    fail[is_pre & (since < config.t_ras)] = 5
    fail[is_pre & ~is_open] = 4
    fail[is_act & has_state & ~is_open & (since < config.t_rp)] = 3
    fail[is_act & is_open] = 2
    del has_state, is_open, since, is_act, is_pre, is_rd
    fail[bus] = 1
    fail[(bank < 0) | (bank >= banks) | (ch < 0) | (ch >= channels)] = 0

    bad = np.flatnonzero(fail < len(_VIOLATIONS))
    if not bad.size:
        return None
    # Each channel's first illegal row, then the earliest in table order.
    bad_ch = ch[bad]
    firsts = bad[np.r_[True, bad_ch[1:] != bad_ch[:-1]]]
    j = int(firsts[np.argmin(firsts if order is None else order[firsts])])
    return _VIOLATIONS[fail[j]].format(
        ch=int(ch[j]), bank=int(bank[j]), row=int(row[j]), cycle=int(cycle[j]),
        open_row=int(state_row[j]),
    )


def replay(config: DramConfig, tables: Iterable[CommandTable]) -> None:
    """Check a trace's command tables against the bank state machine and
    the configured timings.

    The tables are one stream cut at row boundaries, in stream order:
    each is checked from the `CommandState` the tables before it leave
    (`carry`), so any cuts give the same verdict.  An RD row stands for
    its count reads.  The first violation, in table order, raises
    ValueError in `reference_simulate`'s words."""
    state = CommandState.initial(config)
    for table in tables:
        if len(table):
            violation = _first_violation(config, table, state)
            if violation is not None:
                raise ValueError(violation)
            state = carry(config, state, table)


def reference_energy_breakdown(result: SimResult, per_request: PerRequest, trace) -> tuple:
    """A result's energy split across a trace's tags, exactly, from each
    request's ACTs and reads (as `reference_simulate` counts them).

    Returns (counts, energy): per label, its (ACTs, reads) and its
    energy as a Fraction.  A tag's share of the activation energy is its
    part of the ACTs, of the read and background energy its part of the
    reads; a result with no ACTs or no reads gives no share of that
    energy."""
    counts = {label: (0, 0) for label in trace.labels}
    rows = zip(trace.tag.tolist(), per_request.acts, per_request.reads, strict=True)
    for index, (tag, acts, reads) in enumerate(rows):
        if tag < 0:
            raise ValueError(f"request {index} is untagged")
        label = trace.labels[tag]
        counts[label] = (counts[label][0] + acts, counts[label][1] + reads)
    e = {category: Fraction(value) for category, value in result.energy_pj.items()}
    energy = {}
    for label, (acts, reads) in counts.items():
        energy[label] = Fraction(0)
        if result.num_acts:
            energy[label] += e["activation"] * acts / result.num_acts
        if result.num_reads:
            energy[label] += (e["read"] + e["background"]) * reads / result.num_reads
    return counts, energy


def assert_breakdown_exact(result: SimResult, trace, per_request: PerRequest) -> None:
    """`energy_breakdown` of a simulated trace counts each tag's ACTs and
    reads as the replay does, and each tag's energy is within 1e-15
    relative of the exact split."""
    counts, exact = reference_energy_breakdown(result, per_request, trace)
    acts = trace.sum_by_tag(result.acts)
    reads = trace.bytes_by_tag() // BLOCK
    assert list(counts.values()) == list(zip(acts.tolist(), reads.tolist()))
    split = energy_breakdown(result, trace)
    assert split.keys() == exact.keys()
    for label, want in exact.items():
        assert abs(Fraction(split[label]) - want) <= want * Fraction(1e-15), label


def reference_first_invalid(addr: np.ndarray, size: np.ndarray):
    """(row, message) of the first row that is not a non-empty read of
    whole BLOCK-aligned blocks at a non-negative address, or None."""
    bad = np.flatnonzero((addr < 0) | ((addr | size) & (BLOCK - 1) != 0) | (size <= 0))
    if not bad.size:
        return None
    row = int(bad[0])
    request = f"request [{addr[row]}, +{size[row]})"
    if addr[row] < 0:
        return row, f"{request} starts at a negative address"
    return row, f"{request} not {BLOCK}B-granular"


@dataclass(frozen=True)
class LogicalRead:
    addr_bit: int
    len_bits: int

    def __post_init__(self) -> None:
        if self.addr_bit < 0 or self.len_bits < 0:
            raise ValueError("negative logical read")


def scalar_resolve(table: RegionTable, read: LogicalRead) -> tuple[FpFormat, int, int]:
    """Map a logical read to (format, start_weight, weight_count).

    Raises for a read that is negative, runs beyond the logical space,
    crosses a region boundary, is not weight-aligned or is empty, checked
    in that order, so the range returned is non-empty and inside the
    image."""
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
    if read.len_bits == 0:
        raise ValueError(f"weight range [{offset // width}, +0) is empty")
    return region.fmt, offset // width, read.len_bits // width


def scalar_translate(
    resolved: tuple[FpFormat, int, int], guard: GuardConfig, num_weights: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One aligned span per needed plane covering the weight range, in
    the image of num_weights weights.  The range is one `scalar_resolve`
    returned, so it is non-empty and inside the image, and nothing here
    checks it again.

    Returns (plane, lo, size) int64 arrays in ascending address order
    (planes sit at increasing bases, so that is also plane order).
    """
    fmt, start, count = resolved
    planes = np.array(plane_set(fmt, guard), np.int64)
    lo, size = plane_span(plane_stride_for(num_weights), planes, start, count)
    return planes, lo, size


def scalar_translate_traditional(directory: ChunkDirectory, chunk_id: int) -> tuple[int, int]:
    """One chunk's FP16 extent (lo, size) in the weight-contiguous
    layout: its bytes rounded up to whole blocks, after the extents of
    every chunk before it, loaded or not."""
    lengths = directory.length.tolist()

    def extent(length: int) -> int:
        return (length * FP16_BYTES + BLOCK - 1) // BLOCK * BLOCK

    lo = 0
    for length in lengths[:chunk_id]:
        lo += extent(length)
    return lo, extent(lengths[chunk_id])


class TraceRow(NamedTuple):
    byte_addr: int
    len_bytes: int
    kind: ChunkKind
    chunk_id: int


def reference_trace(assignment, directory, mode: str, guard=NO_GUARD) -> list:
    """The request stream for loading the whole model once, as TraceRows.

    Chunks go out in directory order; skipped chunks emit nothing.
    bitplane mode fetches each needed plane's span, minus the blocks a
    previous chunk already fetched on that plane; traditional mode
    fetches the chunk's FP16 extent, one row per chunk.
    """
    table = build_regions(directory.num_weights, assignment.ladder)
    bases = {region.fmt: region.base_bit for region in table.regions}
    rows = []
    high_water: dict = {}  # plane index -> last fetched block
    for chunk, fmt in zip(chunks(directory), formats_of(assignment)):
        if fmt.is_skip:
            continue
        if mode == "traditional":
            lo, size = scalar_translate_traditional(directory, chunk.chunk_id)
            rows.append(TraceRow(lo, size, chunk.kind, chunk.chunk_id))
            continue
        read = LogicalRead(
            bases[fmt] + chunk.start * fmt.total_bits, chunk.length * fmt.total_bits
        )
        resolved = scalar_resolve(table, read)
        spans = scalar_translate(resolved, guard, directory.num_weights)
        for plane, addr, size in zip(*(c.tolist() for c in spans)):
            first = addr // BLOCK
            last = (addr + size - 1) // BLOCK
            start = max(first, high_water.get(plane, -1) + 1)
            if start > last:
                continue  # the seam block was already fetched for the previous chunk
            high_water[plane] = last
            rows.append(
                TraceRow(start * BLOCK, (last - start + 1) * BLOCK, chunk.kind, chunk.chunk_id)
            )
    return rows
