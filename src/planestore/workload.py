"""Synthetic model geometry, importance scores, format assignment, traces.

The pipeline here stands in for a real transformer checkpoint plus its
trained importance predictors.  Geometry decides how the weight space is
chunked (attention heads, MLP neurons, one predictor chunk per layer);
a seeded score model decides how important each non-predictor chunk is;
a threshold set maps scores to ladder formats; and the trace generator
turns an assignment into the physical request stream each storage layout
would issue, as a `Trace` whose tags index `KIND_LABELS` and whose chunk
column holds directory ids.  Everything is deterministic given the seed.

The directory and the assignment are columns with one row per chunk (a
length and a kind code; a ladder position), and a chunk's id is its
row.  Apart from the score draws, nothing here loops over chunks.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .address import Trace, build_regions, resolve, translate, translate_traditional
from .bitplane import BLOCK, KIND_LABELS, ChunkDirectory, ChunkKind
from .quant import FpFormat, GuardConfig, check_ladder

TRACE_MODES = ("bitplane", "traditional")

# KIND_LABELS are the tag labels of every trace gen_trace builds: a row's
# tag is its chunk's kind code.
_PREDICTOR = KIND_LABELS.index(ChunkKind.PREDICTOR)

# Upper end of the solver's search knob.  At 64 the default band profile
# pushes every band fraction past 1, so the all-FP16 ceiling is reachable.
THETA_MAX = 64.0


@dataclass(frozen=True)
class ModelGeometry:
    """Chunk-level shape of one model: what gets loaded, in what pieces."""

    layers: int
    heads_per_layer: int
    weights_per_head: int
    neurons_per_layer: int
    weights_per_neuron: int
    predictor_weights_per_layer: int

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise ValueError("need at least one layer")
        for name in ("heads_per_layer", "neurons_per_layer", "predictor_weights_per_layer"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("weights_per_head", "weights_per_neuron"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.weights_per_layer:
            raise ValueError(
                "geometry holds no weights: heads_per_layer, neurons_per_layer "
                "and predictor_weights_per_layer are all 0"
            )

    @property
    def weights_per_layer(self) -> int:
        return (
            self.heads_per_layer * self.weights_per_head
            + self.neurons_per_layer * self.weights_per_neuron
            + self.predictor_weights_per_layer
        )

    @property
    def total_weights(self) -> int:
        return self.layers * self.weights_per_layer


def enumerate_chunks(geometry: ModelGeometry) -> ChunkDirectory:
    """Tile the weight space: per layer heads, then neurons, then predictor.

    A layer holds its kinds in KIND_LABELS order, and every layer is the
    same, so the directory repeats one layer's columns, each chunk
    numbered with its layer.
    """
    g = geometry
    counts = [g.heads_per_layer, g.neurons_per_layer, 1 if g.predictor_weights_per_layer else 0]
    lengths = [g.weights_per_head, g.weights_per_neuron, g.predictor_weights_per_layer]
    length = np.repeat(lengths, counts)
    kind = np.repeat(np.arange(len(KIND_LABELS)), counts)
    return ChunkDirectory(
        np.tile(length, g.layers), np.tile(kind, g.layers),
        np.repeat(np.arange(g.layers), length.size),
    )


# The parameters each score distribution family reads.
FAMILY_PARAMETERS = {
    "uniform": (),
    "beta": ("a", "b"),
    "two_point": ("mix",),
    "beta_mixture": ("a", "b", "mix", "a_lo", "b_lo"),
}


@dataclass(frozen=True)
class ScoreDistribution:
    """One family of importance-score distributions on [0, 1].

    families: "uniform"; "beta" with (a, b); "two_point" putting mass mix
    on 1.0 and the rest on 0.0; "beta_mixture" drawing beta(a, b) with
    probability mix and beta(a_lo, b_lo) otherwise.
    """

    family: str
    a: float = 1.0
    b: float = 1.0
    mix: float = 0.0
    a_lo: float = 1.0
    b_lo: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILY_PARAMETERS:
            raise ValueError(f"unknown score distribution {self.family!r}")
        if min(self.a, self.b, self.a_lo, self.b_lo) <= 0:
            raise ValueError("beta shape parameters must be positive")
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError("mixture weight must lie in [0, 1]")

    def sampler(self, rng: np.random.Generator) -> Callable[[], float]:
        """A zero-argument callable drawing one score from rng per call.

        Draw order is part of the determinism contract: one uniform for
        the simple families, uniform-then-beta for the mixture.
        """
        random, beta = rng.random, rng.beta
        if self.family == "uniform":
            return random
        if self.family == "beta":
            return functools.partial(beta, self.a, self.b)
        mix = self.mix
        if self.family == "two_point":
            return lambda: 1.0 if random() < mix else 0.0
        a, b, a_lo, b_lo = self.a, self.b, self.a_lo, self.b_lo
        return lambda: beta(a, b) if random() < mix else beta(a_lo, b_lo)


@dataclass(frozen=True, eq=False)
class ImportanceModel:
    """Seeded score distributions, one per scored chunk kind."""

    seed: int
    distributions: Mapping[ChunkKind, ScoreDistribution]

    def dist_for(self, kind: ChunkKind) -> ScoreDistribution:
        try:
            return self.distributions[kind]
        except KeyError:
            raise ValueError(f"no score distribution for chunk kind {kind.value!r}")


def gen_scores(directory: ChunkDirectory, model: ImportanceModel) -> np.ndarray:
    """One score per non-predictor chunk, in directory order.

    Predictor chunks consume no randomness, so adding or removing them
    from the geometry does not shift every other chunk's draw.  Each
    kind's distribution is resolved once, in the order the kinds first
    appear, and every scored chunk then costs one call of its kind's
    sampler on the shared stream.
    """
    rng = np.random.default_rng(model.seed)
    codes = directory.kind[directory.kind != _PREDICTOR].tolist()
    draws = {code: model.dist_for(KIND_LABELS[code]).sampler(rng) for code in dict.fromkeys(codes)}
    scores = np.array([draws[code]() for code in codes], np.float64)
    # Written so that a NaN fails it too.
    if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):
        raise AssertionError("score distribution left [0, 1]")
    return scores


@dataclass(frozen=True)
class ThresholdSet:
    """Strictly decreasing score cut points, one per retained ladder rung.

    A score at or above values[0] keeps the top format; between values[k]
    and values[k-1] it gets ladder[k]; below the last cut it is skipped.
    """

    values: tuple
    ladder: tuple

    def __post_init__(self) -> None:
        check_ladder(self.ladder)
        if len(self.values) != len(self.ladder) - 1:
            raise ValueError(
                f"{len(self.ladder)}-format ladder needs {len(self.ladder) - 1} "
                f"thresholds, got {len(self.values)}"
            )
        for t in self.values:
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"threshold {t} outside [0, 1]")
        for hi, lo in zip(self.values, self.values[1:]):
            if not hi > lo:
                raise ValueError("thresholds must be strictly decreasing")


@dataclass(frozen=True, eq=False)
class FormatAssignment:
    """Per-chunk formats in directory order: chunk i gets
    ladder[codes[i]], held as a read-only int64 column.  Predictors ride
    the top rung."""

    codes: np.ndarray
    ladder: tuple

    def __post_init__(self) -> None:
        codes = np.array(self.codes, np.int64).reshape(-1)
        ladder = tuple(self.ladder)
        if codes.size and not 0 <= codes.min() <= codes.max() < len(ladder):
            raise ValueError(f"format codes must lie in [0, {len(ladder)})")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "ladder", ladder)

    @property
    def loaded(self) -> np.ndarray:
        """Which chunks load anything: those not at the skip format."""
        return ~np.array([fmt.is_skip for fmt in self.ladder], bool)[self.codes]


def _bucket(scores: np.ndarray, cuts) -> np.ndarray:
    """Each score's ladder position under strictly decreasing cuts.

    A score gets the rung of the first cut it reaches (cuts[k] itself
    gets rung k), so its position counts the cuts above it.  On the
    negated cuts, which ascend, that count is a left-sided search.
    """
    return np.searchsorted(-np.asarray(cuts, np.float64), -scores, side="left")


def _checked_scores(directory: ChunkDirectory, scores: Sequence[float]):
    """(scores as float64, the scored-chunk mask): one score per
    non-predictor chunk, in chunk order, each in [0, 1].  A score
    outside it (NaN included) raises naming its chunk."""
    scores = np.asarray(scores, dtype=np.float64)
    scored = directory.kind != _PREDICTOR
    wanted = int(scored.sum())
    if scores.shape != (wanted,):
        raise ValueError(f"got {scores.size} scores for {wanted} scored chunks")
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    if outside.any():
        first = int(np.argmax(outside))
        chunk = int(np.flatnonzero(scored)[first])
        raise ValueError(f"score {float(scores[first])} of chunk {chunk} is not in [0, 1]")
    return scores, scored


def assign_formats(
    directory: ChunkDirectory, scores: Sequence[float], thresholds: ThresholdSet
) -> FormatAssignment:
    """Bucket every chunk by its score; predictors are pinned full width.
    A score outside [0, 1] raises, as in `solve_thresholds`."""
    scores, scored = _checked_scores(directory, scores)
    codes = np.zeros(len(directory), np.int64)
    codes[scored] = _bucket(scores, thresholds.values)
    return FormatAssignment(codes, thresholds.ladder)


def avg_bits(assignment: FormatAssignment, directory: ChunkDirectory) -> float:
    """Stored bits per non-predictor weight, skipped chunks counting 0:
    the average a sweep target names.  Predictors ride the top rung
    whatever the target and are left out; with no non-predictor weights
    the average is 0.0."""
    if assignment.codes.size != len(directory):
        raise ValueError("assignment does not match the directory")
    scored = directory.kind != _PREDICTOR
    weights = int(directory.length[scored].sum())
    if not weights:
        return 0.0
    widths = np.array([fmt.total_bits for fmt in assignment.ladder], np.int64)
    return int(np.dot(directory.length[scored], widths[assignment.codes[scored]])) / weights


@dataclass(frozen=True)
class BandProfile:
    """Shape of the solver's per-band occupancy curves.

    Band k's cumulative weight fraction at knob position theta is
    clip(sum_{j<=k} gains[j] * theta ** exponents[j], 0, 1).  Separate
    exponents let the in-use format mix shift as theta moves, which a
    single fixed quantile profile cannot do.
    """

    gains: tuple
    exponents: tuple

    def __post_init__(self) -> None:
        if len(self.gains) != len(self.exponents):
            raise ValueError("gains and exponents must pair up")
        if min(self.gains) <= 0 or min(self.exponents) <= 0:
            raise ValueError("band profile terms must be positive")


def _force_decreasing(raw: list) -> list:
    """Nudge raw quantiles into a strictly decreasing chain inside (0, 1].

    A band that holds no weight has the raw cut inf.  Such cuts come
    first (the bands are nested) and become the floats just below 1.0,
    one apart: above every score but one within that many floats of 1.0,
    so at the knob's zero every scored chunk is skipped.
    """
    eps = 1e-12
    out = list(raw)
    empty, cut = 0, 1.0
    while empty < len(out) and out[empty] == math.inf:
        out[empty], cut = cut, math.nextafter(cut, 0.0)
        empty += 1
    for k in range(max(empty, 1), len(out)):
        out[k] = min(out[k], out[k - 1] - eps)
    if out[-1] <= 0.0:
        # Collapsed at the bottom (everything already retained): park the
        # chain on a tiny positive staircase no real score dips under.
        tiny = 1e-15
        n = len(out)
        for k in range(n):
            out[k] = max(out[k], (n - k) * tiny)
        for k in range(1, n):
            out[k] = min(out[k], out[k - 1] - tiny)
    return out


def _band_indices(theta: float, profile: BandProfile, prefix: list) -> tuple:
    """Each band's quantile index at knob position theta.

    prefix[i] is the weight of the i highest-scoring chunks.  Band k's
    cumulative fraction clip(sum_{j<=k} gains[j] * theta ** exponents[j],
    0, 1) of that weight is first reached at the chunk of rank index_k,
    the lowest-scoring one for a fraction of 1, and -1 stands for a band
    that holds no weight.  No index falls as theta rises.
    """
    mass = prefix[-1]
    last = len(prefix) - 2
    out = []
    total = 0.0
    for gain, exponent in zip(profile.gains, profile.exponents):
        total += gain * theta**exponent
        want = min(max(total, 0.0), 1.0) * mass
        out.append(-1 if want <= 0.0 else min(bisect.bisect_left(prefix, want) - 1, last))
    return tuple(out)


def solve_thresholds(
    directory: ChunkDirectory,
    scores: Sequence[float],
    target_avg_bits: float,
    ladder: Sequence[FpFormat],
    profile: BandProfile,
) -> ThresholdSet:
    """Find thresholds whose assignment averages target_avg_bits per
    non-predictor weight, the average `avg_bits` measures.

    Monotone bisection over a single knob: the knob position fixes a
    cumulative weight fraction per band via the profile, each fraction
    becomes a weighted score quantile, and the resulting average rises
    monotonically with the knob.  Tolerance is +/-0.05 bits.  An
    unreachable target raises with the achievable range, and a score
    outside [0, 1] (NaN included) raises naming its chunk.  With no
    scored chunks the cuts decide nothing, and any target gets the same
    staircase.

    The scores are sorted once per call.  A step then costs one bisect
    per band into integer prefix sums of the chunk lengths for the
    quantiles, and one per cut for the average: the weight scoring at or
    above each cut, differenced and weighted by the rung widths.  Every
    partial sum is an integer below 2**53, so the average is the float
    a per-chunk dot product gives.  The bisection stops once the band
    indices at its two ends differ in one band by one index, or not at
    all: no index falls as the knob rises, so every knob between the
    ends gives one of the two threshold sets already measured, and the
    best set changes only on a strictly smaller error.
    """
    ladder = tuple(ladder)
    if len(profile.gains) != len(ladder) - 1:
        raise ValueError("band profile does not match the ladder")
    scores, scored = _checked_scores(directory, scores)
    lens = directory.length[scored]

    if scores.size == 0:
        n = len(ladder) - 1
        return ThresholdSet(tuple((n - k) / (n + 1) for k in range(n)), ladder)

    # Chunks in descending score order: neg[i] is minus the score of
    # rank i, so neg ascends, and prefix[i] is the weight of the i
    # highest-scoring chunks.  Ties may go in any order: no cut or
    # average depends on it.
    negated = -scores
    order = np.argsort(negated)
    neg = negated[order].tolist()
    prefix = np.concatenate(([0], np.cumsum(lens[order]))).tolist()
    mass = prefix[-1]
    widths = [f.total_bits for f in ladder[:-1]]

    def measure(indices: tuple) -> tuple:
        """(cuts, average) of the set the band indices give.  A chunk
        scoring at or above cut k and below cut k-1 gets rung k, as in
        assign_formats, and the skip rung counts 0 bits."""
        cuts = _force_decreasing([-neg[i] if i >= 0 else math.inf for i in indices])
        bits = above = 0
        for width, cut in zip(widths, cuts):
            reached = prefix[bisect.bisect_right(neg, -cut)]
            bits += width * (reached - above)
            above = reached
        return tuple(cuts), bits / mass

    lo, hi = 0.0, THETA_MAX
    lo_at, hi_at = _band_indices(lo, profile, prefix), _band_indices(hi, profile, prefix)
    (lo_set, lo_avg), (hi_set, hi_avg) = measure(lo_at), measure(hi_at)
    if not lo_avg - 0.05 <= target_avg_bits <= hi_avg + 0.05:
        raise ValueError(
            f"target {target_avg_bits} bits/weight is outside the achievable range"
            f" [{lo_avg:.3f}, {hi_avg:.3f}]"
        )

    best_set, best_err = lo_set, abs(lo_avg - target_avg_bits)
    if abs(hi_avg - target_avg_bits) < best_err:
        best_set, best_err = hi_set, abs(hi_avg - target_avg_bits)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi or sum(abs(a - b) for a, b in zip(lo_at, hi_at)) <= 1:
            # No float lies between lo and hi, or every knob between
            # them gives the set at lo or at hi: every step from here on
            # measures a set already measured, and cannot change best.
            break
        at = _band_indices(mid, profile, prefix)
        values, got = measure(at)
        if abs(got - target_avg_bits) < best_err:
            best_set, best_err = values, abs(got - target_avg_bits)
        if got < target_avg_bits:
            lo, lo_at = mid, at
        else:
            hi, hi_at = mid, at
    return ThresholdSet(best_set, ladder)


def gen_trace(
    assignment: FormatAssignment,
    directory: ChunkDirectory,
    mode: str,
    guard: GuardConfig,
) -> Trace:
    """Physical request stream for loading the whole model once.

    Chunks go out in directory order, each chunk's rows contiguous;
    skipped chunks emit nothing in either mode.  bitplane mode resolves
    each chunk in the bloated logical space and fetches only the planes
    its format needs, one row per plane span, trimmed against a
    per-plane high-water mark so a block straddling two chunks is never
    fetched twice.  traditional mode streams each chunk's full-width
    words from its packed extent, one row per extent; it has no logical
    space, so it never resolves.  Both layouts are the canonical
    placement for the directory.

    The work runs on the directory's and the assignment's columns: one
    translate_traditional call, or one resolve call for all loaded
    chunks and then one translate call.
    """
    if mode not in TRACE_MODES:
        raise ValueError(f"mode must be one of {TRACE_MODES}, got {mode!r}")
    if assignment.codes.size != len(directory):
        raise ValueError("assignment does not match the directory")
    loaded = assignment.loaded
    kind = directory.kind[loaded].astype(np.int32)
    chunk = np.flatnonzero(loaded).astype(np.int32)
    if mode == "traditional":
        extent_lo, extent_size = translate_traditional(directory, loaded)
        return Trace(extent_lo, extent_size, kind, KIND_LABELS, chunk)

    # Each loaded chunk becomes one read of its format's region (the
    # skip format has none, and no chunk at it is read).
    table = build_regions(directory.num_weights, assignment.ladder)
    bases = {region.fmt: region.base_bit for region in table.regions}
    ladder = assignment.ladder
    rung_base = np.array([bases.get(fmt, 0) for fmt in ladder], np.int64)
    rung_bits = np.array([fmt.total_bits for fmt in ladder], np.int64)
    code = assignment.codes[loaded]
    start, length = directory.start[loaded], directory.length[loaded]
    reads = resolve(table, rung_base[code] + start * rung_bits[code], length * rung_bits[code])
    # Map each plane span to its loaded chunk.
    read, planes, lo, size = translate(table, *reads, guard)
    keep, addr, size = _trim_seams(planes, lo, size)
    row_chunk = read[keep]
    return Trace(addr, size, kind[row_chunk], KIND_LABELS, chunk[row_chunk])


def _trim_seams(planes: np.ndarray, lo: np.ndarray, size: np.ndarray) -> tuple:
    """Drop from each span the blocks an earlier span on its plane fetched.

    Spans are in trace order.  Returns (keep, addr, size): which spans
    still fetch anything, and what each kept span fetches.
    """
    first = lo // BLOCK
    last = (lo + size) // BLOCK - 1
    # High-water mark: the last block fetched on the span's plane so far,
    # -1 if none.  A plane's spans come in chunk order and chunks in
    # weight order, so that is the last block of the plane's previous span.
    # Plane numbers lie in 0..15: as int16 keys the stable sort takes
    # numpy's radix path, in the same order.
    order = np.argsort(planes.astype(np.int16), kind="stable")
    by_plane = planes[order]
    previous = np.r_[-1, last[order][:-1]]
    previous[np.r_[True, by_plane[1:] != by_plane[:-1]]] = -1
    high_water = np.empty_like(last)
    high_water[order] = previous
    start = np.maximum(first, high_water + 1)
    keep = start <= last
    start, last = start[keep], last[keep]
    return keep, start * BLOCK, (last - start + 1) * BLOCK


def trace_bytes(trace: Trace) -> int:
    return BLOCK * len(trace)


def bytes_by_kind(trace: Trace) -> dict:
    """Total trace bytes per tag label (the fetched-bits breakdown).
    Every request must carry a tag."""
    return dict(zip(trace.labels, trace.bytes_by_tag().tolist()))


def predictor_share(breakdown: Mapping) -> float:
    """Predictor fraction of a per-kind breakdown (bytes or energy)."""
    total = sum(breakdown.values())
    if total <= 0:
        return 0.0
    return breakdown.get(ChunkKind.PREDICTOR, 0.0) / total
