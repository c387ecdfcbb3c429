"""Synthetic model geometry, importance scores, format assignment, traces.

The pipeline here stands in for a real transformer checkpoint plus its
trained importance predictors.  Geometry decides how the weight space is
chunked (attention heads, MLP neurons, one predictor chunk per layer);
a seeded score model decides how important each non-predictor chunk is;
a threshold set maps scores to ladder formats; and the trace generator
turns an assignment into the physical request stream each storage layout
would issue, as a `Trace` whose tags index `KIND_LABELS` and whose chunk
column holds directory ids.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .address import (
    BLOCK,
    LogicalRead,
    RegionTable,
    Trace,
    TraditionalLayout,
    build_regions,
    resolve,
    translate,
    translate_traditional,
)
from .bitplane import (
    Chunk,
    ChunkDirectory,
    ChunkKind,
    PlaneLayout,
    plane_stride_for,
)
from .quant import DEFAULT_LADDER, NO_GUARD, FpFormat, GuardConfig

TRACE_MODES = ("bitplane", "traditional")

# Tag labels of every trace gen_trace builds: a row's tag is its chunk
# kind's position here.
KIND_LABELS = tuple(ChunkKind)
_KIND_CODE = {kind: code for code, kind in enumerate(KIND_LABELS)}

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
    """Tile the weight space: per layer heads, then neurons, then predictor."""
    chunks = []
    start = 0

    def add(length: int, kind: ChunkKind) -> None:
        nonlocal start
        chunks.append(Chunk(len(chunks), start, length, kind))
        start += length

    for _ in range(geometry.layers):
        for _ in range(geometry.heads_per_layer):
            add(geometry.weights_per_head, ChunkKind.ATTENTION_HEAD)
        for _ in range(geometry.neurons_per_layer):
            add(geometry.weights_per_neuron, ChunkKind.MLP_NEURON)
        if geometry.predictor_weights_per_layer:
            add(geometry.predictor_weights_per_layer, ChunkKind.PREDICTOR)
    return ChunkDirectory(start, tuple(chunks))


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
        if self.family not in ("uniform", "beta", "two_point", "beta_mixture"):
            raise ValueError(f"unknown score distribution {self.family!r}")
        if min(self.a, self.b, self.a_lo, self.b_lo) <= 0:
            raise ValueError("beta shape parameters must be positive")
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError("mixture weight must lie in [0, 1]")

    def draw(self, rng: np.random.Generator) -> float:
        # Draw order is part of the determinism contract: one uniform for
        # the simple families, uniform-then-beta for the mixture.
        if self.family == "uniform":
            return float(rng.random())
        if self.family == "beta":
            return float(rng.beta(self.a, self.b))
        if self.family == "two_point":
            return 1.0 if rng.random() < self.mix else 0.0
        hi = rng.random() < self.mix
        a, b = (self.a, self.b) if hi else (self.a_lo, self.b_lo)
        return float(rng.beta(a, b))


@dataclass(frozen=True, eq=False)
class ImportanceModel:
    """Seeded per-kind score distributions.  distribution may be a single
    ScoreDistribution for every kind or a mapping keyed by ChunkKind."""

    seed: int
    distribution: object

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be unsigned")

    def dist_for(self, kind: ChunkKind) -> ScoreDistribution:
        if isinstance(self.distribution, ScoreDistribution):
            return self.distribution
        try:
            return self.distribution[kind]
        except KeyError:
            raise ValueError(f"no score distribution for chunk kind {kind.value!r}")


def gen_scores(directory: ChunkDirectory, model: ImportanceModel) -> np.ndarray:
    """One score per non-predictor chunk, in directory order.

    Predictor chunks consume no randomness, so adding or removing them
    from the geometry does not shift every other chunk's draw.
    """
    rng = np.random.default_rng(model.seed)
    out = []
    for chunk in directory:
        if chunk.kind is ChunkKind.PREDICTOR:
            continue
        score = model.dist_for(chunk.kind).draw(rng)
        out.append(score)
    scores = np.asarray(out, dtype=np.float64)
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise AssertionError("score distribution left [0, 1]")
    return scores


@dataclass(frozen=True)
class ThresholdSet:
    """Strictly decreasing score cut points, one per retained ladder rung.

    A score at or above values[0] keeps the top format; between values[k]
    and values[k-1] it gets ladder[k]; below the last cut it is skipped.
    """

    values: tuple
    ladder: tuple = DEFAULT_LADDER

    def __post_init__(self) -> None:
        if len(self.ladder) < 2:
            raise ValueError("ladder needs a top format and a skip level")
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
        widths = [f.total_bits for f in self.ladder]
        if sorted(widths, reverse=True) != widths or len(set(widths)) != len(widths):
            raise ValueError("ladder must be strictly decreasing in width")

    def format_for(self, score: float) -> FpFormat:
        for t, fmt in zip(self.values, self.ladder):
            if score >= t:
                return fmt
        return self.ladder[-1]


@dataclass(frozen=True)
class FormatAssignment:
    """Per-chunk formats in directory order; predictors ride the top rung."""

    formats: tuple
    ladder: tuple

    def __post_init__(self) -> None:
        allowed = set(self.ladder)
        for fmt in self.formats:
            if fmt not in allowed:
                raise ValueError(f"format {fmt.name} is not on the ladder")


def assign_formats(
    directory: ChunkDirectory, scores: Sequence[float], thresholds: ThresholdSet
) -> FormatAssignment:
    """Bucket every chunk by its score; predictors are pinned full width."""
    scores = np.asarray(scores, dtype=np.float64)
    wanted = sum(1 for c in directory if c.kind is not ChunkKind.PREDICTOR)
    if scores.size != wanted:
        raise ValueError(f"got {scores.size} scores for {wanted} scored chunks")
    formats = []
    i = 0
    for chunk in directory:
        if chunk.kind is ChunkKind.PREDICTOR:
            formats.append(thresholds.ladder[0])
        else:
            formats.append(thresholds.format_for(float(scores[i])))
            i += 1
    return FormatAssignment(tuple(formats), tuple(thresholds.ladder))


def avg_bits(assignment: FormatAssignment, directory: ChunkDirectory) -> float:
    """Weight-weighted stored bits per weight, skipped chunks counting 0."""
    if len(assignment.formats) != len(directory):
        raise ValueError("assignment does not match the directory")
    total = sum(
        chunk.length * fmt.total_bits
        for chunk, fmt in zip(directory, assignment.formats)
    )
    return total / directory.num_weights


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


DEFAULT_BAND_PROFILE = BandProfile(
    gains=(0.0646, 0.0569, 0.0549, 0.0068, 0.0031),
    exponents=(0.7944, 0.7475, 0.9899, 1.9866, 2.1518),
)


def _force_decreasing(raw: list) -> list:
    """Nudge raw quantiles into a strictly decreasing chain inside (0, 1]."""
    eps = 1e-12
    out = list(raw)
    for k in range(1, len(out)):
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


def solve_thresholds(
    directory: ChunkDirectory,
    scores: Sequence[float],
    target_avg_bits: float,
    ladder: Sequence[FpFormat] = DEFAULT_LADDER,
    profile: BandProfile = DEFAULT_BAND_PROFILE,
) -> ThresholdSet:
    """Find thresholds whose assignment averages target_avg_bits per weight.

    Monotone bisection over a single knob: the knob position fixes a
    cumulative weight fraction per band via the profile, each fraction
    becomes a weighted score quantile, and the resulting average rises
    monotonically with the knob.  The average counts predictors at full
    width; tolerance is +/-0.05 bits.  An unreachable target raises with
    the achievable range.
    """
    ladder = tuple(ladder)
    if len(profile.gains) != len(ladder) - 1:
        raise ValueError("band profile does not match the ladder")
    scores = np.asarray(scores, dtype=np.float64)
    lens = np.asarray(
        [c.length for c in directory if c.kind is not ChunkKind.PREDICTOR],
        dtype=np.float64,
    )
    if scores.shape != lens.shape:
        raise ValueError(f"got {scores.size} scores for {lens.size} scored chunks")
    pinned = sum(c.length for c in directory if c.kind is ChunkKind.PREDICTOR)
    pinned_bits = pinned * ladder[0].total_bits
    total_weights = directory.num_weights
    widths = np.asarray([f.total_bits for f in ladder[:-1]], dtype=np.float64)

    if scores.size == 0:
        fixed = pinned_bits / total_weights
        if abs(fixed - target_avg_bits) > 0.05:
            raise ValueError(
                f"target {target_avg_bits} bits/weight is outside the achievable "
                f"range [{fixed:.3f}, {fixed:.3f}]"
            )
        n = len(ladder) - 1
        return ThresholdSet(tuple((n - k) / (n + 1) for k in range(n)), ladder)

    order = np.argsort(-scores, kind="stable")
    s_desc = scores[order]
    cum = np.cumsum(lens[order])
    mass = float(cum[-1])

    def quantile(fraction: float) -> float:
        want = fraction * mass
        if want <= 0.0:
            return min(1.0, float(np.nextafter(s_desc[0], 2.0)))
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
        return (pinned_bits + float(np.dot(lens, bits))) / total_weights

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


def gen_trace(
    assignment: FormatAssignment,
    directory: ChunkDirectory,
    mode: str,
    guard: GuardConfig = NO_GUARD,
    region_table: RegionTable = None,
    plane_layout: PlaneLayout = None,
    traditional_layout: TraditionalLayout = None,
) -> Trace:
    """Physical request stream for loading the whole model once.

    Chunks go out in directory order, each chunk's rows contiguous;
    skipped chunks emit nothing in either mode.  bitplane mode resolves
    each chunk in the bloated logical space and fetches only the planes
    its format needs, one request per plane span, trimmed against a
    per-plane high-water mark so a block straddling two chunks is never
    fetched twice.  traditional mode streams each chunk's full-width
    words from its packed extent, one request per block.  Layouts
    default to the canonical placement for the directory when not
    supplied.
    """
    if mode not in TRACE_MODES:
        raise ValueError(f"mode must be one of {TRACE_MODES}, got {mode!r}")
    if len(assignment.formats) != len(directory):
        raise ValueError("assignment does not match the directory")
    table = region_table or build_regions(directory.num_weights, assignment.ladder)
    bases = {region.fmt: region.base_bit for region in table.regions}
    if mode == "bitplane":
        layout = plane_layout or PlaneLayout(
            directory.num_weights, plane_stride_for(directory.num_weights)
        )
    else:
        layout = traditional_layout or TraditionalLayout.from_directory(directory)

    # Per loaded chunk: its id, kind code and spans (extents in
    # traditional mode, where each chunk has exactly one).
    chunk_ids, kind_codes, planes, lo, size = [], [], [], [], []
    for chunk, fmt in zip(directory, assignment.formats):
        if fmt.is_skip:
            continue
        if fmt not in bases:
            raise ValueError(f"format {fmt.name} has no region in the table")
        read = LogicalRead(
            bases[fmt] + chunk.start * fmt.total_bits, chunk.length * fmt.total_bits
        )
        resolved = resolve(table, read)
        if mode == "traditional":
            extent_lo, extent_size = translate_traditional(resolved, layout)
            lo.append(extent_lo)
            size.append(extent_size)
        else:
            span_planes, span_lo, span_size = translate(resolved, guard, layout)
            planes.append(span_planes)
            lo.append(span_lo)
            size.append(span_size)
        chunk_ids.append(chunk.chunk_id)
        kind_codes.append(_KIND_CODE[chunk.kind])

    # Map each request row to its position in the loaded-chunk lists.
    if mode == "traditional":
        # One extent per chunk, issued one block at a time.
        extent_lo, blocks = np.array(lo, np.int64), np.array(size, np.int64) // BLOCK
        row_chunk = np.repeat(np.arange(blocks.size), blocks)
        block = np.arange(row_chunk.size) - np.repeat(np.cumsum(blocks) - blocks, blocks)
        addr = extent_lo[row_chunk] + block * BLOCK
        size = np.full(addr.size, BLOCK, np.int64)
    else:
        empty = np.zeros(0, np.int64)
        keep, addr, size = _trim_seams(
            *(np.concatenate([empty, *spans]) for spans in (planes, lo, size))
        )
        row_chunk = np.repeat(np.arange(len(planes)), [p.size for p in planes])[keep]
    return Trace(
        addr,
        size,
        np.array(kind_codes, np.int32)[row_chunk],
        KIND_LABELS,
        np.array(chunk_ids, np.int32)[row_chunk],
    )


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
    order = np.argsort(planes, kind="stable")
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
    return int(trace.size.sum())


def bytes_by_kind(trace: Trace) -> dict:
    """Total trace bytes per tag label (the fetched-bits breakdown)."""
    # Byte counts stay far below 2**53, so the float sums are exact.
    totals = np.bincount(trace.tag, weights=trace.size, minlength=len(trace.labels))
    return {label: int(total) for label, total in zip(trace.labels, totals)}


def predictor_share(breakdown: Mapping) -> float:
    """Predictor fraction of a per-kind breakdown (bytes or energy)."""
    total = sum(breakdown.values())
    if total <= 0:
        return 0.0
    return breakdown.get(ChunkKind.PREDICTOR, 0.0) / total
