"""Comparison pipeline: one assignment, two layouts, measured reductions.

This is the layer the CLI binds: given a geometry, a score model and a
target bits/weight sweep, it solves thresholds, generates the bitplane
and traditional traces for the same assignment, runs both through the
DRAM model, and reduces the results to the quantities the comparison is
about: total energy and latency, per-kind per-weight energy, per-kind
mean chunk load latency, byte totals and the predictor's share.

Sweep targets are quoted as the average over non-predictor weights (the
natural knob: predictors are pinned full width and would otherwise drag
the floor up).  The threshold solver works on the inclusive average, so
each sweep point converts via 16p + x(1-p) with p the predictor weight
fraction.
"""

from __future__ import annotations

import numpy as np

from .bitplane import ChunkDirectory, ChunkKind
from .dram import DramConfig, energy_breakdown, run_trace
from .quant import DEFAULT_LADDER, NO_GUARD, GuardConfig
from .workload import (
    FormatAssignment,
    ImportanceModel,
    assign_formats,
    avg_bits,
    bytes_by_kind,
    gen_scores,
    gen_trace,
    predictor_share,
    solve_thresholds,
    trace_bytes,
    DEFAULT_BAND_PROFILE,
    BandProfile,
)

KIND_ORDER = (ChunkKind.ATTENTION_HEAD, ChunkKind.MLP_NEURON, ChunkKind.PREDICTOR)


def predictor_fraction(directory: ChunkDirectory) -> float:
    pinned = sum(c.length for c in directory if c.kind is ChunkKind.PREDICTOR)
    return pinned / directory.num_weights


def solver_target(non_predictor_bits: float, predictor_frac: float) -> float:
    """Inclusive average implied by a non-predictor sweep value."""
    return 16.0 * predictor_frac + non_predictor_bits * (1.0 - predictor_frac)


def chunk_latency_deltas(trace, result, clock_ns: float) -> dict:
    """Marginal load time per chunk: how far the trace clock advances
    while that chunk's requests complete.  A chunk's rows are one
    contiguous segment of the trace's chunk column, and the chunk is
    loaded when the latest of its requests completes, which on a
    multi-channel trace need not be its last one.  Prefix-max keeps the
    deltas non-negative when channels finish slightly out of order."""
    chunk = trace.chunk
    if not chunk.size:
        return {}
    first = np.r_[0, np.flatnonzero(chunk[1:] != chunk[:-1]) + 1]
    done = np.maximum.reduceat(result.completion_cycles, first)
    ends = np.maximum.accumulate(np.r_[0, done])
    deltas = np.diff(ends) * clock_ns
    return dict(zip(chunk[first].tolist(), deltas.tolist()))


def run_mode(
    directory: ChunkDirectory,
    assignment: FormatAssignment,
    mode: str,
    guard: GuardConfig,
    dram_config: DramConfig,
) -> dict:
    """Trace one mode, simulate it, and summarize what the report needs."""
    trace = gen_trace(assignment, directory, mode, guard)
    result = run_trace(dram_config, trace)
    energy_by_kind = energy_breakdown(result, trace.tag, trace.labels)
    byte_split = bytes_by_kind(trace)
    deltas = chunk_latency_deltas(trace, result, dram_config.clock_ns)

    kinds = {}
    for kind in KIND_ORDER:
        chunks = [
            (c, f) for c, f in zip(directory, assignment.formats) if c.kind is kind
        ]
        if not chunks:
            continue
        weights = sum(c.length for c, _ in chunks)
        live = [c for c, f in chunks if not f.is_skip]
        # A fully deduplicated chunk advanced the clock by nothing; it
        # still counts, it is simply a zero-cost load.
        latencies = [deltas.get(c.chunk_id, 0.0) for c in live]
        kinds[kind.value] = {
            "bytes": byte_split.get(kind, 0),
            "energy_pj": energy_by_kind.get(kind, 0.0),
            "energy_per_weight_pj": energy_by_kind.get(kind, 0.0) / weights,
            "mean_chunk_latency_ns": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "loaded_chunks": len(live),
            "total_chunks": len(chunks),
            "weights": weights,
        }

    return {
        "bytes": trace_bytes(trace),
        "requests": len(trace),
        "total_latency_ns": result.total_ns,
        "total_energy_pj": result.energy_pj["total"],
        "energy_breakdown_pj": {
            "activation": result.energy_pj["activation"],
            "read": result.energy_pj["read"],
            "background": result.energy_pj["background"],
        },
        "predictor_byte_share": predictor_share(byte_split),
        "per_kind": kinds,
    }


def _reduction(traditional: float, bitplane: float) -> float:
    """Percent reduction, the headline sense: 1 - bitplane/traditional."""
    if traditional == 0:
        return 0.0
    return 100.0 * (1.0 - bitplane / traditional)


def compare_assignment(
    directory: ChunkDirectory,
    assignment: FormatAssignment,
    guard: GuardConfig,
    dram_config: DramConfig,
) -> dict:
    """Run both layouts for one fixed assignment and diff them."""
    modes = {
        mode: run_mode(directory, assignment, mode, guard, dram_config)
        for mode in ("bitplane", "traditional")
    }
    smart, plain = modes["bitplane"], modes["traditional"]
    per_kind = {}
    for key in plain["per_kind"]:
        if key not in smart["per_kind"]:
            continue
        per_kind[key] = {
            "energy_per_weight_pct": _reduction(
                plain["per_kind"][key]["energy_per_weight_pj"],
                smart["per_kind"][key]["energy_per_weight_pj"],
            ),
            "mean_chunk_latency_pct": _reduction(
                plain["per_kind"][key]["mean_chunk_latency_ns"],
                smart["per_kind"][key]["mean_chunk_latency_ns"],
            ),
        }
    reductions = {
        "bytes_pct": _reduction(plain["bytes"], smart["bytes"]),
        "total_energy_pct": _reduction(
            plain["total_energy_pj"], smart["total_energy_pj"]
        ),
        "total_latency_pct": _reduction(
            plain["total_latency_ns"], smart["total_latency_ns"]
        ),
        "per_kind": per_kind,
    }
    return {"modes": modes, "reductions": reductions}


def compare_target(
    directory: ChunkDirectory,
    scores,
    target_bits: float,
    guard: GuardConfig = NO_GUARD,
    dram_config: DramConfig = None,
    ladder=DEFAULT_LADDER,
    profile: BandProfile = DEFAULT_BAND_PROFILE,
) -> dict:
    """One sweep point: solve, assign, trace and simulate both modes."""
    dram_config = dram_config or DramConfig()
    frac = predictor_fraction(directory)
    inclusive = solver_target(target_bits, frac)
    thresholds = solve_thresholds(directory, scores, inclusive, ladder, profile)
    assignment = assign_formats(directory, scores, thresholds)
    out = {
        "target_bits": target_bits,
        "solver_target_bits": inclusive,
        "achieved_avg_bits": avg_bits(assignment, directory),
        "thresholds": list(thresholds.values),
        "formats": {
            fmt.name: sum(1 for f in assignment.formats if f is fmt)
            for fmt in ladder
        },
    }
    out.update(compare_assignment(directory, assignment, guard, dram_config))
    return out


def run_sweep(
    directory: ChunkDirectory,
    model: ImportanceModel,
    targets,
    guard: GuardConfig = NO_GUARD,
    dram_config: DramConfig = None,
    ladder=DEFAULT_LADDER,
    profile: BandProfile = DEFAULT_BAND_PROFILE,
) -> list:
    """The full grid: every target, both modes, one score draw."""
    scores = gen_scores(directory, model)
    return [
        compare_target(directory, scores, t, guard, dram_config, ladder, profile)
        for t in targets
    ]
