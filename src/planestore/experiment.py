"""Comparison pipeline: one assignment, two layouts, measured reductions.

This is the layer the CLI binds: given a geometry, a score model and a
target bits/weight sweep, it solves thresholds, generates the bitplane
and traditional traces for the same assignment, runs both through the
DRAM model, and reduces the results to the quantities the comparison is
about: total energy and latency, per-kind per-weight energy, per-kind
mean chunk load latency, byte totals and the predictor's share.

Sweep targets, the solver and the reported average all count bits per
non-predictor weight: predictors ride the top rung whatever the target.
"""

from __future__ import annotations

import numpy as np

from . import dram
from .address import _heads
from .bitplane import KIND_LABELS, ChunkDirectory
from .dram import DramConfig, energy_breakdown
from .quant import GuardConfig
from .workload import (
    TRACE_MODES,
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
    BandProfile,
)


def solve_assignment(directory, scores, target_bits: float, ladder, profile: BandProfile):
    """(thresholds, assignment) for one sweep value: the one solve step
    `compare` and `trace` share."""
    thresholds = solve_thresholds(directory, scores, target_bits, ladder, profile)
    return thresholds, assign_formats(directory, scores, thresholds)


def chunk_latency_deltas(trace, result, dram_config: DramConfig, num_chunks: int) -> np.ndarray:
    """Marginal load time of each of num_chunks directory chunks, 0 for a
    chunk with no rows: how far the trace clock advances while that
    chunk's requests complete.  result is the simulated trace's, whose
    requests are its rows, each loading the chunk the trace names.  A
    chunk is loaded when the latest of its rows completes, which on a
    multi-channel trace need not be its last one.  Chunks are taken in
    the order the trace first names them, however many segments of the
    chunk column their rows form, and a chunk's delta is how far its
    completion moves the running maximum of the completions before it.
    The maximum keeps the deltas non-negative when channels finish out
    of order, and the deltas add up to the latest completion."""
    latency = np.zeros(num_chunks)
    chunk = trace.chunk
    if chunk.size:
        if chunk.min() < 0:
            raise ValueError(f"trace row {int(np.argmax(chunk < 0))} loads no chunk")
        result.check_requests(chunk.size)
        heads = _heads(chunk)
        segments = chunk[heads]
        loaded = np.zeros(num_chunks, np.int64)
        np.maximum.at(loaded, segments, np.maximum.reduceat(result.completion, heads))
        ids, first = np.unique(segments, return_index=True)
        order = ids[np.argsort(first)]
        ends = np.maximum.accumulate(np.r_[0, loaded[order]])
        latency[order] = np.diff(ends) * dram_config.clock_ns
    return latency


def layer_cuts(directory: ChunkDirectory, trace) -> np.ndarray:
    """The trace rows whose chunk lies in another layer than the row
    before's: cut there, the engine holds one layer's run table at a time,
    and any cuts give the same result."""
    layer = directory.layer[trace.chunk]
    return np.flatnonzero(layer[1:] != layer[:-1]) + 1


def run_mode(
    directory: ChunkDirectory,
    assignment: FormatAssignment,
    mode: str,
    guard: GuardConfig,
    dram_config: DramConfig,
) -> dict:
    """Trace one mode, simulate it layer by layer, and summarize what the
    report needs."""
    trace = gen_trace(assignment, directory, mode, guard)
    # Through the module: benchmarks/tracer.py wraps dram.simulate by name.
    result = dram.simulate(dram_config, trace, layer_cuts(directory, trace))
    energy_by_kind = energy_breakdown(result, trace)
    byte_split = bytes_by_kind(trace)
    # A fully deduplicated chunk advanced the clock by nothing; it still
    # counts, it is simply a zero-cost load.
    latency = chunk_latency_deltas(trace, result, dram_config, len(directory))
    loaded = assignment.loaded
    kinds = {}
    for code, kind in enumerate(KIND_LABELS):
        of_kind = directory.kind == code
        total_chunks = int(of_kind.sum())
        if not total_chunks:
            continue
        weights = int(directory.length[of_kind].sum())
        # A sequential sum in directory order: a pairwise sum would move
        # the report's last bits.
        latencies = latency[of_kind & loaded].tolist()
        kinds[kind.value] = {
            "bytes": byte_split.get(kind, 0),
            "energy_pj": energy_by_kind.get(kind, 0.0),
            "energy_per_weight_pj": energy_by_kind.get(kind, 0.0) / weights,
            "mean_chunk_latency_ns": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "loaded_chunks": len(latencies),
            "total_chunks": total_chunks,
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


# (raw field, reduction field) pairs: each reduction is the cut in the
# raw field from the traditional mode to the bitplane one, for the
# totals and for each chunk kind.
TOTAL_REDUCTIONS = (
    ("bytes", "bytes_pct"),
    ("total_energy_pj", "total_energy_pct"),
    ("total_latency_ns", "total_latency_pct"),
)
KIND_REDUCTIONS = (
    ("energy_per_weight_pj", "energy_per_weight_pct"),
    ("mean_chunk_latency_ns", "mean_chunk_latency_pct"),
)


def reduction(traditional: float, bitplane: float) -> float:
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
        mode: run_mode(directory, assignment, mode, guard, dram_config) for mode in TRACE_MODES
    }

    def reductions_of(pairs, smart, plain) -> dict:
        return {pct: reduction(plain[raw], smart[raw]) for raw, pct in pairs}

    smart, plain = modes["bitplane"], modes["traditional"]
    reductions = reductions_of(TOTAL_REDUCTIONS, smart, plain)
    reductions["per_kind"] = {
        key: reductions_of(KIND_REDUCTIONS, smart["per_kind"][key], plain["per_kind"][key])
        for key in plain["per_kind"]
    }
    return {"modes": modes, "reductions": reductions}


def compare_target(
    directory: ChunkDirectory,
    scores,
    target_bits: float,
    guard: GuardConfig,
    dram_config: DramConfig,
    ladder,
    profile: BandProfile,
) -> dict:
    """One sweep point: solve, assign, trace and simulate both modes."""
    thresholds, assignment = solve_assignment(directory, scores, target_bits, ladder, profile)
    out = {
        "target_bits": target_bits,
        "achieved_avg_bits": avg_bits(assignment, directory),
        "thresholds": list(thresholds.values),
        "formats": dict(
            zip(
                (fmt.name for fmt in ladder),
                np.bincount(assignment.codes, minlength=len(ladder)).tolist(),
            )
        ),
    }
    out.update(compare_assignment(directory, assignment, guard, dram_config))
    return out


def run_sweep(
    directory: ChunkDirectory,
    model: ImportanceModel,
    targets,
    guard: GuardConfig,
    dram_config: DramConfig,
    ladder,
    profile: BandProfile,
) -> list:
    """The full grid: every target, both modes, one score draw."""
    scores = gen_scores(directory, model)
    return [
        compare_target(directory, scores, t, guard, dram_config, ladder, profile)
        for t in targets
    ]
