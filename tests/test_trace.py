"""The columnar trace generator against the per-object reference.

`gen_trace` must emit, row for row, the address, size, kind and chunk
that reference.py's `reference_trace` emits: on every trace of the
default sweep and on random geometries, assignments, ladders and
guards.  Also checked: the Trace type's own validation, and how many
bytes the bitplane layout can fetch beyond the traditional one.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.address import Trace
from planestore.config import load_config
from planestore.experiment import predictor_fraction, solver_target
from planestore.quant import DEFAULT_LADDER, FP0, FP16, GuardConfig, plane_set
from planestore.workload import (
    KIND_LABELS,
    FormatAssignment,
    ModelGeometry,
    assign_formats,
    enumerate_chunks,
    gen_scores,
    gen_trace,
    solve_thresholds,
)

from reference import reference_trace

DEFAULT_YAML = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"


def rows_of(trace):
    """A Trace as (addr, size, kind, chunk_id) tuples."""
    assert trace.labels == KIND_LABELS
    kinds = [trace.labels[code] for code in trace.tag.tolist()]
    return list(zip(trace.addr.tolist(), trace.size.tolist(), kinds, trace.chunk.tolist()))


def assert_matches_reference(assignment, directory, mode, guard):
    trace = gen_trace(assignment, directory, mode, guard)
    expected = reference_trace(assignment, directory, mode, guard)
    assert rows_of(trace) == [tuple(row) for row in expected]
    return trace


def test_default_sweep_traces_match_reference():
    cfg = load_config(str(DEFAULT_YAML), seed=1234, env={})
    directory = enumerate_chunks(cfg.geometry)
    scores = gen_scores(directory, cfg.importance)
    frac = predictor_fraction(directory)
    requests = {}
    for target in cfg.targets:
        thresholds = solve_thresholds(
            directory, scores, solver_target(target, frac), cfg.ladder, cfg.band_profile
        )
        assignment = assign_formats(directory, scores, thresholds)
        for mode in ("bitplane", "traditional"):
            requests[target, mode] = len(
                assert_matches_reference(assignment, directory, mode, cfg.guard)
            )
    assert len(requests) == 10
    assert requests[8.0, "traditional"] == 198_396


# --- random geometries, ladders, assignments and guards ---------------------

# Lengths that are not multiples of 512 weights put plane seams mid-block;
# zero counts drop a kind from the geometry.
geometries = st.builds(
    ModelGeometry,
    layers=st.integers(1, 2),
    heads_per_layer=st.integers(1, 4),
    weights_per_head=st.integers(1, 3000),
    neurons_per_layer=st.integers(0, 6),
    weights_per_neuron=st.integers(1, 1500),
    predictor_weights_per_layer=st.integers(0, 1200),
)
guards = st.builds(GuardConfig, st.integers(0, 2), st.integers(0, 2))


@st.composite
def cases(draw):
    """(directory, assignment, guard) with a random sub-ladder of the
    default ladder and a random format per chunk."""
    directory = enumerate_chunks(draw(geometries))
    picked = draw(st.sets(st.sampled_from(DEFAULT_LADDER), min_size=1))
    ladder = tuple(f for f in DEFAULT_LADDER if f in picked)
    formats = draw(
        st.lists(st.sampled_from(ladder), min_size=len(directory), max_size=len(directory))
    )
    return directory, FormatAssignment(tuple(formats), ladder), draw(guards)


@settings(deadline=None, max_examples=150)
@given(cases())
def test_random_traces_match_reference(case):
    directory, assignment, guard = case
    for mode in ("bitplane", "traditional"):
        assert_matches_reference(assignment, directory, mode, guard)


def chunk_bytes(trace, directory):
    return np.bincount(trace.chunk, weights=trace.size, minlength=len(directory))


@settings(deadline=None, max_examples=150)
@given(cases())
def test_bitplane_overfetch_is_bounded_per_loaded_chunk(case):
    # A chunk of n weights costs ceil(n / 32) blocks in the traditional
    # layout.  On each of its k planes the bitplane layout fetches at
    # most floor((n + 510) / 512) + 1 blocks, and k / 512 <= 1 / 32, so
    # it fetches at most 2k - 1 blocks more.
    directory, assignment, guard = case
    smart = chunk_bytes(gen_trace(assignment, directory, "bitplane", guard), directory)
    plain = chunk_bytes(gen_trace(assignment, directory, "traditional", guard), directory)
    for chunk, fmt in zip(directory, assignment.formats):
        if fmt.is_skip:
            assert smart[chunk.chunk_id] == plain[chunk.chunk_id] == 0
            continue
        planes = len(plane_set(fmt, guard))
        assert smart[chunk.chunk_id] <= plain[chunk.chunk_id] + 64 * (2 * planes - 1)


def test_bitplane_overfetch_bound_is_tight():
    # Two FP16 weights straddling a block boundary on every plane, after a
    # skipped chunk: two blocks on each of 16 planes against one block of
    # FP16 words.  One block per plane is therefore no bound.
    directory = enumerate_chunks(ModelGeometry(1, 1, 511, 1, 2, 0))
    assignment = FormatAssignment((FP0, FP16), DEFAULT_LADDER)
    smart = chunk_bytes(gen_trace(assignment, directory, "bitplane"), directory)
    plain = chunk_bytes(gen_trace(assignment, directory, "traditional"), directory)
    assert smart[1] == 32 * 64
    assert plain[1] == 64
    assert smart[1] == plain[1] + 64 * (2 * 16 - 1)


def test_all_skipped_assignment_gives_empty_traces():
    directory = enumerate_chunks(ModelGeometry(1, 2, 100, 1, 100, 0))
    assignment = FormatAssignment((FP0,) * 3, DEFAULT_LADDER)
    for mode in ("bitplane", "traditional"):
        assert gen_trace(assignment, directory, mode) == Trace([], [], [], KIND_LABELS, [])


# --- the Trace type ----------------------------------------------------------

def test_trace_defaults_and_equality():
    trace = Trace([0, 128], [64, 192])
    assert len(trace) == 2
    assert trace.tag.tolist() == [-1, -1] and trace.chunk.tolist() == [-1, -1]
    assert trace == Trace(np.array([0, 128]), np.array([64, 192]))
    assert trace != Trace([0, 128], [64, 192], [0, 0], ("a",))
    assert len(Trace([], [])) == 0


@pytest.mark.parametrize(
    "columns, match",
    [
        (([0], [64, 64]), "size has 2 rows"),
        (([-64], [64]), "negative address"),
        (([0], [0]), "not 64B-granular"),
        (([0], [64], [1], ("a",)), "tag codes"),
        (([0], [64], [-2], ("a",)), "tag codes"),
    ],
)
def test_trace_rejects_bad_columns(columns, match):
    with pytest.raises(ValueError, match=match):
        Trace(*columns)
