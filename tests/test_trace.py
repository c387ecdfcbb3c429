"""The columnar trace generator against the per-object reference.

`gen_trace` must emit, row for row, the address, size, kind and chunk
that reference.py's `reference_trace` emits: on every trace of the
default sweep and on random geometries, assignments, ladders and
guards.  Also checked: the Trace type's own validation, how many bytes
the bitplane layout can fetch beyond the traditional one, and that the
bytes a bitplane trace fetches are enough to serve every chunk it
loads.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.address import Trace
from planestore.bitplane import NUM_PLANES, BitPlaneImage, ChunkKind
from planestore.config import load_config
from planestore.experiment import solve_assignment
from planestore.quant import GuardConfig, plane_set
from planestore.workload import (
    FAMILY_PARAMETERS,
    KIND_LABELS,
    TRACE_MODES,
    ImportanceModel,
    ModelGeometry,
    ScoreDistribution,
    enumerate_chunks,
    gen_scores,
    gen_trace,
    solve_thresholds,
)

from reference import (
    BAND_PROFILE,
    FP0,
    FP16,
    LADDER,
    NO_GUARD,
    Rounding,
    WeightWord,
    assignment_of,
    chunks,
    convert_words,
    formats_of,
    pack_array,
    reference_enumerate_chunks,
    reference_gen_scores,
    reference_solve_thresholds,
    reference_trace,
)
from test_bitplane import fetch_planes, reconstruct

DEFAULT_YAML = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"


def rows_of(trace):
    """A Trace's rows as (addr, size, kind, chunk_id) tuples."""
    assert trace.labels == KIND_LABELS
    kinds = [trace.labels[code] for code in trace.tag.tolist()]
    return list(zip(trace.addr.tolist(), trace.size.tolist(), kinds, trace.chunk.tolist()))


def assert_matches_reference(assignment, directory, mode, guard):
    trace = gen_trace(assignment, directory, mode, guard)
    expected = reference_trace(assignment, directory, mode, guard)
    assert rows_of(trace) == [tuple(row) for row in expected]
    return trace


def test_default_sweep_traces_match_reference():
    cfg = load_config(str(DEFAULT_YAML), seed=1234)
    directory = enumerate_chunks(cfg.geometry)
    scores = gen_scores(directory, cfg.importance)
    traces = {}
    for target in cfg.targets:
        _, assignment = solve_assignment(directory, scores, target, cfg.ladder, cfg.band_profile)
        for mode in TRACE_MODES:
            traces[target, mode] = assert_matches_reference(assignment, directory, mode, cfg.guard)
    assert len(traces) == 10
    # (64-byte reads, rows): the traditional trace is one row per loaded chunk.
    sizes = {mode: (len(traces[8.0, mode]), traces[8.0, mode].addr.size) for mode in TRACE_MODES}
    assert sizes == {"traditional": (198_396, 801), "bitplane": (132_288, 8_262)}


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


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMETERS))
@settings(deadline=None, max_examples=60)
@given(geometry=geometries, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_directory_and_scores_match_the_per_chunk_loops(family, geometry, seed, data):
    def distribution():
        params = {
            name: data.draw(st.floats(0.0, 1.0) if name == "mix" else st.floats(0.05, 20.0))
            for name in FAMILY_PARAMETERS[family]
        }
        return ScoreDistribution(family, **params)

    model = ImportanceModel(
        seed, {ChunkKind.ATTENTION_HEAD: distribution(), ChunkKind.MLP_NEURON: distribution()}
    )
    directory = enumerate_chunks(geometry)
    rows = reference_enumerate_chunks(geometry)
    assert chunks(directory) == rows
    assert directory.num_weights == geometry.total_weights
    got, want = gen_scores(directory, model), reference_gen_scores(rows, model)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMETERS))
@settings(deadline=None, max_examples=40)
@given(
    geometry=geometries,
    seed=st.integers(0, 2**32 - 1),
    spots=st.lists(st.floats(-0.05, 1.05), min_size=1, max_size=4),
    data=st.data(),
)
def test_thresholds_match_the_per_step_solver(family, geometry, seed, spots, data):
    # Each spot places a target between no bits (0) and full width (1)
    # per non-predictor weight; a few land past either end of the
    # achievable range, where both solvers must raise the same error.
    params = {
        name: data.draw(st.floats(0.0, 1.0) if name == "mix" else st.floats(0.05, 20.0))
        for name in FAMILY_PARAMETERS[family]
    }
    model = ImportanceModel(seed, {
        ChunkKind.ATTENTION_HEAD: ScoreDistribution(family, **params),
        ChunkKind.MLP_NEURON: ScoreDistribution(family, **params),
    })
    directory = enumerate_chunks(geometry)
    scores = gen_scores(directory, model)
    for spot in spots:
        target = spot * FP16.total_bits
        try:
            want = reference_solve_thresholds(directory, scores, target, LADDER, BAND_PROFILE)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                solve_thresholds(directory, scores, target, LADDER, BAND_PROFILE)
            assert str(got.value) == str(exc)
        else:
            assert solve_thresholds(directory, scores, target, LADDER, BAND_PROFILE) == want


@st.composite
def cases(draw):
    """(directory, assignment, guard) with a random sub-ladder of the
    default ladder and a random format per chunk."""
    directory = enumerate_chunks(draw(geometries))
    picked = draw(st.sets(st.sampled_from(LADDER), min_size=1))
    ladder = tuple(f for f in LADDER if f in picked)
    formats = draw(
        st.lists(st.sampled_from(ladder), min_size=len(directory), max_size=len(directory))
    )
    return directory, assignment_of(formats, ladder), draw(guards)


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
    for chunk, fmt in zip(chunks(directory), formats_of(assignment)):
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
    assignment = assignment_of((FP0, FP16), LADDER)
    smart = chunk_bytes(gen_trace(assignment, directory, "bitplane", NO_GUARD), directory)
    plain = chunk_bytes(gen_trace(assignment, directory, "traditional", NO_GUARD), directory)
    assert smart[1] == 32 * 64
    assert plain[1] == 64
    assert smart[1] == plain[1] + 64 * (2 * 16 - 1)


@settings(deadline=None, max_examples=40)
@given(cases(), st.integers(0, 2**32 - 1))
def test_fetched_bytes_suffice_to_serve_every_loaded_chunk(case, seed):
    # Zero every image byte the bitplane trace does not fetch: each loaded
    # chunk must still convert exactly as its original words do, so the
    # bytes the DRAM model charges for are all a reader needs.  Rounding to
    # nearest makes the guard planes count too.
    directory, assignment, guard = case
    mode = Rounding.ROUND_NEAREST_EVEN
    words = np.random.default_rng(seed).integers(
        0, 1 << 16, directory.num_weights, dtype=np.uint16
    )
    image = pack_array(words)
    trace = gen_trace(assignment, directory, "bitplane", guard)
    assert (trace.addr + trace.size <= image.footprint_bytes).all()
    fetched = np.zeros(image.footprint_bytes, bool)
    for lo, size in zip(trace.addr.tolist(), trace.size.tolist()):
        fetched[lo : lo + size] = True
    planes = np.concatenate([image.plane_bytes(p) for p in range(NUM_PLANES)])
    planes[~fetched] = 0
    served = BitPlaneImage(image.num_weights, planes.reshape(NUM_PLANES, -1))
    for chunk, fmt in zip(chunks(directory), formats_of(assignment)):
        if fmt.is_skip:
            continue
        segments = fetch_planes(served, chunk.start, chunk.length, plane_set(fmt, guard))
        got = reconstruct(segments, fmt, guard, mode)
        want = convert_words(words[chunk.start : chunk.stop], fmt, guard, mode)
        assert got == [WeightWord(bits, fmt) for bits in want.tolist()], chunk


def test_all_skipped_assignment_gives_empty_traces():
    directory = enumerate_chunks(ModelGeometry(1, 2, 100, 1, 100, 0))
    assignment = assignment_of((FP0,) * 3, LADDER)
    for mode in ("bitplane", "traditional"):
        assert gen_trace(assignment, directory, mode, NO_GUARD) == Trace([], [], [], KIND_LABELS, [])


# --- the Trace type ----------------------------------------------------------

def test_trace_defaults_and_equality():
    trace = Trace([0, 128], [64, 192])
    # Two rows of one and three 64-byte reads.
    assert (len(trace), trace.addr.size) == (4, 2)
    assert trace.tag.tolist() == [-1, -1] and trace.chunk.tolist() == [-1, -1]
    assert trace == Trace(np.array([0, 128]), np.array([64, 192]))
    assert trace != Trace([0, 128], [64, 192], [0, 0], ("a",))
    assert len(Trace([], [])) == 0


@pytest.mark.parametrize(
    "columns, match",
    [
        (([0], [64, 64]), "size has 2 rows"),
        (([0], [64], [0, 0], ("a",)), "tag has 2 rows"),
        (([0], [64], None, (), [0, 0]), "chunk has 2 rows"),
        (([-64], [64]), "negative address"),
        (([0], [0]), "not 64B-granular"),
        (([0], [64], [1], ("a",)), "tag codes"),
        (([0], [64], [-2], ("a",)), "tag codes"),
    ],
)
def test_trace_rejects_bad_columns(columns, match):
    with pytest.raises(ValueError, match=match):
        Trace(*columns)
