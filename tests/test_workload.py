"""Tests for geometry, scores, threshold solving and trace generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.address import Trace
from planestore.bitplane import ChunkKind, plane_stride_for
from planestore.quant import GuardConfig
from planestore.workload import (
    FormatAssignment,
    ImportanceModel,
    ModelGeometry,
    ScoreDistribution,
    ThresholdSet,
    assign_formats,
    avg_bits,
    bytes_by_kind,
    enumerate_chunks,
    gen_scores,
    gen_trace,
    predictor_share,
    solve_thresholds,
    trace_bytes,
)

from reference import (
    BAND_PROFILE,
    FP0,
    FP6,
    FP8,
    FP12,
    FP16,
    LADDER,
    NO_GUARD,
    assignment_of,
    chunks,
    format_for,
    formats_of,
)

UNIFORM = ScoreDistribution("uniform")
SIXTHS = ThresholdSet((5 / 6, 4 / 6, 3 / 6, 2 / 6, 1 / 6), LADDER)


def every_kind(seed, distribution):
    """A score model drawing every scored chunk kind from ``distribution``."""
    return ImportanceModel(
        seed, {ChunkKind.ATTENTION_HEAD: distribution, ChunkKind.MLP_NEURON: distribution}
    )


def flat_geometry(chunks, weights=64, predictor=0):
    return ModelGeometry(
        layers=1,
        heads_per_layer=chunks,
        weights_per_head=weights,
        neurons_per_layer=0,
        weights_per_neuron=1,
        predictor_weights_per_layer=predictor,
    )


SCALED = ModelGeometry(
    layers=2,
    heads_per_layer=8,
    weights_per_head=36_864,
    neurons_per_layer=512,
    weights_per_neuron=7_200,
    predictor_weights_per_layer=75_456,
)


# --- geometry and chunk enumeration -----------------------------------------

def test_geometry_validation():
    with pytest.raises(ValueError, match="layer"):
        ModelGeometry(0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match="positive"):
        ModelGeometry(1, 1, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="no weights"):
        ModelGeometry(1, 0, 1, 0, 1, 0)
    assert flat_geometry(2, 4, predictor=4).weights_per_layer == 12


def test_enumerate_small_example():
    directory = enumerate_chunks(flat_geometry(2, 4, predictor=4))
    assert [c.start for c in chunks(directory)] == [0, 4, 8]
    assert [c.kind for c in chunks(directory)] == [
        ChunkKind.ATTENTION_HEAD,
        ChunkKind.ATTENTION_HEAD,
        ChunkKind.PREDICTOR,
    ]
    assert directory.num_weights == 12


def test_enumerate_layer_order():
    g = ModelGeometry(2, 1, 8, 2, 4, 6)
    directory = enumerate_chunks(g)
    kinds = [c.kind.value for c in chunks(directory)]
    layer = ["attention_head", "mlp_neuron", "mlp_neuron", "predictor"]
    assert kinds == layer + layer
    # Each chunk is numbered with its layer.
    assert directory.layer.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_enumerate_scaled_geometry():
    directory = enumerate_chunks(SCALED)
    assert len(directory) == 2 * (8 + 512 + 1)
    assert directory.num_weights == 8_113_536
    assert SCALED.weights_per_layer == 4_056_768


# --- importance scores ------------------------------------------------------

def test_uniform_scores_mean():
    directory = enumerate_chunks(flat_geometry(1000))
    scores = gen_scores(directory, every_kind(42, UNIFORM))
    assert scores.shape == (1000,)
    assert 0.45 <= scores.mean() <= 0.55
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_beta_scores_mean():
    directory = enumerate_chunks(flat_geometry(1000))
    scores = gen_scores(directory, every_kind(7, ScoreDistribution("beta", a=2, b=5)))
    assert scores.mean() == pytest.approx(2 / 7, abs=0.02)


def test_two_point_scores_are_prune_only():
    directory = enumerate_chunks(flat_geometry(200))
    model = every_kind(3, ScoreDistribution("two_point", mix=0.4))
    scores = gen_scores(directory, model)
    assert set(np.unique(scores)) <= {0.0, 1.0}
    assignment = assign_formats(directory, scores, SIXTHS)
    assert set(formats_of(assignment)) <= {FP16, FP0}


def test_scores_deterministic_per_seed():
    directory = enumerate_chunks(flat_geometry(50))
    a = gen_scores(directory, every_kind(9, UNIFORM))
    b = gen_scores(directory, every_kind(9, UNIFORM))
    c = gen_scores(directory, every_kind(10, UNIFORM))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_predictor_chunks_consume_no_randomness():
    bare = enumerate_chunks(flat_geometry(40))
    padded = enumerate_chunks(flat_geometry(40, predictor=16))
    model = every_kind(11, UNIFORM)
    assert np.array_equal(gen_scores(bare, model), gen_scores(padded, model))


def test_per_kind_distributions():
    g = ModelGeometry(1, 4, 8, 4, 8, 8)
    directory = enumerate_chunks(g)
    model = ImportanceModel(
        5,
        {
            ChunkKind.ATTENTION_HEAD: ScoreDistribution("two_point", mix=1.0),
            ChunkKind.MLP_NEURON: ScoreDistribution("two_point", mix=0.0),
        },
    )
    scores = gen_scores(directory, model)
    assert list(scores) == [1.0] * 4 + [0.0] * 4


def test_missing_kind_distribution_rejected():
    directory = enumerate_chunks(flat_geometry(2))
    model = ImportanceModel(5, {ChunkKind.MLP_NEURON: UNIFORM})
    with pytest.raises(ValueError, match="attention_head"):
        gen_scores(directory, model)


def test_distribution_validation():
    with pytest.raises(ValueError, match="unknown"):
        ScoreDistribution("gaussian")
    with pytest.raises(ValueError, match="positive"):
        ScoreDistribution("beta", a=0.0)
    with pytest.raises(ValueError, match="mixture weight"):
        ScoreDistribution("two_point", mix=1.5)


# --- thresholds and assignment ----------------------------------------------

def test_threshold_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        ThresholdSet((0.5, 0.5, 0.4, 0.3, 0.2), LADDER)
    with pytest.raises(ValueError, match="outside"):
        ThresholdSet((1.2, 0.8, 0.6, 0.4, 0.2), LADDER)
    with pytest.raises(ValueError, match="thresholds"):
        ThresholdSet((0.5, 0.4), LADDER)
    # The ladder rules of quant.check_ladder.
    with pytest.raises(ValueError, match="strictly decreasing in width"):
        ThresholdSet((0.5, 0.4), (LADDER[0], LADDER[0], LADDER[-1]))
    with pytest.raises(ValueError, match="must end in a skip level"):
        ThresholdSet((0.5,), LADDER[:2])


def test_bucket_rule_endpoints():
    assert format_for(SIXTHS, 1.0) is FP16
    assert format_for(SIXTHS, 5 / 6) is FP16
    assert format_for(SIXTHS, 0.5) is FP8
    assert format_for(SIXTHS, 0.0) is FP0


def test_assignment_pins_predictors():
    directory = enumerate_chunks(flat_geometry(3, predictor=8))
    assignment = assign_formats(directory, [0.0, 0.0, 0.0], SIXTHS)
    assert formats_of(assignment) == (FP0, FP0, FP0, FP16)


cut_sets = st.lists(
    st.floats(0.0, 1.0), min_size=5, max_size=5, unique=True
).map(lambda cuts: ThresholdSet(tuple(sorted(cuts, reverse=True)), LADDER))


@settings(max_examples=100, deadline=None)
@given(cut_sets, st.lists(st.floats(0.0, 1.0), max_size=10), st.integers(0, 3))
def test_assignment_matches_format_for_at_every_cut(thresholds, extra, predictor):
    # Scores exactly at each cut, one step above and one below it, plus
    # the ends and NaN: a score equal to values[k] gets ladder[k].
    scores = [0.0, 1.0, float("nan"), *extra]
    for cut in thresholds.values:
        scores += [cut, np.nextafter(cut, 2.0), np.nextafter(cut, -1.0)]
    # Two layers put a predictor chunk between the scored ones.
    half = -(-len(scores) // 2)
    scores += [0.5] * (2 * half - len(scores))
    directory = enumerate_chunks(
        ModelGeometry(2, half, 64, 0, 1, predictor_weights_per_layer=predictor)
    )
    assignment = assign_formats(directory, scores, thresholds)
    want = [format_for(thresholds, score) for score in scores]
    if predictor:
        want[half:half] = [FP16]
        want.append(FP16)
    assert formats_of(assignment) == tuple(want)
    assert assignment.codes.tolist() == [LADDER.index(fmt) for fmt in want]


def test_assignment_codes_checked():
    assignment = FormatAssignment([0, 5, 2], list(LADDER))
    assert assignment.ladder == LADDER
    assert assignment.codes.dtype == np.int64
    assert formats_of(assignment) == (FP16, FP0, FP8)
    with pytest.raises(ValueError, match="read-only"):
        assignment.codes[0] = 1
    for codes in ([0, -1], [len(LADDER)]):
        with pytest.raises(ValueError, match=r"format codes must lie in \[0, 6\)"):
            FormatAssignment(codes, LADDER)


def test_assignment_score_count_checked():
    directory = enumerate_chunks(flat_geometry(3))
    with pytest.raises(ValueError, match="3 scored chunks"):
        assign_formats(directory, [0.5], SIXTHS)


def test_top_heavy_thresholds_prune_almost_everything():
    directory = enumerate_chunks(flat_geometry(2000))
    scores = gen_scores(directory, every_kind(1, UNIFORM))
    near_one = ThresholdSet(tuple(1 - k * 1e-6 for k in range(1, 6)), LADDER)
    assignment = assign_formats(directory, scores, near_one)
    dropped = sum(1 for f in formats_of(assignment) if f.is_skip)
    assert dropped >= 0.99 * len(directory)


def test_quantile_thresholds_split_in_sixths():
    directory = enumerate_chunks(flat_geometry(6000))
    scores = gen_scores(directory, every_kind(4, UNIFORM))
    assignment = assign_formats(directory, scores, SIXTHS)
    for fmt in LADDER:
        share = sum(1 for f in formats_of(assignment) if f is fmt) / 6000
        assert share == pytest.approx(1 / 6, abs=0.05)


# --- average bits and the solver --------------------------------------------

def test_avg_bits_examples():
    directory = enumerate_chunks(flat_geometry(5, 100))
    all16 = assignment_of((FP16,) * 5, LADDER)
    assert avg_bits(all16, directory) == 16.0
    ladder_mix = assignment_of((FP16, FP12, FP8, FP6, LADDER[4]), LADDER)
    assert avg_bits(ladder_mix, directory) == pytest.approx(9.2)
    # The predictor chunk rides FP16 and is left out of the average.
    directory = enumerate_chunks(flat_geometry(2, 100, predictor=300))
    assert avg_bits(assignment_of((FP8, FP0, FP16), LADDER), directory) == 4.0
    # With no non-predictor weights there is nothing to average.
    directory = enumerate_chunks(flat_geometry(0, predictor=300))
    assert avg_bits(assignment_of((FP16,), LADDER), directory) == 0.0


def test_solver_reaches_full_precision():
    directory = enumerate_chunks(flat_geometry(400, predictor=32))
    scores = gen_scores(directory, every_kind(2, UNIFORM))
    ts = solve_thresholds(directory, scores, 16.0, LADDER, BAND_PROFILE)
    assignment = assign_formats(directory, scores, ts)
    assert avg_bits(assignment, directory) == 16.0


def test_solver_floor_with_all_zero_scores():
    # Every scored chunk skipped: only the predictor loads, and the
    # average over the other weights is 0.
    directory = enumerate_chunks(flat_geometry(100, 64, predictor=64))
    scores = np.zeros(100)
    ts = solve_thresholds(directory, scores, 0.0, LADDER, BAND_PROFILE)
    assignment = assign_formats(directory, scores, ts)
    assert [f for f in formats_of(assignment) if not f.is_skip] == [FP16]
    assert avg_bits(assignment, directory) == 0.0


@pytest.mark.parametrize("target", [4.8, 8.0, 12.0])
def test_solver_hits_target(target):
    directory = enumerate_chunks(flat_geometry(1000, 96, predictor=128))
    scores = gen_scores(directory, every_kind(42, UNIFORM))
    ts = solve_thresholds(directory, scores, target, LADDER, BAND_PROFILE)
    assignment = assign_formats(directory, scores, ts)
    assert avg_bits(assignment, directory) == pytest.approx(target, abs=0.05)


def test_solver_rejects_unreachable_targets():
    directory = enumerate_chunks(flat_geometry(100, 64, predictor=64))
    scores = gen_scores(directory, every_kind(8, UNIFORM))
    for target in (-0.1, 16.06):
        with pytest.raises(ValueError, match=r"achievable range \[0\.000, 16\.000\]"):
            solve_thresholds(directory, scores, target, LADDER, BAND_PROFILE)


@pytest.mark.parametrize("seed", [1234, 7])
def test_solver_reaches_the_all_skipped_assignment(seed):
    # At the knob's zero every band is empty, so every cut lies above
    # the top score and target 0 skips every scored chunk.
    geometry = ModelGeometry(2, 8, 36864, 512, 7200, 75456)
    directory = enumerate_chunks(geometry)
    scores = gen_scores(directory, every_kind(seed, ScoreDistribution("beta", 5.0, 1.5)))
    ts = solve_thresholds(directory, scores, 0.0, LADDER, BAND_PROFILE)
    assert min(ts.values) > scores.max()
    assignment = assign_formats(directory, scores, ts)
    assert avg_bits(assignment, directory) == 0.0
    # Only the two layers' predictors load.
    assert [f for f in formats_of(assignment) if not f.is_skip] == [FP16, FP16]


def test_solver_deterministic():
    directory = enumerate_chunks(flat_geometry(300, predictor=16))
    scores = gen_scores(directory, every_kind(6, UNIFORM))
    a = solve_thresholds(directory, scores, 6.0, LADDER, BAND_PROFILE)
    b = solve_thresholds(directory, scores, 6.0, LADDER, BAND_PROFILE)
    assert a.values == b.values


def test_raising_a_threshold_never_adds_bits():
    directory = enumerate_chunks(flat_geometry(500))
    scores = gen_scores(directory, every_kind(13, UNIFORM))
    base = solve_thresholds(directory, scores, 7.0, LADDER, BAND_PROFILE)
    baseline = avg_bits(assign_formats(directory, scores, base), directory)
    for k in range(5):
        values = list(base.values)
        ceiling = 1.0 if k == 0 else values[k - 1]
        values[k] = values[k] + 0.5 * (ceiling - values[k])
        bumped = assign_formats(directory, scores, ThresholdSet(tuple(values), LADDER))
        assert avg_bits(bumped, directory) <= baseline + 1e-12


def test_band_profile_validation():
    from planestore.workload import BandProfile

    with pytest.raises(ValueError, match="pair up"):
        BandProfile((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError, match="positive"):
        BandProfile((0.0,), (1.0,))
    assert len(BAND_PROFILE.gains) == len(LADDER) - 1


# --- trace generation -------------------------------------------------------

def two_head_setup():
    directory = enumerate_chunks(flat_geometry(2, 1024))
    assignment = assignment_of((FP16, FP0), LADDER)
    return directory, assignment


def kinds_of(trace):
    return [trace.labels[code] for code in trace.tag.tolist()]


def test_traditional_trace_single_extent():
    directory, assignment = two_head_setup()
    trace = gen_trace(assignment, directory, "traditional", NO_GUARD)
    # One row for the one loaded chunk, its extent of 32 blocks.
    assert len(trace) == 32
    assert trace.addr.tolist() == [0] and trace.size.tolist() == [2048]
    assert kinds_of(trace) == [ChunkKind.ATTENTION_HEAD]
    assert trace.chunk.tolist() == [0]


def test_bitplane_trace_one_request_per_plane():
    directory, assignment = two_head_setup()
    trace = gen_trace(assignment, directory, "bitplane", NO_GUARD)
    assert (len(trace), trace.addr.size) == (32, 16)
    stride = plane_stride_for(2048)
    # One row per plane, in plane order: plane p's span starts at p * stride.
    assert (trace.size == 128).all()
    assert trace.addr.tolist() == [p * stride for p in range(16)]


def test_all_fp8_trace_is_half_the_bytes():
    directory = enumerate_chunks(flat_geometry(4, 4096))
    assignment = assignment_of((FP8,) * 4, LADDER)
    smart = trace_bytes(gen_trace(assignment, directory, "bitplane", NO_GUARD))
    plain = trace_bytes(gen_trace(assignment, directory, "traditional", NO_GUARD))
    assert smart * 2 == plain
    assert plain == 2 * directory.num_weights


def test_traditional_bytes_formula():
    g = ModelGeometry(1, 2, 1000, 3, 52, 36)
    directory = enumerate_chunks(g)
    scores = gen_scores(directory, every_kind(21, UNIFORM))
    assignment = assign_formats(directory, scores, SIXTHS)
    trace = gen_trace(assignment, directory, "traditional", NO_GUARD)
    expected = sum(
        -(-chunk.length * 2 // 64) * 64
        for chunk, fmt in zip(chunks(directory), formats_of(assignment))
        if not fmt.is_skip
    )
    assert trace_bytes(trace) == expected


def test_mode_equivalence_on_full_precision():
    g = ModelGeometry(2, 2, 1000, 4, 52, 36)
    directory = enumerate_chunks(g)
    assignment = assignment_of((FP16,) * len(directory), LADDER)
    smart = trace_bytes(gen_trace(assignment, directory, "bitplane", NO_GUARD))
    plain = trace_bytes(gen_trace(assignment, directory, "traditional", NO_GUARD))
    # Per-chunk alignment slack: 16 block-aligned plane reads against one
    # block-aligned extent.
    assert abs(smart - plain) <= len(directory) * 16 * 64
    assert smart >= 2 * directory.num_weights


def test_mode_equivalence_tight_when_chunks_align():
    directory = enumerate_chunks(SCALED)
    assignment = assignment_of((FP16,) * len(directory), LADDER)
    smart = trace_bytes(gen_trace(assignment, directory, "bitplane", NO_GUARD))
    plain = trace_bytes(gen_trace(assignment, directory, "traditional", NO_GUARD))
    assert plain == 2 * directory.num_weights
    assert abs(smart - plain) <= 16 * 64


def test_seam_blocks_fetched_once():
    # 1,000-weight chunks put plane seams mid-block; the high-water mark
    # must hand the shared block to the earlier chunk only.
    directory = enumerate_chunks(flat_geometry(5, 1000))
    assignment = assignment_of((FP16,) * 5, LADDER)
    trace = gen_trace(assignment, directory, "bitplane", NO_GUARD)
    stride = plane_stride_for(5000)
    seen = set()
    for addr, size in zip(trace.addr.tolist(), trace.size.tolist()):
        plane = addr // stride
        for block in range(addr // 64, (addr + size) // 64):
            assert (plane, block) not in seen
            seen.add((plane, block))
    blocks_per_plane = -(-5000 // 8 // 64)
    expected = {
        (p, (p * stride) // 64 + b) for p in range(16) for b in range(blocks_per_plane)
    }
    assert seen == expected


def test_guard_planes_expand_the_fetch():
    directory = enumerate_chunks(flat_geometry(2, 4096))
    assignment = assignment_of((FP8, FP8), LADDER)
    bare = gen_trace(assignment, directory, "bitplane", NO_GUARD)
    guarded = gen_trace(assignment, directory, "bitplane", guard=GuardConfig(0, 2))
    assert trace_bytes(guarded) > trace_bytes(bare)


def test_trace_determinism():
    directory = enumerate_chunks(flat_geometry(20, 640, predictor=64))
    scores = gen_scores(directory, every_kind(17, UNIFORM))
    assignment = assign_formats(directory, scores, SIXTHS)
    for mode in ("bitplane", "traditional"):
        assert gen_trace(assignment, directory, mode, NO_GUARD) == gen_trace(
            assignment, directory, mode, NO_GUARD
        )


def test_trace_rejects_bad_mode():
    directory, assignment = two_head_setup()
    with pytest.raises(ValueError, match="mode"):
        gen_trace(assignment, directory, "interleaved", NO_GUARD)


def test_trace_tags_kinds():
    g = ModelGeometry(1, 1, 4096, 2, 4096, 4096)
    directory = enumerate_chunks(g)
    assignment = assignment_of((FP16,) * 4, LADDER)
    for mode in ("bitplane", "traditional"):
        trace = gen_trace(assignment, directory, mode, NO_GUARD)
        by_kind = bytes_by_kind(trace)
        assert set(kinds_of(trace)) == set(by_kind) == {
            ChunkKind.ATTENTION_HEAD,
            ChunkKind.MLP_NEURON,
            ChunkKind.PREDICTOR,
        }
        assert trace_bytes(trace) == sum(by_kind.values())


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 2)), max_size=30))
def test_bytes_by_kind_equals_bincount(rows):
    # Interleaved tags, and a label no row carries.
    labels = ("a", "b", "c", "d")
    trace = Trace(
        [64 * i for i in range(len(rows))], [64 * n for n, _ in rows], [t for _, t in rows], labels
    )
    want = np.bincount(trace.tag, weights=trace.size, minlength=len(labels)).astype(np.int64)
    assert bytes_by_kind(trace) == dict(zip(labels, want.tolist()))


def test_bytes_by_kind_requires_tags():
    trace = Trace([0, 64, 128], [64, 64, 64], [0, -1, 0], ("a",))
    with pytest.raises(ValueError, match=r"^request 1 is untagged$"):
        bytes_by_kind(trace)


# --- predictor share --------------------------------------------------------

def test_predictor_share_empty_and_simple():
    assert predictor_share({}) == 0.0
    assert predictor_share({ChunkKind.ATTENTION_HEAD: 100}) == 0.0
    split = {ChunkKind.ATTENTION_HEAD: 300, ChunkKind.PREDICTOR: 100}
    assert predictor_share(split) == 0.25
