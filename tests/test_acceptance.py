"""Acceptance suite: one test, and one pass/fail line under -v, per claim.

Everything quantitative runs on the shipped default configuration: the
scaled two-layer geometry, the checked-in importance mixtures, seed 1234
and the documented DDR5-4800 constants.  Tolerances sit next to each
assertion.  Exact claims (conversion, round trips, hand traces) assert
equality outright.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.address import (
    LogicalRead,
    Trace,
    build_regions,
    resolve,
)
from planestore.bitplane import ChunkKind, pack, unpack_full
from planestore.cli import main
from planestore.config import default_config
from planestore.dram import DramConfig, schedule, simulate
from planestore.experiment import compare_assignment, run_sweep
from planestore.quant import (
    DEFAULT_LADDER,
    FP0,
    FP6,
    FP8,
    FP16,
    GuardConfig,
    NO_GUARD,
    Rounding,
    WeightWord,
    convert,
    plane_set,
)
from planestore.workload import (
    FormatAssignment,
    ModelGeometry,
    ThresholdSet,
    assign_formats,
    avg_bits,
    enumerate_chunks,
    gen_trace,
    solve_thresholds,
    trace_bytes,
)

import reference


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def directory(cfg):
    return enumerate_chunks(cfg.geometry)


@pytest.fixture(scope="module")
def sweep(cfg, directory):
    return run_sweep(
        directory,
        cfg.importance,
        (1.6, 4.8, 8.0),
        cfg.guard,
        cfg.dram,
        cfg.ladder,
        cfg.band_profile,
    )


def reduction(entry, kind, field):
    return entry["reductions"]["per_kind"][kind.value][field]


def test_01_conversion_matches_exact_rational_reference():
    mismatches = 0
    for fmt in DEFAULT_LADDER:
        if fmt.is_skip:
            with pytest.raises(ValueError):
                convert(WeightWord(0, FP16), fmt)
            continue
        for guard_man in (0, 1, 2):
            guard = GuardConfig(0, guard_man)
            for mode in (Rounding.TRUNCATE, Rounding.ROUND_NEAREST_EVEN):
                truncate = mode is Rounding.TRUNCATE
                for bits in range(1 << 16):
                    got = convert(WeightWord(bits, FP16), fmt, guard, mode).bits
                    want = reference.ref_convert(
                        bits, fmt.exp_bits, fmt.man_bits, fmt.bias,
                        0, guard_man, truncate,
                    )
                    mismatches += got != want
    assert mismatches == 0


def test_02_pack_unpack_round_trip_is_identity():
    enumerated = np.arange(1 << 16, dtype=np.uint16)
    seeded = np.random.default_rng(20260822).integers(
        0, 1 << 16, 1_000_000, dtype=np.uint16
    )
    for words in (enumerated, seeded):
        image = pack(words)
        assert np.array_equal(unpack_full(image), words)


def test_03_fetched_plane_count_law():
    for fmt in DEFAULT_LADDER:
        for guard_exp in (0, 1, 2):
            for guard_man in (0, 1, 2):
                guard = GuardConfig(guard_exp, guard_man)
                if fmt.is_skip:
                    # A skipped chunk has no planes to count.
                    with pytest.raises(ValueError):
                        plane_set(fmt, guard)
                    continue
                want = (
                    1
                    + min(5, fmt.exp_bits + guard_exp)
                    + min(10, fmt.man_bits + guard_man)
                )
                assert len(plane_set(fmt, guard)) == want


def test_04_bloated_space_sizes_and_resolve_round_trip():
    rng = np.random.default_rng(404)
    rungs = [f for f in DEFAULT_LADDER if not f.is_skip]
    for _ in range(100):
        num_weights = int(rng.integers(1, 500_001))
        keep = sorted(rng.choice(len(rungs), int(rng.integers(1, 6)), replace=False))
        ladder = tuple(rungs[i] for i in keep) + (FP0,)
        table = build_regions(num_weights, ladder)
        assert sum(r.size_bits for r in table.regions) == sum(
            num_weights * f.total_bits for f in ladder
        )
        for region in table.regions:
            width = region.fmt.total_bits
            start = int(rng.integers(0, num_weights))
            count = int(rng.integers(1, num_weights - start + 1))
            read = LogicalRead(region.base_bit + start * width, count * width)
            assert resolve(table, read) == (region.fmt, start, count)


def test_05_transferred_bytes_track_format_width():
    directory = enumerate_chunks(ModelGeometry(1, 4, 1 << 20, 0, 1, 0))

    def ratio(fmt):
        assignment = FormatAssignment((fmt,) * len(directory), (fmt,))
        smart = trace_bytes(gen_trace(assignment, directory, "bitplane", NO_GUARD))
        plain = trace_bytes(gen_trace(assignment, directory, "traditional", NO_GUARD))
        return smart / plain

    assert ratio(FP8) == pytest.approx(8 / 16, rel=1e-3)
    assert ratio(FP6) == pytest.approx(6 / 16, rel=5e-3)


def test_06_memory_model_matches_hand_traces():
    cfg = DramConfig(p_bg_mw=0.0)
    act, rd = cfg.e_act_pj, cfg.e_rd_pj
    cases = [
        # (addresses, command sequence, total cycles, (#ACT, #RD))
        ([0],
         [("ACT", 0, 0, 0, 0, 0), ("RD", 0, 0, 0, 0, 34)],
         76, (1, 1)),
        # Row hit pipelines at tCCD_L.
        ([0, 256],
         [("ACT", 0, 0, 0, 0, 0), ("RD", 0, 0, 0, 0, 34),
          ("RD", 0, 0, 0, 1, 46)],
         88, (1, 2)),
        # Second bank on the same channel: new ACT, no PRE.
        ([0, 32768],
         [("ACT", 0, 0, 0, 0, 0), ("RD", 0, 0, 0, 0, 34),
          ("ACT", 0, 1, 0, 0, 35), ("RD", 0, 1, 0, 0, 69)],
         111, (2, 2)),
        # Row conflict in bank 0: PRE waits out t_ras, ACT waits out t_rp.
        ([0, 1048576],
         [("ACT", 0, 0, 0, 0, 0), ("RD", 0, 0, 0, 0, 34),
          ("PRE", 0, 0, 0, 0, 77), ("ACT", 0, 0, 1, 0, 111),
          ("RD", 0, 0, 1, 0, 145)],
         187, (2, 2)),
        # Adjacent blocks land on different channels and run in parallel.
        ([0, 64],
         [("ACT", 0, 0, 0, 0, 0), ("RD", 0, 0, 0, 0, 34),
          ("ACT", 1, 0, 0, 0, 0), ("RD", 1, 0, 0, 0, 34)],
         76, (2, 2)),
    ]
    for addrs, expected, cycles, (n_act, n_rd) in cases:
        commands = list(schedule(cfg, Trace(addrs, [64] * len(addrs))))
        got = [
            (c.kind.name, c.channel, c.bank, c.row, c.column, c.issue_cycle)
            for c in commands
        ]
        assert got == expected
        result = simulate(cfg, commands)
        assert result.total_cycles == cycles
        assert result.energy_pj["total"] == act * n_act + rd * n_rd


# Reference points for the three shared sweep targets, in target order;
# every directional window is that point +/- 10 percentage points.
ATT_ENERGY_POINTS = (30.5, 40.4, 40.9)
MLP_ENERGY_POINTS = (19.4, 20.3, 33.9)
ATT_LATENCY_POINTS = (36.2, 40.6, 42.1)


def test_07_attention_and_mlp_energy_reductions_land_in_windows(sweep):
    for entry, att_point, mlp_point in zip(
        sweep, ATT_ENERGY_POINTS, MLP_ENERGY_POINTS
    ):
        att = reduction(entry, ChunkKind.ATTENTION_HEAD, "energy_per_weight_pct")
        mlp = reduction(entry, ChunkKind.MLP_NEURON, "energy_per_weight_pct")
        assert abs(att - att_point) <= 10.0
        assert abs(mlp - mlp_point) <= 10.0


def test_08_attention_latency_reductions_land_in_windows(sweep):
    seen = []
    for entry, point in zip(sweep, ATT_LATENCY_POINTS):
        att = reduction(entry, ChunkKind.ATTENTION_HEAD, "mean_chunk_latency_pct")
        assert abs(att - point) <= 10.0
        seen.append(att)
    assert max(seen) >= 30.0


def test_09_predictor_byte_share_endpoints(sweep):
    by_target = {e["target_bits"]: e for e in sweep}
    share_low = 100.0 * by_target[1.6]["modes"]["bitplane"]["predictor_byte_share"]
    share_high = 100.0 * by_target[8.0]["modes"]["bitplane"]["predictor_byte_share"]
    assert abs(share_low - 15.2) <= 0.5
    assert abs(share_high - 3.7) <= 0.5


def test_10_threshold_solver_hits_targets_and_is_monotone(cfg, directory):
    rng = np.random.default_rng(1234)
    scored = sum(1 for c in directory if c.kind is not ChunkKind.PREDICTOR)
    for scores in (rng.random(scored), rng.beta(2.0, 5.0, scored)):
        for target in cfg.targets:
            thresholds = solve_thresholds(
                directory, scores, target, cfg.ladder, cfg.band_profile
            )
            achieved = avg_bits(assign_formats(directory, scores, thresholds), directory)
            assert abs(achieved - target) <= 0.05

    small = enumerate_chunks(ModelGeometry(1, 6, 512, 0, 1, 0))

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.lists(
            st.floats(min_value=0.02, max_value=0.98), min_size=5, max_size=5
        ),
        raise_index=st.integers(min_value=0, max_value=4),
        bump=st.floats(min_value=0.001, max_value=0.5),
        seed=st.integers(min_value=0, max_value=999),
    )
    def raising_a_threshold_never_adds_bits(base, raise_index, bump, seed):
        values = sorted(base, reverse=True)
        for k in range(1, 5):
            values[k] = min(values[k], values[k - 1] - 1e-6)
        if values[4] <= 0.0:
            return
        scores = np.random.default_rng(seed).random(len(small))
        before = avg_bits(
            assign_formats(small, scores, ThresholdSet(tuple(values))), small
        )
        raised = list(values)
        ceiling = 1.0 if raise_index == 0 else raised[raise_index - 1] - 1e-9
        raised[raise_index] = min(raised[raise_index] + bump, ceiling)
        for k in range(raise_index + 1, 5):
            raised[k] = min(raised[k], raised[k - 1] - 1e-9)
        if raised[4] <= 0.0:
            return
        after = avg_bits(
            assign_formats(small, scores, ThresholdSet(tuple(raised))), small
        )
        assert after <= before + 1e-12

    raising_a_threshold_never_adds_bits()


def test_11_full_precision_assignment_is_layout_parity(cfg, directory):
    assignment = FormatAssignment((FP16,) * len(directory), cfg.ladder)
    result = compare_assignment(directory, assignment, cfg.guard, cfg.dram)
    smart = result["modes"]["bitplane"]["total_energy_pj"]
    plain = result["modes"]["traditional"]["total_energy_pj"]
    assert 0.95 <= smart / plain <= 1.05


def test_12_comparison_reports_are_byte_identical(tmp_path, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text(
        "seed: 7\n"
        "targets: [1.6, 8.0]\n"
        "geometry:\n"
        "  layers: 1\n"
        "  heads_per_layer: 4\n"
        "  weights_per_head: 8192\n"
        "  neurons_per_layer: 32\n"
        "  weights_per_neuron: 4096\n"
        "  predictor_weights_per_layer: 4096\n"
    )
    out = tmp_path / "out"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    first = (out / "comparison.json").read_bytes()
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "comparison.json").read_bytes() == first
    # And the bytes really are a loadable report.
    assert json.loads(first)["config"]["seed"] == 7
