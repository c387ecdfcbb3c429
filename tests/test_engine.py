"""The run-level DRAM engine against the per-burst reference.

`plan` must produce exactly the command stream `schedule` yields, and
`simulate` must accept, reject and account for streams exactly as the
command-by-command replay in reference.py does.  Checked on hand
traces, on every trace of the default sweep, and on random configs,
traces and command streams.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.address import Trace
from planestore.config import load_config
from planestore.dram import (
    CommandKind,
    DramCommand,
    DramConfig,
    plan,
    schedule,
    simulate,
)
from planestore.experiment import predictor_fraction, solver_target
from planestore.workload import (
    assign_formats,
    enumerate_chunks,
    gen_scores,
    gen_trace,
    solve_thresholds,
)

from reference import reference_simulate

DEFAULT_YAML = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
KINDS = list(CommandKind)


def trace_of(requests):
    """A Trace from (byte_addr, len_bytes) pairs."""
    return Trace([a for a, _ in requests], [n for _, n in requests])


def commands_of(table):
    """A CommandTable as the DramCommand list it encodes."""
    columns = (
        table.channel, table.bank, table.row, table.column,
        table.issue_cycle, table.request_index,
    )
    return [
        DramCommand(KINDS[kind], *fields)
        for kind, *fields in zip(table.kind.tolist(), *(c.tolist() for c in columns))
    ]


def assert_engine_matches_reference(config, trace):
    table = plan(config, trace)
    expected = list(schedule(config, trace))
    assert commands_of(table) == expected
    result = simulate(config, table)
    assert result == reference_simulate(config, expected)
    return table, result


@pytest.mark.parametrize(
    "requests",
    [
        # The memory-model acceptance hand traces, one burst each.
        [(0, 64)],
        [(0, 64), (256, 64)],
        [(0, 64), (32768, 64)],
        [(0, 64), (1048576, 64)],
        [(0, 64), (64, 64)],
        # Multi-burst requests: row crossings, conflicts, a return to an
        # open row after another bank, and an empty trace.
        [(7936, 4096), (1048576, 512), (0, 256), (32768, 192)],
        [(0, 1024), (1048576, 1024), (0, 1024)],
        [],
    ],
)
def test_hand_traces_match_reference(requests):
    config = DramConfig(p_bg_mw=0.0)
    assert_engine_matches_reference(config, trace_of(requests))


def test_bad_address_raises_the_scalar_error():
    # Trace rejects these rows itself; bare columns reach the engine.
    config = DramConfig()
    for bad, match in ((96, "not 64-byte aligned"), (-64, "negative")):
        raw = SimpleNamespace(addr=np.array([0, bad]), size=np.array([64, 64]))
        with pytest.raises(ValueError, match=match):
            list(schedule(config, raw))
        with pytest.raises(ValueError, match=match):
            plan(config, raw)


@pytest.fixture(scope="module")
def sweep_traces():
    """Every (target, mode) request stream of configs/default.yaml at seed 1234."""
    cfg = load_config(str(DEFAULT_YAML), seed=1234, env={})
    directory = enumerate_chunks(cfg.geometry)
    scores = gen_scores(directory, cfg.importance)
    frac = predictor_fraction(directory)
    traces = {}
    for target in cfg.targets:
        thresholds = solve_thresholds(
            directory, scores, solver_target(target, frac), cfg.ladder, cfg.band_profile
        )
        assignment = assign_formats(directory, scores, thresholds)
        for mode in ("bitplane", "traditional"):
            traces[target, mode] = gen_trace(assignment, directory, mode, cfg.guard)
    return cfg, traces


def test_default_sweep_traces_match_reference(sweep_traces):
    cfg, traces = sweep_traces
    assert len(traces) == 10
    counts = {}
    for key, trace in traces.items():
        table, result = assert_engine_matches_reference(cfg.dram, trace)
        counts[key] = (len(trace), len(table), result.num_acts)
    # The baseline counts the benchmark pins for this config and seed.
    assert counts[8.0, "traditional"][:2] == (198_396, 202_180)
    assert counts[1.6, "bitplane"][2] == 1_931
    assert counts[1.6, "traditional"][2] == 728


# --- random configs, traces and streams -------------------------------------

configs = st.builds(
    DramConfig,
    channels=st.integers(1, 4),
    banks_per_channel=st.integers(1, 8),
    row_bytes=st.sampled_from([64, 128, 256, 512]),
    # Short t_rcd and t_rp let tCCD bind the first read after an ACT.
    t_rcd=st.one_of(st.integers(1, 4), st.integers(1, 40)),
    t_cl=st.integers(1, 40),
    t_rp=st.one_of(st.integers(1, 4), st.integers(1, 40)),
    t_ras=st.integers(40, 90),
    t_ccd_l=st.integers(8, 20),
    t_ccd_s=st.integers(8, 20),
)

# A few hundred blocks over a handful of rows: with small rows and few
# banks, random requests keep reopening rows that another request closed.
traces = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 12)), max_size=25
).map(lambda reqs: trace_of([(64 * slot, 64 * n) for slot, n in reqs]))


@settings(deadline=None, max_examples=150)
@given(configs, traces)
def test_random_traces_match_reference(config, trace):
    table, result = assert_engine_matches_reference(config, trace)
    e = result.energy_pj
    assert e["activation"] + e["read"] + e["background"] == e["total"]
    assert result.bytes_transferred == trace.size.sum()


def same_verdict(config, stream):
    """Both replays raise the same message, or return the same result."""
    try:
        want = reference_simulate(config, stream)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            simulate(config, stream)
        assert str(got.value) == str(exc)
    else:
        assert simulate(config, stream) == want


# Channel and bank 2 lie outside the 2 x 2 config the streams run on.
raw_commands = st.lists(
    st.builds(
        DramCommand,
        kind=st.sampled_from(KINDS),
        channel=st.sampled_from([0] * 4 + [1] * 4 + [2]),
        bank=st.sampled_from([0] * 4 + [1] * 4 + [2]),
        row=st.integers(0, 2),
        column=st.just(0),
        issue_cycle=st.integers(0, 200),
        request_index=st.integers(0, 3),
    ),
    max_size=12,
).map(lambda cmds: sorted(cmds, key=lambda c: c.issue_cycle))


@settings(deadline=None, max_examples=300)
@given(raw_commands)
def test_random_streams_get_the_reference_verdict(stream):
    same_verdict(DramConfig(channels=2, banks_per_channel=2), stream)


@settings(deadline=None, max_examples=400)
@given(configs, traces, st.data())
def test_perturbed_schedules_get_the_reference_verdict(config, trace, data):
    # A legal stream with one command moved in time, sent to another row,
    # dropped, retyped or swapped with its successor: mostly one
    # violation, sometimes none.
    stream = list(schedule(config, trace))
    if not stream:
        return
    i = data.draw(st.integers(0, len(stream) - 1))
    change = data.draw(st.sampled_from(["shift", "row", "drop", "kind", "swap"]))
    if change == "shift":
        delta = data.draw(st.one_of(st.integers(-12, 12), st.integers(-60, 60)))
        stream[i] = stream[i]._replace(issue_cycle=stream[i].issue_cycle + delta)
    elif change == "row":
        stream[i] = stream[i]._replace(row=stream[i].row + data.draw(st.sampled_from([-1, 1])))
    elif change == "drop":
        del stream[i]
    elif change == "kind":
        stream[i] = stream[i]._replace(kind=data.draw(st.sampled_from(KINDS)))
    elif i + 1 < len(stream):
        stream[i], stream[i + 1] = stream[i + 1], stream[i]
    same_verdict(config, stream)
