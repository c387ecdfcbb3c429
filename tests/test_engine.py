"""The run-level DRAM engine against the per-burst reference.

`plan`'s run table, expanded to commands, must be exactly the stream
`schedule` yields on every channel, and `simulate` must accept, reject
and account for run tables and command streams exactly as the
command-by-command replay in reference.py does.  Checked on hand
traces, on every trace of the default sweep, on random and interleaved
traces and configs, and on perturbed command streams and run tables.
"""

import dataclasses
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


def commands_of(config, table):
    """A CommandTable as the DramCommand list it encodes, each run's
    reads expanded: the k-th at issue + k * t_ccd_l, column + k."""
    commands, reads = [], iter(table.read_request.tolist())
    columns = (
        table.kind, table.channel, table.bank, table.row, table.column,
        table.issue_cycle, table.request_index, table.count,
    )
    for kind, channel, bank, row, column, issue, request, count in zip(
        *(c.tolist() for c in columns)
    ):
        if KINDS[kind] is not CommandKind.RD:
            commands.append(DramCommand(KINDS[kind], channel, bank, row, column, issue, request))
            continue
        for k in range(count):
            commands.append(DramCommand(
                CommandKind.RD, channel, bank, row, column + k,
                issue + k * config.t_ccd_l, next(reads),
            ))
    return commands


def by_channel(stream):
    """A command stream as its channels' streams, one after another.

    Channels share no state, so a stream is equivalent to any
    interleaving of its channels' streams; the engine orders runs, not
    bursts, by their stream position."""
    return sorted(stream, key=lambda cmd: cmd.channel)


def assert_engine_matches_reference(config, trace):
    table = plan(config, trace)
    expected = list(schedule(config, trace))
    commands = commands_of(config, table)
    assert by_channel(commands) == by_channel(expected)
    result = simulate(config, table)
    assert result == reference_simulate(config, expected)
    assert result == reference_simulate(config, commands)
    return table, commands, result


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


def run_table(table):
    """(kind, bank, row, issue_cycle, count) per table row."""
    return list(zip(
        [KINDS[k].value for k in table.kind.tolist()], table.bank.tolist(),
        table.row.tolist(), table.issue_cycle.tolist(), table.count.tolist(),
    ))


def test_precharge_waits_for_t_ras():
    # Both bursts land on channel 0, bank 0, in rows 0 and 1.  The second
    # run's PRE waits for tRAS after the first ACT (0 + 77), not for the
    # bus (34 + 1); its ACT follows tRP later and its read tRCD after that.
    config = DramConfig()
    table, _, _ = assert_engine_matches_reference(config, trace_of([(0, 64), (1048576, 64)]))
    assert run_table(table) == [
        ("ACT", 0, 0, 0, 1), ("RD", 0, 0, 34, 1),
        ("PRE", 0, 0, 77, 1), ("ACT", 0, 1, 111, 1), ("RD", 0, 1, 145, 1),
    ]


def test_first_read_after_an_opening_waits_for_t_ccd():
    # One channel: two reads to bank 0 (cycles 1 and 13), then bank 1
    # opens at 14.  With tRCD = 1 its first read could issue at 15, but
    # tCCD_S after the read at 13 holds it to 21.
    config = DramConfig(channels=1, t_rcd=1)
    table, _, _ = assert_engine_matches_reference(config, trace_of([(0, 128), (8192, 64)]))
    assert run_table(table) == [
        ("ACT", 0, 0, 0, 1), ("RD", 0, 0, 1, 2), ("ACT", 1, 0, 14, 1), ("RD", 1, 0, 21, 1),
    ]


def test_malformed_run_table_rejected():
    # Four channels, each an ACT and an RD row of two reads.
    table = plan(DramConfig(), trace_of([(0, 512)]))
    act, rd = 0, 1
    assert run_table(table)[:2] == [("ACT", 0, 0, 0, 1), ("RD", 0, 0, 34, 2)]
    for row, value, match in (
        (rd, 0, "count of at least 1"),
        (rd, 3, "read_request holds 8 reads, the RD rows 9"),
        (act, 2, "any other row 1"),
    ):
        count = table.count.copy()
        count[row] = value
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(table, count=count)


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
    counts, rows = {}, 0
    for key, trace in traces.items():
        table, commands, result = assert_engine_matches_reference(cfg.dram, trace)
        counts[key] = (len(trace), len(commands), result.num_acts)
        rows += len(table)
    # The baseline counts the benchmark pins for this config and seed.
    assert counts[8.0, "traditional"][:2] == (198_396, 202_180)
    assert counts[1.6, "bitplane"][2] == 1_931
    assert counts[1.6, "traditional"][2] == 728
    # One table row per run and per PRE/ACT, not per burst, and one
    # step of the bank state machine per opening (per ACT).
    assert sum(c[1] for c in counts.values()) == 1_020_159
    assert rows == 144_126
    assert sum(c[2] for c in counts.values()) == 17_482


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
    _, _, result = assert_engine_matches_reference(config, trace)
    e = result.energy_pj
    assert e["activation"] + e["read"] + e["background"] == e["total"]
    assert result.bytes_transferred == trace.size.sum()


@st.composite
def interleaved_traces(draw):
    """k sequential streams a stride apart, read round-robin in pieces of
    1-8 blocks, as a bit-plane trace reads its planes: short runs that
    alternate banks and, when streams share a bank, conflict."""
    k = draw(st.integers(1, 6))
    stride = draw(st.one_of(st.integers(1, 300), st.sampled_from([256, 1024, 4096, 16384])))
    pieces, rng = draw(st.integers(1, 600)), draw(st.randoms(use_true_random=False))
    heads = [i * stride for i in range(k)]
    requests = []
    for j in range(pieces):
        blocks = rng.randint(1, 8)
        requests.append((64 * heads[j % k], 64 * blocks))
        heads[j % k] += blocks
    return trace_of(requests)


@settings(deadline=None, max_examples=100)
@given(st.one_of(configs, st.just(DramConfig())), interleaved_traces())
def test_interleaved_streams_match_reference(config, trace):
    assert_engine_matches_reference(config, trace)


def same_verdict(config, stream, table=None):
    """Both replays raise the same message, or return the same result.

    The reference replays stream; simulate replays table, which must
    encode stream, or stream itself."""
    replayed = stream if table is None else table
    try:
        want = reference_simulate(config, stream)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            simulate(config, replayed)
        assert str(got.value) == str(exc)
    else:
        assert simulate(config, replayed) == want


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


@settings(deadline=None, max_examples=300)
@given(configs, interleaved_traces(), st.data())
def test_perturbed_run_tables_get_the_reference_verdict(config, trace, data):
    # One row of a planned run table moved in time or sent to another
    # row or bank.  A row that follows a multi-read run is checked against
    # that run's last read, not its first.
    table = plan(config, trace)
    i = data.draw(st.integers(0, len(table) - 1))
    name = data.draw(st.sampled_from(["issue_cycle", "issue_cycle", "row", "bank"]))
    column = getattr(table, name).copy()
    if name == "issue_cycle":
        column[i] += data.draw(st.one_of(st.integers(-12, 12), st.integers(-60, 60)))
    else:
        column[i] += data.draw(st.sampled_from([-1, 1]))
    table = dataclasses.replace(table, **{name: column})
    same_verdict(config, commands_of(config, table), table)
