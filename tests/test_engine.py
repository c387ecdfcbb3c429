"""The run-level DRAM engine against the per-burst reference.

`plan`'s run table, expanded to commands (reference.py's `expand`),
must be exactly the stream `schedule` yields on every channel, every
command naming the trace row `schedule`'s does, and must not depend on
the chunk column.  reference.py's vectorized `replay` must accept and
reject command tables and streams exactly as the command-by-command
replay there does, whole or cut into pieces anywhere; `simulate` must
total a run table as that replay totals its expansion, and the
per-request completions and ACTs `simulate` returns and the reads the
trace gives must be the replay's, and a tagged trace's energy split
must come within 1e-15 of the exact split by those counts.  A trace
cut anywhere must plan, piece by piece from the state `plan` returns
for the piece before, to the one-piece table's rows channel by
channel, and that state must be the command-level state reference.py's
`carry` takes across the pieces' expansions, narrowed (`narrow`) to
what `plan` keeps.  `simulate` trusts its tables, so every
table `plan` builds here is expanded and replayed, whole and piece by
piece.  Checked on hand traces, on
every trace of the default sweep, on random and interleaved traces and
configs (up to 1,024 channels for the cuts), on runs of contiguous
equal-size extents, on those extents cut into more rows (one a block,
as a per-block trace file reads, included), on random chunk columns, on
traces where tRAS first binds mid-channel, on perturbed command streams
and run tables, and on hand tables whose rules break on several
channels, out of channel order or outside the config.
"""

import contextlib
import dataclasses
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore import dram as engine
from planestore.address import Trace
from planestore.config import load_config
from planestore.dram import (
    CommandKind,
    DramCommand,
    DramState,
    energy_breakdown,
    plan,
    run_trace,
    schedule,
    simulate,
)
from planestore.experiment import chunk_latency_deltas, layer_cuts, solve_assignment
from planestore.workload import enumerate_chunks, gen_scores, gen_trace, trace_bytes

from reference import (
    assert_breakdown_exact, assert_same_state, cut, dram, expand, expanded,
    from_commands, planned, reference_simulate, replay,
)

DEFAULT_YAML = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
KINDS = list(CommandKind)


def trace_of(requests, chunks=None):
    """A Trace from (byte_addr, len_bytes) pairs, and a chunk per pair."""
    return Trace([a for a, _ in requests], [n for _, n in requests], chunk=chunks)


def commands_of(config, table):
    """A CommandTable as the DramCommand list it encodes, each run's
    reads expanded: the k-th at issue + k * t_ccd_l, column + k.  Every
    command carries its row's request_index."""
    commands = []
    columns = (
        table.kind, table.channel, table.bank, table.row, table.column,
        table.issue_cycle, table.request_index, table.count,
    )
    for kind, channel, bank, row, column, issue, request, count in zip(
        *(c.tolist() for c in columns)
    ):
        for k in range(count):
            commands.append(DramCommand(
                KINDS[kind], channel, bank, row, column + k, issue + k * config.t_ccd_l, request,
            ))
    return commands


def by_channel(stream):
    """A command stream as its channels' streams, one after another.

    Channels share no state, so a stream is equivalent to any
    interleaving of its channels' streams; the engine groups its rows by
    channel."""
    return sorted(stream, key=lambda cmd: cmd.channel)


def assert_engine_matches_reference(config, trace):
    ((runs, _, table),) = expanded(config, trace)
    expected = list(schedule(config, trace))
    commands = commands_of(config, table)
    # The expanded table is schedule's stream, every command naming the
    # trace row it reads for.
    assert by_channel(commands) == by_channel(expected)

    replay(config, [table])
    result = simulate(config, [runs])
    totals, per_request = reference_simulate(config, expected)
    assert result == totals
    assert result == reference_simulate(config, commands)[0]
    # What energy_breakdown and chunk_latency_deltas read: each trace
    # row's completion and ACTs, and its reads from its size.  schedule
    # names rows too, so the replay's per-request columns are per row.
    assert result.completion.tolist() == list(per_request.completion)
    assert result.acts.tolist() == list(per_request.acts)
    assert (trace.size // 64).tolist() == list(per_request.reads)
    if len(trace) and trace.tag.min() >= 0:
        assert_breakdown_exact(result, trace, per_request)
    return table, commands, result


# Default-config bursts per row across all channels: a row boundary falls
# every ROW_SPAN blocks of the address space.
ROW_SPAN = dram().channels * dram().columns_per_row


def extent_runs(blocks):
    head = ROW_SPAN - 2 * blocks - 1
    requests = [(64 * (head + i * blocks), 64 * blocks) for i in range(12)]
    head += 12 * blocks
    requests += [(64 * (head + i * 2), 128) for i in range(6)]
    return requests + [(64 * (ROW_SPAN - 40 + i * blocks), 64 * blocks) for i in range(5)]


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
        # Extents of 1, fewer than, as many as and more than 4 (the
        # channel count) bursts a request: each starts just before a row
        # boundary on every channel, is followed by one of another size,
        # then jumps back into its own rows.
        *(extent_runs(blocks) for blocks in (1, 3, 4, 5, 130)),
    ],
)
def test_hand_traces_match_reference(requests):
    # Once in one chunk, once with every third request starting a new
    # chunk, which the per-chunk completions read off the table follow.
    config = dram(p_bg_mw=0.0)
    for chunks in (None, [i // 3 for i in range(len(requests))]):
        assert_engine_matches_reference(config, trace_of(requests, chunks))


def run_table(table):
    """(kind, bank, row, issue_cycle, count) per table row."""
    return list(zip(
        [KINDS[k].name for k in table.kind.tolist()], table.bank.tolist(),
        table.row.tolist(), table.issue_cycle.tolist(), table.count.tolist(),
    ))


def test_precharge_waits_for_t_ras():
    # Both bursts land on channel 0, bank 0, in rows 0 and 1.  The second
    # run's PRE waits for tRAS after the first ACT (0 + 77), not for the
    # bus (34 + 1); its ACT follows tRP later and its read tRCD after that.
    config = dram()
    table, _, _ = assert_engine_matches_reference(config, trace_of([(0, 64), (1048576, 64)]))
    assert run_table(table) == [
        ("ACT", 0, 0, 0, 1), ("RD", 0, 0, 34, 1),
        ("PRE", 0, 0, 77, 1), ("ACT", 0, 1, 111, 1), ("RD", 0, 1, 145, 1),
    ]


def test_first_read_after_an_opening_waits_for_t_ccd():
    # One channel: two reads to bank 0 (cycles 1 and 13), then bank 1
    # opens at 14.  With tRCD = 1 its first read could issue at 15, but
    # tCCD_S after the read at 13 holds it to 21.
    config = dram(channels=1, t_rcd=1)
    table, _, _ = assert_engine_matches_reference(config, trace_of([(0, 128), (8192, 64)]))
    assert run_table(table) == [
        ("ACT", 0, 0, 0, 1), ("RD", 0, 0, 1, 2), ("ACT", 1, 0, 14, 1), ("RD", 1, 0, 21, 1),
    ]


def test_malformed_run_table_rejected():
    # Four channels, each an ACT and an RD row of two reads.
    table = planned(dram(), trace_of([(0, 512)]))
    act, rd = 0, 1
    assert run_table(table)[:2] == [("ACT", 0, 0, 0, 1), ("RD", 0, 0, 34, 2)]
    # One request of eight bursts: channel 0 reads its bursts 0 and 4.
    assert table.request_index[:2].tolist() == [0, 0]
    for name, row, value, match in (
        ("count", rd, 0, "count of at least 1"),
        ("count", act, 2, "any other row 1"),
        ("request_index", rd, -1, "request_index must not be negative"),
        ("kind", act, -1, "command kind codes must lie in \\[0, 3\\)"),
        ("kind", act, 3, "command kind codes must lie in \\[0, 3\\)"),
    ):
        column = getattr(table, name).copy()
        column[row] = value
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(table, **{name: column})


def test_bad_address_raises_the_scalar_error():
    # Trace rejects these rows itself, and plan relies on that; bare
    # columns still reach the reference scheduler's per-burst checks.
    config = dram()
    for bad, match in ((96, "not 64-byte aligned"), (-64, "negative")):
        raw = SimpleNamespace(addr=np.array([0, bad]), size=np.array([64, 64]))
        with pytest.raises(ValueError, match=match):
            list(schedule(config, raw))


class LongTrace:
    """A stand-in for a trace of n rows and 64 times as many reads, whose
    addr column holds nothing but its size."""

    def __init__(self, n):
        self.addr = SimpleNamespace(size=n)

    def __len__(self):
        return 64 * self.addr.size


def test_plan_refuses_traces_beyond_the_int32_columns():
    # The run table numbers trace rows and DRAM rows in int32.  A trace
    # of too many rows is refused before plan reads a column, so the
    # stand-in allocates nothing; one row fewer gets past the check,
    # however many reads its rows make.
    config = dram()
    with pytest.raises(ValueError, match="a trace of 2147483648 rows does not fit"):
        plan(config, LongTrace(1 << 31))
    assert len(LongTrace((1 << 31) - 1)) > 1 << 31
    with pytest.raises(TypeError):
        plan(config, LongTrace((1 << 31) - 1))
    # Row r of channel 0 starts at byte r * 2**20 on the default config.
    table, _ = plan(config, trace_of([((1 << 51) - 64, 64)]))
    assert table.row.max() == (1 << 31) - 1
    with pytest.raises(ValueError, match="reaches DRAM row 2147483648; the run table holds rows"):
        plan(config, trace_of([(1 << 51, 64)]))


def traced(fn, *args):
    """fn(*args), and the bytes its allocations kept and peaked at."""
    tracemalloc.start()
    try:
        out = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_engine_working_set_at_8_bits():
    # The default config at 8.0 bits, the whole trace in one piece.  The
    # run table is 29 bytes a run and 9 more an opening, and neither plan
    # nor simulate holds more than a few run-long temporaries at once:
    # plan peaks near 50 bytes a run, simulate near 16.  The traditional
    # trace is one row per loaded chunk.
    cfg = load_config(str(DEFAULT_YAML), seed=1234)
    directory = enumerate_chunks(cfg.geometry)
    scores = gen_scores(directory, cfg.importance)
    _, assignment = solve_assignment(directory, scores, 8.0, cfg.ladder, cfg.band_profile)
    trace, kept, _ = traced(gen_trace, assignment, directory, "traditional", cfg.guard)
    assert (len(trace), trace.addr.size) == (198_396, 801)
    assert kept <= 32 * trace.addr.size
    trace = gen_trace(assignment, directory, "bitplane", cfg.guard)
    (table, _), _, peak = traced(plan, cfg.dram, trace)
    assert {name: str(column.dtype) for name, column in vars(table).items()} == {
        "channel": "int16", "bank": "int16", "row": "int32", "column": "int32",
        "issue_cycle": "int64", "count": "int32", "request": "int32", "opening": "bool",
        "act_cycle": "int64", "precharges": "bool",
    }
    openings = int(table.opening.sum())
    assert (len(table), openings) == (33_791, 2_040)
    assert sum(column.nbytes for column in vars(table).values()) == 29 * len(table) + 9 * openings
    assert peak <= 56 * len(table)
    _, _, peak = traced(simulate, cfg.dram, [table])
    assert peak <= 20 * len(table)
    # An extent reads on at most as many channels as it has bursts, so
    # plan's working set follows the table, not the channel count.
    for channels in (64, 1024):
        (wide, _), _, peak = traced(plan, dataclasses.replace(cfg.dram, channels=channels), trace)
        assert peak <= 56 * len(wide)


def test_working_set_follows_the_largest_layer():
    # The default geometry's layer at 8.0 bits, once and four times over:
    # planned and totalled a layer at a time, the four-layer bitplane
    # trace peaks less than half as high again as the one-layer one.
    cfg = load_config(str(DEFAULT_YAML), seed=1234)
    peaks = []
    for layers in (1, 4):
        directory = enumerate_chunks(dataclasses.replace(cfg.geometry, layers=layers))
        scores = gen_scores(directory, cfg.importance)
        _, assignment = solve_assignment(directory, scores, 8.0, cfg.ladder, cfg.band_profile)
        trace = gen_trace(assignment, directory, "bitplane", cfg.guard)
        cuts = layer_cuts(directory, trace)
        assert len(cuts) == layers - 1
        result, _, peak = traced(run_trace, cfg.dram, trace, cuts)
        assert result == run_trace(cfg.dram, trace)
        peaks.append(peak)
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_run_trace_plans_each_piece_once():
    # compare's path on the default 8.0-bit bitplane trace: one plan per
    # layer, each from the state the one before returned.  With no
    # command rows built, its traced peak stays under 1.0 MB.
    cfg = load_config(str(DEFAULT_YAML), seed=1234)
    directory = enumerate_chunks(cfg.geometry)
    scores = gen_scores(directory, cfg.importance)
    _, assignment = solve_assignment(directory, scores, 8.0, cfg.ladder, cfg.band_profile)
    trace = gen_trace(assignment, directory, "bitplane", cfg.guard)
    cuts = layer_cuts(directory, trace)
    assert len(cuts) == cfg.geometry.layers - 1 > 0
    calls = []  # (rows, the state handed in, the state returned) per plan

    def recording(config, trace, rows, state):
        table, after = plan(config, trace, rows, state)
        calls.append((rows, state, after))
        return table, after

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "plan", recording)
        result = run_trace(cfg.dram, trace, cuts)
    bounds = [0, *cuts, trace.addr.size]
    assert [rows for rows, _, _ in calls] == list(zip(bounds, bounds[1:]))
    assert calls[0][1] is None
    assert all(now[1] is before[2] for before, now in zip(calls, calls[1:]))
    assert result == run_trace(cfg.dram, trace)
    _, _, peak = traced(run_trace, cfg.dram, trace, cuts)
    assert peak <= 1_000_000


@pytest.fixture(scope="module")
def sweep_traces():
    """Every (target, mode) request stream of configs/default.yaml at seed 1234."""
    cfg = load_config(str(DEFAULT_YAML), seed=1234)
    directory = enumerate_chunks(cfg.geometry)
    scores = gen_scores(directory, cfg.importance)
    traces = {}
    for target in cfg.targets:
        _, assignment = solve_assignment(directory, scores, target, cfg.ladder, cfg.band_profile)
        for mode in ("bitplane", "traditional"):
            traces[target, mode] = gen_trace(assignment, directory, mode, cfg.guard)
    return cfg, traces


@contextlib.contextmanager
def counted_steps():
    """Count the row openings plan steps through the bank state machine."""
    steps, step = [0], engine._open_rows

    def counting(*args):
        acts, rds = step(*args)
        steps[0] += len(acts)
        return acts, rds

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_open_rows", counting)
        yield steps


def test_default_sweep_traces_match_reference(sweep_traces):
    # Each trace is tagged by kind, so its energy split is checked too.
    cfg, traces = sweep_traces
    assert len(traces) == 10
    counts, rows = {}, 0
    with counted_steps() as steps:
        for key, trace in traces.items():
            table, commands, result = assert_engine_matches_reference(cfg.dram, trace)
            counts[key] = (len(trace), len(commands), result.num_acts)
            rows += len(table)
    # The baseline counts the benchmark pins for this config and seed.
    assert counts[8.0, "traditional"][:2] == (198_396, 202_180)
    assert counts[1.6, "bitplane"][2] == 1_931
    assert counts[1.6, "traditional"][2] == 728
    # One table row per run and per PRE/ACT, not per burst, and no run
    # crosses a trace row.  No PRE waits for tRAS, so all 17,482 openings (ACTs) are timed in
    # closed form and none steps the bank state machine.
    assert sum(c[1] for c in counts.values()) == 1_020_159
    assert rows == 149_098
    assert sum(c[2] for c in counts.values()) == 17_482
    assert steps[0] == 0


@pytest.mark.parametrize(
    "overrides", [{}, {"banks_per_channel": 2, "t_ras": 300}], ids=["defaults", "t_ras_binds"]
)
def test_production_tables_replay(sweep_traces, overrides):
    # The tables run_trace totals for every (target, mode) of the sweep,
    # planned a layer cut at a time as compare plans them, on the
    # defaults and on two banks a channel with a long tRAS, where most
    # openings step the bank state machine.  `expanded` also asserts
    # that the state plan returns for each piece is the one carry takes
    # across the expansions, narrowed.
    cfg, traces = sweep_traces
    config = dataclasses.replace(cfg.dram, **overrides)
    directory = enumerate_chunks(cfg.geometry)
    for trace in traces.values():
        pieces = expanded(config, trace, layer_cuts(directory, trace))
        replay(config, (piece.table for piece in pieces))


# --- random configs, traces and streams -------------------------------------

configs = st.builds(
    dram,
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
# A request may start a new chunk.
traces = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 12), st.booleans()), max_size=25
).map(lambda reqs: trace_of(
    [(64 * slot, 64 * n) for slot, n, _ in reqs],
    np.cumsum([new for _, _, new in reqs], dtype=np.int64),
))


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
    alternate banks and, when streams share a bank, conflict.  Each
    round over the k streams loads one chunk."""
    k = draw(st.integers(1, 6))
    stride = draw(st.one_of(st.integers(1, 300), st.sampled_from([256, 1024, 4096, 16384])))
    pieces, rng = draw(st.integers(1, 600)), draw(st.randoms(use_true_random=False))
    heads = [i * stride for i in range(k)]
    requests = []
    for j in range(pieces):
        blocks = rng.randint(1, 8)
        requests.append((64 * heads[j % k], 64 * blocks))
        heads[j % k] += blocks
    return trace_of(requests, [j // k for j in range(pieces)])


@settings(deadline=None, max_examples=100)
@given(st.one_of(configs, st.just(dram())), interleaved_traces())
def test_interleaved_streams_match_reference(config, trace):
    assert_engine_matches_reference(config, trace)


@st.composite
def extent_traces(draw):
    """Runs of contiguous requests of one burst count each, the way a
    traditional trace streams a chunk.  Counts of 1, below, at and above
    the channel count of every config here; between runs the address
    jumps (often to just before a row boundary) or carries on, and the
    count may change, so extents cross rows and adjoin each other.  A
    new chunk starts at a request with probability 0, 0.1 or 0.5, so
    chunk changes fall inside extents too."""
    requests, head = [], draw(st.integers(0, 2 * ROW_SPAN))
    for _ in range(draw(st.integers(1, 5))):
        jump = draw(st.sampled_from(["none", "boundary", "anywhere"]))
        if jump == "boundary":
            head = max(ROW_SPAN * draw(st.integers(0, 6)) + draw(st.integers(-12, 12)), 0)
        elif jump == "anywhere":
            head = draw(st.integers(0, 8 * ROW_SPAN))
        blocks = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 130]))
        for _ in range(draw(st.integers(1, max(2, 120 // blocks)))):
            requests.append((64 * head, 64 * blocks))
            head += blocks
    p, rng = draw(st.sampled_from([0.0, 0.1, 0.5])), draw(st.randoms(use_true_random=False))
    return trace_of(requests, np.cumsum([rng.random() < p for _ in requests], dtype=np.int64))


@settings(deadline=None, max_examples=150)
@given(st.one_of(configs, st.just(dram())), extent_traces())
def test_extent_runs_match_reference(config, trace):
    assert_engine_matches_reference(config, trace)


@st.composite
def handoff_cases(draw):
    """A config and a trace: a sequential stream that opens each bank's
    row 0 at most once, so no PRE waits for tRAS, then 1-2 banks of one
    channel each opened twice running, to rows 1 and 2, so that tRAS
    binds, then the stream again, which may reopen rows."""
    config = draw(st.builds(
        dram,
        channels=st.integers(1, 3),
        banks_per_channel=st.integers(2, 8),
        row_bytes=st.sampled_from([128, 256, 512]),
        # Short t_rcd and t_rp let tCCD bind the first read after an ACT.
        t_rcd=st.one_of(st.integers(1, 4), st.integers(1, 34)),
        t_rp=st.one_of(st.integers(1, 4), st.integers(1, 40)),
        t_ras=st.integers(40, 300),
    ))
    channels, banks, cpr = config.channels, config.banks_per_channel, config.columns_per_row
    rng = draw(st.randoms(use_true_random=False))

    def stream(lo, hi):
        requests = []
        while lo < hi:
            blocks = min(rng.randint(1, 8), hi - lo)
            requests.append((64 * lo, 64 * blocks))
            lo += blocks
        return requests

    head = draw(st.integers(channels * cpr, channels * cpr * banks))
    requests = stream(0, head)
    channel = draw(st.integers(0, channels - 1))
    thrashed = draw(st.lists(st.integers(0, banks - 1), min_size=1, max_size=2, unique=True))
    for _ in range(draw(st.integers(1, 3))):
        for bank in thrashed:
            for row in (1, 2):
                requests.append((64 * (((row * banks + bank) * cpr) * channels + channel), 64))
    requests += stream(head, head + draw(st.integers(0, channels * cpr * banks)))
    return config, trace_of(requests)


@settings(deadline=None, max_examples=100)
@given(handoff_cases())
def test_state_machine_takes_over_where_t_ras_binds(case):
    # A bank's second opening in a row would issue its PRE one cycle
    # after the first opening's read, at most 35 cycles after that ACT
    # (tRCD <= 34, tCCD <= 12 here), short of tRAS >= 40.  From there the
    # channel's openings step through _open_rows, starting from the
    # closed form's state; the stream's openings before the thrash do not.
    config, trace = case
    with counted_steps() as steps:
        _, _, result = assert_engine_matches_reference(config, trace)
    assert 0 < steps[0] < result.num_acts


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(configs, st.just(dram())),
    st.one_of(extent_traces(), interleaved_traces()),
    st.randoms(use_true_random=False),
)
def test_plan_does_not_read_the_chunk_column(config, trace, rng):
    # Any chunk column, chunks revisited included, gives the table the
    # trace gives without one: a run never crosses a trace row, and a
    # row loads one chunk, so no RD row reads for two chunks.
    chunk = [rng.randint(0, 3) for _ in range(trace.addr.size)]
    table, state = plan(config, Trace(trace.addr, trace.size, chunk=chunk))
    plain, plain_state = plan(config, Trace(trace.addr, trace.size))
    for name, column in vars(plain).items():
        got = getattr(table, name)
        assert got.dtype == column.dtype and np.array_equal(got, column), name
    assert_same_state(state, plain_state)


def cut_points(n):
    """Cut positions in 0..n, ascending, repeats and the ends included,
    so a piece may be empty."""
    return st.lists(st.integers(0, n), max_size=6).map(sorted)


def assert_cuts_are_exact(config, trace, cuts):
    """Planned piece by piece, each from the state plan returned for the
    piece before, which is the state `carry` takes across the pieces'
    expansions, narrowed (`expanded` asserts it), the expanded tables
    taken channel by channel are the one-piece table's rows, and
    replayed piece by piece they are legal.  Totalled piece by piece, or
    through run_trace, they give its result, per request included, and
    the last piece leaves its state."""
    ((whole_runs, whole_state, whole),) = expanded(config, trace)
    pieces = list(expanded(config, trace, cuts))
    assert_same_state(pieces[-1].state, whole_state)
    runs, tables = [p.runs for p in pieces], [p.table for p in pieces]
    replay(config, tables)
    joined = {name: np.concatenate([getattr(t, name) for t in tables]) for name in vars(whole)}
    by_channel = np.argsort(joined["channel"], kind="stable")
    for name, column in vars(whole).items():
        got = joined[name][by_channel]
        assert got.dtype == column.dtype and np.array_equal(got, column), name
    want = simulate(config, [whole_runs])
    for result in (simulate(config, runs), run_trace(config, trace, cuts)):
        assert result == want
        assert np.array_equal(result.completion, want.completion)
        assert np.array_equal(result.acts, want.acts)


# Channel counts up to 1,024, and tRAS up to 300, so that it often binds.
wide_configs = st.builds(
    dram,
    channels=st.sampled_from([1, 2, 3, 5, 16, 64, 1024]),
    banks_per_channel=st.integers(1, 8),
    row_bytes=st.sampled_from([64, 128, 256, 512]),
    t_rcd=st.one_of(st.integers(1, 4), st.integers(1, 40)),
    t_rp=st.one_of(st.integers(1, 4), st.integers(1, 40)),
    t_ras=st.integers(40, 300),
)


@settings(deadline=None, max_examples=200)
@given(
    st.one_of(configs, wide_configs, st.just(dram())),
    st.one_of(traces, extent_traces(), interleaved_traces()),
    st.data(),
)
def test_cut_traces_plan_and_replay_as_one(config, trace, data):
    assert_cuts_are_exact(config, trace, data.draw(cut_points(trace.addr.size)))


@settings(deadline=None, max_examples=100)
@given(handoff_cases(), st.data())
def test_cuts_where_t_ras_binds(case, data):
    # The thrashed banks' openings step the bank state machine, which a
    # cut restarts from the carried ACT cycles, mid-thrash included.
    config, trace = case
    assert_cuts_are_exact(config, trace, data.draw(cut_points(trace.addr.size)))


def split(trace, p, seed):
    """The same extents cut into more rows: before each block but an
    extent's first with probability p, each piece keeping its row's tag
    and chunk.  At p = 1 every row is one block, as a trace file written
    one line per block reads."""
    blocks = trace.size // 64
    row = np.repeat(np.arange(blocks.size), blocks)
    block = np.arange(row.size) - (np.cumsum(blocks) - blocks)[row]
    heads = np.flatnonzero((block == 0) | (np.random.default_rng(seed).random(row.size) < p))
    return Trace(
        trace.addr[row[heads]] + 64 * block[heads], 64 * np.diff(np.r_[heads, row.size]),
        trace.tag[row[heads]], trace.labels, trace.chunk[row[heads]],
    )


def assert_same_figures(config, pieces, trace):
    """pieces and trace read one stream in different rows: every figure
    read off either is the same."""
    assert len(pieces) == len(trace) and trace_bytes(pieces) == trace_bytes(trace)
    assert pieces.bytes_by_tag().tolist() == trace.bytes_by_tag().tolist()
    replay(config, [planned(config, pieces)])
    result, whole = run_trace(config, pieces), run_trace(config, trace)
    assert result == whole
    assert energy_breakdown(result, pieces) == energy_breakdown(whole, trace)
    chunks = int(trace.chunk.max()) + 1 if trace.chunk.size else 0
    assert np.array_equal(
        chunk_latency_deltas(pieces, result, config, chunks),
        chunk_latency_deltas(trace, whole, config, chunks),
    )


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(configs, st.just(dram())),
    st.one_of(extent_traces(), interleaved_traces()),
    st.sampled_from([0.3, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_split_extents_give_the_same_figures(config, trace, p, seed):
    # A tag per chunk, so the energy split is checked too.
    tagged = Trace(trace.addr, trace.size, trace.chunk % 3, ("a", "b", "c"), trace.chunk)
    assert_same_figures(config, split(tagged, p, seed), tagged)


@pytest.mark.parametrize("target", [1.6, 8.0])
def test_default_traditional_traces_split_exactly(sweep_traces, target):
    # The traditional trace's one row per chunk, its one row per block
    # and a random cut in between all give the same figures.
    cfg, traces = sweep_traces
    trace = traces[target, "traditional"]
    for p in (1.0, 0.1):
        assert_same_figures(cfg.dram, split(trace, p, 0), trace)


def same_verdict(config, stream, table=None, cuts=None, runs=None):
    """Both replays raise the same message, or accept, and then simulate
    returns the reference's result for runs, the run table table
    expands, per-request figures included.

    The reference replays stream; replay takes table, which must encode
    stream, or when table is None stream's `from_commands` table: whole,
    and cut before each row in cuts, or when cuts is None, cut once
    before each row in turn."""
    table = from_commands(stream) if table is None else table
    cuttings = [[], *([[k] for k in range(len(table) + 1)] if cuts is None else [cuts])]
    try:
        want, per_request = reference_simulate(config, stream)
    except ValueError as exc:
        for at in cuttings:
            with pytest.raises(ValueError) as got:
                replay(config, cut(table, at))
            assert str(got.value) == str(exc), at
    else:
        for at in cuttings:
            replay(config, cut(table, at))
        if runs is not None:
            got = simulate(config, [runs])
            assert got == want
            assert got.completion.tolist() == list(per_request.completion)
            assert got.acts.tolist() == list(per_request.acts)


def cmd(kind, ch, bank, row, cycle):
    return DramCommand(CommandKind[kind], ch, bank, row, 0, cycle)


@pytest.mark.parametrize(
    "stream",
    [
        # Both channels break a rule, and channel 1's broken read comes
        # first in table order, though its rows replay after channel 0's.
        [cmd("ACT", 0, 0, 0, 0), cmd("RD", 1, 0, 0, 5), cmd("RD", 0, 0, 0, 1)],
        # As above with the channels' roles swapped.
        [cmd("ACT", 1, 0, 0, 0), cmd("RD", 0, 0, 0, 5), cmd("RD", 1, 0, 0, 1)],
        # Rows already grouped by channel, as plan writes them.
        [cmd("ACT", 0, 0, 0, 0), cmd("RD", 0, 0, 0, 1), cmd("RD", 1, 0, 0, 5)],
        # Bank -1 on channel 1 beside bank 31 on channel 0: one bank
        # index apart in a channel-major numbering, they share no state.
        [cmd("ACT", 0, 31, 0, 0), cmd("ACT", 1, -1, 5, 0), cmd("RD", 0, 31, 0, 40)],
        [cmd("ACT", 1, -1, 5, 0), cmd("ACT", 0, 31, 0, 0), cmd("RD", 0, 31, 0, 40)],
        # Bank 32 on channel 0, past the config, read after a legal
        # stream on channel 1 bank 0, which it must not seem to open.
        [cmd("ACT", 1, 0, 0, 0), cmd("RD", 1, 0, 0, 40), cmd("ACT", 0, 32, 3, 0)],
        # Channels past either end of the config, among legal rows.
        [cmd("ACT", 0, 0, 0, 0), cmd("ACT", 4, 0, 0, 0), cmd("RD", 0, 0, 0, 40)],
        [cmd("ACT", 0, 0, 0, 0), cmd("RD", 0, 0, 0, 40), cmd("RD", -1, 0, 0, 50)],
        [cmd("ACT", 7, 1, 0, 3), cmd("ACT", 0, 0, 0, 0), cmd("RD", 0, 0, 0, 40)],
        # One row breaking two rules is named by the earlier rule in
        # _VIOLATIONS: outside the config over a bus conflict, a bus
        # conflict over a row already open, a precharge or read with no
        # open row over tRAS or tRCD, a read to the wrong row over tRCD,
        # and tRCD over tCCD_S.
        [cmd("ACT", 0, 0, 0, 0), cmd("ACT", 0, 32, 0, 0)],
        [cmd("ACT", 0, 0, 0, 0), cmd("ACT", 0, 0, 1, 0)],
        [cmd("ACT", 0, 0, 0, 0), cmd("PRE", 0, 0, 0, 80), cmd("PRE", 0, 0, 0, 90)],
        [cmd("ACT", 0, 0, 0, 0), cmd("PRE", 0, 0, 0, 80), cmd("RD", 0, 0, 0, 90)],
        [cmd("ACT", 0, 0, 0, 0), cmd("RD", 0, 0, 5, 10)],
        [cmd("ACT", 0, 0, 0, 0), cmd("RD", 0, 0, 0, 34), cmd("ACT", 0, 1, 0, 35),
         cmd("RD", 0, 1, 0, 40)],
    ],
    ids=[
        "later-channel-first", "earlier-channel-first", "grouped-table",
        "bank-minus-1-beside-31", "bank-minus-1-first", "bank-past-config",
        "channel-past-config", "negative-channel", "channel-past-config-first",
        "config-over-bus", "bus-over-row-open", "no-open-row-over-t-ras",
        "read-no-open-row-over-t-rcd", "wrong-row-over-t-rcd", "t-rcd-over-t-ccd-s",
    ],
)
def test_hand_tables_get_the_reference_verdict(stream):
    same_verdict(dram(), stream)


# Channel and bank -1 and 2 lie outside the 2 x 2 config the streams run on.
raw_commands = st.lists(
    st.builds(
        DramCommand,
        kind=st.sampled_from(KINDS),
        channel=st.sampled_from([0] * 4 + [1] * 4 + [-1, 2]),
        bank=st.sampled_from([0] * 4 + [1] * 4 + [-1, 2]),
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
    same_verdict(dram(channels=2, banks_per_channel=2), stream)


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
    same_verdict(config, stream, cuts=data.draw(cut_points(len(stream))))


@settings(deadline=None, max_examples=300)
@given(configs, st.one_of(interleaved_traces(), extent_traces()), st.data())
def test_perturbed_run_tables_get_the_reference_verdict(config, trace, data):
    # One run of a planned run table moved in time or sent to another
    # row or bank, or one opening's ACT (and its PRE) moved in time, then
    # expanded.  A row that follows a multi-read run is checked against
    # that run's last read, not its first.
    runs, _ = plan(config, trace)
    name = data.draw(st.sampled_from(["issue_cycle", "issue_cycle", "row", "bank", "act_cycle"]))
    column = getattr(runs, name).copy()
    i = data.draw(st.integers(0, column.size - 1))
    if name.endswith("cycle"):
        column[i] += data.draw(st.one_of(st.integers(-12, 12), st.integers(-60, 60)))
    else:
        column[i] += data.draw(st.sampled_from([-1, 1]))
    runs = dataclasses.replace(runs, **{name: column})
    table = expand(config, runs, DramState.initial(config))
    same_verdict(
        config, commands_of(config, table), table, data.draw(cut_points(len(table))), runs
    )
