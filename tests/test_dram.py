"""Tests for the DDR5 timing and energy model."""

import dataclasses
import itertools
import math
from dataclasses import fields

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planestore.address import Trace
from planestore.dram import (
    CommandKind,
    DramCommand,
    DramState,
    energy_breakdown,
    map_address,
    plan,
    schedule,
    simulate,
)

from reference import (
    CommandState, assert_breakdown_exact, assert_same_state, carry, dram, from_commands, narrow,
    planned, reference_simulate, replay,
)

CFG = dram()
NO_BG = dram(p_bg_mw=0.0)


def req(addr, length=64):
    return addr, length


def trace_of(requests, tags=None, labels=()):
    """A Trace from req() pairs, with tag codes into labels."""
    return Trace([a for a, _ in requests], [n for _, n in requests], tags, labels)


def kinds(commands):
    return [c.kind for c in commands]


# --- config -----------------------------------------------------------------

def test_default_config_shape():
    assert CFG.burst_cycles == 8
    assert CFG.columns_per_row == 128
    assert CFG.t_ras >= CFG.t_rcd


def test_config_validation():
    with pytest.raises(ValueError, match="divide row_bytes"):
        dram(row_bytes=100)
    with pytest.raises(ValueError, match="t_ras"):
        dram(t_ras=10, t_rcd=34)
    with pytest.raises(ValueError, match="positive"):
        dram(channels=0)
    with pytest.raises(ValueError, match="clock_ns"):
        dram(clock_ns=0.0)


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"t_ccd_s": 4}, "t_ccd_s must be at least the 8-cycle burst"),
        ({"t_ccd_l": 7}, "t_ccd_l must be at least the 8-cycle burst"),
        ({"t_rp": 1 << 31}, "t_rp must be below 2147483648, got 2147483648"),
        ({"t_cl": 1 << 62}, "t_cl must be below 2147483648"),
    ],
)
def test_config_rejects_what_the_model_cannot_represent(fields, match):
    # A tCCD below the burst length lets data bursts overlap on the bus.
    with pytest.raises(ValueError, match=match):
        dram(**fields)
    dram(t_ccd_s=8, t_ccd_l=8)


# --- address mapping --------------------------------------------------------

def test_map_address_examples():
    assert map_address(CFG, 0) == (0, 0, 0, 0)
    assert map_address(CFG, 64)[0] == 1
    # One full round of channels later: same channel, next column.
    assert map_address(CFG, 64 * 4) == (0, 0, 0, 1)


def test_map_address_misaligned():
    with pytest.raises(ValueError, match="aligned"):
        map_address(CFG, 65)
    with pytest.raises(ValueError, match="negative"):
        map_address(CFG, -64)


def test_map_address_is_a_bijection():
    seen = set()
    for addr in range(0, 1 << 18, 64):
        ch, bank, row, col = map_address(CFG, addr)
        burst = (row * CFG.banks_per_channel + bank) * CFG.columns_per_row + col
        assert burst * CFG.channels * 64 + ch * 64 == addr
        seen.add((ch, bank, row, col))
    assert len(seen) == (1 << 18) // 64


def test_map_address_walks_columns_first():
    # Sequential per-channel bursts fill a row before touching a new bank.
    rows_banks = set()
    for addr in range(0, 128 * 256, 256):
        _, bank, row, _ = map_address(CFG, addr)
        rows_banks.add((bank, row))
    assert rows_banks == {(0, 0)}


# --- scheduling -------------------------------------------------------------

def test_cold_single_burst_is_act_rd():
    cmds = list(schedule(CFG, trace_of([req(0)])))
    assert kinds(cmds) == [CommandKind.ACT, CommandKind.RD]
    assert [c.issue_cycle for c in cmds] == [0, CFG.t_rcd]


def test_row_hit_adds_only_a_read():
    cmds = list(schedule(CFG, trace_of([req(0), req(256)])))
    assert kinds(cmds) == [CommandKind.ACT, CommandKind.RD, CommandKind.RD]
    assert cmds[-1].issue_cycle == CFG.t_rcd + CFG.t_ccd_l


def test_row_boundary_crossing_costs_two_acts_per_channel():
    # 4,096B starting 2,048B before the per-channel row edge: the stream
    # crosses exactly one row boundary on every channel.
    start = (CFG.columns_per_row - 8) * 256
    cmds = list(schedule(CFG, trace_of([req(start, 4096)])))
    acts = [c for c in cmds if c.kind is CommandKind.ACT]
    per_channel = {ch: 0 for ch in range(CFG.channels)}
    for c in acts:
        per_channel[c.channel] += 1
    assert all(n == 2 for n in per_channel.values())
    assert not [c for c in cmds if c.kind is CommandKind.PRE]


def test_row_conflict_precharges_first():
    conflict = CFG.columns_per_row * CFG.banks_per_channel * 256
    cmds = list(schedule(CFG, trace_of([req(0), req(conflict)])))
    assert kinds(cmds) == [
        CommandKind.ACT,
        CommandKind.RD,
        CommandKind.PRE,
        CommandKind.ACT,
        CommandKind.RD,
    ]
    pre, act2, rd2 = cmds[2], cmds[3], cmds[4]
    assert pre.issue_cycle == CFG.t_ras
    assert act2.issue_cycle == CFG.t_ras + CFG.t_rp
    assert rd2.issue_cycle == act2.issue_cycle + CFG.t_rcd


def test_schedule_is_lazy():
    stream = schedule(CFG, trace_of([req(0)]))
    assert next(stream).kind is CommandKind.ACT


# --- simulation -------------------------------------------------------------

def test_single_burst_completion():
    result = simulate(CFG, trace_of([req(0)]))
    assert result.total_cycles == 76
    assert math.isclose(result.total_ns, 76 * CFG.clock_ns)
    assert result.total_ns == pytest.approx(31.7, abs=0.05)
    assert result.bytes_transferred == 64
    assert (result.completion.tolist(), result.acts.tolist()) == ([76], [1])


def test_empty_trace():
    result = simulate(CFG, trace_of([]))
    assert result.total_cycles == 0
    assert result.energy_pj["total"] == 0.0
    table, state = plan(CFG, trace_of([]))
    assert len(table) == 0
    assert_same_state(state, DramState.initial(CFG))
    assert result.completion.tolist() == result.acts.tolist() == []
    assert result.bytes_transferred == 0


@pytest.mark.parametrize("n", [1, 10, 100])
def test_back_to_back_row_hits_closed_form(n):
    requests = [req(256 * i) for i in range(n)]
    result = simulate(CFG, trace_of(requests))
    expected = CFG.t_rcd + CFG.t_cl + (n - 1) * CFG.t_ccd_l + CFG.burst_cycles
    assert result.total_cycles == expected


def test_energy_is_exact_with_no_background():
    requests = [req(0, 256), req(4096, 128), req(1 << 20)]
    result = simulate(NO_BG, trace_of(requests))
    expected = NO_BG.e_act_pj * result.num_acts + NO_BG.e_rd_pj * result.num_reads
    assert result.energy_pj["total"] == expected
    assert result.energy_pj["background"] == 0.0


def test_energy_components_sum_to_total():
    result = simulate(CFG, trace_of([req(0, 512), req(1 << 16, 192)]))
    e = result.energy_pj
    assert math.isclose(e["total"], e["activation"] + e["read"] + e["background"])
    assert e["background"] > 0


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"clock_ns": 1e304}, "the simulated background energy is inf"),
        ({"clock_ns": 1e307}, "the simulated time is inf"),
        ({"e_rd_pj": 1e308}, "the simulated read energy is inf"),
        ({"e_act_pj": 1e308, "e_rd_pj": 1e308}, "the simulated activation energy is inf"),
    ],
)
def test_non_finite_results_are_rejected(fields, match):
    with pytest.raises(ValueError, match=match):
        simulate(dram(**fields), trace_of([req(0, 512)]))


def test_breakdown_rejects_an_overflowing_share():
    # Finite totals, but an energy times a tag's count overflows.
    config = dram(e_act_pj=1e308 / 2)
    trace = trace_of([req(0), req(8192 * 4), req(8192 * 8)], [0, 0, 1], ["a", "b"])
    result = simulate(config, trace)
    assert result.num_acts == 3 and math.isfinite(result.energy_pj["total"])
    with pytest.raises(ValueError, match="a tag's simulated energy is not finite"):
        energy_breakdown(result, trace)


def test_determinism():
    requests = [req(64 * i, 64) for i in range(0, 40, 3)]
    first, second = (simulate(CFG, trace_of(requests)) for _ in range(2))
    assert first == second
    assert np.array_equal(first.completion, second.completion)
    assert np.array_equal(first.acts, second.acts)
    (a, a_state), (b, b_state) = (plan(CFG, trace_of(requests)) for _ in range(2))
    assert all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    assert_same_state(a_state, b_state)


def test_per_request_accounting():
    # Request 0 reads one block on each channel, request 1 one more on
    # channel 0, a row hit after request 0's read there.
    trace = trace_of([req(0, 256), req(1024, 64)])
    result = simulate(CFG, trace)
    assert (trace.size // 64).tolist() == [4, 1]
    assert sum(trace.size // 64) == result.num_reads
    assert result.acts.tolist() == [4, 0]
    assert result.acts.sum() == result.num_acts
    # Request 0's four reads, one a channel, complete together; request
    # 1's read follows request 0's on channel 0 by t_ccd_l.
    assert result.completion.tolist() == [76, 76 + CFG.t_ccd_l]
    assert result.completion.max() == result.total_cycles


# --- command stream legality ------------------------------------------------

def rd(ch, bank, row, col, cycle, index=0):
    return DramCommand(CommandKind.RD, ch, bank, row, col, cycle, index)


def act(ch, bank, row, cycle, index=0):
    return DramCommand(CommandKind.ACT, ch, bank, row, 0, cycle, index)


def pre(ch, bank, row, cycle, index=0):
    return DramCommand(CommandKind.PRE, ch, bank, row, 0, cycle, index)


def rejects(stream, match):
    """The replay rejects stream with the reference replay's message."""
    with pytest.raises(ValueError, match=match) as got:
        replay(CFG, [from_commands(stream)])
    with pytest.raises(ValueError) as want:
        reference_simulate(CFG, stream)
    assert str(got.value) == str(want.value)


def test_read_without_activate_rejected():
    rejects([rd(0, 0, 0, 0, 0)], "no open row")


def test_read_to_wrong_row_rejected():
    rejects([act(0, 0, 0, 0), rd(0, 0, 5, 0, 40)], "while row 0 is open")


def test_trcd_enforced():
    rejects([act(0, 0, 0, 0), rd(0, 0, 0, 0, 20)], "t_rcd")


def test_tccd_l_enforced():
    rejects([act(0, 0, 0, 0), rd(0, 0, 0, 0, 34), rd(0, 0, 0, 1, 40)], "t_ccd_l")


def test_tccd_s_enforced():
    stream = [
        act(0, 0, 0, 0),
        act(0, 1, 0, 1),
        rd(0, 0, 0, 0, 35),
        rd(0, 1, 0, 0, 40),
    ]
    rejects(stream, "t_ccd_s")


def test_double_activate_rejected():
    rejects([act(0, 0, 0, 0), act(0, 0, 1, 50)], "already open")


def test_precharge_without_open_row_rejected():
    rejects([pre(0, 0, 0, 0)], "no open row")


def test_tras_enforced():
    rejects([act(0, 0, 0, 0), pre(0, 0, 0, 50)], "t_ras")


def test_trp_enforced():
    stream = [act(0, 0, 0, 0), pre(0, 0, 0, 80), act(0, 0, 1, 100)]
    rejects(stream, "t_rp")


def test_command_bus_conflict_rejected():
    rejects([act(0, 0, 0, 10), act(0, 1, 0, 10)], "bus conflict")


def test_legal_hand_stream_accepted():
    stream = [act(0, 0, 0, 0), rd(0, 0, 0, 0, 34), pre(0, 0, 0, 77), act(0, 0, 1, 111)]
    # It ends in an ACT no read follows, which no run table holds, so
    # only the replays total it.
    replay(CFG, [from_commands(stream)])
    result = reference_simulate(CFG, stream)[0]
    assert result.num_acts == 2
    assert result.num_reads == 1


@pytest.mark.parametrize(
    "stream, match",
    [
        (
            [act(0, 0, 0, 0), rd(0, 0, 0, 0, 34), pre(0, 0, 0, 77)],
            "last command is not its last read",
        ),
        (
            [act(0, 0, 0, 0), act(0, 1, 0, 1), rd(0, 0, 0, 0, 34), pre(0, 1, 0, 78),
             rd(0, 0, 0, 1, 79)],
            "newest ACT or PRE is a PRE",
        ),
    ],
    ids=["ends_on_a_pre", "leaves_a_bank_precharged"],
)
def test_narrow_refuses_what_no_run_table_leaves(stream, match):
    # Legal streams the replay takes, but no run table ends a channel on
    # a PRE or leaves a bank precharged, so plan's state cannot hold them.
    table = from_commands(stream)
    replay(CFG, [table])
    with pytest.raises(AssertionError, match=match):
        narrow(carry(CFG, CommandState.initial(CFG), table))


def test_out_of_config_and_unknown_kinds_rejected():
    rejects([act(4, 0, 0, 0)], "channel 4 bank 0 outside the config")
    rejects([act(0, 0, 0, 0), act(0, 32, 0, 1)], "channel 0 bank 32 outside")
    rejects([act(0, 0, 0, 0), DramCommand("RD", 0, 0, 0, 0, 34)], "unknown command kind 'RD'")
    rejects([act(-1, 0, 0, 0), rd(-1, 0, 0, 0, 40)], "channel -1 bank 0 outside the config")
    rejects([act(0, -3, 0, 0), rd(0, -3, 0, 0, 40)], "channel 0 bank -3 outside the config")
    rejects([act(-1, -3, 0, 0), rd(-1, -3, 0, 0, 40)], "channel -1 bank -3 outside the config")


# --- invariants -------------------------------------------------------------

def test_byte_conservation():
    requests = [req(0, 320), req(8192, 64), req(1 << 19, 1024)]
    result = simulate(CFG, trace_of(requests))
    assert result.bytes_transferred == sum(n for _, n in requests)


def test_adding_a_request_never_helps():
    base = [req(256 * i) for i in range(6)]
    longer = base + [req(1 << 21, 128)]
    a, b = simulate(CFG, trace_of(base)), simulate(CFG, trace_of(longer))
    assert b.total_cycles >= a.total_cycles
    assert b.energy_pj["total"] >= a.energy_pj["total"]


def test_sorted_stream_minimizes_activates():
    # Five bursts on one channel, two rows of one bank: sorted order opens
    # each row once; every shuffle can only add precharge churn.
    conflict = CFG.columns_per_row * CFG.banks_per_channel * 256
    addrs = [0, 256, 512, conflict, conflict + 256]
    best = sum(
        1 for c in schedule(CFG, trace_of([req(a) for a in addrs])) if c.kind is CommandKind.ACT
    )
    for perm in itertools.permutations(addrs):
        n = sum(
            1 for c in schedule(CFG, trace_of([req(a) for a in perm])) if c.kind is CommandKind.ACT
        )
        assert n >= best
    assert best == 2


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2000),
            st.sampled_from([64, 128, 256]),
        ),
        max_size=12,
    )
)
@example([(0, 256), (4, 256)])
def test_random_traces_conserve_bytes_and_replay(reqs):
    requests = [req(64 * slot, length) for slot, length in reqs]
    table, result = planned(CFG, trace_of(requests)), simulate(CFG, trace_of(requests))
    stream = list(schedule(CFG, trace_of(requests)))
    replay(CFG, [table])
    replay(CFG, [from_commands(stream)])
    assert result.bytes_transferred == sum(n for _, n in requests)
    assert result == reference_simulate(CFG, stream)[0]
    # Each row names the request of its first command.  A run never
    # crosses a trace row, so a request whose reads all continue another's
    # DRAM rows (the example) still names rows of its own.
    order = np.argsort(table.channel, kind="stable")
    counts = table.count[order]
    heads = np.cumsum(counts) - counts
    want = sorted(stream, key=lambda cmd: cmd.channel)
    assert table.request_index[order].tolist() == [want[i].request_index for i in heads]


# --- energy attribution -----------------------------------------------------

def test_breakdown_single_category():
    trace = trace_of([req(0, 256), req(4096, 64)], [0, 0], ["predictor"])
    result = simulate(CFG, trace)
    split = energy_breakdown(result, trace)
    assert split == {"predictor": pytest.approx(result.energy_pj["total"])}


def test_breakdown_symmetric_categories():
    trace = trace_of([req(64 * i) for i in range(8)], [0, 1] * 4, ("a", "b"))
    result = simulate(CFG, trace)
    split = energy_breakdown(result, trace)
    assert split["a"] == pytest.approx(split["b"], rel=0.01)
    assert split["a"] + split["b"] == pytest.approx(result.energy_pj["total"])


def test_breakdown_follows_byte_share():
    # Request 1 reads 5 blocks, all row hits after request 0's ACTs.
    trace = trace_of([req(0, 960), req(4096, 320)], [0, 1], ["big", "small"])
    result = simulate(NO_BG, trace)
    split = energy_breakdown(result, trace)
    acts = result.acts
    assert acts.tolist() == [4, 0]
    assert split["big"] >= split["small"]
    assert split["small"] == pytest.approx(NO_BG.e_rd_pj * 5 + NO_BG.e_act_pj * acts[1])


# Small rows over few banks: a long request opens several rows, and a
# request inside a row an earlier one opened opens none.
SMALL_ROWS = dram(row_bytes=256, banks_per_channel=2)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(0, 200), st.integers(1, 12), st.integers(0, 2)),
        min_size=1,
        max_size=25,
    ),
    st.booleans(),
)
@example([(0, 12, 0), (2, 1, 1), (3, 1, 0)], False)
@example([(0, 12, 0), (2, 1, 1), (3, 1, 0)], True)
def test_breakdown_equals_request_by_request_loop(reqs, drop_acts):
    trace = trace_of([req(64 * slot, 64 * n) for slot, n, _ in reqs], [t for *_, t in reqs],
                     ("a", "b", "c", "unused"))
    result = simulate(SMALL_ROWS, trace)
    totals, per_request = reference_simulate(SMALL_ROWS, schedule(SMALL_ROWS, trace))
    assert result == totals
    if drop_acts:
        # A result with no ACTs gives no tag an activation share.
        result = dataclasses.replace(result, num_acts=0)
    assert_breakdown_exact(result, trace, per_request)


def test_breakdown_example_has_every_act_pattern():
    # The example above: request 0 opens several rows, 1 and 2 none.
    trace = trace_of([req(0, 768), req(128), req(192)], [0, 1, 0], ("a", "b"))
    acts = simulate(SMALL_ROWS, trace).acts
    assert acts[0] > 1 and acts[1:].tolist() == [0, 0]


def test_breakdown_requires_tags():
    trace = trace_of([req(0), req(256)], [0, -1], ["a"])
    result = simulate(CFG, trace)
    with pytest.raises(ValueError, match="untagged"):
        energy_breakdown(result, trace)
    # A result simulated from a longer trace counts a row this one lacks.
    short = trace_of([req(0)], [0], ["a"])
    with pytest.raises(ValueError, match="counts 2 trace rows, but the trace has 1"):
        energy_breakdown(result, short)
