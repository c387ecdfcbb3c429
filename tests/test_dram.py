"""Tests for the DDR5 timing and energy model."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planestore.address import Trace
from planestore.dram import (
    CommandKind,
    DramCommand,
    DramConfig,
    energy_breakdown,
    map_address,
    run_trace,
    schedule,
    simulate,
)

from reference import reference_simulate

CFG = DramConfig()
NO_BG = DramConfig(p_bg_mw=0.0)


def req(addr, length=64):
    return addr, length


def trace_of(requests):
    """A Trace from req() pairs."""
    return Trace([a for a, _ in requests], [n for _, n in requests])


def kinds(commands):
    return [c.kind for c in commands]


# --- config -----------------------------------------------------------------

def test_default_config_shape():
    assert CFG.burst_cycles == 8
    assert CFG.columns_per_row == 128
    assert CFG.t_ras >= CFG.t_rcd


def test_config_validation():
    with pytest.raises(ValueError, match="divide row_bytes"):
        DramConfig(row_bytes=100)
    with pytest.raises(ValueError, match="t_ras"):
        DramConfig(t_ras=10, t_rcd=34)
    with pytest.raises(ValueError, match="positive"):
        DramConfig(channels=0)
    with pytest.raises(ValueError, match="clock_ns"):
        DramConfig(clock_ns=0.0)
    with pytest.raises(ValueError, match="interleave"):
        DramConfig(interleave_bytes=96)


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"burst_bytes": 128, "interleave_bytes": 128}, "burst_bytes must be 64"),
        ({"interleave_bytes": 128}, "interleave_bytes must be 64"),
        ({"t_ccd_s": 4}, "t_ccd_s must be at least the 8-cycle burst"),
        ({"t_ccd_l": 7}, "t_ccd_l must be at least the 8-cycle burst"),
    ],
)
def test_config_rejects_what_the_model_cannot_represent(fields, match):
    # Other block sizes crash mid-trace on misaligned addresses; a tCCD
    # below the burst length lets data bursts overlap on the bus.
    with pytest.raises(ValueError, match=match):
        DramConfig(**fields)
    DramConfig(t_ccd_s=8, t_ccd_l=8)


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
    result = run_trace(CFG, trace_of([req(0)]))
    assert result.total_cycles == 76
    assert math.isclose(result.total_ns, 76 * CFG.clock_ns)
    assert result.total_ns == pytest.approx(31.7, abs=0.05)
    assert result.bytes_transferred == 64
    assert result.completion_cycles.tolist() == [76]


def test_empty_trace():
    result = run_trace(CFG, trace_of([]))
    assert result.total_cycles == 0
    assert result.energy_pj["total"] == 0.0
    assert result.completion_cycles.tolist() == []
    assert result.bytes_transferred == 0


@pytest.mark.parametrize("n", [1, 10, 100])
def test_back_to_back_row_hits_closed_form(n):
    requests = [req(256 * i) for i in range(n)]
    result = run_trace(CFG, trace_of(requests))
    expected = CFG.t_rcd + CFG.t_cl + (n - 1) * CFG.t_ccd_l + CFG.burst_cycles
    assert result.total_cycles == expected


def test_energy_is_exact_with_no_background():
    requests = [req(0, 256), req(4096, 128), req(1 << 20)]
    result = run_trace(NO_BG, trace_of(requests))
    expected = NO_BG.e_act_pj * result.num_acts + NO_BG.e_rd_pj * result.num_reads
    assert result.energy_pj["total"] == expected
    assert result.energy_pj["background"] == 0.0


def test_energy_components_sum_to_total():
    result = run_trace(CFG, trace_of([req(0, 512), req(1 << 16, 192)]))
    e = result.energy_pj
    assert math.isclose(e["total"], e["activation"] + e["read"] + e["background"])
    assert e["background"] > 0


def test_determinism():
    requests = [req(64 * i, 64) for i in range(0, 40, 3)]
    assert run_trace(CFG, trace_of(requests)) == run_trace(CFG, trace_of(requests))


def test_per_request_accounting():
    result = run_trace(CFG, trace_of([req(0, 256), req(1024, 64)]))
    assert result.request_reads.tolist() == [4, 1]
    assert sum(result.request_reads) == result.num_reads
    assert sum(result.request_acts) == result.num_acts
    assert result.completion_cycles[1] >= result.completion_cycles[0] - 76


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
        simulate(CFG, stream)
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
    result = simulate(CFG, stream)
    assert result.num_acts == 2
    assert result.num_reads == 1
    assert result == reference_simulate(CFG, stream)


def test_out_of_config_and_unknown_kinds_rejected():
    rejects([act(4, 0, 0, 0)], "channel 4 bank 0 outside the config")
    rejects([act(0, 0, 0, 0), act(0, 32, 0, 1)], "channel 0 bank 32 outside")
    rejects([act(0, 0, 0, 0), DramCommand("RD", 0, 0, 0, 0, 34)], "unknown command kind 'RD'")


# --- invariants -------------------------------------------------------------

def test_byte_conservation():
    requests = [req(0, 320), req(8192, 64), req(1 << 19, 1024)]
    result = run_trace(CFG, trace_of(requests))
    assert result.bytes_transferred == sum(n for _, n in requests)


def test_adding_a_request_never_helps():
    base = [req(256 * i) for i in range(6)]
    longer = base + [req(1 << 21, 128)]
    a, b = run_trace(CFG, trace_of(base)), run_trace(CFG, trace_of(longer))
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
def test_random_traces_conserve_bytes_and_replay(reqs):
    requests = [req(64 * slot, length) for slot, length in reqs]
    result = run_trace(CFG, trace_of(requests))
    assert result.bytes_transferred == sum(n for _, n in requests)
    assert result == simulate(CFG, list(schedule(CFG, trace_of(requests))))
    assert len(result.completion_cycles) == len(requests)


# --- energy attribution -----------------------------------------------------

def test_breakdown_single_category():
    result = run_trace(CFG, trace_of([req(0, 256), req(4096, 64)]))
    split = energy_breakdown(result, [0, 0], ["predictor"])
    assert split == {"predictor": pytest.approx(result.energy_pj["total"])}


def test_breakdown_symmetric_categories():
    requests = [req(64 * i) for i in range(8)]
    result = run_trace(CFG, trace_of(requests))
    split = energy_breakdown(result, [0, 1] * 4, ("a", "b"))
    assert split["a"] == pytest.approx(split["b"], rel=0.01)
    assert split["a"] + split["b"] == pytest.approx(result.energy_pj["total"])


def test_breakdown_follows_byte_share():
    result = run_trace(NO_BG, trace_of([req(0, 960), req(4096, 320)]))
    split = energy_breakdown(result, [0, 1], ["big", "small"])
    reads = result.request_reads
    assert split["big"] >= split["small"]
    assert split["small"] == pytest.approx(
        NO_BG.e_rd_pj * reads[1] + NO_BG.e_act_pj * result.request_acts[1]
    )


def test_breakdown_requires_tags():
    result = run_trace(CFG, trace_of([req(0), req(256)]))
    with pytest.raises(ValueError, match="untagged"):
        energy_breakdown(result, [0, -1], ["a"])
    with pytest.raises(ValueError, match="2 requests"):
        energy_breakdown(result, [0], ["a"])
