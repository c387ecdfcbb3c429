"""Simplified multi-channel DDR5 timing and energy model.

The controller is deliberately plain: per-channel FCFS with an open-page
policy.  The traces this package produces are long sequential streams, so
a reordering scheduler would buy almost nothing and would make the hand
oracles in the tests much harder to check.  Refresh, ODT and thermal
effects are out of scope; the comparisons built on top of this model are
relative, and those effects land on both sides nearly identically.

Timing follows the usual bank state machine: a read needs an open row
(ACT, then tRCD), consecutive reads are spaced by tCCD (the long flavour
within a bank, the short one across banks), and re-opening a bank costs
tRAS before the precharge plus tRP after it.  Completion of a read is its
issue cycle plus tCL plus the burst transfer time.  One command may issue
per channel per cycle.

`schedule` states that policy one burst at a time and is the readable
reference.  `plan` computes the same command stream as a run table, one
RD row per run of reads to consecutive columns of an open row, timed in
closed form up to a channel's first row opening where tRAS binds and
stepped once per opening from there.  `simulate` replays a table,
recording every row's first broken legality rule vectorized over all
channels at once, and returns totals only, which must be finite;
`energy_breakdown` (per-tag integer counts) and
`read_completions` read the other figures off the table and the trace.
Both `schedule` and `plan` take the request stream as an
`address.Trace`.  `plan` relies on its rows being valid, which the Trace
constructor checks; `schedule`, the reference, maps every burst through
`map_address` and so still raises its per-burst errors on bare columns.
docs/dram-model.md shows why the run-level recurrences are exact.

Energy is the textbook three-term sum: e_act per activation (precharge
included), e_rd per 64-byte burst, and a background term p_bg * wall
clock per channel.  The built-in constants live with every other
default in `config.DEFAULTS` (configs/default.yaml mirrors them); they
are derived from a representative 16 Gb x4 DDR5-4800 datasheet power
calculation, and the arithmetic lives in docs/dram-model.md.  They are
calibration inputs, not ground truth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .address import Trace
from .bitplane import BLOCK


# Run-table limits: channel and bank ids lie below ID_LIMIT (int16
# columns); requests, rows, columns and read counts below INDEX_LIMIT
# (int32 columns).  Timings lie below TIMING_LIMIT, so one read moves
# its channel's clock by less than 2**33 cycles and issue cycles fit
# int64 (docs/dram-model.md).
ID_LIMIT = 1 << 15
INDEX_LIMIT = 1 << 31
TIMING_LIMIT = 1 << 31


class CommandKind(enum.IntEnum):
    ACT = 0
    RD = 1
    PRE = 2


class DramCommand(NamedTuple):
    kind: CommandKind
    channel: int
    bank: int
    row: int
    column: int
    issue_cycle: int
    request_index: int = 0


@dataclass(frozen=True)
class DramConfig:
    """Geometry, timing and energy constants for the memory model.

    Timings are in command-clock cycles (2,400 MHz for DDR5-4800, so
    0.4167 ns per cycle).  The channel data path is modeled as 32 data
    bits: ten x4 devices per channel, of which the two ECC devices carry
    no modeled payload.  A burst is one BLOCK, the 64 bytes traces are
    cut into; it is fixed, not configured, and occupies the data bus for
    BLOCK / 8 = 8 command cycles (BL16, double data rate).
    """

    channels: int
    banks_per_channel: int
    row_bytes: int
    clock_ns: float
    t_rcd: int
    t_cl: int
    t_rp: int
    t_ras: int
    t_ccd_l: int
    t_ccd_s: int
    e_act_pj: float
    e_rd_pj: float
    p_bg_mw: float

    def __post_init__(self) -> None:
        counts = {
            "channels": self.channels,
            "banks_per_channel": self.banks_per_channel,
            "row_bytes": self.row_bytes,
            "t_rcd": self.t_rcd,
            "t_cl": self.t_cl,
            "t_rp": self.t_rp,
            "t_ras": self.t_ras,
            "t_ccd_l": self.t_ccd_l,
            "t_ccd_s": self.t_ccd_s,
        }
        for name, value in counts.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        # The run table holds channel and bank ids as int16, columns and
        # read counts as int32; every other count is a timing.
        limits = {
            "channels": ID_LIMIT, "banks_per_channel": ID_LIMIT, "row_bytes": BLOCK * INDEX_LIMIT,
        }
        for name, value in counts.items():
            limit = limits.get(name, TIMING_LIMIT)
            if value >= limit:
                raise ValueError(f"{name} must be below {limit}, got {value}")
        if self.clock_ns <= 0:
            raise ValueError("clock_ns must be positive")
        if self.e_act_pj < 0 or self.e_rd_pj < 0 or self.p_bg_mw < 0:
            raise ValueError("energy constants must be non-negative")
        if self.row_bytes % BLOCK:
            raise ValueError(
                f"the {BLOCK}-byte burst must divide row_bytes, got {self.row_bytes}"
            )
        if self.t_ras < self.t_rcd:
            raise ValueError("t_ras must be at least t_rcd")
        for name in ("t_ccd_s", "t_ccd_l"):
            if counts[name] < self.burst_cycles:
                raise ValueError(
                    f"{name} must be at least the {self.burst_cycles}-cycle burst,"
                    f" or data bursts overlap on the bus, got {counts[name]}"
                )

    @property
    def burst_cycles(self) -> int:
        # 32-bit data path at double data rate: 8 bytes move per cycle.
        return BLOCK // 8

    @property
    def columns_per_row(self) -> int:
        return self.row_bytes // BLOCK


def _split(config: DramConfig, byte_addr):
    """(channel, bank, row, column) of aligned addresses: ints or arrays."""
    channel = byte_addr // BLOCK % config.channels
    burst = byte_addr // BLOCK // config.channels
    column = burst % config.columns_per_row
    bank = (burst // config.columns_per_row) % config.banks_per_channel
    row = burst // (config.columns_per_row * config.banks_per_channel)
    return channel, bank, row, column


def map_address(config: DramConfig, byte_addr: int) -> tuple[int, int, int, int]:
    """Map a BLOCK-aligned byte address to (channel, bank, row, column).

    Channels interleave round-robin on bursts, one fixed 64-byte BLOCK
    each; within a channel the burst index splits column-first, then
    bank, then row, so a sequential stream walks the columns of one row
    before moving on.
    """
    if byte_addr < 0:
        raise ValueError(f"negative address {byte_addr}")
    if byte_addr % BLOCK:
        raise ValueError(f"address {byte_addr} is not {BLOCK}-byte aligned")
    return _split(config, byte_addr)


class _ChannelState:
    """Mutable per-channel bank timers for one scheduling pass."""

    def __init__(self, config: DramConfig):
        n = config.banks_per_channel
        self.open_row: list[int | None] = [None] * n
        self.act_cycle = [0] * n       # issue cycle of the opening ACT
        self.act_ready = [0] * n       # earliest next ACT (tRP after PRE)
        self.last_bus = -1             # one command per channel per cycle
        self.last_rd = None            # (issue_cycle, bank) of newest read

    def rd_gap(self, config: DramConfig, bank: int) -> int:
        if self.last_rd is None:
            return 0
        cycle, prev_bank = self.last_rd
        gap = config.t_ccd_l if prev_bank == bank else config.t_ccd_s
        return cycle + gap


def schedule(config: DramConfig, trace: Trace) -> Iterator[DramCommand]:
    """Turn a physical request stream into a timed DDR command stream.

    Requests are served strictly in arrival order per channel (FCFS) with
    an open-page policy: a row hit costs just the RD; a miss precharges
    the stale row (if any) and activates the new one first.  Yields
    commands lazily, one burst at a time.  Trace row i is read as its
    size * count bytes from addr on, each command naming i.  This is the
    reference statement of the policy; `plan` computes the same stream
    faster.
    """
    channels = [_ChannelState(config) for _ in range(config.channels)]
    rows = zip(trace.addr.tolist(), trace.size.tolist(), trace.count.tolist())
    for index, (addr, size, count) in enumerate(rows):
        for offset in range(0, size * count, BLOCK):
            ch, bank, row, column = map_address(config, addr + offset)
            st = channels[ch]
            if st.open_row[bank] != row:
                if st.open_row[bank] is not None:
                    # Close the stale row: tRAS since its ACT, then tRP.
                    pre_at = max(st.last_bus + 1, st.act_cycle[bank] + config.t_ras)
                    st.last_bus = pre_at
                    st.act_ready[bank] = pre_at + config.t_rp
                    yield DramCommand(
                        CommandKind.PRE, ch, bank, st.open_row[bank], 0, pre_at, index
                    )
                    st.open_row[bank] = None
                act_at = max(st.last_bus + 1, st.act_ready[bank])
                st.last_bus = act_at
                st.open_row[bank] = row
                st.act_cycle[bank] = act_at
                yield DramCommand(CommandKind.ACT, ch, bank, row, column, act_at, index)
            rd_at = max(
                st.last_bus + 1,
                st.act_cycle[bank] + config.t_rcd,
                st.rd_gap(config, bank),
            )
            st.last_bus = rd_at
            st.last_rd = (rd_at, bank)
            yield DramCommand(CommandKind.RD, ch, bank, row, column, rd_at, index)


# Plain ints: numpy compares a column with an int several times faster
# than with an IntEnum member.
_ACT, _RD, _PRE = (int(kind) for kind in (CommandKind.ACT, CommandKind.RD, CommandKind.PRE))


@dataclass(frozen=True, eq=False)
class CommandTable:
    """A timed command stream as columns, one row per command or run.

    kind holds the row's CommandKind value; the other per-row columns
    mirror DramCommand's fields for the row's first command, so
    request_index is the trace row of that command, which is its
    request when every trace row has count 1.  `plan` builds the
    columns in the types of `_COLUMN_TYPES` (kind int8), 29 bytes a row;
    wider integer columns are taken too.  An RD row stands for
    count reads to consecutive columns of its (bank, row), the k-th at
    issue_cycle + k * t_ccd_l, column + k; every other row has count 1.
    A channel's rows are in its stream order; rows of different
    channels may interleave in any order.
    """

    kind: np.ndarray
    channel: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray
    issue_cycle: np.ndarray
    request_index: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        if self.kind.size and not 0 <= self.kind.min() <= self.kind.max() < len(CommandKind):
            raise ValueError(f"command kind codes must lie in [0, {len(CommandKind)})")
        reads = self.count[self.kind == _RD]
        if (reads < 1).any() or (self.count[self.kind != _RD] != 1).any():
            raise ValueError("an RD row needs a count of at least 1, any other row 1")
        if (self.request_index < 0).any():
            raise ValueError("a row's request_index must not be negative")

    def __len__(self) -> int:
        return self.kind.size

    def check_requests(self, n_requests: int) -> None:
        """Raise unless every row names one of a trace's n_requests rows
        (its requests when every count is 1)."""
        if self.request_index.size and self.request_index.max() >= n_requests:
            row = int(np.argmax(self.request_index >= n_requests))
            raise ValueError(
                f"command table row {row} names request {int(self.request_index[row])},"
                f" but the trace has {n_requests} requests"
            )


# The column types `plan` builds: with kind's int8, 29 bytes a row.
_COLUMN_TYPES = {
    "channel": np.int16,
    "bank": np.int16,
    "row": np.int32,
    "column": np.int32,
    "issue_cycle": np.int64,
    "request_index": np.int32,
    "count": np.int32,
}
# Trace rows per slice of `plan`'s extent scan.
_SCAN_SLICE = 1 << 14


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable").  numpy sorts 16-bit keys stably
    by radix, several times faster than wider ones, so keys that fit in
    16 bits (as banks do) are sorted as such."""
    if keys.size and -(1 << 15) <= keys.min() and keys.max() < 1 << 15:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")


def _spread(lengths: np.ndarray):
    """(owner, rank) of every item, group after group, when group i
    holds lengths[i] items: owner is the item's group, rank its position
    in the group."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    rank = np.arange(owner.size) - (np.cumsum(lengths) - lengths)[owner]
    return owner, rank


def _open_rows(config: DramConfig, act_at: list, rd: int, banks, pres, moves, leads):
    """Bank state machine of one channel, one step per row opening, from
    its first opening where tRAS binds to its end.

    act_at holds each bank's newest ACT, rd the previous opening's first
    read.  Per opening: its bank, whether a PRE closes another row first,
    how far the reads since the previous opening's first read move the
    channel's last read, and its closed-form lead.  Returns the ACT and
    first RD cycles; a PRE is tRP before its ACT."""
    t_rcd, t_rp, t_ras = config.t_rcd, config.t_rp, config.t_ras
    act_cycles, rd_cycles = [], []
    # Comparisons rather than max(): this loop is the engine's one
    # Python step per opening, and the calls would double its cost.
    for bank, pre, move, lead in zip(banks, pres, moves, leads):
        last = rd + move  # the channel's last read, which is also its last command
        if pre:  # PRE = max(last + 1, act_at[bank] + t_ras), then ACT tRP later
            act = act_at[bank] + t_ras
            if act <= last:
                act = last + 1
            act += t_rp
        else:
            act = last + 1
        act_at[bank] = act
        rd = act + t_rcd
        # lead is the tCCD or 1 + tRP (if it precharges) + tRCD, the
        # latter never later than act + t_rcd.
        if rd < last + lead:
            rd = last + lead
        act_cycles.append(act)
        rd_cycles.append(rd)
    return act_cycles, rd_cycles


def _extent_heads(trace: Trace) -> np.ndarray:
    """First trace row of each extent.  A row whose count is above 1 is
    an extent of its own.  A count-1 row extends the extent before it
    when that extent is of count-1 rows and the row starts where the
    previous one ends, with the same size and chunk.  The rows are
    compared a fixed slice at a time, so no temporary is as long as the
    trace."""
    addr, size, chunk, count = trace.addr, trace.size, trace.chunk, trace.count
    heads = [np.zeros(min(addr.size, 1), np.int64)]
    for lo in range(1, addr.size, _SCAN_SLICE):
        hi = min(lo + _SCAN_SLICE, addr.size)
        prev = slice(lo - 1, hi - 1)
        starts = addr[lo:hi] != addr[prev] + size[prev]
        starts |= size[lo:hi] != size[prev]
        starts |= chunk[lo:hi] != chunk[prev]
        starts |= count[lo:hi] > 1
        starts |= count[prev] > 1
        heads.append(np.flatnonzero(starts) + lo)
    return np.concatenate(heads)


def plan(config: DramConfig, trace: Trace) -> CommandTable:
    """schedule()'s command stream as a run table: one RD row per run.

    Consecutive count-1 trace rows that are contiguous, have the same
    burst count and load the same chunk merge into an extent; a row of
    count above 1 is an extent of its own, its requests back to back.
    Channels interleave on the burst itself, one fixed 64-byte BLOCK,
    so an extent covers one contiguous range of burst indices within
    each channel, found in closed form.  Cut at row boundaries, each
    piece is a run: reads to
    consecutive columns of one (bank, row), issued t_ccd_l apart.  A run
    becomes one RD row, preceded by the PRE and ACT rows that open its
    row if it is not a hit.  Each run's first read is the channel's last
    read plus a lead fixed by the run alone, a cumulative sum, until a
    PRE must wait for tRAS; from that opening on the bank state machine
    steps once per opening (`_open_rows`).  Rows are grouped by channel,
    each channel's in stream order.  No array is as long as the burst
    count, and each temporary is freed after its last use.  A run never
    crosses an extent, so all of an RD row's reads load the chunk of the
    trace row of its first read, the row its request_index names.  A
    trace of INDEX_LIMIT requests or more, or one that reaches DRAM row
    INDEX_LIMIT, does not fit the table and raises.
    """
    if len(trace) >= INDEX_LIMIT:
        raise ValueError(
            f"a trace of {len(trace)} requests does not fit the run table,"
            f" which numbers requests below {INDEX_LIMIT}"
        )
    # A Trace's rows are non-empty whole blocks at aligned addresses, and
    # a burst is one block, so a request's bursts are its size over the
    # block.  Extents are found on the byte columns, and only the extent
    # heads are divided into bursts: each extent's first row, its first
    # global burst index, its bursts in all and per row.  An extent of
    # several rows has count 1 on each.
    head = _extent_heads(trace)
    ext_first = trace.addr[head] // BLOCK
    ext_rows = np.diff(np.r_[head, trace.addr.size])
    ext_total = np.where(ext_rows == 1, trace.count[head], ext_rows)
    ext_total *= trace.size[head] // BLOCK
    ext_bursts = ext_total // ext_rows
    del ext_rows

    # An extent of T bursts from global burst G reads on min(T, channels)
    # channels: the channel of G + skip reads G + skip, G + skip +
    # channels, ..., ceil((T - skip) / channels) consecutive burst indices
    # within the channel from lo on, up to end.  Ranges are listed
    # channel after channel, each channel's in stream order.
    channels, banks, cpr = config.channels, config.banks_per_channel, config.columns_per_row
    extent, skip = _spread(np.minimum(ext_total, channels))
    if not extent.size:
        return CommandTable(
            np.zeros(0, np.int8), **{name: np.zeros(0, t) for name, t in _COLUMN_TYPES.items()}
        )
    lo, ch = np.divmod(ext_first[extent] + skip, channels)
    end = lo - (skip - ext_total[extent]) // channels
    del ext_total, skip
    by_channel = _stable_order(ch)
    ch, extent, lo, end = (a[by_channel] for a in (ch.astype(np.int16), extent, lo, end))
    del by_channel
    last_row = int(end.max() - 1) // (cpr * banks)
    if last_row >= INDEX_LIMIT:
        raise ValueError(
            f"the trace reaches DRAM row {last_row}; the run table holds rows below {INDEX_LIMIT}"
        )

    # Cut each range at row boundaries: one run per page (a bank's row)
    # it touches.  A run reads bursts local .. local + length - 1.
    first_page = lo // cpr
    piece_of, page = _spread((end - 1) // cpr - first_page + 1)
    page += first_page[piece_of]
    del first_page
    page_start = page * cpr
    local = np.maximum(lo[piece_of], page_start)
    del lo
    length = np.minimum(end[piece_of], page_start + cpr)
    del end
    length -= local
    length = length.astype(np.int32)
    ch, extent = ch[piece_of], extent[piece_of]
    del piece_of
    # A run's first read is global burst local * channels + ch, in the
    # extent's row that many bursts past its first.
    request = local * channels
    request += ch
    request -= ext_first[extent]
    request //= ext_bursts[extent]
    request += head[extent]
    request = request.astype(np.int32)
    del extent, head, ext_first, ext_bursts
    local -= page_start
    column = local.astype(np.int32)
    del local, page_start
    bank = (page % banks).astype(np.int16)
    page //= banks
    row = page.astype(np.int32)
    del page

    t_l, t_s = config.t_ccd_l, config.t_ccd_s
    # A run opens its row unless the previous run on its bank had the
    # same row; it precharges first if its bank had a run at all.
    n_runs = length.size
    key = ch.astype(np.int32) * banks + bank
    by_bank = _stable_order(key)
    key = key[by_bank]
    # The row each run's bank had open: its previous run's, -1 for none.
    previous = np.empty(n_runs, np.int32)
    previous[0] = -1
    previous[1:] = row[by_bank[:-1]]
    previous[1:][key[1:] != key[:-1]] = -1
    del key
    closed = np.empty(n_runs, np.int32)
    closed[by_bank] = previous
    del by_bank, previous
    opening = closed != row
    has_pre = opening & (closed >= 0)
    pre_row = closed[has_pre]
    del closed
    opens = np.flatnonzero(opening)

    # The closed form (docs/dram-model.md, "Openings"): a run's first read
    # is the channel's last read E_prev plus its lead, the tCCD after the
    # channel's previous run (1 for its first run), and for an opening at
    # least 1 + tRP (if it precharges) + tRCD.  So E, a run's last read,
    # is a cumulative sum over its channel from -1.
    starts = np.flatnonzero(np.r_[True, ch[1:] != ch[:-1]])  # each channel's first run
    lead = np.where(np.r_[False, bank[1:] == bank[:-1]], t_l, t_s)
    lead[starts] = 1
    pres = has_pre[opens]
    act = np.where(pres, 1 + config.t_rp, 1)
    leads = np.maximum(lead[opens], act + config.t_rcd)
    lead[opens] = leads
    tail = np.multiply(length - 1, t_l, dtype=np.int64)
    rd_cycle = tail + lead
    del lead
    ends = np.add.reduceat(rd_cycle, starts)  # rebase each channel at -1
    rd_cycle[starts[1:]] -= ends[:-1]
    rd_cycle[0] -= 1
    np.cumsum(rd_cycle, out=rd_cycle)
    rd_cycle -= tail
    del tail, starts, ends
    firsts = rd_cycle[opens]
    act += firsts - leads

    # It is exact up to a channel's first PRE that comes less than tRAS
    # after the ACT of the previous opening on its bank.  From there on
    # _open_rows steps the channel's openings, and each shifts its runs.
    chan_of, open_bank = ch[opens], bank[opens]
    by_bank = _stable_order(chan_of.astype(np.int32) * banks + open_bank)
    binds = np.zeros(opens.size, bool)
    binds[by_bank[1:]] = act[by_bank[1:]] - config.t_rp < act[by_bank[:-1]] + config.t_ras
    binds = np.flatnonzero(binds & pres)
    del by_bank
    if binds.size:
        moves = firsts - leads  # each opening's E_prev, less the previous one's first read
        moves[1:] -= firsts[:-1]
        first_rd = firsts.copy()
        for first in binds[np.r_[True, chan_of[binds[1:]] != chan_of[binds[:-1]]]].tolist():
            c = int(chan_of[first])
            lo, stop = np.searchsorted(chan_of, [c, c + 1])
            act_at = np.zeros(banks, np.int64)
            np.maximum.at(act_at, open_bank[lo:first], act[lo:first])
            act[first:stop], first_rd[first:stop] = _open_rows(
                config, act_at.tolist(), int(firsts[first - 1]),
                *(a[first:stop].tolist() for a in (open_bank, pres, moves, leads)),
            )
        first_rd -= firsts  # how late each opening's runs issue
        rd_cycle += np.repeat(first_rd, np.diff(np.r_[opens, n_runs]))
        del moves, first_rd
    del firsts, leads, chan_of, open_bank

    # Table order: runs as listed (channel after channel, each in stream
    # order), each preceded by its PRE and ACT rows.  Each per-run column
    # is freed once its table column is built.
    rows_of = np.add(opening, has_pre, dtype=np.intp)
    rows_of += 1
    rd_pos = np.cumsum(rows_of)
    rd_pos -= 1
    act_pos, pre_pos = rd_pos[opening] - 1, rd_pos[has_pre] - 2
    kind = np.full(int(rd_pos[-1]) + 1, _RD, np.int8)
    kind[act_pos], kind[pre_pos] = _ACT, _PRE
    run_of = np.repeat(np.arange(n_runs), rows_of)  # each table row's run
    del rd_pos, rows_of
    runs = {
        "channel": ch, "bank": bank, "row": row, "column": column,
        "issue_cycle": rd_cycle, "request_index": request, "count": length,
    }
    # (ACT rows, PRE rows) of the columns where those differ from the run.
    patches = {
        "row": (None, pre_row),
        "column": (None, 0),
        "issue_cycle": (act, act[pres] - config.t_rp),
        "count": (1, 1),
    }
    del ch, bank, row, column, rd_cycle, request, length, pre_row, act, pres
    columns = {"kind": kind}
    for name in _COLUMN_TYPES:
        out = runs.pop(name)[run_of]
        act, pre = patches.get(name, (None, None))
        if act is not None:
            out[act_pos] = act
        if pre is not None:
            out[pre_pos] = pre
        columns[name] = out
    return CommandTable(**columns)


_TOO_LARGE = "clock_ns or an energy constant is too large"


@dataclass(frozen=True)
class SimResult:
    """Totals of one simulated trace."""

    total_cycles: int
    total_ns: float
    energy_pj: dict
    bytes_transferred: int
    num_acts: int
    num_reads: int


# The replay's checks in the order it applies them to one command; the
# first that fails names the violation.
_VIOLATIONS = (
    "command addresses channel {ch} bank {bank} outside the config",
    "command bus conflict on channel {ch} at cycle {cycle}",
    "activate on channel {ch} bank {bank} with a row already open",
    "t_rp violated on channel {ch} bank {bank}",
    "precharge on channel {ch} bank {bank} with no open row",
    "t_ras violated on channel {ch} bank {bank}",
    "read on channel {ch} bank {bank} with no open row",
    "read to row {row} on channel {ch} bank {bank} while row {open_row} is open",
    "t_rcd violated on channel {ch} bank {bank}",
    "t_ccd_l violated on channel {ch}",
    "t_ccd_s violated on channel {ch}",
)


def _latest(flags: np.ndarray, after: int) -> np.ndarray:
    """Index of the nearest True in flags at or before each row (after 0)
    or strictly before it (after 1), or -1 for none."""
    at = np.flatnonzero(flags)
    return np.repeat(np.r_[-1, at], np.diff(np.r_[0, at + after, flags.size]))


def _first_violation(config: DramConfig, table: CommandTable):
    """The message for the table's first illegal row, or None when all
    are legal.

    The rows are checked in one pass, grouped by channel, each channel's
    in stream order.  Each row's first command is checked against the
    state the rows before it on its channel leave: the last cycle of the
    previous row, the last read of the previous RD row, and the bank's
    newest ACT or PRE (open if it was an ACT).  Up to a channel's first
    illegal row that is exactly the state a command-by-command replay
    holds, and channels share no state, so the replay stops at the
    earliest of the channels' first illegal rows in table order.  The
    later reads of an RD row need no check of their own: nothing else
    issues on the channel between them, they stay on the open row, and
    they are t_ccd_l >= 1 apart, which satisfies the bus, tCCD and tRCD
    rules once the first read does.

    `fail` holds each row's first broken rule as an index into
    `_VIOLATIONS`, len(_VIOLATIONS) for a legal row.  The rules are
    recorded from last to first, so an earlier rule overwrites a later
    one.  Each rule's inputs are freed once it is recorded, but the bus
    mask, computed with the read spacing, waits for its turn.
    """
    channel = table.channel
    n, banks = channel.size, config.banks_per_channel
    # plan's tables are grouped already; only other tables are gathered.
    order = None if (channel[1:] >= channel[:-1]).all() else _stable_order(channel)
    columns = (channel, table.kind, table.bank, table.row, table.issue_cycle, table.count)
    if order is not None:
        columns = tuple(c[order] for c in columns)
    ch, kind, bank, row, cycle, count = columns
    cycle = np.asarray(cycle, np.int64)
    fail = np.full(n, len(_VIOLATIONS), np.int8)

    # Bus and read spacing: the last cycle of each row and of each RD
    # row's last read.
    last = np.multiply(count - 1, config.t_ccd_l, dtype=np.int64)
    last += cycle
    previous_last = np.empty(n, np.int64)
    previous_last[1:] = last[:-1]
    previous_last[np.r_[True, ch[1:] != ch[:-1]]] = -1
    bus = cycle <= previous_last
    del previous_last
    # Each RD row after the first of its channel against the RD row
    # before it, the channel's previous read: t_ccd_l on the same bank,
    # t_ccd_s across banks.
    rd = np.flatnonzero(kind == _RD)
    before, rd = rd[:-1], rd[1:]
    same_bank = bank[before] == bank[rd]
    spacing = last[before]
    del last
    spacing += np.where(same_bank, config.t_ccd_l, config.t_ccd_s)
    early = ch[before] == ch[rd]
    early &= cycle[rd] < spacing
    fail[rd[early]] = np.where(same_bank[early], 9, 10)
    del rd, before, same_bank, spacing, early

    # Bank state, grouped by (channel, bank).  Channels and banks outside
    # the config share one key below and one above: their rows fail the
    # first rule, and no other row reads their state.
    key = (np.clip(ch, -1, config.channels).astype(np.int64) + 1) * (banks + 2)
    key += np.clip(bank, -1, banks)
    by_bank = _stable_order(key)
    key = key[by_bank]
    prev = _latest((kind != _RD)[by_bank], 1)  # the newest ACT or PRE before
    prev[prev < _latest(np.r_[True, key[1:] != key[:-1]], 0)] = -1
    del key
    state = np.empty(n, np.int64)
    state[by_bank] = np.where(prev >= 0, by_bank[prev], -1)
    del by_bank, prev
    has_state = state >= 0
    state[~has_state] = 0
    is_open = has_state & (kind[state] == _ACT)
    since = cycle - cycle[state]  # cycles since the bank's newest ACT or PRE
    is_act, is_pre, is_rd = kind == _ACT, kind == _PRE, kind == _RD
    fail[is_rd & (since < config.t_rcd)] = 8
    fail[is_rd & (row[state] != row)] = 7
    fail[is_rd & ~is_open] = 6
    fail[is_pre & (since < config.t_ras)] = 5
    fail[is_pre & ~is_open] = 4
    fail[is_act & has_state & ~is_open & (since < config.t_rp)] = 3
    fail[is_act & is_open] = 2
    del has_state, is_open, since, is_act, is_pre, is_rd
    fail[bus] = 1
    fail[(bank < 0) | (bank >= banks) | (ch < 0) | (ch >= config.channels)] = 0

    bad = np.flatnonzero(fail < len(_VIOLATIONS))
    if not bad.size:
        return None
    # Each channel's first illegal row, then the earliest in table order.
    bad_ch = ch[bad]
    firsts = bad[np.r_[True, bad_ch[1:] != bad_ch[:-1]]]
    j = int(firsts[np.argmin(firsts if order is None else order[firsts])])
    return _VIOLATIONS[fail[j]].format(
        ch=int(ch[j]), bank=int(bank[j]), row=int(row[j]), cycle=int(cycle[j]),
        open_row=int(row[state[j]]),
    )


def read_completions(config: DramConfig, table: CommandTable):
    """(table position, completion cycle) of every RD row: its last read
    issues (count - 1) * t_ccd_l after its first, and its data has
    arrived CAS latency plus one burst after that."""
    rd = np.flatnonzero(table.kind == _RD)
    done = np.multiply(table.count[rd] - 1, config.t_ccd_l, dtype=np.int64)
    done += table.issue_cycle[rd]
    done += config.t_cl + config.burst_cycles
    return rd, done


def simulate(config: DramConfig, table: CommandTable) -> SimResult:
    """Replay a command table, checking legality, and total it up.

    An RD row stands for its count reads.  The stream must respect the
    bank state machine and the configured timings; the first violation,
    in table order, raises ValueError naming the constraint.  The trace
    ends at the last data beat (or the last command, for a stream with
    no reads).  Background energy covers every channel for the whole
    span, busy or not: standby power does not care who is reading.
    """
    if len(table):
        violation = _first_violation(config, table)
        if violation is not None:
            raise ValueError(violation)

    rd, done = read_completions(config, table)
    count_rd = int(table.count[rd].sum())
    count_act = int(np.count_nonzero(table.kind == _ACT))
    if rd.size:
        total_cycles = int(done.max())
    else:
        total_cycles = int(table.issue_cycle.max()) + 1 if len(table) else 0
    total_ns = total_cycles * config.clock_ns
    e_act = config.e_act_pj * count_act
    e_rd = config.e_rd_pj * count_rd
    e_bg = config.p_bg_mw * config.channels * total_ns  # mW * ns = pJ
    energy = {
        "activation": e_act,
        "read": e_rd,
        "background": e_bg,
        "total": e_act + e_rd + e_bg,
    }
    for name, value in {"time": total_ns, **{f"{k} energy": v for k, v in energy.items()}}.items():
        if not math.isfinite(value):
            raise ValueError(f"the simulated {name} is {value}: {_TOO_LARGE}")
    return SimResult(
        total_cycles=total_cycles,
        total_ns=total_ns,
        energy_pj=energy,
        bytes_transferred=BLOCK * count_rd,
        num_acts=count_act,
        num_reads=count_rd,
    )


def run_trace(config: DramConfig, trace: Trace) -> tuple[CommandTable, SimResult]:
    """Plan and replay in one go (the production path): the run table
    and its totals."""
    table = plan(config, trace)
    return table, simulate(config, table)


def energy_breakdown(result: SimResult, table: CommandTable, trace: Trace) -> dict:
    """Split a result's energy across the trace's tags.

    table is the run table result replayed, and trace the request
    stream it was planned from.  A tag's ACTs are the ACT rows that name
    its trace rows, and its reads its bytes over the block; activation
    energy is split by ACT count, read and background energy by read
    count.  The split is keyed by the trace's labels, and the category
    totals sum back to the result's total.  Every row must carry a tag.
    """
    table.check_requests(trace.addr.size)
    reads = trace.bytes_by_tag() // BLOCK
    acts = np.bincount(trace.tag[table.request_index[table.kind == _ACT]], minlength=reads.size)
    e = result.energy_pj
    split = np.zeros(reads.size)
    with np.errstate(over="ignore"):  # an overflow raises below, as one error
        if result.num_acts:
            split += e["activation"] * acts / result.num_acts
        if result.num_reads:
            split += e["read"] * reads / result.num_reads
            split += e["background"] * reads / result.num_reads
    if not np.isfinite(split).all():
        raise ValueError(f"a tag's simulated energy is not finite: {_TOO_LARGE}")
    return dict(zip(trace.labels, split.tolist()))
