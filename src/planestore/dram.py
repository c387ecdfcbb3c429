"""Simplified multi-channel DDR5 timing and energy model.

The controller is deliberately plain: per-channel FCFS with an open-page
policy, which keeps the hand oracles in the tests checkable.  It issues
no PRE or ACT before the channel's last read, so every row opening is
exposed, and that is not free.  An estimate on the default geometry
(ROADMAP.md, "Open rows in parallel with reads", which plans the fix)
lets a run's PRE and ACT issue up to four runs early, reads still in
order: the latency reduction rises by 1.7 points at 8.0 bits but by
16.7 at 1.6 bits, where bit-plane traces open rows far more often.
Refresh, ODT and thermal effects are out of scope; the comparisons built
on top of this model are relative, and those effects land on both sides
nearly identically.

Timing follows the usual bank state machine: a read needs an open row
(ACT, then tRCD), consecutive reads are spaced by tCCD (the long flavour
within a bank, the short one across banks), and re-opening a bank costs
tRAS before the precharge plus tRP after it.  Completion of a read is its
issue cycle plus tCL plus the burst transfer time.  One command may issue
per channel per cycle.

`schedule` states that policy one burst at a time and is the readable
reference.  `plan` computes the same stream as a run table (`RunTable`),
one row per run of reads to consecutive columns of an open row within
one trace row, each with its first read's cycle, and for each run that
opens its row the cycle of its ACT and whether a PRE comes first.  It
times the runs in closed form up to a channel's first row opening
where tRAS binds, and steps once per opening from there.  The run is
the engine's one unit: no PRE, ACT or RD row is ever built.  The tests
expand every table shape `plan` builds into commands and replay them
against the bank state machine (tests/reference.py, `expand` and
`replay`).  `simulate` is the engine's one entry: it cuts a trace into
pieces (`compare` cuts at layers), plans each from the `DramState`
`plan` returned for the piece before (two columns per channel and
three per opened bank, the command-level state living in the tests),
and adds the piece's runs into the totals, which must be finite, and
each trace row's completion and ACT count before it plans the next.
So no more than one piece's table is held at once, and any cuts give
the one-piece result.  `energy_breakdown` (per-tag integer counts) and
the chunk latencies read the rest off those and the trace.  Both
`schedule` and `plan` take the request stream as an `address.Trace`.
`plan` relies on its rows being valid, which the Trace constructor
checks; `schedule`, the reference, maps every burst through
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
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .address import Trace, _ends, _heads, _lookup, _newest, _previous, _spread, _stable_order
from .bitplane import BLOCK


# Run-table limits: channel and bank ids lie below ID_LIMIT (int16
# columns); trace rows, DRAM rows, columns and read counts below
# INDEX_LIMIT (int32 columns).  Timings lie below TIMING_LIMIT, so one
# read moves its channel's clock by less than 2**33 cycles and issue
# cycles fit int64 (docs/dram-model.md).
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
    size bytes from addr on, each command naming i.  This is the
    reference statement of the policy; `plan` computes the same stream
    faster.
    """
    channels = [_ChannelState(config) for _ in range(config.channels)]
    rows = zip(trace.addr.tolist(), trace.size.tolist())
    for index, (addr, size) in enumerate(rows):
        for offset in range(0, size, BLOCK):
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


@dataclass(frozen=True, eq=False)
class RunTable:
    """A planned piece of a trace, one row per run: count reads to
    consecutive columns of one open (bank, row) for one trace row, the
    k-th at issue_cycle + k * t_ccd_l, column + k.

    Per run: channel, bank, row and column of its first read, the cycle
    of that read (issue_cycle), count, the trace row it reads for
    (request), and whether it opens its row first (opening).  Per
    opening, in run order: the cycle of its ACT (act_cycle), and whether
    a PRE closes the bank's open row tRP before it (precharges).  Runs
    are grouped by channel, each channel's in stream order.  The run
    columns are int16 for ids, int64 for issue_cycle, int32 else, and
    opening is bool: 29 bytes a run, and 9 more an opening.
    """

    channel: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray
    issue_cycle: np.ndarray
    count: np.ndarray
    request: np.ndarray
    opening: np.ndarray
    act_cycle: np.ndarray
    precharges: np.ndarray

    def __len__(self) -> int:
        return self.count.size


# The column types `plan` builds.
_RUN_TYPES = {
    "channel": np.int16,
    "bank": np.int16,
    "row": np.int32,
    "column": np.int32,
    "issue_cycle": np.int64,
    "count": np.int32,
    "request": np.int32,
    "opening": np.bool_,
    "act_cycle": np.int64,
    "precharges": np.bool_,
}


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


def plan(
    config: DramConfig, trace: Trace, rows: tuple | None = None, state: DramState | None = None
) -> tuple[RunTable, DramState]:
    """schedule()'s command stream as a run table, and the state it leaves.

    Trace row i is one extent: size[i] / BLOCK bursts from global burst
    addr[i] / BLOCK on.  Channels interleave on the burst itself, one
    fixed 64-byte BLOCK, so stripe s, the global bursts from
    s * channels * columns_per_row on, is page s (a bank's row) of every
    channel.  Each extent is cut at stripe boundaries, and each piece
    spread over the channels it touches: there it is one run, reads to
    consecutive columns of one (bank, row), issued t_ccd_l apart.  A run
    that is not a row hit opens its row: an ACT, preceded by a PRE if
    its bank had another row open, each for the run's trace row.  Each
    run's first read is the channel's last read plus a lead fixed by the
    run alone, a cumulative sum, until a PRE must wait for tRAS; from
    that opening on the bank state machine steps once per opening
    (`_open_rows`).  No array is as long as the burst count.  A trace
    of INDEX_LIMIT rows or more, or one that reaches DRAM row
    INDEX_LIMIT, does not fit the table and raises.

    rows = (lo, hi) plans only trace rows lo to hi - 1, request still
    numbering the whole trace's rows, from state, the `DramState` the
    rows before them leave (None for the initial state).  The state
    returned is the one the rows up to hi leave, so pieces planned one
    after another, each from the state the one before returned, taken
    channel by channel are the one-piece table's runs
    (docs/dram-model.md, "Layer cuts").
    """
    if trace.addr.size >= INDEX_LIMIT:
        raise ValueError(
            f"a trace of {trace.addr.size} rows does not fit the run table,"
            f" which numbers trace rows below {INDEX_LIMIT}"
        )
    lo, hi = (0, trace.addr.size) if rows is None else rows
    state = DramState.initial(config) if state is None else state
    # A Trace's rows are non-empty whole blocks at aligned addresses, and
    # a burst is one block.
    first = trace.addr[lo:hi] // BLOCK
    end = trace.size[lo:hi] // BLOCK
    end += first
    if not end.size:
        return RunTable(**{name: np.zeros(0, t) for name, t in _RUN_TYPES.items()}), state
    channels, banks, cpr = config.channels, config.banks_per_channel, config.columns_per_row
    stripe = channels * cpr
    last_row = int(end.max() - 1) // stripe // banks
    if last_row >= INDEX_LIMIT:
        raise ValueError(
            f"the trace reaches DRAM row {last_row}; the run table holds rows below {INDEX_LIMIT}"
        )

    # Cut each extent at stripe boundaries: its piece in stripe s reads
    # global bursts start .. start + length - 1.
    head = first // stripe
    piece_of, page = _spread((end - 1) // stripe - head + 1)
    page += head[piece_of]
    del head
    start = page * stripe
    length = start + stripe
    np.maximum(start, first[piece_of], out=start)
    del first
    np.minimum(length, end[piece_of], out=length)
    del end
    length -= start
    # A piece reads on min(length, channels) channels: from burst start +
    # skip, one in every `channels`, a run of consecutive columns.
    run_of, skip = _spread(np.minimum(length, channels))
    length = length[run_of]
    length -= skip
    length += channels - 1
    length //= channels
    skip += start[run_of]
    del start
    ch = (skip % channels).astype(np.int16)
    by_channel = _stable_order(ch)
    ch = ch[by_channel]
    length = length[by_channel].astype(np.int32)
    column = skip[by_channel] // channels
    del skip
    run_of = run_of[by_channel]
    del by_channel
    page = page[run_of]
    column -= page * cpr
    column = column.astype(np.int32)
    request = piece_of[run_of].astype(np.int32)
    request += lo
    del piece_of, run_of
    bank = (page % banks).astype(np.int16)
    page //= banks
    row = page.astype(np.int32)
    del page

    t_l, t_s = config.t_ccd_l, config.t_ccd_s
    # A run opens its row unless the previous run on its bank had the
    # same row; it precharges first if its bank had a row open at all.
    # closed, from _previous, is the row each run's bank had open, -1 for none.
    closed = _previous(ch.astype(np.int32) * banks + bank, row, state.key, state.row, -1)[0]
    opening = closed != row
    opens = np.flatnonzero(opening)
    pres = closed[opens] >= 0
    del closed

    # The closed form (docs/dram-model.md, "Openings"): a run's first read
    # is the channel's last read E_prev plus its lead, the tCCD after the
    # channel's previous read (1 for its first read), and for an opening
    # at least 1 + tRP (if it precharges) + tRCD.  So E, a run's last
    # read, is a cumulative sum over its channel from its last read
    # before the piece, -1 for none.
    starts = _heads(ch)  # each channel's first run
    lead = np.where(np.r_[False, bank[1:] == bank[:-1]], t_l, t_s)
    base = state.last_read[ch[starts]]
    lead[starts] = np.where(
        base < 0, 1, np.where(bank[starts] == state.last_bank[ch[starts]], t_l, t_s)
    )
    act = np.where(pres, 1 + config.t_rp, 1)
    leads = np.maximum(lead[opens], act + config.t_rcd)
    lead[opens] = leads
    tail = np.multiply(length - 1, t_l, dtype=np.int64)
    rd_cycle = tail + lead
    del lead
    # Rebase each channel at its last read before the piece.
    ends = np.add.reduceat(rd_cycle, starts)
    rd_cycle[starts] += base
    rd_cycle[starts[1:]] -= base[:-1] + ends[:-1]
    np.cumsum(rd_cycle, out=rd_cycle)
    rd_cycle -= tail
    del tail, ends, base
    firsts = rd_cycle[opens]
    act += firsts - leads

    # It is exact up to a channel's first PRE that comes less than tRAS
    # after the ACT of the previous opening on its bank, in the piece or
    # before it.  From there on _open_rows steps the channel's openings,
    # and each shifts its runs.
    chan_of, open_bank = ch[opens], bank[opens]
    key = chan_of.astype(np.int32) * banks + open_bank
    # The ACT before each opening on its bank.  An opening that
    # precharges, the only kind that can bind, had one.
    before, by_bank = _previous(key, act, state.key, state.cycle, 0)
    binds = np.flatnonzero((act - config.t_rp < before + config.t_ras) & pres)
    # Each bank's last opening, whose ACT the state keeps, ends its key in _previous's order.
    newest = by_bank[_ends(key[by_bank])]
    newest_key = key[newest]
    del by_bank, key, before
    if binds.size:
        moves = firsts - leads  # each opening's E_prev, less the previous one's first read
        moves[1:] -= firsts[:-1]
        first_rd = firsts.copy()
        for first in binds[_heads(chan_of[binds])].tolist():
            c = int(chan_of[first])
            begin, stop = np.searchsorted(chan_of, [c, c + 1])
            act_at = _lookup(state.key, c * banks + np.arange(banks), state.cycle, 0)
            np.maximum.at(act_at, open_bank[begin:first], act[begin:first])
            act[first:stop], first_rd[first:stop] = _open_rows(
                config, act_at.tolist(), int(firsts[first - 1]) if first else 0,
                *(a[first:stop].tolist() for a in (open_bank, pres, moves, leads)),
            )
        # How late each opening's runs issue; a channel's runs before its
        # first opening in the piece, row hits, are on time.
        first_rd -= firsts
        hits = starts[~opening[starts]]
        at = np.r_[opens, hits]
        late = np.r_[first_rd, np.zeros(hits.size, np.int64)][np.argsort(at, kind="stable")]
        at.sort()
        rd_cycle += np.repeat(late, np.diff(np.r_[at, length.size]))
        del moves, first_rd, hits, at, late
    del firsts, leads, chan_of, open_bank, starts

    # The state the piece leaves: each channel's last run holds its last
    # read, and each bank's last opening its open row and that ACT; the
    # banks the piece does not open keep theirs.
    last = _ends(ch)
    last_read, last_bank = state.last_read.copy(), state.last_bank.copy()
    last_read[ch[last]] = np.multiply(length[last] - 1, t_l, dtype=np.int64) + rd_cycle[last]
    last_bank[ch[last]] = bank[last]
    key = np.concatenate((state.key, newest_key))
    order = _newest(key)  # per key, the piece's entry if it has one
    after = DramState(
        last_read, last_bank, key[order],
        np.concatenate((state.row, row[opens[newest]]))[order],
        np.concatenate((state.cycle, act[newest]))[order],
    )
    table = RunTable(
        channel=ch, bank=bank, row=row, column=column, issue_cycle=rd_cycle, count=length,
        request=request, opening=opening, act_cycle=act, precharges=pres,
    )
    return table, after


@dataclass(frozen=True, eq=False)
class DramState:
    """What a planned piece leaves the rows after it, which is all that
    crosses a cut: two columns per channel and three per opened bank.

    Per channel, int64 columns of config.channels rows, -1 for none: the
    cycle and bank of its last read (last_read, last_bank), which is
    also its last command.  Per bank that has seen an ACT, ascending in
    key = channel * banks_per_channel + bank: the row that ACT opened,
    still open, and its cycle.  `plan` returns the state its piece
    leaves.  A command stream may also end a channel on a PRE or leave a
    bank precharged, which `plan` never does; the state that tracks
    those lives in the tests (tests/reference.py, `CommandState`).
    """

    last_read: np.ndarray
    last_bank: np.ndarray
    key: np.ndarray
    row: np.ndarray
    cycle: np.ndarray

    @classmethod
    def initial(cls, config: DramConfig) -> DramState:
        """The state before any command: nothing issued, every bank closed."""
        none = np.full(config.channels, -1, np.int64)
        empty = np.zeros(0, np.int64)
        return cls(none, none, empty, empty, empty)


_TOO_LARGE = "clock_ns or an energy constant is too large"


@dataclass(frozen=True)
class SimResult:
    """Totals of one simulated trace, and one per trace row: its
    completion, the cycle its last data beat arrives, and its ACT count,
    both int64.  Equality compares the totals only."""

    total_cycles: int
    total_ns: float
    energy_pj: dict
    bytes_transferred: int
    num_acts: int
    num_reads: int
    completion: np.ndarray = field(compare=False, repr=False)
    acts: np.ndarray = field(compare=False, repr=False)

    def check_requests(self, n_rows: int) -> None:
        """Raise unless the result counts the requests of a trace's n_rows rows."""
        if self.completion.size != n_rows:
            raise ValueError(
                f"the simulated result counts {self.completion.size} trace rows,"
                f" but the trace has {n_rows}"
            )


def simulate(config: DramConfig, trace: Trace, cuts=()) -> SimResult:
    """Plan a trace and total it, the engine's one entry.

    The trace is cut before each trace row in cuts (ascending), and each
    piece planned from the state `plan` returned for the piece before,
    totalled and dropped, so the working set follows the largest piece;
    any cuts give the same result.  A run's last read issues
    (count - 1) * t_ccd_l after its first, and its data has arrived CAS
    latency plus one burst after that; an opening is one ACT.  The trace
    ends at the last data beat.  Background energy covers every channel
    for the whole span, busy or not: standby power does not care who is
    reading.
    """
    n = trace.addr.size
    completion, acts = np.zeros(n, np.int64), np.zeros(n, np.int64)
    count_rd = count_act = end_cycle = 0
    lo, state = 0, None
    for hi in [*(int(cut) for cut in cuts), n]:
        table, state = plan(config, trace, (lo, hi), state)
        done = np.multiply(table.count - 1, config.t_ccd_l, dtype=np.int64)
        done += table.issue_cycle
        done += config.t_cl + config.burst_cycles
        count_rd += int(table.count.sum())
        end_cycle = max(end_cycle, int(done.max(initial=0)))
        np.maximum.at(completion, table.request, done)
        opened = table.request[table.opening]
        count_act += opened.size
        acts[lo:hi] += np.bincount(opened - lo, minlength=hi - lo)
        del table, done, opened  # before the next piece is planned
        lo = hi
    total_ns = end_cycle * config.clock_ns
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
        total_cycles=end_cycle,
        total_ns=total_ns,
        energy_pj=energy,
        bytes_transferred=BLOCK * count_rd,
        num_acts=count_act,
        num_reads=count_rd,
        completion=completion,
        acts=acts,
    )


def energy_breakdown(result: SimResult, trace: Trace) -> dict:
    """Split a result's energy across the trace's tags.

    result is the simulated trace's, whose requests are its rows.  A
    tag's ACTs are those of its rows, and its reads its bytes over the
    block; activation energy is split by ACT count, read and background
    energy by read count.  The split is keyed by the trace's labels, and
    the category totals sum back to the result's total.  Every row must
    carry a tag.
    """
    result.check_requests(trace.addr.size)
    reads = trace.bytes_by_tag() // BLOCK
    acts = trace.sum_by_tag(result.acts)
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
