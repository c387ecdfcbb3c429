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
reference.  `plan` produces the same command stream as a run table, one
RD row per run of reads to consecutive columns of an open row, stepping
the bank state machine once per row opening; `simulate` replays a table
or a plain command stream with every legality check vectorized per
channel.  docs/dram-model.md shows why the run-level recurrence is
exact.  Both `schedule` and `plan` take the request stream as an
`address.Trace` and read its addr and size columns.

Energy is the textbook three-term sum: e_act per activation (precharge
included), e_rd per 64-byte burst, and a background term p_bg * wall
clock per channel.  The default constants are derived from a
representative 16 Gb x4 DDR5-4800 datasheet power calculation; the
arithmetic lives in docs/dram-model.md.  They are calibration inputs,
not ground truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .address import BLOCK, Trace


class CommandKind(enum.Enum):
    ACT = "ACT"
    RD = "RD"
    PRE = "PRE"


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
    no modeled payload.  A 64-byte burst therefore occupies the data bus
    for burst_bytes / 8 = 8 command cycles (BL16, double data rate).
    """

    channels: int = 4
    banks_per_channel: int = 32
    row_bytes: int = 8192
    burst_bytes: int = 64
    interleave_bytes: int = 64
    clock_ns: float = 0.4167
    t_rcd: int = 34
    t_cl: int = 34
    t_rp: int = 34
    t_ras: int = 77
    t_ccd_l: int = 12
    t_ccd_s: int = 8
    e_act_pj: float = 11700.0
    e_rd_pj: float = 9090.0
    p_bg_mw: float = 792.0

    def __post_init__(self) -> None:
        counts = {
            "channels": self.channels,
            "banks_per_channel": self.banks_per_channel,
            "row_bytes": self.row_bytes,
            "burst_bytes": self.burst_bytes,
            "interleave_bytes": self.interleave_bytes,
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
        if self.clock_ns <= 0:
            raise ValueError("clock_ns must be positive")
        if self.e_act_pj < 0 or self.e_rd_pj < 0 or self.p_bg_mw < 0:
            raise ValueError("energy constants must be non-negative")
        # Traces are cut into BLOCK-byte requests at BLOCK-aligned addresses.
        for name in ("burst_bytes", "interleave_bytes"):
            if counts[name] != BLOCK:
                raise ValueError(
                    f"{name} must be {BLOCK}, the block size traces are cut into,"
                    f" got {counts[name]}"
                )
        if self.row_bytes % self.burst_bytes:
            raise ValueError("burst_bytes must divide row_bytes")
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
        return self.burst_bytes // 8

    @property
    def columns_per_row(self) -> int:
        return self.row_bytes // self.burst_bytes


def _split(config: DramConfig, byte_addr):
    """(channel, bank, row, column) of aligned addresses: ints or arrays."""
    granule = config.interleave_bytes
    channel = (byte_addr // granule) % config.channels
    chan_byte = (byte_addr // (granule * config.channels)) * granule + byte_addr % granule
    burst = chan_byte // config.burst_bytes
    column = burst % config.columns_per_row
    bank = (burst // config.columns_per_row) % config.banks_per_channel
    row = burst // (config.columns_per_row * config.banks_per_channel)
    return channel, bank, row, column


def map_address(config: DramConfig, byte_addr: int) -> tuple[int, int, int, int]:
    """Map a burst-aligned byte address to (channel, bank, row, column).

    Channels interleave round-robin on interleave_bytes granules; within
    a channel the burst index splits column-first, then bank, then row,
    so a sequential stream walks the columns of one row before moving on.
    """
    if byte_addr < 0:
        raise ValueError(f"negative address {byte_addr}")
    if byte_addr % config.burst_bytes:
        raise ValueError(
            f"address {byte_addr} is not {config.burst_bytes}-byte aligned"
        )
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
    commands lazily, one burst at a time.  This is the reference
    statement of the policy; `plan` computes the same stream faster.
    """
    channels = [_ChannelState(config) for _ in range(config.channels)]
    for index, (addr, size) in enumerate(zip(trace.addr.tolist(), trace.size.tolist())):
        for offset in range(0, size, config.burst_bytes):
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


# Column code of each CommandKind: its position in the enum.
_KIND_CODE = {kind: code for code, kind in enumerate(CommandKind)}
_ACT, _RD, _PRE = (_KIND_CODE[k] for k in (CommandKind.ACT, CommandKind.RD, CommandKind.PRE))


@dataclass(frozen=True, eq=False)
class CommandTable:
    """A timed command stream as columns, one row per command or run.

    kind holds the position of the row's CommandKind in the enum; the
    other per-row columns mirror DramCommand's fields for the row's first
    command.  An RD row stands for count reads to consecutive columns of
    its (bank, row), the k-th at issue_cycle + k * t_ccd_l, column + k;
    every other row has count 1.  read_request holds the request of
    every read, row after row, in table order.  A channel's rows are in
    its stream order; rows of different channels may interleave in any
    order.
    """

    kind: np.ndarray
    channel: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray
    issue_cycle: np.ndarray
    request_index: np.ndarray
    count: np.ndarray
    read_request: np.ndarray
    # Stream position -> kind, for commands whose kind is no CommandKind
    # (their kind code is -1); the replay names the kind when it rejects one.
    odd_kinds: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        reads = self.count[self.kind == _RD]
        if (reads < 1).any() or (self.count[self.kind != _RD] != 1).any():
            raise ValueError("an RD row needs a count of at least 1, any other row 1")
        if int(reads.sum()) != self.read_request.size:
            raise ValueError(
                f"read_request holds {self.read_request.size} reads,"
                f" the RD rows {int(reads.sum())}"
            )

    def __len__(self) -> int:
        return self.kind.size

    @classmethod
    def from_commands(cls, commands: Iterable[DramCommand]) -> "CommandTable":
        """One count-1 row per command, in stream order."""
        rows, odd = [], {}
        for position, cmd in enumerate(commands):
            code = _KIND_CODE.get(cmd.kind, -1)
            if code < 0:
                odd[position] = cmd.kind
            rows.append((code, *cmd[1:]))
        cols = np.array(rows, dtype=np.int64).reshape(-1, 7).T
        kind = cols[0].astype(np.int8)
        return cls(
            kind, *cols[1:], count=np.ones(kind.size, np.int64),
            read_request=cols[6][kind == _RD], odd_kinds=odd,
        )


def _open_rows(config: DramConfig, banks: list, pres: list, hits: list, gaps: list, tails: list):
    """Bank state machine of one channel, one step per row-opening run.

    Per opening, in stream order: its bank, whether a PRE closes another
    row first, hits (how far the hit runs since the previous opening
    moved the channel's last read), gaps (the tCCD from the channel's
    previous run, 1 for its first) and tails ((length - 1) * t_ccd_l).
    Returns the ACT cycle and the first RD cycle of each opening; its
    PRE, if any, is tRP before the ACT.
    """
    t_rcd, t_rp, t_ras = config.t_rcd, config.t_rp, config.t_ras
    act_at = [0] * config.banks_per_channel
    last = -1  # the channel's last read, which is also its last command
    act_cycles, rd_cycles = [], []
    # Comparisons rather than max(): this loop is the engine's one
    # Python step per opening, and the calls would double its cost.
    for bank, pre, hit, gap, tail in zip(banks, pres, hits, gaps, tails):
        last += hit
        if pre:  # PRE = max(last + 1, act_at[bank] + t_ras), then ACT tRP later
            act = act_at[bank] + t_ras
            if act <= last:
                act = last + 1
            act += t_rp
        else:
            act = last + 1
        act_at[bank] = act
        rd = act + t_rcd
        if rd < last + gap:
            rd = last + gap
        act_cycles.append(act)
        rd_cycles.append(rd)
        last = rd + tail
    return act_cycles, rd_cycles


def plan(config: DramConfig, trace: Trace) -> CommandTable:
    """schedule()'s command stream as a run table: one RD row per run.

    Requests expand to bursts, each with its channel and its burst index
    within the channel.  A run is a maximal stretch of one channel's
    bursts, in stream order, on consecutive columns of one (bank, row).
    It becomes one RD row whose reads issue t_ccd_l apart, preceded by
    the PRE and ACT rows that open its row, if it is not a hit.  Between
    two openings on a channel the reads are a cumulative sum, so the
    bank state machine steps once per opening (`_open_rows`).  Rows are
    ordered by the stream position of each run's first burst.
    """
    start = np.asarray(trace.addr, np.int64)
    size = np.asarray(trace.size, np.int64)
    step = config.burst_bytes
    bursts = np.maximum(-(-size // step), 0)
    misplaced = (bursts > 0) & ((start < 0) | (start % step != 0))
    if misplaced.any():
        map_address(config, int(start[misplaced.argmax()]))  # raises its error
    request = np.repeat(np.arange(start.size, dtype=np.int32), bursts)
    total = request.size
    if not total:
        return CommandTable(np.zeros(0, np.int8), *[np.zeros(0, np.int64)] * 8)
    # Global burst index; interleave_bytes == burst_bytes, so a burst's
    # channel and its burst index within the channel split it directly.
    burst = np.repeat(start // step - (np.cumsum(bursts) - bursts), bursts)
    burst += np.arange(total)
    channel = burst % config.channels
    local = burst // config.channels
    del start, size, burst

    cpr, t_l, t_s = config.columns_per_row, config.t_ccd_l, config.t_ccd_s
    # by_channel lists the bursts channel after channel, each channel's in
    # stream order; first holds each run's first burst as a position in it.
    by_channel, run_first, run_channel = [], [], []
    offset = 0
    for ch in range(config.channels):
        sel = np.flatnonzero(channel == ch)
        if not sel.size:
            continue
        lb = local[sel]
        first = np.flatnonzero(np.r_[True, (lb[1:] != lb[:-1] + 1) | (lb[1:] % cpr == 0)])
        by_channel.append(sel)
        run_first.append(first + offset)
        run_channel.append(np.full(first.size, ch, np.int64))
        offset += sel.size
    del channel
    by_channel, first, ch = map(np.concatenate, (by_channel, run_first, run_channel))
    length = np.diff(np.r_[first, total])
    page, column = np.divmod(local[by_channel[first]], cpr)
    bank, row = page % config.banks_per_channel, page // config.banks_per_channel
    del local

    # A run opens its row unless the previous run on its bank had the
    # same row; it precharges first if its bank had a run at all.
    n_runs = first.size
    same_channel = np.r_[False, ch[1:] == ch[:-1]]
    key = ch * config.banks_per_channel + bank
    by_bank = np.argsort(key, kind="stable")
    follows = np.r_[False, key[by_bank][1:] == key[by_bank][:-1]]
    closed = np.full(n_runs, -1, np.int64)
    closed[by_bank[follows]] = row[by_bank[np.flatnonzero(follows) - 1]]
    opening = closed != row
    has_pre = opening & (closed >= 0)

    # Every hit run reads right after the channel's previous run: its
    # last read is the previous run's plus its gap plus its tail.
    gap = np.where(same_channel & (bank == np.r_[-1, bank[:-1]]), t_l, t_s)
    gap[~same_channel] = 1  # no earlier read: with last = -1 the gap binds nothing
    tail = (length - 1) * t_l
    moved = np.cumsum(np.where(opening, 0, gap + tail))
    opens = np.flatnonzero(opening)
    hits = np.diff(np.r_[0, moved[opens]])
    hits[~same_channel[opens]] = 0
    steps = [a.tolist() for a in (bank[opens], has_pre[opens], hits, gap[opens], tail[opens])]
    chan_of = ch[opens]
    bounds = np.flatnonzero(np.r_[True, chan_of[1:] != chan_of[:-1], True]).tolist()
    act_at, first_rd = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        act, rd = _open_rows(config, *(a[lo:hi] for a in steps))
        act_at += act
        first_rd += rd
    # Each run's last read: its segment's opening's, moved by the hits since.
    last_rd = np.array(first_rd, np.int64) + tail[opens] - moved[opens]
    rd_cycle = last_rd[np.cumsum(opening) - 1] + moved - tail
    act_cycle = np.full(n_runs, -1, np.int64)
    act_cycle[opens] = act_at

    # Table order: runs by the stream position of their first burst, each
    # preceded by its PRE and ACT rows.
    order = np.argsort(by_channel[first])
    (first, length, ch, bank, row, column, closed, opening, has_pre, rd_cycle, act_cycle) = (
        a[order] for a in (
            first, length, ch, bank, row, column, closed, opening, has_pre, rd_cycle, act_cycle
        )
    )
    rows_of = 1 + opening.astype(np.int64) + has_pre
    rd_pos = np.cumsum(rows_of) - 1
    act_pos, pre_pos = rd_pos[opening] - 1, rd_pos[has_pre] - 2

    def column_of(values, act=None, pre=None):
        """A per-run column as a table column, patched at ACT and PRE rows."""
        out = np.repeat(values, rows_of)
        if act is not None:
            out[act_pos] = act
        if pre is not None:
            out[pre_pos] = pre
        return out

    # Every read, run after run in table order, as a position in by_channel.
    reads = np.repeat(first - (np.cumsum(length) - length), length)
    reads += np.arange(total)
    return CommandTable(
        kind=column_of(np.full(n_runs, _RD, np.int8), _ACT, _PRE),
        channel=column_of(ch),
        bank=column_of(bank),
        row=column_of(row, pre=closed[has_pre]),
        column=column_of(column, pre=0),
        issue_cycle=column_of(rd_cycle, act_cycle[opening], act_cycle[has_pre] - config.t_rp),
        request_index=column_of(request[by_channel[first]]),
        count=column_of(length, 1, 1),
        read_request=request[by_channel[reads]],
    )


@dataclass(frozen=True, eq=False)
class SimResult:
    """Outcome of one simulated trace.  Immutable once produced.

    completion_cycles holds the last data beat of each request, indexed
    by request_index; request_reads and request_acts count the RD and ACT
    commands attributed to each request (a PRE carries no energy of its
    own, e_act covers it).  The three are read-only int64 arrays.
    """

    total_cycles: int
    total_ns: float
    energy_pj: dict
    completion_cycles: np.ndarray
    request_reads: np.ndarray
    request_acts: np.ndarray
    bytes_transferred: int
    num_acts: int
    num_reads: int

    def __post_init__(self) -> None:
        for name in ("completion_cycles", "request_reads", "request_acts"):
            column = np.array(getattr(self, name), np.int64).reshape(-1)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimResult):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in (
                (getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
            )
        )

    __hash__ = None


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
    "unknown command kind {kind!r}",
)


def _previous(flags: np.ndarray) -> np.ndarray:
    """Index of the nearest earlier True in flags, or -1."""
    marks = np.where(flags, np.arange(flags.size), -1)
    return np.r_[-1, np.maximum.accumulate(marks)[:-1]]


def _first_violation(config: DramConfig, table: CommandTable, sel: np.ndarray):
    """(table position, message) of one channel's first illegal row.

    sel lists the channel's rows in stream order.  Each row's first
    command is checked against the state the rows before it leave: the
    last cycle of the previous row on the channel, the last read of the
    previous RD row, and the bank's newest ACT or PRE (open if it was an
    ACT).  Up to the first illegal row that is exactly the state a
    command-by-command replay holds.  The later reads of an RD row need
    no check of their own: nothing else issues on the channel between
    them, they stay on the open row, and they are t_ccd_l >= 1 apart,
    which satisfies the bus, tCCD and tRCD rules once the first read
    does.  Returns None when all are legal.
    """
    ch = int(table.channel[sel[0]])
    kind, bank, row = table.kind[sel], table.bank[sel], table.row[sel]
    cycle = table.issue_cycle[sel].astype(np.int64)
    last = cycle + (table.count[sel] - 1) * config.t_ccd_l
    is_act, is_rd, is_pre = kind == _ACT, kind == _RD, kind == _PRE

    by_bank = np.argsort(bank, kind="stable")
    sorted_bank = bank[by_bank]
    run_start = np.r_[True, sorted_bank[1:] != sorted_bank[:-1]]
    first_of_bank = np.maximum.accumulate(np.where(run_start, np.arange(sel.size), 0))
    prev = _previous((is_act | is_pre)[by_bank])
    state = np.empty(sel.size, np.int64)
    state[by_bank] = np.where(prev >= first_of_bank, by_bank[prev], -1)
    has_state = state >= 0
    state = np.where(has_state, state, 0)
    is_open = has_state & (kind[state] == _ACT)
    open_row, state_cycle = row[state], cycle[state]

    last_rd = _previous(is_rd)
    early_rd = is_rd & (last_rd >= 0)
    last_rd = np.where(early_rd, last_rd, 0)
    same_bank = bank[last_rd] == bank
    early_rd &= cycle < last[last_rd] + np.where(same_bank, config.t_ccd_l, config.t_ccd_s)

    checks = [
        (bank >= config.banks_per_channel) | (ch >= config.channels),
        cycle <= np.r_[-1, last[:-1]],
        is_act & is_open,
        is_act & has_state & ~is_open & (cycle < state_cycle + config.t_rp),
        is_pre & ~is_open,
        is_pre & (cycle < state_cycle + config.t_ras),
        is_rd & ~is_open,
        is_rd & (open_row != row),
        is_rd & (cycle < state_cycle + config.t_rcd),
        early_rd & same_bank,
        early_rd,
        kind < 0,
    ]
    code = np.select(checks, np.arange(1, len(checks) + 1), 0)
    bad = np.flatnonzero(code)
    if not bad.size:
        return None
    j = int(bad[0])
    position = int(sel[j])
    message = _VIOLATIONS[code[j] - 1].format(
        ch=ch,
        bank=int(bank[j]),
        row=int(row[j]),
        cycle=int(cycle[j]),
        open_row=int(open_row[j]),
        kind=table.odd_kinds.get(position),
    )
    return position, message


def simulate(config: DramConfig, commands) -> SimResult:
    """Replay a command stream, checking legality, and account for it.

    commands is a CommandTable (an RD row stands for its count reads) or
    an iterable of DramCommand.  The stream must respect the bank state
    machine and the configured timings; the first violation, in table
    order, raises ValueError naming the constraint.  The trace ends at the last data beat (or the last
    command, for a stream with no reads).  Background energy covers every
    channel for the whole span, busy or not: standby power does not care
    who is reading.
    """
    table = commands if isinstance(commands, CommandTable) else CommandTable.from_commands(commands)
    channel = table.channel
    if len(table) and (channel.min() < 0 or channel.max() >= config.channels):
        present = np.unique(channel)
    else:
        present = range(config.channels)
    violations = []
    for ch in present:
        sel = np.flatnonzero(channel == ch)
        if sel.size:
            violations.append(_first_violation(config, table, sel))
    violations = [v for v in violations if v is not None]
    if violations:
        raise ValueError(min(violations)[1])

    rd_rows = np.flatnonzero(table.kind == _RD)
    count = table.count[rd_rows]
    request = table.read_request
    count_rd = request.size
    count_act = int(np.count_nonzero(table.kind == _ACT))
    n_requests = max(
        (int(column.max()) + 1 for column in (table.request_index, request) if column.size),
        default=0,
    )
    # Completion of each read: its row's issue cycle plus k * t_ccd_l for
    # the row's k-th read, plus CAS latency and the burst.
    row_start = np.cumsum(count) - count
    done = np.repeat(
        table.issue_cycle[rd_rows] - row_start * config.t_ccd_l
        + (config.t_cl + config.burst_cycles),
        count,
    )
    done += np.arange(count_rd) * config.t_ccd_l
    completion = np.zeros(n_requests, np.int64)
    np.maximum.at(completion, request, done)
    reads = np.bincount(request, minlength=n_requests)
    acts = np.bincount(table.request_index[table.kind == _ACT], minlength=n_requests)

    if count_rd:
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
    return SimResult(
        total_cycles=total_cycles,
        total_ns=total_ns,
        energy_pj=energy,
        completion_cycles=completion,
        request_reads=reads,
        request_acts=acts,
        bytes_transferred=config.burst_bytes * count_rd,
        num_acts=count_act,
        num_reads=count_rd,
    )


def run_trace(config: DramConfig, trace: Trace) -> SimResult:
    """Plan and replay in one go (the production path)."""
    return simulate(config, plan(config, trace))


def energy_breakdown(result: SimResult, tags, labels: Sequence) -> dict:
    """Split a result's energy across the per-request tags.

    tags holds one code per request, an index into labels (a trace's
    tag column); the split is keyed by label.  Activation and read
    energy follow the commands each request caused; background energy
    is prorated by bytes moved.  Category totals sum back to the
    result's total.  Every request must carry a tag.
    """
    n = len(result.completion_cycles)
    tags = np.asarray(tags, np.intp)
    if tags.size != n:
        raise ValueError(f"got {tags.size} tags for {n} requests")
    untagged = np.flatnonzero(tags < 0)
    if untagged.size:
        raise ValueError(f"request {untagged[0]} is untagged")
    # Each request's share is summed in the same order, with the same
    # float operations, as a request-by-request loop, and bincount adds
    # the shares up in request order: the totals are bit-identical to it.
    e = result.energy_pj
    share = np.zeros(n)
    if result.num_acts:
        share += e["activation"] * result.request_acts / result.num_acts
    if result.num_reads:
        # Bursts are uniform, so the read-count ratio is the byte ratio.
        reads = result.request_reads
        share += e["read"] * reads / result.num_reads
        share += e["background"] * reads / result.num_reads
    totals = np.bincount(tags, weights=share, minlength=len(labels))
    return {label: float(total) for label, total in zip(labels, totals)}
