"""Reference implementations used as test oracles.

The conversion oracles work in Fraction arithmetic over explicitly
enumerated code tables, deliberately avoiding the bit-twiddling style of
the package under test. Slow but exact; call sites memoize where sweeps
get large.

reference_simulate is the per-command legality replay the DRAM model
started from: one dictionary update per command, in stream order.  The
package's vectorized replay must accept and reject exactly the streams
it does, with the same message, and account for them identically.

reference_trace is the trace generator the package started from: one
request object per plane span, or per 64-byte block in traditional
mode, trimmed against a per-plane high-water dictionary.  The columnar
`gen_trace` must produce the same rows.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from planestore.address import (
    BLOCK,
    FP16_BYTES,
    LogicalRead,
    TraditionalLayout,
    build_regions,
    plane_span,
    resolve,
)
from planestore.bitplane import ChunkKind, PlaneLayout, plane_stride_for
from planestore.dram import CommandKind, DramCommand, DramConfig, SimResult
from planestore.quant import NO_GUARD, plane_set

TWO = Fraction(2)


def minifloat_value(bits: int, exp_bits: int, man_bits: int, bias: int) -> Fraction:
    """Exact value of a minifloat code; exponent code 0 is the subnormal row
    and there are no Inf/NaN codes."""
    sign = bits >> (exp_bits + man_bits)
    exp = (bits >> man_bits) & ((1 << exp_bits) - 1)
    man = bits & ((1 << man_bits) - 1)
    scale = 1 << man_bits
    if exp == 0:
        mag = Fraction(man, scale) * TWO ** (1 - bias)
    else:
        mag = (1 + Fraction(man, scale)) * TWO ** (exp - bias)
    return -mag if sign else mag


def fp16_value(bits: int) -> Fraction:
    return minifloat_value(bits, 5, 10, 15)


@lru_cache(maxsize=None)
def _magnitude_table(exp_bits: int, man_bits: int, bias: int) -> tuple[Fraction, ...]:
    # Non-negative codes in order; code order equals value order because
    # the encoding has no special rows.
    return tuple(
        minifloat_value(code, exp_bits, man_bits, bias)
        for code in range(1 << (exp_bits + man_bits))
    )


def _nearest_even_code(mags: tuple[Fraction, ...], v: Fraction) -> int:
    """Code of the table value nearest to v >= 0, ties to the even code."""
    i = bisect_right(mags, v)
    if i == 0:
        return 0
    if i == len(mags):
        return len(mags) - 1
    lo, hi = mags[i - 1], mags[i]
    d_lo, d_hi = v - lo, hi - v
    if d_lo < d_hi:
        return i - 1
    if d_hi < d_lo:
        return i
    return i if (i % 2 == 0) else i - 1


def _round_half_even(n: Fraction) -> int:
    floor = n.numerator // n.denominator
    rem = n - floor
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2 == 1):
        return floor + 1
    return floor


@lru_cache(maxsize=None)
def _convert_map(
    exp_bits: int, man_bits: int, bias: int, fetched_exp: int, fetched_man: int, truncate: bool
) -> dict[int, int]:
    """Masked FP16 word -> converted target word, for every reachable mask."""
    out: dict[int, int] = {}
    body_bits = exp_bits + man_bits
    for sign in (0, 1):
        for exp_m in range(0, 32, 1 << (5 - fetched_exp)):
            for man_m in range(0, 1024, 1 << (10 - fetched_man)):
                masked = (sign << 15) | (exp_m << 10) | man_m
                v = abs(fp16_value(masked))
                if exp_bits == 5 and bias == 15:
                    # Aligned codomain includes the subnormal row.
                    mags = _magnitude_table(5, man_bits, 15)
                    if truncate:
                        code = bisect_right(mags, v) - 1
                    else:
                        code = _nearest_even_code(mags, v)
                    out[masked] = (sign << body_bits) | code
                    continue
                max_exp = (1 << exp_bits) - 1
                if exp_m == 0:
                    out[masked] = sign << body_bits
                    continue
                target_exp = exp_m - 15 + bias
                if target_exp > max_exp:
                    out[masked] = (sign << body_bits) | ((1 << body_bits) - 1)
                    continue
                if target_exp < 1:
                    out[masked] = sign << body_bits
                    continue
                frac = v / TWO ** (exp_m - 15) - 1
                n = frac * (1 << man_bits)
                man_t = n.numerator // n.denominator if truncate else _round_half_even(n)
                if man_t == 1 << man_bits:
                    man_t = 0
                    target_exp += 1
                    if target_exp > max_exp:
                        out[masked] = (sign << body_bits) | ((1 << body_bits) - 1)
                        continue
                out[masked] = (sign << body_bits) | (target_exp << man_bits) | man_t
    return out


def ref_convert(
    bits16: int,
    exp_bits: int,
    man_bits: int,
    bias: int,
    guard_exp: int,
    guard_man: int,
    truncate: bool,
) -> int:
    """Reference conversion of an FP16 bit pattern to the target layout."""
    fetched_exp = min(5, exp_bits + guard_exp)
    fetched_man = min(10, man_bits + guard_man)
    sign = bits16 >> 15
    exp = (bits16 >> 10) & 0x1F
    man = bits16 & 0x3FF
    exp_m = (exp >> (5 - fetched_exp)) << (5 - fetched_exp)
    man_m = (man >> (10 - fetched_man)) << (10 - fetched_man)
    masked = (sign << 15) | (exp_m << 10) | man_m
    return _convert_map(exp_bits, man_bits, bias, fetched_exp, fetched_man, truncate)[masked]


def ref_encode_fp16(value: float) -> int:
    """Nearest-even FP16 code for a finite real, clamping beyond the table."""
    import math

    sign = 1 if math.copysign(1.0, value) < 0 else 0
    code = _nearest_even_code(_magnitude_table(5, 10, 15), abs(Fraction(value)))
    return (sign << 15) | code


def reference_simulate(
    config: DramConfig, commands: Iterable[DramCommand]
) -> SimResult:
    """Replay a command stream, checking legality, and account for it.

    The stream must respect the bank state machine and the configured
    timings; a violation raises ValueError naming the constraint.  The
    trace ends at the last data beat (or the last command, for a stream
    with no reads).  Background energy covers every channel for the whole
    span, busy or not: standby power does not care who is reading.
    """
    open_row: dict = {}
    act_cycle: dict = {}
    pre_cycle: dict = {}
    last_bus: dict = {}
    last_rd: dict = {}

    count_act = 0
    count_rd = 0
    last_cycle = -1
    end_cycle = 0
    reads: dict[int, int] = {}
    acts: dict[int, int] = {}
    completion: dict[int, int] = {}
    n_requests = 0

    for cmd in commands:
        ch, bank = cmd.channel, cmd.bank
        key = (ch, bank)
        if ch >= config.channels or bank >= config.banks_per_channel:
            raise ValueError(f"command addresses channel {ch} bank {bank} outside the config")
        if cmd.issue_cycle <= last_bus.get(ch, -1):
            raise ValueError(f"command bus conflict on channel {ch} at cycle {cmd.issue_cycle}")
        last_bus[ch] = cmd.issue_cycle
        last_cycle = max(last_cycle, cmd.issue_cycle)
        n_requests = max(n_requests, cmd.request_index + 1)

        if cmd.kind is CommandKind.ACT:
            if key in open_row:
                raise ValueError(f"activate on channel {ch} bank {bank} with a row already open")
            if key in pre_cycle and cmd.issue_cycle < pre_cycle[key] + config.t_rp:
                raise ValueError(f"t_rp violated on channel {ch} bank {bank}")
            open_row[key] = cmd.row
            act_cycle[key] = cmd.issue_cycle
            count_act += 1
            acts[cmd.request_index] = acts.get(cmd.request_index, 0) + 1
        elif cmd.kind is CommandKind.PRE:
            if key not in open_row:
                raise ValueError(f"precharge on channel {ch} bank {bank} with no open row")
            if cmd.issue_cycle < act_cycle[key] + config.t_ras:
                raise ValueError(f"t_ras violated on channel {ch} bank {bank}")
            del open_row[key]
            pre_cycle[key] = cmd.issue_cycle
        elif cmd.kind is CommandKind.RD:
            if key not in open_row:
                raise ValueError(f"read on channel {ch} bank {bank} with no open row")
            if open_row[key] != cmd.row:
                raise ValueError(f"read to row {cmd.row} on channel {ch} bank {bank} while row {open_row[key]} is open")
            if cmd.issue_cycle < act_cycle[key] + config.t_rcd:
                raise ValueError(f"t_rcd violated on channel {ch} bank {bank}")
            if ch in last_rd:
                prev_cycle, prev_bank = last_rd[ch]
                gap = config.t_ccd_l if prev_bank == bank else config.t_ccd_s
                name = "t_ccd_l" if prev_bank == bank else "t_ccd_s"
                if cmd.issue_cycle < prev_cycle + gap:
                    raise ValueError(f"{name} violated on channel {ch}")
            last_rd[ch] = (cmd.issue_cycle, bank)
            done = cmd.issue_cycle + config.t_cl + config.burst_cycles
            end_cycle = max(end_cycle, done)
            count_rd += 1
            reads[cmd.request_index] = reads.get(cmd.request_index, 0) + 1
            prev = completion.get(cmd.request_index, 0)
            completion[cmd.request_index] = max(prev, done)
        else:
            raise ValueError(f"unknown command kind {cmd.kind!r}")

    if count_rd == 0:
        total_cycles = last_cycle + 1 if last_cycle >= 0 else 0
    else:
        total_cycles = end_cycle
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
        completion_cycles=tuple(completion.get(i, 0) for i in range(n_requests)),
        request_reads=tuple(reads.get(i, 0) for i in range(n_requests)),
        request_acts=tuple(acts.get(i, 0) for i in range(n_requests)),
        bytes_transferred=config.burst_bytes * count_rd,
        num_acts=count_act,
        num_reads=count_rd,
    )


class TraceRow(NamedTuple):
    byte_addr: int
    len_bytes: int
    kind: ChunkKind
    chunk_id: int


def _reference_translate(resolved, guard, layout) -> list:
    """(byte_addr, len_bytes, plane) per needed plane, address order."""
    fmt, start, count = resolved
    if fmt.is_skip:
        raise ValueError("cannot translate a skipped chunk")
    if not 0 <= start <= start + count <= layout.num_weights:
        raise ValueError(f"weight range [{start}, +{count}) outside the image")
    spans = []
    for p in plane_set(fmt, guard):
        lo, size = plane_span(layout, p, start, count)
        spans.append((lo, size, p))
    spans.sort()
    return spans


def _reference_translate_traditional(resolved, layout) -> list:
    """(byte_addr, 64) per block of the weight range's FP16 extent."""
    fmt, start, count = resolved
    if fmt.is_skip:
        return []
    if not 0 <= start <= start + count <= layout.num_weights:
        raise ValueError(f"weight range [{start}, +{count}) outside the layout")
    idx = bisect_right(layout.chunk_starts, start) - 1
    chunk_base = layout.chunk_bases[idx]
    chunk_start = layout.chunk_starts[idx]
    first = chunk_base + (start - chunk_start) * FP16_BYTES
    last = chunk_base + (start + count - chunk_start) * FP16_BYTES - 1
    lo = first // BLOCK * BLOCK
    hi = (last // BLOCK + 1) * BLOCK
    return [(addr, BLOCK) for addr in range(lo, hi, BLOCK)]


def reference_trace(assignment, directory, mode: str, guard=NO_GUARD) -> list:
    """The request stream for loading the whole model once, as TraceRows.

    Chunks go out in directory order; skipped chunks emit nothing.
    bitplane mode fetches each needed plane's span, minus the blocks a
    previous chunk already fetched on that plane; traditional mode
    fetches the chunk's FP16 extent one block at a time.
    """
    table = build_regions(directory.num_weights, assignment.ladder)
    bases = {region.fmt: region.base_bit for region in table.regions}
    if mode == "bitplane":
        layout = PlaneLayout(directory.num_weights, plane_stride_for(directory.num_weights))
    else:
        layout = TraditionalLayout.from_directory(directory)
    rows = []
    high_water: dict = {}  # plane index -> last fetched block
    for chunk, fmt in zip(directory, assignment.formats):
        if fmt.is_skip:
            continue
        read = LogicalRead(
            bases[fmt] + chunk.start * fmt.total_bits, chunk.length * fmt.total_bits
        )
        resolved = resolve(table, read)
        if mode == "traditional":
            for addr, size in _reference_translate_traditional(resolved, layout):
                rows.append(TraceRow(addr, size, chunk.kind, chunk.chunk_id))
            continue
        for addr, size, plane in _reference_translate(resolved, guard, layout):
            first = addr // BLOCK
            last = (addr + size - 1) // BLOCK
            start = max(first, high_water.get(plane, -1) + 1)
            if start > last:
                continue  # the seam block was already fetched for the previous chunk
            high_water[plane] = last
            rows.append(
                TraceRow(start * BLOCK, (last - start + 1) * BLOCK, chunk.kind, chunk.chunk_id)
            )
    return rows
