"""Command-line harness: pack images, dump regions, trace, simulate, compare.

Each subcommand takes only the flags it reads: --config (YAML, merged
over built-in defaults) all but `report`, --out (the output directory)
`pack`, `regions`, `trace` and `compare`, and --seed the three of those
that draw from it.  `compare` is the main entry: it runs the full
target sweep in both layouts and writes a deterministic JSON report
(timestamps live in a .meta.json sidecar so reruns with one config are
byte-identical), a plot-ready CSV and a summary table.  `report`
re-renders a stored report without resimulating.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import io
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import __version__
from .address import Trace, build_regions, first_invalid, region_report
from .bitplane import KIND_LABELS, ChunkKind, load_image, pack, save_image
from .bitplane import unpack_full  # unused here; benchmarks/tracer.py wraps it by name
from .config import ExperimentConfig, load_config
from .dram import energy_breakdown, simulate
from .experiment import KIND_REDUCTIONS, TOTAL_REDUCTIONS, reduction, run_sweep, solve_assignment
from .files import write_file
from .workload import TRACE_MODES, enumerate_chunks, gen_scores, gen_trace, trace_bytes

REPORT_SCHEMA_VERSION = 3

# Stable column schema for the plot-ready CSV (documented in README.md;
# bump REPORT_SCHEMA_VERSION when touching either).
CSV_COLUMNS = (
    "target_bits",
    "achieved_avg_bits",
    "traditional_bytes",
    "bitplane_bytes",
    "byte_reduction_pct",
    "traditional_energy_pj",
    "bitplane_energy_pj",
    "energy_reduction_pct",
    "traditional_latency_ns",
    "bitplane_latency_ns",
    "latency_reduction_pct",
    "attention_energy_reduction_pct",
    "attention_latency_reduction_pct",
    "mlp_energy_reduction_pct",
    "predictor_byte_share_pct",
)


def _out_dir(config: ExperimentConfig) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    return config.output_dir


def _fmt_num(value) -> str:
    if value == "":
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _target_row(entry: dict) -> dict:
    """One CSV/summary row from one target's report entry."""
    modes = entry["modes"]
    red = entry["reductions"]
    per_kind = red["per_kind"]
    att = per_kind.get(ChunkKind.ATTENTION_HEAD.value)
    mlp = per_kind.get(ChunkKind.MLP_NEURON.value)
    return {
        "target_bits": entry["target_bits"],
        "achieved_avg_bits": entry["achieved_avg_bits"],
        "traditional_bytes": modes["traditional"]["bytes"],
        "bitplane_bytes": modes["bitplane"]["bytes"],
        "byte_reduction_pct": red["bytes_pct"],
        "traditional_energy_pj": modes["traditional"]["total_energy_pj"],
        "bitplane_energy_pj": modes["bitplane"]["total_energy_pj"],
        "energy_reduction_pct": red["total_energy_pct"],
        "traditional_latency_ns": modes["traditional"]["total_latency_ns"],
        "bitplane_latency_ns": modes["bitplane"]["total_latency_ns"],
        "latency_reduction_pct": red["total_latency_pct"],
        "attention_energy_reduction_pct": (
            att["energy_per_weight_pct"] if att else ""
        ),
        "attention_latency_reduction_pct": (
            att["mean_chunk_latency_pct"] if att else ""
        ),
        "mlp_energy_reduction_pct": mlp["energy_per_weight_pct"] if mlp else "",
        "predictor_byte_share_pct": 100.0
        * modes["bitplane"]["predictor_byte_share"],
    }


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for entry in report["targets"]:
        row = _target_row(entry)
        writer.writerow({k: _fmt_num(row[k]) for k in CSV_COLUMNS})
    return buf.getvalue()


def render_summary(report: dict) -> str:
    header = (
        f"{'target':>6}  {'avg':>6}  {'bytes%':>7}  {'energy%':>8}  "
        f"{'latency%':>9}  {'attE%':>6}  {'attL%':>6}  {'mlpE%':>6}  {'pred%':>6}"
    )
    lines = [header, "-" * len(header)]
    for entry in report["targets"]:
        row = _target_row(entry)

        def cell(key, width):
            v = row[key]
            return " " * width if v == "" else f"{v:{width}.2f}"

        lines.append(
            f"{row['target_bits']:>6.2f}  {row['achieved_avg_bits']:>6.3f}  "
            f"{cell('byte_reduction_pct', 7)}  {cell('energy_reduction_pct', 8)}  "
            f"{cell('latency_reduction_pct', 9)}  "
            f"{cell('attention_energy_reduction_pct', 6)}  "
            f"{cell('attention_latency_reduction_pct', 6)}  "
            f"{cell('mlp_energy_reduction_pct', 6)}  "
            f"{cell('predictor_byte_share_pct', 6)}"
        )
    return "\n".join(lines)


def check_report(report: dict) -> None:
    """Reduction fields must be recomputable from the raw fields.

    Every field the summary and the CSV print must be a finite number.
    A missing field raises KeyError, and a value of the wrong type or a
    NaN or infinity (JSON's parser reads both) TypeError naming it;
    `cmd_report` turns both into a corrupted-report error.
    """
    if report.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"report schema version {report.get('schema_version')!r}, "
            f"this tool reads version {REPORT_SCHEMA_VERSION}"
        )
    if not isinstance(report.get("targets"), list) or not report["targets"]:
        raise ValueError("report has no targets")

    def expect(name, stored, plain, smart):
        want = reduction(plain, smart)
        if abs(stored - want) > 1e-6:
            raise ValueError(f"{name}: stored {stored} != recomputed {want}")

    for index, entry in enumerate(report["targets"]):

        def field(*path, numeric=False):
            """The entry's value at path: a number, or else an object."""
            value, name = entry, f"targets[{index}]"
            for key in path:
                if not isinstance(value, dict):
                    raise TypeError(f"{name} is not an object")
                value, name = value[key], f"{name}.{key}"
            if numeric:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError(f"{name} is not a number")
                if not math.isfinite(value):
                    raise TypeError(f"{name} is not finite, got {value}")
            elif not isinstance(value, dict):
                raise TypeError(f"{name} is not an object")
            return value

        def number(*path):
            return field(*path, numeric=True)

        tag = f"target {number('target_bits')}"
        for mode in TRACE_MODES:
            field("modes", mode)
        number("achieved_avg_bits")
        number("modes", "bitplane", "predictor_byte_share")
        for raw, pct in TOTAL_REDUCTIONS:
            expect(
                f"{tag} {pct}",
                number("reductions", pct),
                number("modes", "traditional", raw),
                number("modes", "bitplane", raw),
            )
        per_kind = field("reductions", "per_kind")
        for kind in per_kind:
            for raw, pct in KIND_REDUCTIONS:
                expect(
                    f"{tag} {kind} {pct}",
                    number("reductions", "per_kind", kind, pct),
                    number("modes", "traditional", "per_kind", kind, raw),
                    number("modes", "bitplane", "per_kind", kind, raw),
                )


def _load_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupted report {path}: {exc}")
    if not isinstance(data, dict):
        raise ValueError(f"corrupted report {path}: not a JSON object")
    return data


def cmd_pack(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    ladder = config.ladder
    with contextlib.ExitStack() as stack:
        if args.repack is not None:
            # load_image clears the padding, so the loaded planes are the
            # ones pack would build from the image's words.
            try:
                image, ladder = load_image(args.repack)
            except OSError as exc:
                raise ValueError(f"cannot read image: {exc}")
            count = image.num_weights
        elif args.weights is not None:
            try:
                fh = stack.enter_context(open(args.weights, "rb"))
            except OSError as exc:
                raise ValueError(f"cannot read weight file: {exc}")
            info = os.fstat(fh.fileno())
            # The file's size gives the word count before any block is read.
            if not stat.S_ISREG(info.st_mode):
                raise ValueError(f"weight file {args.weights} is not a regular file")
            size = info.st_size
            if not size:
                raise ValueError(f"weight file {args.weights} is empty")
            if size % 2:
                raise ValueError(
                    f"weight file {args.weights}: {size} bytes is not a "
                    f"whole number of FP16 words"
                )
            count = size // 2

            def read(lo, hi):
                # pack asks for its blocks in order, so each read picks up
                # where the last one ended.
                words = np.fromfile(fh, "<u2", count=hi - lo)
                if words.size != hi - lo:
                    raise ValueError(
                        f"weight file {args.weights}: ended at word {lo + words.size} "
                        f"of {count}"
                    )
                return words

        else:
            count = args.count if args.count is not None else config.geometry.total_weights
            if count <= 0:
                raise ValueError("weight count must be positive")
            rng = np.random.default_rng(config.seed)
            # Standard normals never leave FP16's finite range, so the seeded
            # source cannot manufacture specials.  pack reads its blocks in
            # order, and drawing them one after another gives the same words
            # as one draw of count.
            read = lambda lo, hi: rng.standard_normal(hi - lo).astype(np.float16).view(np.uint16)
        # A weight file or image must hold --count words, when it is given.
        if args.count is not None and args.count != count:
            raise ValueError(
                f"size mismatch: {args.repack or args.weights} holds {count} words, "
                f"expected {args.count}"
            )
        if args.repack is None:
            image = pack(count, read)

    path = args.image or os.path.join(_out_dir(config), "model.sqbp")
    save_image(image, ladder, path)
    print(f"weights: {image.num_weights}")
    print(f"plane_stride: {image.plane_stride}")
    print(f"footprint_bytes: {image.footprint_bytes}")
    print(f"image: {path}")
    return 0


def cmd_regions(args) -> int:
    config = load_config(args.config, out=args.out)
    count = args.count if args.count is not None else config.geometry.total_weights
    table = build_regions(count, config.ladder)
    text = json.dumps(region_report(table), sort_keys=True, indent=2) + "\n"
    if args.out is not None:
        path = os.path.join(_out_dir(config), "regions.json")
        write_file(path, text)
        print(f"regions: {path}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_trace(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    directory = enumerate_chunks(config.geometry)
    target = args.target if args.target is not None else config.targets[0]
    scores = gen_scores(directory, config.importance)
    _, assignment = solve_assignment(directory, scores, target, config.ladder, config.band_profile)
    out = _out_dir(config)
    tag = f"{target:g}"

    path = os.path.join(out, f"assignment_{tag}.csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("chunk_id", "kind", "score", "format"))
    scored = iter(scores.tolist())
    codes = zip(directory.kind.tolist(), assignment.codes.tolist())
    for chunk_id, (kind_code, code) in enumerate(codes):
        kind = KIND_LABELS[kind_code]
        score = "" if kind is ChunkKind.PREDICTOR else f"{next(scored):.10g}"
        writer.writerow((chunk_id, kind.value, score, assignment.ladder[code].name))
    write_file(path, buf.getvalue())
    print(f"assignment: {path}")

    modes = TRACE_MODES if args.mode == "both" else (args.mode,)
    for mode in modes:
        trace = gen_trace(assignment, directory, mode, config.guard)
        path = os.path.join(out, f"trace_{mode}_{tag}.txt")
        write_file(path, render_trace(trace))
        print(f"{mode}: {len(trace)} requests, {trace_bytes(trace)} bytes, {path}")
    return 0


def render_trace(trace: Trace) -> str:
    """Trace file text: one 'byte_addr len_bytes tag' line per row, the
    tag left out for an untagged one."""
    # Tag code -1 picks the trailing "".
    tags = [f" {getattr(label, 'value', label)}" for label in trace.labels] + [""]
    return "".join(
        f"{addr} {size}{tags[code]}\n"
        for addr, size, code in zip(trace.addr.tolist(), trace.size.tolist(), trace.tag.tolist())
    )


def parse_trace(path: str) -> Trace:
    """Read a trace file into columns, one row per line; tags become
    codes into the labels in order of first appearance, a missing tag
    code -1."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read trace: {exc}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read trace {path}: {exc}")
    addr, size, tag, line_of = [], [], [], []
    codes: dict = {}
    for lineno, line in enumerate(lines, 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) not in (2, 3):
            raise ValueError(
                f"{path}:{lineno}: expected 'byte_addr len_bytes tag',"
                f" got {line.strip()!r}"
            )
        try:
            values = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric address or length")
        # Bounded so that address + length fits the int64 columns.
        if max(map(abs, values)) >= 1 << 62:
            raise ValueError(f"{path}:{lineno}: address or length out of range")
        addr.append(values[0])
        size.append(values[1])
        tag.append(codes.setdefault(fields[2], len(codes)) if len(fields) == 3 else -1)
        line_of.append(lineno)
    addr, size, tag = (np.array(c, np.int64) for c in (addr, size, tag))
    bad = first_invalid(addr, size)
    if bad is not None:
        row, message = bad
        raise ValueError(f"{path}:{line_of[row]}: {message}")
    return Trace(addr, size, tag, tuple(codes))


def cmd_sim(args) -> int:
    config = load_config(args.config)
    trace = parse_trace(args.trace)
    result = simulate(config.dram, trace)
    payload = {
        "trace": args.trace,
        "requests": len(trace),
        "total_cycles": result.total_cycles,
        "total_ns": result.total_ns,
        "bytes_transferred": result.bytes_transferred,
        "num_acts": result.num_acts,
        "num_reads": result.num_reads,
        "energy_pj": dict(result.energy_pj),
    }
    if len(trace) and trace.tag.min() >= 0:
        payload["energy_by_tag_pj"] = energy_breakdown(result, trace)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.result is not None:
        write_file(args.result, text)
        print(f"result: {args.result}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_compare(args) -> int:
    started = time.time()
    config = load_config(args.config, args.seed, args.out)
    directory = enumerate_chunks(config.geometry)
    results = run_sweep(
        directory,
        config.importance,
        config.targets,
        config.guard,
        config.dram,
        config.ladder,
        config.band_profile,
    )
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": config.resolved,
        "targets": results,
    }
    check_report(report)

    out = _out_dir(config)
    json_path = os.path.join(out, "comparison.json")
    write_file(json_path, json.dumps(report, sort_keys=True, indent=2) + "\n")
    csv_path = os.path.join(out, "comparison.csv")
    write_file(csv_path, render_csv(report))
    # Anything time-dependent stays out of the report proper so reruns
    # with one config are byte-identical.
    meta = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "duration_s": round(time.time() - started, 3),
        "tool_version": __version__,
        "config_file": args.config or "(built-in defaults)",
    }
    meta_path = os.path.join(out, "comparison.meta.json")
    write_file(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")

    print(render_summary(report))
    print(f"report: {json_path}")
    print(f"csv: {csv_path}")
    return 0


def cmd_report(args) -> int:
    report = _load_report(args.report)
    try:
        check_report(report)
        summary, table = render_summary(report), render_csv(report)
    except KeyError as exc:
        raise ValueError(
            f"corrupted report {args.report}: missing field {exc.args[0]!r}"
        ) from None
    except TypeError as exc:
        raise ValueError(f"corrupted report {args.report}: {exc}") from None
    print(summary)
    if args.csv is not None:
        write_file(args.csv, table)
        print(f"csv: {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planestore",
        description="Bit-plane weight store vs traditional layout comparison harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "config": dict(help="YAML config merged over built-in defaults"),
        "seed": dict(type=int, help="override the configured seed"),
        "out": dict(help="override the output directory"),
    }

    def flags(p, *names):
        for name in names:
            p.add_argument(f"--{name}", **shared[name])

    p = sub.add_parser("pack", help="pack weights into a plane-store image")
    flags(p, "config", "seed", "out")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--weights", help="raw little-endian FP16 word file")
    src.add_argument("--repack", help="existing image to load and save again, padding cleared")
    p.add_argument(
        "--count", type=int, help="seeded-generator weight count, or the count a source must hold"
    )
    p.add_argument("--image", help="output image path (default <out>/model.sqbp)")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("regions", help="dump the bloated logical-space map")
    flags(p, "config", "out")
    p.add_argument("--count", type=int, help="weight count (default: geometry total)")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("trace", help="emit request traces and the assignment")
    flags(p, "config", "seed", "out")
    p.add_argument("--target", type=float, help="bits/weight target (default: first)")
    p.add_argument(
        "--mode",
        choices=(*TRACE_MODES, "both"),
        default="both",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sim", help="simulate a trace file")
    flags(p, "config")
    p.add_argument("trace", help="trace file, one 'byte_addr len_bytes tag' per line")
    p.add_argument("--result", help="write the JSON result here instead of stdout")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("compare", help="run the full sweep in both modes")
    flags(p, "config", "seed", "out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="re-render a stored comparison report")
    p.add_argument("report", help="comparison.json produced by compare")
    p.add_argument("--csv", help="also write the plot-ready CSV here")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
