"""Command-line harness: pack images, dump regions, trace, simulate, compare.

Subcommands share three flags: --config (YAML, merged over built-in
defaults), --seed and --out (explicit overrides).  `compare` is the main
entry: it runs the full target sweep in both layouts and writes a
deterministic JSON report (timestamps live in a .meta.json sidecar so
reruns with one config are byte-identical), a plot-ready CSV and a
summary table.  `report` re-renders a stored report without resimulating.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .address import Trace, build_regions, first_invalid, region_report
from .bitplane import ChunkKind, load_image, pack, save_image, unpack_full
from .config import ExperimentConfig, load_config
from .dram import energy_breakdown, run_trace
from .experiment import predictor_fraction, run_sweep, solver_target
from .files import write_file
from .workload import (
    assign_formats,
    enumerate_chunks,
    gen_scores,
    gen_trace,
    solve_thresholds,
    trace_bytes,
)

REPORT_SCHEMA_VERSION = 1

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
    """Reduction fields must be recomputable from the raw fields."""
    if report.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(
            f"report schema version {report.get('schema_version')!r}, "
            f"this tool reads version {REPORT_SCHEMA_VERSION}"
        )
    if not isinstance(report.get("targets"), list) or not report["targets"]:
        raise ValueError("report has no targets")

    def expect(name, stored, plain, smart):
        want = 0.0 if plain == 0 else 100.0 * (1.0 - smart / plain)
        if abs(stored - want) > 1e-6:
            raise ValueError(f"{name}: stored {stored} != recomputed {want}")

    for entry in report["targets"]:
        tag = f"target {entry['target_bits']}"
        smart, plain = entry["modes"]["bitplane"], entry["modes"]["traditional"]
        red = entry["reductions"]
        expect(f"{tag} bytes_pct", red["bytes_pct"], plain["bytes"], smart["bytes"])
        expect(
            f"{tag} total_energy_pct",
            red["total_energy_pct"],
            plain["total_energy_pj"],
            smart["total_energy_pj"],
        )
        expect(
            f"{tag} total_latency_pct",
            red["total_latency_pct"],
            plain["total_latency_ns"],
            smart["total_latency_ns"],
        )
        for kind, pair in red["per_kind"].items():
            expect(
                f"{tag} {kind} energy_per_weight_pct",
                pair["energy_per_weight_pct"],
                plain["per_kind"][kind]["energy_per_weight_pj"],
                smart["per_kind"][kind]["energy_per_weight_pj"],
            )
            expect(
                f"{tag} {kind} mean_chunk_latency_pct",
                pair["mean_chunk_latency_pct"],
                plain["per_kind"][kind]["mean_chunk_latency_ns"],
                smart["per_kind"][kind]["mean_chunk_latency_ns"],
            )


def _load_report(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupted report {path}: {exc}")
    if not isinstance(data, dict):
        raise ValueError(f"corrupted report {path}: not a JSON object")
    return data


def cmd_pack(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    ladder = config.ladder
    if args.repack is not None:
        image, ladder = load_image(args.repack)
        words = unpack_full(image)
    elif args.weights is not None:
        try:
            with open(args.weights, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read weight file: {exc}")
        if not raw:
            raise ValueError(f"weight file {args.weights} is empty")
        if len(raw) % 2:
            raise ValueError(
                f"weight file {args.weights}: {len(raw)} bytes is not a "
                f"whole number of FP16 words"
            )
        words = np.frombuffer(raw, dtype="<u2")
        if args.count is not None and args.count != words.size:
            raise ValueError(
                f"size mismatch: {args.weights} holds {words.size} words, "
                f"expected {args.count}"
            )
    else:
        count = args.count if args.count is not None else config.geometry.total_weights
        if count <= 0:
            raise ValueError("weight count must be positive")
        rng = np.random.default_rng(config.seed)
        # Standard normals never leave FP16's finite range, so the seeded
        # source cannot manufacture specials.
        words = rng.standard_normal(count).astype(np.float16).view(np.uint16)

    image = pack(words)
    path = args.image or os.path.join(_out_dir(config), "model.sqbp")
    save_image(image, ladder, path)
    print(f"weights: {image.num_weights}")
    print(f"plane_stride: {image.plane_stride}")
    print(f"footprint_bytes: {image.footprint_bytes}")
    print(f"image: {path}")
    return 0


def cmd_regions(args) -> int:
    config = load_config(args.config, args.seed, args.out)
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


def _solve_assignment(config: ExperimentConfig, directory, target: float):
    scores = gen_scores(directory, config.importance)
    inclusive = solver_target(target, predictor_fraction(directory))
    thresholds = solve_thresholds(
        directory, scores, inclusive, config.ladder, config.band_profile
    )
    return scores, assign_formats(directory, scores, thresholds)


def cmd_trace(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    directory = enumerate_chunks(config.geometry)
    target = args.target if args.target is not None else config.targets[0]
    scores, assignment = _solve_assignment(config, directory, target)
    out = _out_dir(config)
    tag = f"{target:g}"

    path = os.path.join(out, f"assignment_{tag}.csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("chunk_id", "kind", "score", "format"))
    scored = iter(scores)
    for chunk, fmt in zip(directory, assignment.formats):
        score = "" if chunk.kind is ChunkKind.PREDICTOR else f"{next(scored):.10g}"
        writer.writerow((chunk.chunk_id, chunk.kind.value, score, fmt.name))
    write_file(path, buf.getvalue())
    print(f"assignment: {path}")

    modes = ("bitplane", "traditional") if args.mode == "both" else (args.mode,)
    for mode in modes:
        trace = gen_trace(assignment, directory, mode, config.guard)
        path = os.path.join(out, f"trace_{mode}_{tag}.txt")
        write_file(path, render_trace(trace))
        print(f"{mode}: {len(trace)} requests, {trace_bytes(trace)} bytes, {path}")
    return 0


def render_trace(trace: Trace) -> str:
    """Trace file text: one 'byte_addr len_bytes tag' line per row, the
    tag left out for an untagged row."""
    # Tag code -1 picks the trailing "".
    tags = [f" {getattr(label, 'value', label)}" for label in trace.labels] + [""]
    return "".join(
        f"{addr} {size}{tags[code]}\n"
        for addr, size, code in zip(trace.addr.tolist(), trace.size.tolist(), trace.tag.tolist())
    )


def parse_trace(path: str) -> Trace:
    """Read a trace file into columns; tags become codes into the labels
    in order of first appearance, a missing tag code -1."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read trace: {exc}")
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
    addr, size = np.array(addr, np.int64), np.array(size, np.int64)
    bad = first_invalid(addr, size)
    if bad is not None:
        row, message = bad
        raise ValueError(f"{path}:{line_of[row]}: {message}")
    return Trace(addr, size, tag, tuple(codes))


def cmd_sim(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    trace = parse_trace(args.trace)
    result = run_trace(config.dram, trace)
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
        payload["energy_by_tag_pj"] = energy_breakdown(result, trace.tag, trace.labels)
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
    check_report(report)
    print(render_summary(report))
    if args.csv is not None:
        write_file(args.csv, render_csv(report))
        print(f"csv: {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planestore",
        description="Bit-plane weight store vs traditional layout comparison harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config merged over built-in defaults")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", help="override the output directory")

    p = sub.add_parser("pack", help="pack weights into a plane-store image")
    common(p)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--weights", help="raw little-endian FP16 word file")
    src.add_argument("--repack", help="existing image to unpack and repack")
    p.add_argument("--count", type=int, help="seeded-generator weight count")
    p.add_argument("--image", help="output image path (default <out>/model.sqbp)")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("regions", help="dump the bloated logical-space map")
    common(p)
    p.add_argument("--count", type=int, help="weight count (default: geometry total)")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("trace", help="emit request traces and the assignment")
    common(p)
    p.add_argument("--target", type=float, help="bits/weight target (default: first)")
    p.add_argument(
        "--mode",
        choices=("bitplane", "traditional", "both"),
        default="both",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sim", help="simulate a trace file")
    common(p)
    p.add_argument("trace", help="trace file, one 'byte_addr len_bytes tag' per line")
    p.add_argument("--result", help="write the JSON result here instead of stdout")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("compare", help="run the full sweep in both modes")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="re-render a stored comparison report")
    common(p)
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


if __name__ == "__main__":
    sys.exit(main())
