"""One measured process: set up, run one workload's command, check it.

Usage: python3 benchmarks/child.py <spec.json>

The spec (written by run.py) names the workload kind, the generated
config, the output paths and whether to trace.  The process times its
own set-up (import planestore, load the config, build the chunk
directory), then calls the user-facing CLI command in-process, records
its peak resident memory, and only then checks the outputs, so checking
costs neither time nor memory in the figures.  The result goes to the
spec's result_path as JSON.  With setup_only it stops after set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

MODES = ("bitplane", "traditional")
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _setup(spec: dict, tracer):
    """Import, load the config and (for sweeps) build the chunk directory."""
    from planestore import cli, config, workload

    if tracer is not None:
        tracer.install()
    cfg = config.load_config(spec["config_path"])
    if spec["kind"] == "sweep":
        workload.enumerate_chunks(cfg.geometry)
    return cli


def _run(cli, argvs: list) -> list:
    """Call each CLI command in turn; stop at the first non-zero exit."""
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
    return codes


def _sweep_argvs(spec: dict) -> list:
    return [["compare", "--config", spec["config_path"]]]


def _image_argvs(spec: dict) -> list:
    return [
        ["pack", "--config", spec["config_path"], "--count", str(spec["count"]),
         "--image", spec["image_path"]],
        ["pack", "--config", spec["config_path"], "--repack", spec["image_path"],
         "--image", spec["repack_path"]],
    ]


def _check_sweep(spec: dict, cli, codes: list) -> dict:
    """One op per (target, mode); record the deterministic model outputs."""
    targets = spec["targets"]
    if codes != [0]:
        return {"ops": [{"target": t, "mode": m, "ok": False, "why": f"exit {codes}"}
                        for t in targets for m in MODES]}
    with open(os.path.join(spec["out_dir"], "comparison.json"), "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    try:
        cli.check_report(report)
        report_error = None
    except (ValueError, KeyError, TypeError) as exc:
        report_error = f"check_report: {exc}"
    dram = report["config"]["dram"]

    ops, points = [], []
    for entry in report["targets"]:
        point = {
            "target_bits": entry["target_bits"],
            "bytes_pct": entry["reductions"]["bytes_pct"],
            "total_energy_pct": entry["reductions"]["total_energy_pct"],
            "total_latency_pct": entry["reductions"]["total_latency_pct"],
            "modes": {},
        }
        for mode in MODES:
            m = entry["modes"][mode]
            split = m["energy_breakdown_pj"]
            why = report_error
            if why is None and not _close(
                split["activation"] + split["read"] + split["background"], m["total_energy_pj"]
            ):
                why = "activation + read + background != total energy"
            if why is None and not _close(
                sum(k["energy_pj"] for k in m["per_kind"].values()), m["total_energy_pj"]
            ):
                why = "per-kind energies do not sum to the mode total"
            ops.append({"target": entry["target_bits"], "mode": mode, "ok": why is None,
                        "why": why})
            # The model charges e_act per ACT and e_rd per read burst, so the
            # energy split gives back the exact command counts.
            point["modes"][mode] = {
                "acts": round(split["activation"] / dram["e_act_pj"]),
                "reads": round(split["read"] / dram["e_rd_pj"]),
                "requests": m["requests"],
                "bytes": m["bytes"],
            }
        points.append(point)
    if [p["target_bits"] for p in points] != targets:
        for op in ops:
            op.update(ok=False, why="report targets differ from the config")
    bursts = sum(p["modes"][m]["reads"] for p in points for m in MODES)
    return {"ops": ops, "points": points, "bursts": bursts,
            "report_sha256": hashlib.sha256(raw).hexdigest()}


def _check_image(spec: dict, codes: list) -> dict:
    """Two ops: the packed image holds the seeded words; the repack is identical."""
    import numpy as np
    from planestore.bitplane import NUM_PLANES, load_image

    pack_why = repack_why = None
    if codes[:1] != [0]:
        pack_why = repack_why = f"exit {codes}"
    elif codes != [0, 0]:
        repack_why = f"exit {codes}"
    blocks = 0
    if pack_why is None:
        # The same seeded source `planestore pack` documents.
        rng = np.random.default_rng(spec["seed"])
        want = rng.standard_normal(spec["count"]).astype(np.float16).view(np.uint16)
        image, _ = load_image(spec["image_path"])
        got = np.zeros(image.num_weights, dtype=np.uint16)
        for p in range(NUM_PLANES):
            bits = np.unpackbits(image.plane_bytes(p), bitorder="big")[: image.num_weights]
            got |= bits.astype(np.uint16) << (15 - p)
        if not np.array_equal(got, want):
            pack_why = "image words differ from the seeded FP16 words"
        # pack writes the plane data once; repack reads it and writes it again.
        blocks = 3 * image.footprint_bytes // 64
    if repack_why is None:
        with open(spec["image_path"], "rb") as a, open(spec["repack_path"], "rb") as b:
            if a.read() != b.read():
                repack_why = "repacked image is not byte-identical"
    return {
        "ops": [
            {"target": None, "mode": "pack", "ok": pack_why is None, "why": pack_why},
            {"target": None, "mode": "repack", "ok": repack_why is None, "why": repack_why},
        ],
        "bursts": blocks,
    }


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src_dir"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # the script's own directory is on sys.path

        tracer = Tracer()
    out: dict = {}

    started = time.perf_counter()
    cli = _setup(spec, tracer)
    out["setup_s"] = time.perf_counter() - started
    if not spec["setup_only"]:
        setup_self = dict(tracer.self_s) if tracer else {}
        argvs = _sweep_argvs(spec) if spec["kind"] == "sweep" else _image_argvs(spec)
        started = time.perf_counter()
        try:
            codes = _run(cli, argvs)
        except Exception:  # a crash is a failed operation, reported below
            codes = ["exception: " + traceback.format_exc(limit=3)]
        out["run_s"] = time.perf_counter() - started
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["codes"] = codes
        if tracer is not None:
            out["trace"] = {
                "self_s": dict(tracer.self_s),
                "setup_self_s": setup_self,
                "calls": dict(tracer.calls),
                "series": dict(tracer.series),
            }
        if spec["kind"] == "sweep":
            out.update(_check_sweep(spec, cli, codes))
        else:
            out.update(_check_image(spec, codes))

    import numpy

    out["numpy_version"] = numpy.__version__
    out["python_version"] = sys.version.split()[0]
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
