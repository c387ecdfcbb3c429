"""planestore benchmark: host time, throughput and memory of the user commands.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload sweep-default --seed 7 --seconds 60 --trace 0

Workloads (why each was chosen: benchmarks/README.md):

    sweep-default  `planestore compare` on the shipped default grid
    image-repack   `planestore pack` of a seeded image, then `pack --repack`

The workload seed becomes the generated config's `seed`; the program
sees only that config and the argv built here.  Every measured run is a
fresh child process (benchmarks/child.py), started one after another:
a warm-up set-up first (it fills the bytecode cache and is discarded),
then full runs until the next one would overrun --seconds (at least one),
each followed by SETUP_PER_RUN set-up-only runs.  Every
figure is host time; simulated DRAM time and energy are model outputs,
checked and recorded, never gated.

--trace 0 prints the end-to-end metrics: the fastest run's time and
throughput, the fastest set-up and the smallest peak RSS.
--trace 1 adds one traced run first and prints the per-layer metrics
from it; the untraced runs then give the tracing overhead.

Every run's outputs are checked (one operation per (target, mode) point
of a sweep, two per image round trip), and the last stdout line is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
preceded by a provenance line and, for sweeps, the model outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import yaml

MODES = ("bitplane", "traditional")
SETUP_PER_RUN = 2  # set-up-only runs after each full run
TIME_LIMIT_S = 170.0  # the whole run, children included

IMAGE_WEIGHTS = 2_000_000
WORKLOADS = {"sweep-default": "sweep", "image-repack": "image"}  # name -> kind

# Counts the default seed must reproduce exactly on sweep-default
# (the ROADMAP baseline): (target_bits, mode, counter) -> value.
BASELINE_SEED = 1234
BASELINE = {
    (8.0, "traditional", "requests"): 198_396,
    (8.0, "traditional", "commands"): 202_180,
    (1.6, "bitplane", "acts"): 1_931,
    (1.6, "traditional", "acts"): 728,
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sim_bursts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict:
    units = {
        "config.load_config_s": "s",
        "workload.enumerate_chunks_s": "s",
        "workload.gen_scores_s": "s",
        "workload.solve_thresholds_s": "s",
        "workload.assign_formats_s": "s",
        "address.resolve_s": "s",
        "address.translate_s": "s",
        "address.translate_traditional_s": "s",
        "address.calls": "count",
        "experiment.run_sweep_s": "s",
        "cli.report_write_s": "s",
        "bitplane.pack_s": "s",
        "bitplane.save_image_s": "s",
        "bitplane.load_image_s": "s",
        "bitplane.unpack_full_s": "s",
        "cli.cmd_pack_s": "s",
    }
    for mode in MODES:
        units.update({
            f"workload.gen_trace_s.{mode}": "s",
            f"workload.requests.{mode}": "count",
            f"workload.trace_bytes.{mode}": "B",
            f"dram.schedule_s.{mode}": "s",
            f"dram.simulate_s.{mode}": "s",
            f"dram.host_ns_per_burst.{mode}": "ns",
            f"dram.bursts.{mode}": "count",
            f"dram.acts.{mode}": "count",
            f"dram.commands.{mode}": "count",
            f"dram.row_hit_ratio.{mode}": "ratio",
            f"dram.energy_breakdown_s.{mode}": "s",
            f"experiment.chunk_latency_deltas_s.{mode}": "s",
            f"experiment.run_mode_s.{mode}": "s",
        })
    return units


PER_LAYER = _per_layer_units()


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _check_benchmark_json(root: str) -> str | None:
    """BENCHMARK.json must list exactly the metrics this file emits."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"cannot read {path}: {exc}"
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if listed != emitted:
            return f"BENCHMARK.json {key} disagrees with benchmarks/run.py"
    if sorted(w["name"] for w in spec.get("workloads", [])) != sorted(WORKLOADS):
        return "BENCHMARK.json workloads disagree with benchmarks/run.py"
    return None


def _source_digest(root: str) -> str:
    """sha256 over the package sources and the shipped config, by path."""
    digest = hashlib.sha256()
    paths = [os.path.join("configs", "default.yaml")]
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        paths += [
            os.path.relpath(os.path.join(dirpath, f), root) for f in files if f.endswith(".py")
        ]
    for rel in sorted(paths):
        digest.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _git_sha(root: str) -> str | None:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    """Starts child processes one at a time inside one work directory."""

    def __init__(self, root: str, work: str, base_spec: dict, started: float):
        self.root = root
        self.work = work
        self.base_spec = base_spec
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k != "PLANESTORE_OUT"}
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def child(self, setup_only=False, trace=False) -> dict:
        self.count += 1
        tag = f"{self.count:03d}"
        spec = dict(self.base_spec, setup_only=setup_only, trace=trace)
        spec["result_path"] = os.path.join(self.work, f"result-{tag}.json")
        spec_path = os.path.join(self.work, f"spec-{tag}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        budget = TIME_LIMIT_S - (time.perf_counter() - self.started)
        began = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(self.root, "benchmarks", "child.py"), spec_path],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return {"error": "child timed out", "wall_s": time.perf_counter() - began}
        wall = time.perf_counter() - began
        if done.returncode != 0:
            return {"error": done.stderr.strip()[-2000:], "wall_s": wall}
        with open(spec["result_path"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        result["wall_s"] = wall
        return result


def _write_config(root: str, work: str, seed: int) -> tuple:
    with open(os.path.join(root, "configs", "default.yaml"), "r", encoding="utf-8") as fh:
        config = yaml.safe_load(fh)
    config["seed"] = seed
    # Relative to the checkout root (the children's cwd): the report embeds
    # this path, and its hash must not depend on where the checkout lives.
    config["output"] = {"dir": os.path.relpath(os.path.join(work, "out"), root)}
    path = os.path.join(work, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)
    return path, [float(t) for t in config["targets"]]


def _failed_ops(result: dict, expected_ops: int) -> tuple:
    """(attempted, failed) for one child, a crash failing every op."""
    if "error" in result or "ops" not in result:
        return expected_ops, expected_ops
    return len(result["ops"]), sum(1 for op in result["ops"] if not op["ok"])


def _baseline_misses(result: dict) -> list:
    """Pinned counts the result contradicts (report counts, and trace counts if traced)."""
    targets = [p["target_bits"] for p in result["points"]]
    series = result.get("trace", {}).get("series", {})
    misses = []
    for (bits, mode, counter), want in BASELINE.items():
        i = targets.index(bits)
        if counter == "commands":
            values = series.get(f"dram.commands.{mode}")
            got = values[i] if values else None
        else:
            got = result["points"][i]["modes"][mode][counter]
        if got is not None and got != want:
            misses.append(f"{bits} bits {mode} {counter}: {got} != {want}")
    return misses


def _trace_misses(result: dict) -> list:
    """Counts seen at the traced boundaries must match the report's."""
    series = result["trace"]["series"]
    misses = []
    for mode in MODES:
        for counter, key in (("requests", "workload.requests"), ("reads", "dram.bursts"),
                             ("acts", "dram.acts")):
            got = series.get(f"{key}.{mode}", [])
            want = [p["modes"][mode][counter] for p in result["points"]]
            if got != want:
                misses.append(f"{mode} {counter}: traced {got} != report {want}")
    return misses


def _per_layer(traced: dict) -> tuple:
    """Per-layer metrics, plus the run-phase accounting, from one traced run."""
    tr = traced["trace"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for span, seconds in tr["self_s"].items():
        module, _, rest = span.partition(".")
        func, _, mode = rest.partition(".")
        name = {"cli.cmd_compare": "cli.report_write_s"}.get(span, f"{module}.{func}_s")
        key = f"{name}.{mode}" if mode else name
        if key not in metrics:
            raise KeyError(f"span {span} has no per-layer metric")
        metrics[key] += seconds
    metrics["address.calls"] = sum(
        n for span, n in tr["calls"].items() if span.startswith("address.")
    )
    for key, values in tr["series"].items():
        metrics[key] = sum(values)
    for mode in MODES:
        if traced.get("points"):
            metrics[f"workload.trace_bytes.{mode}"] = sum(
                p["modes"][mode]["bytes"] for p in traced["points"]
            )
        bursts = metrics[f"dram.bursts.{mode}"]
        if bursts:
            metrics[f"dram.row_hit_ratio.{mode}"] = 1.0 - metrics[f"dram.acts.{mode}"] / bursts
            dram_s = metrics[f"dram.schedule_s.{mode}"] + metrics[f"dram.simulate_s.{mode}"]
            metrics[f"dram.host_ns_per_burst.{mode}"] = 1e9 * dram_s / bursts

    run_self = {
        span: s - tr["setup_self_s"].get(span, 0.0) for span, s in tr["self_s"].items()
    }
    attributed = sum(run_self.values())
    accounting = {
        "traced_run_s": traced["run_s"],
        "self_time_sum_s": attributed,
        "unattributed_s": traced["run_s"] - attributed,
        "shares_of_traced_run": {
            span: s / traced["run_s"]
            for span, s in sorted(run_self.items(), key=lambda kv: -kv[1])
            if s / traced["run_s"] >= 0.005
        },
    }
    return metrics, accounting


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    for needed in (os.path.join("src", "planestore", "cli.py"),
                   os.path.join("configs", "default.yaml")):
        if not os.path.isfile(os.path.join(root, needed)):
            return _fail(f"run from the root of a planestore checkout: no {needed}")
    problem = _check_benchmark_json(root)
    if problem:
        return _fail(problem)
    if args.seed < 0:
        return _fail("--seed must be non-negative")

    kind = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        config_path, targets = _write_config(root, work, args.seed)
        spec = {
            "kind": kind,
            "src_dir": os.path.join(root, "src"),
            "config_path": config_path,
            "out_dir": os.path.join(work, "out"),
            "targets": targets,
            "seed": args.seed,
            "count": IMAGE_WEIGHTS,
            "image_path": os.path.join(work, "model.sqbp"),
            "repack_path": os.path.join(work, "repacked.sqbp"),
        }
        return _measure(args, root, work, spec, kind, targets, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another workload's run still owns a work directory there


def _collect(runner: Runner, args) -> tuple:
    """Warm-up, optional traced run, then full runs until --seconds is spent."""
    warm = runner.child(setup_only=True)
    notes = [f"warm-up set-up failed: {warm['error']}"] if "error" in warm else []
    traced = runner.child(trace=True) if args.trace else None
    full, setups = [], []
    loop_started = time.perf_counter()
    while True:
        full.append(runner.child())
        if "error" in full[-1]:
            break
        setups.append(full[-1]["setup_s"])
        # Set-up samples are spread over the run, not bunched in one window
        # of host load, and the next full run starts only if it fits.
        if not args.trace:
            for _ in range(SETUP_PER_RUN):
                extra = runner.child(setup_only=True)
                if "setup_s" in extra:
                    setups.append(extra["setup_s"])
        now = time.perf_counter()
        if now - runner.started + (now - loop_started) / len(full) > args.seconds:
            break
    return traced, full, setups, notes


def _verify(args, results: list, expected_ops: int, notes: list) -> tuple:
    """(attempted, failed) over every run, after the cross-run checks."""
    attempted = failed = 0
    for result in results:
        n, bad = _failed_ops(result, expected_ops)
        attempted, failed = attempted + n, failed + bad
        if "error" in result:
            notes.append(f"run failed: {result['error']}")
    checked = [r for r in results if "points" in r]  # sweeps that wrote a report
    if checked:
        reference = checked[0]["report_sha256"]
        for result in checked:
            misses = []
            if result["report_sha256"] != reference:
                misses.append("comparison.json differs between runs of one seed")
            if "trace" in result:
                misses += _trace_misses(result)
            if args.workload == "sweep-default" and args.seed == BASELINE_SEED:
                misses += _baseline_misses(result)
            if misses:
                failed += sum(1 for op in result["ops"] if op["ok"])
                for op in result["ops"]:
                    op["ok"] = False
                notes += misses
    for result in results:
        for op in result.get("ops", []):
            if not op["ok"] and op["why"]:
                notes.append(f"{op['target']} {op['mode']}: {op['why']}")
    return attempted, failed


def _measure(args, root, work, spec, kind, targets, started) -> int:
    runner = Runner(root, work, spec, started)
    traced, full, setups, notes = _collect(runner, args)
    expected_ops = 2 * len(targets) if kind == "sweep" else 2
    everything = full + ([traced] if traced else [])
    attempted, failed = _verify(args, everything, expected_ops, notes)
    measured = [r for r in full if "error" not in r]
    checked = [r for r in everything if "points" in r]

    if not measured:
        print(json.dumps({"notes": notes[:20]}))
        return _fail("no measured run completed")

    median_run_s = statistics.median(r["run_s"] for r in measured)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "python": measured[0]["python_version"],
        "numpy": measured[0]["numpy_version"],
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "runs": len(measured),
        "run_s_each": [r["run_s"] for r in measured],
        "setup_s_each": setups,
        "peak_rss_mb_each": [r["peak_rss_mb"] for r in measured],
        "tracing_overhead_s": (traced["run_s"] - median_run_s) if traced and "run_s" in traced
        else None,
        "dram_model_validated": False,
    }
    print(json.dumps({"provenance": provenance}))
    if checked:
        print(json.dumps({"model": {
            "report_sha256": checked[0]["report_sha256"],
            "targets": checked[0]["points"],
        }}))
    if notes:
        print(json.dumps({"notes": sorted(set(notes))[:20]}))

    if args.trace:
        if traced is None or "error" in traced:
            return _fail("the traced run failed")
        metrics, accounting = _per_layer(traced)
        print(json.dumps({"accounting": accounting}))
        units = PER_LAYER
    else:
        # Host load only ever adds time to this deterministic, CPU-bound
        # work, and it comes in windows of minutes; the fastest sample of a
        # run is far steadier from run to run than the median (README.md).
        # Peak RSS likewise only gains from where huge pages happen to land.
        fastest = min(measured, key=lambda r: r["run_s"])
        metrics = {
            "setup_s": min(setups),
            "run_s": fastest["run_s"],
            "sim_bursts_per_s": fastest.get("bursts", 0) / fastest["run_s"],
            "peak_rss_mb": min(r["peak_rss_mb"] for r in measured),
        }
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
