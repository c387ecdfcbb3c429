"""Config loading and the command-line harness."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from planestore.address import Trace
from planestore.bitplane import ChunkKind, load_image, plane_stride_for, unpack_full
from planestore.cli import (
    CSV_COLUMNS,
    REPORT_SCHEMA_VERSION,
    check_report,
    main,
    parse_trace,
    render_trace,
)
from planestore.config import DEFAULTS, OUTPUT_DIR_ENV, default_config, load_config
from planestore.dram import DramConfig, run_trace
from planestore.experiment import (
    chunk_latency_deltas,
    compare_assignment,
    predictor_fraction,
    run_mode,
    solver_target,
)
from planestore.quant import FP8, NO_GUARD
from planestore.workload import (
    FormatAssignment,
    ModelGeometry,
    assign_formats,
    enumerate_chunks,
    gen_scores,
    solve_thresholds,
)

from reference import reference_trace


# Small enough to sweep in well under a second, with every chunk size a
# multiple of 512 so both layouts align exactly at full precision.
SMALL_YAML = """
seed: 7
targets: [4.8, 8.0]
geometry:
  layers: 1
  heads_per_layer: 4
  weights_per_head: 8192
  neurons_per_layer: 32
  weights_per_neuron: 4096
  predictor_weights_per_layer: 4096
importance:
  default: {family: uniform}
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_YAML)
    return str(path)


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- config


def test_default_config_resolves():
    cfg = default_config()
    assert cfg.seed == 1234
    assert cfg.targets == (1.6, 3.2, 4.8, 6.4, 8.0)
    assert [f.name for f in cfg.ladder] == ["FP16", "FP12", "FP8", "FP6", "FP4", "FP0"]
    assert cfg.geometry.total_weights == 8113536
    assert cfg.dram.channels == 4
    assert cfg.resolved == DEFAULTS


def test_checked_in_default_file_matches_builtins():
    path = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
    cfg = load_config(str(path), env={})
    assert cfg.resolved == DEFAULTS


def test_config_merge_is_partial(tmp_path, small_config):
    cfg = load_config(small_config, env={})
    # Overridden keys take, untouched keys keep their defaults.
    assert cfg.geometry.layers == 1
    assert cfg.dram.t_rcd == 34
    assert cfg.seed == 7


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "geometri: {layers: 2}\n")
    with pytest.raises(ValueError, match="unknown config key 'geometri'"):
        load_config(path, env={})
    path = write_config(tmp_path, "dram: {t_rcdx: 3}\n", "d.yaml")
    with pytest.raises(ValueError, match="dram.t_rcdx"):
        load_config(path, env={})


def test_importance_section_replaces_wholesale(tmp_path):
    path = write_config(tmp_path, "importance:\n  default: {family: uniform}\n")
    cfg = load_config(path, env={})
    # No leftovers from the default per-kind mixtures.
    assert cfg.importance.dist_for(ChunkKind.ATTENTION_HEAD).family == "uniform"


def test_importance_default_and_per_kind_conflict(tmp_path):
    path = write_config(
        tmp_path,
        "importance:\n"
        "  default: {family: uniform}\n"
        "  mlp_neuron: {family: uniform}\n",
    )
    with pytest.raises(ValueError, match="either 'default' or per-kind"):
        load_config(path, env={})


def test_importance_empty_rejected(tmp_path):
    path = write_config(tmp_path, "importance: {}\n")
    with pytest.raises(ValueError, match="importance needs"):
        load_config(path, env={})


def test_seed_and_out_overrides(small_config):
    cfg = load_config(small_config, seed=99, out="elsewhere", env={})
    assert cfg.seed == 99
    assert cfg.importance.seed == 99
    assert cfg.output_dir == "elsewhere"


def test_env_var_sets_output_dir(small_config):
    env = {OUTPUT_DIR_ENV: "from-env"}
    assert load_config(small_config, env=env).output_dir == "from-env"
    # An explicit flag still wins over the environment.
    assert load_config(small_config, out="flag", env=env).output_dir == "flag"


def test_config_ladder_is_constructed(tmp_path):
    path = write_config(
        tmp_path,
        "ladder:\n"
        "  - {name: FP16, exp_bits: 5, man_bits: 10}\n"
        "  - {name: FP0, exp_bits: 0, man_bits: 0}\n",
    )
    cfg = load_config(path, env={})
    assert [f.total_bits for f in cfg.ladder] == [16, 0]


def test_config_bad_bias_rejected(tmp_path):
    path = write_config(
        tmp_path,
        "ladder:\n"
        "  - {name: FP16, exp_bits: 5, man_bits: 10, bias: 14}\n"
        "  - {name: FP0, exp_bits: 0, man_bits: 0}\n",
    )
    with pytest.raises(ValueError, match="bias"):
        load_config(path, env={})


def test_empty_targets_rejected(tmp_path):
    path = write_config(tmp_path, "targets: []\n")
    with pytest.raises(ValueError, match="targets"):
        load_config(path, env={})


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "text, message",
    [
        ('dram:\n  channels: "4"\n', "'dram.channels' must be an integer, got '4'"),
        ("geometry:\n  layers: 1.5\n", "'geometry.layers' must be an integer, got 1.5"),
        ("dram:\n  clock_ns: fast\n", "'dram.clock_ns' must be a number"),
        ("targets: [1.6, eight]\n", "'targets[1]' must be a number"),
        ("importance:\n  default: {family: beta, a: two}\n",
         "'importance.default.a' must be a number"),
        # Representable in YAML, not in the memory model.
        ("dram:\n  burst_bytes: 128\n  interleave_bytes: 128\n", "burst_bytes must be 64"),
        ("dram:\n  t_ccd_s: 4\n", "t_ccd_s must be at least the 8-cycle burst"),
    ],
)
def test_bad_config_values_are_one_line_errors(tmp_path, capsys, text, message):
    path = write_config(tmp_path, text)
    assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert message in one_line_error(capsys)


# ------------------------------------------------------------------ pack


def test_pack_seeded_prints_footprint(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        ["pack", "--config", small_config, "--out", str(out), "--count", "1024"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "weights: 1024" in text
    assert "plane_stride: 128" in text
    assert "footprint_bytes: 2048" in text
    image, ladder = load_image(str(out / "model.sqbp"))
    assert image.num_weights == 1024
    assert [f.name for f in ladder][0] == "FP16"


def test_pack_from_raw_file_and_repack_identical(small_config, tmp_path):
    raw = tmp_path / "w.f16"
    rng = np.random.default_rng(3)
    rng.integers(0, 1 << 16, 4096, dtype=np.uint16).astype("<u2").tofile(raw)
    a, b = tmp_path / "a.sqbp", tmp_path / "b.sqbp"
    assert (
        main(["pack", "--config", small_config, "--weights", str(raw), "--image", str(a)])
        == 0
    )
    assert (
        main(["pack", "--config", small_config, "--repack", str(a), "--image", str(b)])
        == 0
    )
    assert a.read_bytes() == b.read_bytes()


def test_pack_error_paths(small_config, tmp_path, capsys):
    empty = tmp_path / "empty.f16"
    empty.write_bytes(b"")
    assert main(["pack", "--config", small_config, "--weights", str(empty)]) == 1
    assert "empty" in capsys.readouterr().err

    odd = tmp_path / "odd.f16"
    odd.write_bytes(b"\x00\x01\x02")
    assert main(["pack", "--config", small_config, "--weights", str(odd)]) == 1
    assert "whole number" in capsys.readouterr().err

    ok = tmp_path / "ok.f16"
    ok.write_bytes(b"\x00" * 64)
    rc = main(
        ["pack", "--config", small_config, "--weights", str(ok), "--count", "99"]
    )
    assert rc == 1
    assert "size mismatch" in capsys.readouterr().err

    assert main(["pack", "--config", small_config, "--weights", "no/such.f16"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_unencodable_ladder_leaves_the_old_image_alone(tmp_path, capsys):
    # A format name longer than the header's 255-byte field is rejected
    # before the destination is opened, so the image there stays whole.
    long_name = write_config(
        tmp_path,
        "ladder:\n"
        "  - {name: FP16, exp_bits: 5, man_bits: 10}\n"
        f"  - {{name: {'F' * 300}, exp_bits: 0, man_bits: 0}}\n",
    )
    image = tmp_path / "x.sqbp"
    assert main(["pack", "--count", "1024", "--image", str(image)]) == 0
    before = image.read_bytes()
    capsys.readouterr()
    assert main(["pack", "--config", long_name, "--count", "1024", "--image", str(image)]) == 1
    assert "format name too long" in one_line_error(capsys)
    assert image.read_bytes() == before


def test_outputs_are_rewritten_and_written_through_symlinks(small_config, tmp_path, capsys):
    # The second write replaces a longer image with a shorter one.
    image, fresh = tmp_path / "x.sqbp", tmp_path / "fresh.sqbp"
    for count, path in (("2048", image), ("64", image), ("64", fresh)):
        assert main(["pack", "--config", small_config, "--count", count, "--image", str(path)]) == 0
    assert image.read_bytes() == fresh.read_bytes()

    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("stale")
    link.symlink_to(target)
    trace = tmp_path / "t.txt"
    trace.write_text("0 64\n")
    assert main(["sim", "--config", small_config, str(trace), "--result", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["num_reads"] == 1


def test_repack_of_truncated_header_is_one_line_error(small_config, tmp_path, capsys):
    image = tmp_path / "a.sqbp"
    assert main(["pack", "--config", small_config, "--count", "64", "--image", str(image)]) == 0
    capsys.readouterr()
    whole = image.read_bytes()
    for cut in (10, 24, 30):  # inside the fixed header, then inside the ladder
        image.write_bytes(whole[:cut])
        assert main(["pack", "--config", small_config, "--repack", str(image)]) == 1
        assert "truncated header" in one_line_error(capsys)


def _relabel(whole: bytes, num_weights=None, stride=None) -> bytes:
    """Rewrite the num_weights (offset 6) and plane_stride (offset 14) fields."""
    out = bytearray(whole)
    if num_weights is not None:
        out[6:14] = struct.pack("<Q", num_weights)
    if stride is not None:
        out[14:22] = struct.pack("<Q", stride)
    return bytes(out)


@pytest.mark.parametrize(
    "edit, message",
    [
        # A consistent stride for 2**60 weights: 2**61 plane bytes, never allocated.
        (lambda b: _relabel(b, 2**60, plane_stride_for(2**60)), "truncated plane data"),
        (lambda b: _relabel(b, num_weights=2**60), "plane_stride 64 inconsistent"),
        (lambda b: _relabel(b, stride=2**62), f"plane_stride {2**62} inconsistent"),
        (lambda b: _relabel(b, num_weights=0), "image must hold at least one weight"),
        (lambda b: b + b"\x00", "trailing data"),
        (lambda b: b[:-1], "truncated plane data"),
        # The first ladder entry is FP16: length byte, 4 name bytes, then exp_bits.
        (lambda b: b[:29] + bytes([9]) + b[30:], "FP16: exp_bits must be in 1..5"),
    ],
    ids=[
        "huge-count", "huge-count-small-stride", "huge-stride", "no-weights", "trailing",
        "short", "bad-format",
    ],
)
def test_repack_of_lying_header_is_one_line_error(small_config, tmp_path, capsys, edit, message):
    image = tmp_path / "a.sqbp"
    assert main(["pack", "--config", small_config, "--count", "64", "--image", str(image)]) == 0
    capsys.readouterr()
    image.write_bytes(edit(image.read_bytes()))
    assert main(["pack", "--config", small_config, "--repack", str(image)]) == 1
    assert one_line_error(capsys).startswith(f"error: {image}: {message}")


def test_repack_zeroes_padding_bits(small_config, tmp_path):
    # 1001 weights: the last used byte of each plane holds one weight bit,
    # and two whole bytes of padding follow it up to the 128-byte stride.
    clean, dirty, out = tmp_path / "clean.sqbp", tmp_path / "dirty.sqbp", tmp_path / "out.sqbp"
    assert main(["pack", "--config", small_config, "--count", "1001", "--image", str(clean)]) == 0
    whole = bytearray(clean.read_bytes())
    stride = plane_stride_for(1001)
    planes = len(whole) - 16 * stride
    for p in range(16):
        row = planes + p * stride
        whole[row + 125] |= 0x7F
        whole[row + 126 : row + stride] = b"\xff" * (stride - 126)
    dirty.write_bytes(bytes(whole))
    image, _ = load_image(str(dirty))
    assert np.array_equal(unpack_full(image), unpack_full(load_image(str(clean))[0]))
    assert main(["pack", "--config", small_config, "--repack", str(dirty), "--image", str(out)]) == 0
    assert out.read_bytes() == clean.read_bytes() != dirty.read_bytes()


# --------------------------------------------------------------- regions


def test_regions_stdout_json(small_config, capsys):
    assert main(["regions", "--config", small_config]) == 0
    regions = json.loads(capsys.readouterr().out)
    assert [r["format"] for r in regions] == ["FP16", "FP12", "FP8", "FP6", "FP4"]
    total = ModelGeometry(1, 4, 8192, 32, 4096, 4096).total_weights
    assert all(r["size_bits"] == total * w for r, w in zip(regions, (16, 12, 8, 6, 4)))


def test_regions_file_output(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["regions", "--config", small_config, "--out", str(out)]) == 0
    capsys.readouterr()
    regions = json.loads((out / "regions.json").read_text())
    assert regions[0]["base_byte"] == 0


# ------------------------------------------------------------- trace/sim


def test_trace_writes_both_modes_and_assignment(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        ["trace", "--config", small_config, "--out", str(out), "--target", "4.8"]
    )
    assert rc == 0
    capsys.readouterr()
    kinds = {k.value for k in ChunkKind}
    for mode in ("bitplane", "traditional"):
        lines = (out / f"trace_{mode}_4.8.txt").read_text().splitlines()
        assert lines
        for line in lines:
            addr, length, tag = line.split()
            assert int(addr) % 64 == 0 and int(length) % 64 == 0
            assert tag in kinds

    rows = (out / "assignment_4.8.csv").read_text().splitlines()
    assert rows[0] == "chunk_id,kind,score,format"
    assert len(rows) == 1 + 4 + 32 + 1
    predictor_rows = [r for r in rows[1:] if r.split(",")[1] == "predictor"]
    assert predictor_rows and all(r.split(",")[2] == "" for r in predictor_rows)
    assert all(r.split(",")[3] == "FP16" for r in predictor_rows)


def test_trace_single_mode(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        [
            "trace", "--config", small_config, "--out", str(out),
            "--target", "8", "--mode", "bitplane",
        ]
    )
    assert rc == 0
    assert (out / "trace_bitplane_8.txt").exists()
    assert not (out / "trace_traditional_8.txt").exists()


def test_trace_files_match_the_reference_generator(tmp_path, capsys):
    # Chunk sizes off the 512-weight grid and guard planes, so plane
    # seams and guards show in the bitplane trace.
    text = SMALL_YAML.replace("8192", "1000").replace("4096", "700") + (
        "guard: {exp_bits: 1, man_bits: 1}\n"
    )
    config = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["trace", "--config", config, "--out", str(out), "--target", "4.8"]) == 0
    capsys.readouterr()
    cfg = load_config(config, env={})
    directory = enumerate_chunks(cfg.geometry)
    scores = gen_scores(directory, cfg.importance)
    thresholds = solve_thresholds(
        directory, scores, solver_target(4.8, predictor_fraction(directory)),
        cfg.ladder, cfg.band_profile,
    )
    assignment = assign_formats(directory, scores, thresholds)
    for mode in ("bitplane", "traditional"):
        rows = reference_trace(assignment, directory, mode, cfg.guard)
        expected = "".join(f"{r.byte_addr} {r.len_bytes} {r.kind.value}\n" for r in rows)
        assert (out / f"trace_{mode}_4.8.txt").read_bytes() == expected.encode()


def test_trace_text_round_trips_through_columns(tmp_path):
    path = tmp_path / "t.txt"
    text = "0 64 a\n4096 192\n128 64 b\n64 64 a\n"
    path.write_text(text)
    trace = parse_trace(str(path))
    assert trace.labels == ("a", "b")
    assert trace.tag.tolist() == [0, -1, 1, 0]
    assert render_trace(trace) == text


def test_sim_round_trip(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["trace", "--config", small_config, "--out", str(out), "--target", "4.8"])
    capsys.readouterr()
    trace = out / "trace_bitplane_4.8.txt"
    assert main(["sim", "--config", small_config, str(trace)]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = sum(int(l.split()[1]) for l in trace.read_text().splitlines())
    assert payload["bytes_transferred"] == expected
    assert payload["energy_pj"]["total"] == pytest.approx(
        sum(payload["energy_by_tag_pj"].values())
    )
    assert payload["total_ns"] > 0


def test_sim_result_file(small_config, tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("0 64 x\n64 64 y\n")
    result = tmp_path / "r.json"
    rc = main(["sim", "--config", small_config, str(trace), "--result", str(result)])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(result.read_text())
    assert payload["num_reads"] == 2


def test_sim_rejects_bad_lines(small_config, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 64 a\nnope 64 b\n")
    assert main(["sim", "--config", small_config, str(bad)]) == 1
    assert "non-numeric" in capsys.readouterr().err

    bad.write_text("0 64\n")
    assert main(["sim", "--config", small_config, str(bad)]) == 0
    capsys.readouterr()

    bad.write_text("13 64 a\n")
    assert main(["sim", "--config", small_config, str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.txt:1" in err

    # The first bad row is named, in one line, whatever follows it.
    for text, line, message in (
        ("0 64 a\n\n0 30 a\n0 0 a\n", 3, "request [0, +30) not 64B-granular"),
        ("0 0 a\n", 1, "request [0, +0) not 64B-granular"),
        ("64 64\n-64 64 a\n", 2, "request [-64, +64) starts at a negative address"),
        ("0 64 a\n18446744073709551616 64 a\n", 2, "address or length out of range"),
    ):
        bad.write_text(text)
        assert main(["sim", "--config", small_config, str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}:{line}: {message}\n"

    assert main(["sim", "--config", small_config, "no/such.trace"]) == 1
    assert "cannot read" in capsys.readouterr().err


# --------------------------------------------------------------- compare


def run_compare(config, out, capsys):
    assert main(["compare", "--config", config, "--out", str(out)]) == 0
    return capsys.readouterr().out


def test_compare_outputs(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    text = run_compare(small_config, out, capsys)
    assert "target" in text and "4.80" in text and "8.00" in text

    report = json.loads((out / "comparison.json").read_text())
    assert report["schema_version"] == REPORT_SCHEMA_VERSION
    assert report["config"]["seed"] == 7
    assert len(report["targets"]) == 2
    check_report(report)

    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 3
    # Bytes grow with the bits/weight target in both layouts.
    trad = [float(r.split(",")[2]) for r in rows[1:]]
    smart = [float(r.split(",")[3]) for r in rows[1:]]
    assert trad == sorted(trad) and smart == sorted(smart)

    meta = json.loads((out / "comparison.meta.json").read_text())
    assert "generated_at" in meta and "tool_version" in meta


def test_compare_deterministic_json(small_config, tmp_path, capsys):
    # The resolved config (output dir included) is embedded verbatim, so
    # "identical config" means rerunning into the same place.
    out = tmp_path / "out"
    run_compare(small_config, out, capsys)
    first = (out / "comparison.json").read_bytes()
    run_compare(small_config, out, capsys)
    assert (out / "comparison.json").read_bytes() == first


def test_compare_full_precision_target_is_parity(tmp_path, capsys):
    # Same geometry, one degenerate target keeping every chunk at FP16.
    cfg = write_config(
        tmp_path, SMALL_YAML.replace("targets: [4.8, 8.0]", "targets: [16.0]")
    )
    out = tmp_path / "out"
    run_compare(cfg, out, capsys)
    entry = json.loads((out / "comparison.json").read_text())["targets"][0]
    assert entry["achieved_avg_bits"] == 16.0
    # Chunk sizes here are 512-aligned, so the two layouts transfer
    # exactly the same bytes; energy differs only through placement.
    assert entry["reductions"]["bytes_pct"] == 0.0
    assert abs(entry["reductions"]["total_energy_pct"]) <= 5.0


def test_compare_infeasible_target_fails(tmp_path, capsys):
    cfg = write_config(
        tmp_path, SMALL_YAML.replace("targets: [4.8, 8.0]", "targets: [20.0]")
    )
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "achievable range" in capsys.readouterr().err


def test_chunk_latency_deltas_telescope_to_total():
    geometry = ModelGeometry(1, 4, 8192, 8, 4096, 4096)
    directory = enumerate_chunks(geometry)
    cfg = default_config()
    _, assignment = _small_assignment(cfg, directory)
    for mode in ("bitplane", "traditional"):
        summary = run_mode(directory, assignment, mode, NO_GUARD, cfg.dram)
        per_kind = summary["per_kind"]
        # Marginal per-chunk costs are non-negative and, load-counted,
        # cannot exceed the whole trace's span.
        for stats in per_kind.values():
            assert stats["mean_chunk_latency_ns"] >= 0.0
            assert stats["mean_chunk_latency_ns"] <= summary["total_latency_ns"]
        total_chunk_time = sum(
            stats["mean_chunk_latency_ns"] * stats["loaded_chunks"]
            for stats in per_kind.values()
        )
        assert total_chunk_time == pytest.approx(summary["total_latency_ns"])


def test_chunk_latency_takes_each_chunks_latest_completion():
    # Chunk 0 reads four blocks on channel 0, then one on channel 1; that
    # last read finishes at cycle 76, before channel 0's fourth at 112.
    # Chunk 1's read queues behind them on channel 0 and finishes at 124.
    trace = Trace([0, 256, 512, 768, 64, 1024], [64] * 6, chunk=[0, 0, 0, 0, 0, 1])
    result = run_trace(DramConfig(), trace)
    assert result.completion_cycles.tolist() == [76, 88, 100, 112, 76, 124]
    assert chunk_latency_deltas(trace, result, 1.0) == {0: 112.0, 1: 12.0}


def _small_assignment(cfg, directory):
    scores = gen_scores(directory, cfg.importance)
    inclusive = solver_target(6.0, predictor_fraction(directory))
    thresholds = solve_thresholds(
        directory, scores, inclusive, cfg.ladder, cfg.band_profile
    )
    return scores, assign_formats(directory, scores, thresholds)


def test_all_fp8_assignment_halves_bytes():
    geometry = ModelGeometry(1, 8, 8192, 0, 4096, 0)
    directory = enumerate_chunks(geometry)
    assignment = FormatAssignment((FP8,) * len(directory), (FP8,))
    cfg = default_config()
    result = compare_assignment(directory, assignment, NO_GUARD, cfg.dram)
    assert result["reductions"]["bytes_pct"] == 50.0
    assert 45.0 <= result["reductions"]["total_energy_pct"] <= 55.0


# ---------------------------------------------------------------- report


def test_report_rerenders_and_writes_csv(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    summary = run_compare(small_config, out, capsys)
    report_path = out / "comparison.json"
    csv_path = tmp_path / "replot.csv"
    assert main(["report", str(report_path), "--csv", str(csv_path)]) == 0
    text = capsys.readouterr().out
    assert summary.splitlines()[0] in text
    assert csv_path.read_text() == (out / "comparison.csv").read_text()


def test_report_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", str(bad)]) == 1
    assert "corrupted report" in capsys.readouterr().err


def test_report_rejects_schema_mismatch(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    run_compare(small_config, out, capsys)
    path = out / "comparison.json"
    data = json.loads(path.read_text())
    data["schema_version"] = REPORT_SCHEMA_VERSION + 1
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert "schema version" in err and str(REPORT_SCHEMA_VERSION) in err


def test_report_rejects_inconsistent_reductions(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    run_compare(small_config, out, capsys)
    path = out / "comparison.json"
    data = json.loads(path.read_text())
    data["targets"][0]["reductions"]["bytes_pct"] += 1.0
    path.write_text(json.dumps(data))
    assert main(["report", str(path)]) == 1
    assert "recomputed" in capsys.readouterr().err
